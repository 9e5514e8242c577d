//! Additive-increase / multiplicative-decrease rate control.
//!
//! Paper §4: "The networking literature is replete with examples of
//! adaptation and design for variable performance, with the prime example
//! of TCP. We believe that similar techniques will need to be employed in
//! the development of adaptive, fail-stutter fault-tolerant algorithms."
//!
//! [`Aimd`] is the canonical controller: probe upward additively, back off
//! multiplicatively on a congestion (performance-fault) signal. Competing
//! AIMD controllers sharing a bottleneck converge toward fair shares,
//! which is what makes the scheme suitable for sharing a stuttering
//! resource.

/// An AIMD rate controller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aimd {
    rate: f64,
    increase: f64,
    decrease: f64,
    floor: f64,
    ceiling: f64,
}

impl Aimd {
    /// Creates a controller starting at `initial`, adding `increase` per
    /// good round and multiplying by `decrease` on a bad one, clamped to
    /// `[floor, ceiling]`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters, `decrease` outside `(0, 1)`, or
    /// an empty clamp interval.
    pub fn new(initial: f64, increase: f64, decrease: f64, floor: f64, ceiling: f64) -> Self {
        assert!(initial > 0.0 && increase > 0.0, "rates must be positive");
        assert!(decrease > 0.0 && decrease < 1.0, "decrease must be in (0,1)");
        assert!(floor > 0.0 && floor <= ceiling, "invalid clamp [{floor}, {ceiling}]");
        Aimd { rate: initial.clamp(floor, ceiling), increase, decrease, floor, ceiling }
    }

    /// The current send rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Signals a successful round: additive increase.
    pub fn on_success(&mut self) -> f64 {
        self.rate = (self.rate + self.increase).min(self.ceiling);
        self.rate
    }

    /// Signals congestion or a performance fault: multiplicative decrease.
    pub fn on_congestion(&mut self) -> f64 {
        self.rate = (self.rate * self.decrease).max(self.floor);
        self.rate
    }
}

/// Simulates `flows` AIMD controllers sharing a bottleneck of `capacity`
/// for `rounds` rounds; every flow backs off in rounds where aggregate
/// demand exceeds capacity. Returns the final per-flow rates.
pub fn share_bottleneck(flows: usize, capacity: f64, rounds: u32, initial: &[f64]) -> Vec<f64> {
    assert_eq!(initial.len(), flows, "one initial rate per flow");
    let mut ctrls: Vec<Aimd> = initial
        .iter()
        .map(|&r| Aimd::new(r, capacity / 100.0, 0.5, capacity / 1e6, capacity))
        .collect();
    for _ in 0..rounds {
        let demand: f64 = ctrls.iter().map(|c| c.rate()).sum();
        if demand > capacity {
            for c in &mut ctrls {
                c.on_congestion();
            }
        } else {
            for c in &mut ctrls {
                c.on_success();
            }
        }
    }
    ctrls.iter().map(|c| c.rate()).collect()
}

/// Jain's fairness index: 1.0 = perfectly fair.
pub fn fairness_index(rates: &[f64]) -> f64 {
    let n = rates.len() as f64;
    let sum: f64 = rates.iter().sum();
    let sum_sq: f64 = rates.iter().map(|r| r * r).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increase_and_decrease() {
        let mut a = Aimd::new(10.0, 1.0, 0.5, 0.1, 100.0);
        assert_eq!(a.on_success(), 11.0);
        assert_eq!(a.on_congestion(), 5.5);
    }

    #[test]
    fn clamped_to_bounds() {
        let mut a = Aimd::new(10.0, 50.0, 0.01, 5.0, 20.0);
        assert_eq!(a.on_success(), 20.0);
        assert_eq!(a.on_congestion(), 5.0);
    }

    #[test]
    fn unequal_starts_converge_to_fairness() {
        // The classic AIMD convergence result.
        let rates = share_bottleneck(2, 100.0, 2_000, &[90.0, 1.0]);
        let f = fairness_index(&rates);
        assert!(f > 0.95, "fairness {f}, rates {rates:?}");
    }

    #[test]
    fn aggregate_tracks_capacity() {
        let rates = share_bottleneck(4, 100.0, 2_000, &[1.0, 2.0, 3.0, 4.0]);
        let sum: f64 = rates.iter().sum();
        assert!(sum > 50.0 && sum <= 110.0, "aggregate {sum}");
    }

    #[test]
    fn fairness_index_extremes() {
        assert!((fairness_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skewed = fairness_index(&[10.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
    }
}
