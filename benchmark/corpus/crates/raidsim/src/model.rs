//! Closed-form throughput predictions from §3.2.
//!
//! The paper gives exact expressions for the first two scenarios under a
//! single statically slow pair (`b < B`); the third delivers "the full
//! available bandwidth". These functions are the oracle the simulation is
//! validated against in the experiment suite.

/// Scenario 1 (equal static striping): one pair at `b` MB/s among `n`
/// pairs of `B` MB/s delivers `n · b`.
pub fn scenario1_throughput(n: usize, _big_b: f64, b: f64) -> f64 {
    n as f64 * b
}

/// Scenario 2 (proportional static striping, correctly gauged):
/// `(n − 1) · B + b`.
pub fn scenario2_throughput(n: usize, big_b: f64, b: f64) -> f64 {
    (n as f64 - 1.0) * big_b + b
}

/// Scenario 3 (adaptive): the full available bandwidth — the sum of the
/// pairs' current rates.
pub fn scenario3_throughput(rates: &[f64]) -> f64 {
    rates.iter().sum()
}

/// The fraction of raw bandwidth a fail-stop design wastes for a given
/// slow-pair ratio `b/B`: `1 − (n·b) / ((n−1)·B + b)` relative to what the
/// same hardware could deliver.
pub fn scenario1_waste(n: usize, big_b: f64, b: f64) -> f64 {
    1.0 - scenario1_throughput(n, big_b, b) / scenario3_throughput_uniform(n, big_b, b)
}

fn scenario3_throughput_uniform(n: usize, big_b: f64, b: f64) -> f64 {
    (n as f64 - 1.0) * big_b + b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_expressions() {
        // N = 4, B = 10, b = 5.
        assert_eq!(scenario1_throughput(4, 10.0, 5.0), 20.0);
        assert_eq!(scenario2_throughput(4, 10.0, 5.0), 35.0);
        assert_eq!(scenario3_throughput(&[10.0, 10.0, 10.0, 5.0]), 35.0);
    }

    #[test]
    fn no_slow_pair_no_gap() {
        assert_eq!(scenario1_throughput(8, 10.0, 10.0), 80.0);
        assert_eq!(scenario2_throughput(8, 10.0, 10.0), 80.0);
        assert!(scenario1_waste(8, 10.0, 10.0).abs() < 1e-12);
    }

    #[test]
    fn waste_grows_as_b_shrinks() {
        let w_half = scenario1_waste(4, 10.0, 5.0);
        let w_tenth = scenario1_waste(4, 10.0, 1.0);
        assert!(w_tenth > w_half);
        assert!((w_half - (1.0 - 20.0 / 35.0)).abs() < 1e-12);
    }
}
