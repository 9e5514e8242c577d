//! Probability distributions for workload and fault modelling.
//!
//! Distributions are small value types sampled against a [`Stream`]; they
//! carry no RNG state of their own, so the same distribution object can be
//! shared by many components without coupling their streams.

use crate::rng::Stream;

/// A samplable distribution over `f64`.
pub trait Distribution {
    /// Draws one sample using the given stream.
    fn sample(&self, rng: &mut Stream) -> f64;
}

/// The uniform distribution on `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "uniform bounds out of order: [{lo}, {hi})");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut Stream) -> f64 {
        rng.next_f64_range(self.lo, self.hi)
    }
}

/// The exponential distribution with a given mean (i.e. rate `1/mean`).
///
/// Used for memoryless inter-arrival times such as SCSI timeout arrivals.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0, "exponential mean must be positive, got {mean}");
        Exponential { mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Stream) -> f64 {
        // Inverse CDF; `1 - u` avoids ln(0).
        -self.mean * (1.0 - rng.next_f64()).ln()
    }
}

/// The normal distribution, sampled by the Box–Muller transform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mu: f64,
    /// Standard deviation.
    pub sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        Normal { mu, sigma }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Stream) -> f64 {
        let u1 = 1.0 - rng.next_f64();
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        self.mu + self.sigma * z
    }
}

/// The log-normal distribution, parameterised by the underlying normal.
///
/// Heavy-ish right tail; a good model for service-time stutter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution from the underlying normal
    /// parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal with a target *median* and shape `sigma`.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive, got {median}");
        Self::new(median.ln(), sigma)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Stream) -> f64 {
        Normal::new(self.mu, self.sigma).sample(rng).exp()
    }
}

/// A two-point mixture: value `a` with probability `p`, else value `b`.
///
/// Captures bimodal behaviour such as the Vesta measurements (near-peak
/// cluster plus a low tail).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TwoPoint {
    /// Probability of drawing `a`.
    pub p: f64,
    /// The value drawn with probability `p`.
    pub a: f64,
    /// The value drawn otherwise.
    pub b: f64,
}

impl Distribution for TwoPoint {
    fn sample(&self, rng: &mut Stream) -> f64 {
        if rng.next_bool(self.p) {
            self.a
        } else {
            self.b
        }
    }
}

/// Picks indices according to fixed non-negative weights.
#[derive(Clone, Debug)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
}

impl WeightedIndex {
    /// Creates a weighted chooser over the given weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative weight, or sums to
    /// zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0, "negative weight {w}");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights sum to zero");
        WeightedIndex { cumulative }
    }

    /// Draws an index with probability proportional to its weight.
    pub fn sample(&self, rng: &mut Stream) -> usize {
        // fslint: allow(panic-path) — the constructor asserts a positive weight sum, so cumulative is non-empty
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.next_f64() * total;
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &impl Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = Stream::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = Stream::from_seed(2);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        assert!((mean_of(&d, 3, 50_000) - 4.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(2.0);
        assert!((mean_of(&d, 4, 100_000) - 2.0).abs() < 0.05);
    }

    #[test]
    fn exponential_is_non_negative() {
        let d = Exponential::with_mean(1.0);
        let mut rng = Stream::from_seed(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_mean_and_spread() {
        let d = Normal::new(10.0, 3.0);
        let mut rng = Stream::from_seed(6);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn lognormal_positive_and_median() {
        let d = LogNormal::with_median(5.0, 0.5);
        let mut rng = Stream::from_seed(7);
        let mut samples: Vec<f64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        assert!(samples[0] > 0.0);
        let median = samples[5_000];
        assert!((median - 5.0).abs() < 0.3, "median {median}");
    }

    #[test]
    fn two_point_mixes() {
        let d = TwoPoint { p: 0.8, a: 1.0, b: 0.2 };
        assert!((mean_of(&d, 9, 100_000) - 0.84).abs() < 0.01);
    }

    #[test]
    fn weighted_index_tracks_weights() {
        let w = WeightedIndex::new(&[1.0, 3.0]);
        let mut rng = Stream::from_seed(11);
        let ones = (0..100_000).filter(|_| w.sample(&mut rng) == 1).count();
        assert!((ones as f64 / 100_000.0 - 0.75).abs() < 0.01);
    }

    #[test]
    #[should_panic]
    fn weighted_index_rejects_zero_total() {
        let _ = WeightedIndex::new(&[0.0, 0.0]);
    }
}
