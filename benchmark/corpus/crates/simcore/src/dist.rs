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

    /// The distribution mean, where defined.
    fn mean(&self) -> f64;
}

/// A distribution that always returns the same value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut Stream) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
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
    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
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

    /// Creates an exponential distribution with the given event rate.
    pub fn with_rate(rate: f64) -> Self {
        Self::with_mean(1.0 / rate)
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Stream) -> f64 {
        // Inverse CDF; `1 - u` avoids ln(0).
        -self.mean * (1.0 - rng.next_f64()).ln()
    }
    fn mean(&self) -> f64 {
        self.mean
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
    fn mean(&self) -> f64 {
        self.mu
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
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// The Pareto distribution with scale `x_min` and shape `alpha`.
///
/// Heavy-tailed; models long-lived stutters and hog durations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pareto {
    /// Minimum (scale) value; all samples are at least this.
    pub x_min: f64,
    /// Tail index; smaller is heavier.
    pub alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics if `x_min` or `alpha` is not positive.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0, "x_min must be positive, got {x_min}");
        assert!(alpha > 0.0, "alpha must be positive, got {alpha}");
        Pareto { x_min, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut Stream) -> f64 {
        self.x_min / (1.0 - rng.next_f64()).powf(1.0 / self.alpha)
    }
    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.x_min / (self.alpha - 1.0)
        }
    }
}

/// The Weibull distribution with scale `lambda` and shape `k`.
///
/// The classical lifetime distribution: `k < 1` models infant mortality,
/// `k > 1` wear-out — which is exactly the failure process behind the
/// fail-stutter wear-out injector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Weibull {
    /// Scale parameter (characteristic life).
    pub lambda: f64,
    /// Shape parameter.
    pub k: f64,
}

impl Weibull {
    /// Creates a Weibull distribution.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive.
    pub fn new(lambda: f64, k: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive, got {lambda}");
        assert!(k > 0.0, "k must be positive, got {k}");
        Weibull { lambda, k }
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut Stream) -> f64 {
        // Inverse CDF.
        self.lambda * (-(1.0 - rng.next_f64()).ln()).powf(1.0 / self.k)
    }
    fn mean(&self) -> f64 {
        self.lambda * gamma(1.0 + 1.0 / self.k)
    }
}

/// The gamma function via the Lanczos approximation (g = 7, n = 9),
/// accurate to ~1e-13 for positive arguments.
pub fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        core::f64::consts::PI / ((core::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * core::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
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
    fn mean(&self) -> f64 {
        self.p * self.a + (1.0 - self.p) * self.b
    }
}

/// Zipf-distributed ranks over `{1, ..., n}` with exponent `s`.
///
/// Sampled by inversion over the precomputed CDF; suitable for skewed key
/// popularity in hash-table workloads.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("non-empty");
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `[0, n)` (zero-based).
    pub fn sample_rank(&self, rng: &mut Stream) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
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
    fn constant_is_constant() {
        let d = Constant(3.5);
        let mut rng = Stream::from_seed(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
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
        assert!((Exponential::with_rate(0.5).mean() - 2.0).abs() < 1e-12);
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
    fn pareto_respects_x_min_and_mean() {
        let d = Pareto::new(1.0, 3.0);
        let mut rng = Stream::from_seed(8);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 1.0);
        }
        assert!((d.mean() - 1.5).abs() < 1e-12);
        assert!(Pareto::new(1.0, 0.9).mean().is_infinite());
    }

    #[test]
    fn gamma_matches_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - core::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(2.0, 1.0);
        assert!((w.mean() - 2.0).abs() < 1e-10);
        assert!((mean_of(&w, 21, 100_000) - 2.0).abs() < 0.05);
    }

    #[test]
    fn weibull_wearout_shape_concentrates() {
        // k = 3: coefficient of variation well below the exponential's 1.
        let w = Weibull::new(1.0, 3.0);
        let mut rng = Stream::from_seed(22);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| w.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let sd = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!(sd / mean < 0.45, "cv {}", sd / mean);
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn two_point_mixes() {
        let d = TwoPoint { p: 0.8, a: 1.0, b: 0.2 };
        assert!((mean_of(&d, 9, 100_000) - 0.84).abs() < 0.01);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Stream::from_seed(10);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
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
