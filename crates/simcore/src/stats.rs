//! Online statistics for simulation measurement.
//!
//! All collectors are deterministic and allocation-light:
//!
//! * [`Ewma`] — exponentially weighted moving average (the paper's adaptive
//!   mechanisms are built on this).
//! * [`Histogram`] — log-bucketed histogram with quantile queries, suitable
//!   for latency distributions spanning many decades.
//! * [`Series`] — a recorded `(time, value)` trace for figure generation.

use crate::time::SimTime;

/// Exponentially weighted moving average.
///
/// The first observation initialises the average directly, so `Ewma` needs
/// no warm-up bias correction.
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// Larger `alpha` tracks changes faster; smaller `alpha` smooths more.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1], got {alpha}");
        Ewma { alpha, value: None }
    }

    /// Feeds one observation and returns the updated average.
    // Inlined into each caller across crates: every plane observation
    // smooths through it.
    #[inline]
    pub fn observe(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation has been made.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current average, or `default` before the first observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

/// Log-bucketed histogram over positive values with quantile queries.
///
/// Values are mapped to buckets of constant relative width (default ~4.4%
/// with 16 buckets per octave), so quantile error is bounded by the relative
/// width across any range of magnitudes.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    sub: u32,
    count: u64,
    underflow: u64,
    sum: f64,
    max_seen: f64,
}

const HIST_OCTAVES: u32 = 64;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a histogram with 16 sub-buckets per octave (relative error
    /// ≈ `ln 2 / 16`).
    pub fn new() -> Self {
        let sub = 16;
        Histogram {
            buckets: vec![0; (HIST_OCTAVES * sub) as usize],
            sub,
            count: 0,
            underflow: 0,
            sum: 0.0,
            max_seen: 0.0,
        }
    }

    fn index_of(&self, x: f64) -> Option<usize> {
        if x < 1.0 {
            return None;
        }
        let log2 = x.log2();
        let idx = (log2 * self.sub as f64) as usize;
        Some(idx.min(self.buckets.len() - 1))
    }

    fn bucket_value(&self, idx: usize) -> f64 {
        // Geometric midpoint of the bucket.
        2f64.powf((idx as f64 + 0.5) / self.sub as f64)
    }

    /// Records one observation. Values below 1.0 (including negatives) land
    /// in a dedicated underflow bucket that reports as 0 in quantiles.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.max_seen = self.max_seen.max(x);
        if let Some(i) = self.index_of(x) {
            self.buckets[i] += 1;
        } else {
            self.underflow += 1;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded observations, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest recorded observation.
    pub fn max(&self) -> f64 {
        self.max_seen
    }

    /// Returns the `q`-quantile (`q` in `[0, 1]`), approximated to the
    /// bucket's relative width. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return 0.0;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bucket_value(i);
            }
        }
        self.max_seen
    }
}

/// A recorded `(time, value)` trace, the raw material of a figure.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Appends a point. Times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded time.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "series time went backwards");
        }
        self.points.push((t, v));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Minimum value, or +inf if empty.
    pub fn min(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).min_by(f64::total_cmp).unwrap_or(f64::INFINITY)
    }

    /// Maximum value, or -inf if empty.
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).max_by(f64::total_cmp).unwrap_or(f64::NEG_INFINITY)
    }
}

/// Computes an exact quantile of a sample set (for tests and reports).
///
/// # Panics
///
/// Panics if `samples` is empty or `q` is outside `[0, 1]`.
pub fn exact_quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of empty sample set");
    assert!((0.0..=1.0).contains(&q));
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_observation_initialises() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(-1.0), -1.0);
        assert_eq!(e.observe(10.0), 10.0);
        assert_eq!(e.observe(0.0), 5.0);
        assert_eq!(e.observe(5.0), 5.0);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..100 {
            e.observe(42.0);
        }
        assert!((e.value().expect("seen data") - 42.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_bounded_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000u32 {
            h.record(f64::from(i));
        }
        for &(q, expect) in &[(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            assert!((got / expect - 1.0).abs() < 0.06, "q{q}: got {got}, expected ~{expect}");
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.mean() - 5_000.5).abs() < 1e-6);
        assert_eq!(h.max(), 10_000.0);
    }

    #[test]
    fn histogram_underflow_counts_as_zero() {
        let mut h = Histogram::new();
        h.record(0.5);
        h.record(0.5);
        h.record(100.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.quantile(1.0) > 90.0);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn series_records_points() {
        let mut s = Series::new();
        for i in 0..100 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.points().len(), 100);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 99.0);
    }

    #[test]
    #[should_panic]
    fn series_rejects_backwards_time() {
        let mut s = Series::new();
        s.push(SimTime::from_secs(2), 0.0);
        s.push(SimTime::from_secs(1), 0.0);
    }

    #[test]
    fn exact_quantile_sorts_and_selects() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(exact_quantile(&mut v, 0.5), 3.0);
        assert_eq!(exact_quantile(&mut v, 0.0), 1.0);
        assert_eq!(exact_quantile(&mut v, 1.0), 5.0);
    }
}
