//! Online statistics for simulation measurement.
//!
//! All collectors are deterministic and allocation-light:
//!
//! * [`Welford`] — streaming mean/variance.
//! * [`Ewma`] — exponentially weighted moving average (the paper's adaptive
//!   mechanisms are built on this).
//! * [`Histogram`] — log-bucketed histogram with quantile queries, suitable
//!   for latency distributions spanning many decades.
//! * [`TimeWeighted`] — time-weighted average of a piecewise-constant signal
//!   (e.g. queue depth or delivered bandwidth over simulated time).
//! * [`Series`] — a recorded `(time, value)` trace for figure generation.

use crate::time::SimTime;

/// Streaming mean and variance (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance, or 0 if fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std dev / mean), or 0 for zero mean.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Smallest observation, or +inf if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or -inf if empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

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

    /// Discards all history.
    pub fn reset(&mut self) {
        self.value = None;
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
    /// Creates a histogram with 16 sub-buckets per octave.
    pub fn new() -> Self {
        Self::with_resolution(16)
    }

    /// Creates a histogram with `sub` sub-buckets per octave (relative
    /// error ≈ `ln 2 / sub`).
    ///
    /// # Panics
    ///
    /// Panics if `sub` is zero.
    pub fn with_resolution(sub: u32) -> Self {
        assert!(sub > 0, "need at least one sub-bucket per octave");
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

    /// Convenience accessor for the median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Call [`set`](Self::set) whenever the signal changes; the collector
/// integrates `value · dt` between changes.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_time: SimTime,
    current: f64,
    integral: f64,
    start: SimTime,
    max: f64,
}

impl TimeWeighted {
    /// Creates a collector starting at `start` with initial signal `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted { last_time: start, current: value, integral: 0.0, start, max: value }
    }

    /// Updates the signal to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: f64) {
        assert!(now >= self.last_time, "time went backwards");
        self.integral += self.current * (now - self.last_time).as_secs_f64();
        self.last_time = now;
        self.current = value;
        self.max = self.max.max(value);
    }

    /// Adds `delta` to the signal at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.current + delta;
        self.set(now, v);
    }

    /// Current signal value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Largest signal value seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-weighted mean of the signal over `[start, now]`.
    pub fn mean_until(&self, now: SimTime) -> f64 {
        let total = (now - self.start).as_secs_f64();
        if total <= 0.0 {
            return self.current;
        }
        let integral = self.integral + self.current * (now - self.last_time).as_secs_f64();
        integral / total
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

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values (unweighted).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Minimum value, or +inf if empty.
    pub fn min(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).min_by(f64::total_cmp).unwrap_or(f64::INFINITY)
    }

    /// Maximum value, or -inf if empty.
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).max_by(f64::total_cmp).unwrap_or(f64::NEG_INFINITY)
    }

    /// Downsamples to at most `n` points by stride, preserving endpoints.
    pub fn thin(&self, n: usize) -> Series {
        if n == 0 || self.points.len() <= n {
            return self.clone();
        }
        let stride = self.points.len().div_ceil(n);
        let mut points: Vec<(SimTime, f64)> = self.points.iter().step_by(stride).copied().collect();
        if points.last() != self.points.last() {
            points.push(*self.points.last().expect("non-empty"));
        }
        Series { points }
    }
}

/// A throughput meter: counts units of work and reports rates per second.
#[derive(Clone, Debug)]
pub struct RateMeter {
    start: SimTime,
    units: f64,
}

impl RateMeter {
    /// Creates a meter starting at `start`.
    pub fn new(start: SimTime) -> Self {
        RateMeter { start, units: 0.0 }
    }

    /// Records `units` of completed work.
    pub fn add(&mut self, units: f64) {
        self.units += units;
    }

    /// Total units recorded.
    pub fn total(&self) -> f64 {
        self.units
    }

    /// Mean rate in units/second over `[start, now]`; 0 if no time elapsed.
    pub fn rate_until(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.start).as_secs_f64();
        if dt <= 0.0 {
            0.0
        } else {
            self.units / dt
        }
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
    fn welford_matches_closed_form() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert!((w.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ewma_first_observation_initialises() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.observe(10.0), 10.0);
        assert_eq!(e.observe(0.0), 5.0);
        assert_eq!(e.observe(5.0), 5.0);
        e.reset();
        assert_eq!(e.value_or(-1.0), -1.0);
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
    fn time_weighted_integrates_steps() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(10), 10.0); // 0 for 10 s
        tw.set(SimTime::from_secs(20), 0.0); // 10 for 10 s
        let mean = tw.mean_until(SimTime::from_secs(20));
        assert!((mean - 5.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(tw.max(), 10.0);
    }

    #[test]
    fn time_weighted_add_is_relative() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.add(SimTime::from_secs(1), 2.0);
        assert_eq!(tw.current(), 3.0);
        tw.add(SimTime::from_secs(2), -3.0);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn series_records_and_thins() {
        let mut s = Series::new();
        for i in 0..100 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 99.0);
        let t = s.thin(10);
        assert!(t.len() <= 12);
        assert_eq!(t.points().last(), s.points().last());
    }

    #[test]
    #[should_panic]
    fn series_rejects_backwards_time() {
        let mut s = Series::new();
        s.push(SimTime::from_secs(2), 0.0);
        s.push(SimTime::from_secs(1), 0.0);
    }

    #[test]
    fn rate_meter_reports_rate() {
        let mut r = RateMeter::new(SimTime::ZERO);
        r.add(100.0);
        assert_eq!(r.rate_until(SimTime::from_secs(10)), 10.0);
        assert_eq!(r.total(), 100.0);
        assert_eq!(r.rate_until(SimTime::ZERO), 0.0);
    }

    #[test]
    fn exact_quantile_sorts_and_selects() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(exact_quantile(&mut v, 0.5), 3.0);
        assert_eq!(exact_quantile(&mut v, 0.0), 1.0);
        assert_eq!(exact_quantile(&mut v, 1.0), 5.0);
    }
}
