//! Failure prediction from performance-fault history.
//!
//! Paper §3.3: "reliability may also be enhanced through the detection of
//! performance anomalies, as erratic performance may be an early indicator
//! of impending failure." [`FailurePredictor`] watches a component's
//! delivered performance fraction over a sliding window and raises a
//! prediction when the level is low and the trend is downward — the
//! signature of the wear-out injector, as opposed to a steady-but-slow part
//! (which is merely performance-faulty) or a transient hog episode.

use std::collections::VecDeque;

use simcore::time::{SimDuration, SimTime};

/// Tunable prediction policy.
#[derive(Clone, Copy, Debug)]
pub struct PredictorConfig {
    /// Sliding window length.
    pub window: SimDuration,
    /// Minimum samples in the window before predicting.
    pub min_samples: usize,
    /// Predict only when the latest smoothed fraction is below this level.
    pub level_threshold: f64,
    /// Predict only when the fraction declines at least this much per
    /// window-length (e.g. 0.1 = losing 10% of nominal speed per window).
    pub slope_threshold: f64,
    /// Predict only after this many consecutive observations below
    /// `level_threshold` — short transient dips must not fire.
    pub consecutive_below: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            window: SimDuration::from_secs(600),
            min_samples: 8,
            level_threshold: 0.9,
            slope_threshold: 0.05,
            consecutive_below: 4,
        }
    }
}

/// An emitted failure prediction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// When the prediction was raised.
    pub at: SimTime,
    /// The delivered fraction at prediction time.
    pub level: f64,
    /// The estimated decline per window-length.
    pub decline_per_window: f64,
}

/// A fitted capacity trend over the current window — the
/// subscriber-facing view of the predictor's internal estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Trend {
    /// Time of the newest observation in the window.
    pub at: SimTime,
    /// Fitted delivered-fraction level at that time.
    pub level: f64,
    /// Estimated decline per window-length (positive = deteriorating).
    pub decline_per_window: f64,
}

/// Watches one component's delivered-performance fraction and predicts
/// impending absolute failure.
#[derive(Clone, Debug)]
pub struct FailurePredictor {
    config: PredictorConfig,
    samples: VecDeque<(SimTime, f64)>,
    below_streak: usize,
    fired: Option<Prediction>,
}

impl FailurePredictor {
    /// Creates a predictor with the given policy.
    pub fn new(config: PredictorConfig) -> Self {
        assert!(config.min_samples >= 2, "need at least two samples to fit a trend");
        FailurePredictor { config, samples: VecDeque::new(), below_streak: 0, fired: None }
    }

    /// Feeds a `(time, delivered fraction)` observation.
    ///
    /// Returns the prediction if this observation triggers one. A predictor
    /// fires at most once; later observations are still recorded so
    /// [`lead_time`](Self::lead_time) can be queried.
    pub fn observe(&mut self, at: SimTime, fraction: f64) -> Option<Prediction> {
        let fraction = fraction.clamp(0.0, 1.0);
        self.samples.push_back((at, fraction));
        if fraction < self.config.level_threshold {
            self.below_streak += 1;
        } else {
            self.below_streak = 0;
        }
        let cutoff =
            SimTime::from_nanos(at.as_nanos().saturating_sub(self.config.window.as_nanos()));
        while let Some(&(t, _)) = self.samples.front() {
            if t < cutoff && self.samples.len() > self.config.min_samples {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        // A prediction needs the streak, so skip the fit until it holds.
        if self.fired.is_some()
            || self.samples.len() < self.config.min_samples
            || self.below_streak < self.config.consecutive_below
        {
            return None;
        }

        let (level, slope_per_sec) = self.fit();
        let decline = -slope_per_sec * self.config.window.as_secs_f64();
        if level < self.config.level_threshold && decline >= self.config.slope_threshold {
            let p = Prediction { at, level, decline_per_window: decline };
            self.fired = Some(p);
            return Some(p);
        }
        None
    }

    /// Least-squares fit over the window: returns (latest fitted level,
    /// slope in fraction/second).
    fn fit(&self) -> (f64, f64) {
        // fit() only runs with samples.len() >= min_samples >= 2, but the
        // path is injector-reachable, so guard instead of expecting.
        let Some(&(t0, _)) = self.samples.front() else {
            return (1.0, 0.0);
        };
        let n = self.samples.len() as f64;
        let x = |t: SimTime| (t - t0).as_secs_f64();
        let mean_x = self.samples.iter().map(|&(t, _)| x(t)).sum::<f64>() / n;
        let mean_y = self.samples.iter().map(|&(_, y)| y).sum::<f64>() / n;
        let sxx: f64 = self.samples.iter().map(|&(t, _)| (x(t) - mean_x).powi(2)).sum();
        let sxy: f64 = self.samples.iter().map(|&(t, y)| (x(t) - mean_x) * (y - mean_y)).sum();
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        let latest_x = self.samples.back().map_or(0.0, |&(t, _)| x(t));
        let level = mean_y + slope * (latest_x - mean_x);
        (level, slope)
    }

    /// The current least-squares trend over the window — the public hook
    /// for trend-threshold subscribers such as early load shedders
    /// (ROADMAP: "prediction as the load-shedding trigger").
    ///
    /// Unlike [`observe`](Self::observe)'s one-shot [`Prediction`], this
    /// is a continuous view: it reports the fitted level and decline on
    /// every call once `min_samples` observations are buffered (and
    /// `None` before that), regardless of whether a prediction fired.
    pub fn trend(&self) -> Option<Trend> {
        if self.samples.len() < self.config.min_samples {
            return None;
        }
        let &(at, _) = self.samples.back()?;
        let (level, slope_per_sec) = self.fit();
        let decline = -slope_per_sec * self.config.window.as_secs_f64();
        Some(Trend { at, level, decline_per_window: decline })
    }

    /// True while the current trend is at or below `level` **and**
    /// declining at least `decline_per_window` — the arming condition
    /// for trend subscribers. This re-evaluates on every call, so a
    /// subscriber disarms again once the component recovers (the
    /// one-shot prediction never un-fires).
    pub fn trend_crossed(&self, level: f64, decline_per_window: f64) -> bool {
        match self.trend() {
            Some(t) => t.level <= level && t.decline_per_window >= decline_per_window,
            None => false,
        }
    }

    /// The prediction, if one has fired.
    pub fn prediction(&self) -> Option<Prediction> {
        self.fired
    }

    /// Warning lead time relative to an actual failure instant, or `None`
    /// if no prediction fired or it fired after the failure.
    pub fn lead_time(&self, failure_at: SimTime) -> Option<SimDuration> {
        let p = self.fired?;
        if p.at < failure_at {
            Some(failure_at - p.at)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PredictorConfig {
        PredictorConfig {
            window: SimDuration::from_secs(100),
            min_samples: 5,
            level_threshold: 0.9,
            slope_threshold: 0.05,
            consecutive_below: 4,
        }
    }

    #[test]
    fn steady_healthy_component_never_fires() {
        let mut p = FailurePredictor::new(config());
        for i in 0..100 {
            assert_eq!(p.observe(SimTime::from_secs(i * 10), 1.0), None);
        }
        assert_eq!(p.prediction(), None);
    }

    #[test]
    fn steady_slow_component_never_fires() {
        // Performance-faulty but stable: no failure signature.
        let mut p = FailurePredictor::new(config());
        for i in 0..100 {
            assert_eq!(p.observe(SimTime::from_secs(i * 10), 0.5), None);
        }
        assert_eq!(p.prediction(), None);
    }

    #[test]
    fn declining_component_fires_before_reaching_zero() {
        let mut p = FailurePredictor::new(config());
        let mut fired_at = None;
        for i in 0..100u64 {
            // Lose 1% of nominal every 10 s: hits zero at t=1000 s.
            let frac = 1.0 - i as f64 * 0.01;
            if let Some(pred) = p.observe(SimTime::from_secs(i * 10), frac.max(0.0)) {
                fired_at = Some(pred.at);
                break;
            }
        }
        let at = fired_at.expect("must fire on a clear decline");
        assert!(at < SimTime::from_secs(900), "fired too late: {at}");
        assert!(
            p.lead_time(SimTime::from_secs(1000)).expect("fired before failure")
                >= SimDuration::from_secs(100)
        );
    }

    #[test]
    fn fires_at_most_once() {
        let mut p = FailurePredictor::new(config());
        let mut fires = 0;
        for i in 0..200u64 {
            let frac = (1.0 - i as f64 * 0.01).max(0.0);
            if p.observe(SimTime::from_secs(i * 10), frac).is_some() {
                fires += 1;
            }
        }
        assert_eq!(fires, 1);
    }

    #[test]
    fn transient_dip_does_not_fire() {
        let mut p = FailurePredictor::new(config());
        for i in 0..50u64 {
            // A 3-sample dip to 0.85 inside a healthy run. The level briefly
            // drops but the windowed trend stays flat.
            let frac = if (20..23).contains(&i) { 0.85 } else { 1.0 };
            assert_eq!(p.observe(SimTime::from_secs(i * 10), frac), None, "sample {i}");
        }
    }

    #[test]
    fn trend_hook_none_until_min_samples_then_tracks_decline() {
        let mut p = FailurePredictor::new(config());
        for i in 0..4u64 {
            p.observe(SimTime::from_secs(i * 10), 1.0 - i as f64 * 0.01);
            assert_eq!(p.trend(), None, "sample {i}: below min_samples");
        }
        for i in 4..40u64 {
            p.observe(SimTime::from_secs(i * 10), 1.0 - i as f64 * 0.01);
            let t = p.trend().expect("window full");
            assert_eq!(t.at, SimTime::from_secs(i * 10));
            assert!(t.decline_per_window > 0.0, "decline must be positive on a decaying series");
        }
    }

    #[test]
    fn trend_crossing_arms_no_later_than_prediction() {
        // A subscriber shedding on the same thresholds the predictor uses
        // must arm no later than the one-shot prediction fires.
        let mut p = FailurePredictor::new(config());
        let mut armed_at = None;
        let mut fired_at = None;
        for i in 0..100u64 {
            let frac = (1.0 - i as f64 * 0.01).max(0.0);
            let pred = p.observe(SimTime::from_secs(i * 10), frac);
            if armed_at.is_none() && p.trend_crossed(0.9, 0.05) {
                armed_at = Some(i);
            }
            if let Some(pr) = pred {
                fired_at = Some(pr.at);
                break;
            }
        }
        let armed = armed_at.expect("trend must cross on a clear decline");
        let fired = fired_at.expect("prediction must fire on a clear decline");
        assert!(SimTime::from_secs(armed * 10) <= fired, "armed {armed} after fire {fired}");
    }

    #[test]
    fn trend_disarms_when_component_recovers() {
        let mut p = FailurePredictor::new(config());
        for i in 0..30u64 {
            p.observe(SimTime::from_secs(i * 10), (1.0 - i as f64 * 0.02).max(0.0));
        }
        assert!(p.trend_crossed(0.9, 0.05), "must be armed mid-decline");
        for i in 30..60u64 {
            p.observe(SimTime::from_secs(i * 10), 1.0);
        }
        assert!(!p.trend_crossed(0.9, 0.05), "must disarm after recovery");
    }

    #[test]
    fn lead_time_none_if_fired_after_failure() {
        let mut p = FailurePredictor::new(config());
        for i in 0..100u64 {
            let frac = (1.0 - i as f64 * 0.01).max(0.0);
            p.observe(SimTime::from_secs(i * 10), frac);
        }
        assert_eq!(p.lead_time(SimTime::from_secs(1)), None);
    }
}
