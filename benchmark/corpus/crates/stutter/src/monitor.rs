//! Monitoring glue: wiring specs, detectors, the registry, and the
//! predictor around a component.
//!
//! [`Monitor`] is the per-component pipeline a fail-stutter system runs:
//! feed it rate observations, and it keeps a smoothed verdict, reports to
//! the shared [`Registry`], and watches for the wear-out signature. It is
//! the piece the paper's §3.1 sketches as "allowing agents within the
//! system to readily learn of and react to these performance-faulty
//! constituents".
//!
//! [`fit_spec`] addresses the other §3.1 question — where do
//! performance specifications come from? — by fitting each spec fidelity
//! to a calibration sample (e.g. gauged at installation).

use crate::detect::EwmaDetector;
use crate::fault::{ComponentId, HealthState};
use crate::predict::{FailurePredictor, Prediction, PredictorConfig};
use crate::registry::{Notification, Registry};
use crate::spec::PerfSpec;
use simcore::time::SimTime;

/// What a single observation produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitorEvent {
    /// The smoothed verdict after this observation.
    pub verdict: HealthState,
    /// A registry export, if this observation caused one.
    pub exported: Option<Notification>,
    /// A failure prediction, if this observation raised one.
    pub prediction: Option<Prediction>,
}

/// The full monitoring pipeline for one component.
#[derive(Clone, Debug)]
pub struct Monitor {
    id: ComponentId,
    detector: EwmaDetector,
    predictor: FailurePredictor,
    expected_rate: f64,
    observations: u64,
}

impl Monitor {
    /// Creates a monitor judging `id` against `spec`, smoothing with
    /// `alpha`, predicting with `predictor_config`.
    pub fn new(
        id: ComponentId,
        spec: PerfSpec,
        alpha: f64,
        predictor_config: PredictorConfig,
    ) -> Self {
        let expected_rate = spec.expected_rate();
        Monitor {
            id,
            detector: EwmaDetector::new(spec, alpha),
            predictor: FailurePredictor::new(predictor_config),
            expected_rate,
            observations: 0,
        }
    }

    /// The component being monitored.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// Number of observations so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Feeds one observed rate at `now`, reporting to `registry`.
    pub fn observe(&mut self, now: SimTime, rate: f64, registry: &mut Registry) -> MonitorEvent {
        self.observations += 1;
        let verdict = if rate <= 0.0 { HealthState::Failed } else { self.detector.observe(rate) };
        let exported = registry.report(self.id, now, verdict);
        let prediction = self.predictor.observe(now, rate / self.expected_rate);
        MonitorEvent { verdict, exported, prediction }
    }

    /// The current smoothed verdict.
    pub fn verdict(&self) -> HealthState {
        self.detector.state()
    }

    /// The failure prediction, if one has fired.
    pub fn prediction(&self) -> Option<Prediction> {
        self.predictor.prediction()
    }
}

/// Fits a [`PerfSpec`] of the requested fidelity to calibration samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecFidelity {
    /// `Constant`: the sample mean with a tolerance band.
    Constant,
    /// `Distribution`: sample mean and coefficient of variation.
    Distribution,
    /// `Envelope`: the sample min–max band.
    Envelope,
}

/// Fits a spec from observed rates.
///
/// # Panics
///
/// Panics if `samples` is empty or contains a non-positive rate (calibrate
/// against a working component).
pub fn fit_spec(samples: &[f64], fidelity: SpecFidelity) -> PerfSpec {
    assert!(!samples.is_empty(), "cannot fit a spec to no data");
    assert!(samples.iter().all(|&s| s > 0.0), "calibration samples must be positive");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    match fidelity {
        SpecFidelity::Constant => PerfSpec::constant(mean),
        SpecFidelity::Distribution => {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            // Guard against a zero-variance calibration run.
            PerfSpec::distribution(mean, cv.max(0.01), 3.0)
        }
        SpecFidelity::Envelope => {
            let min = samples.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::INFINITY);
            let max = samples.iter().copied().max_by(f64::total_cmp).unwrap_or(f64::NEG_INFINITY);
            PerfSpec::envelope(min, max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::{Injector, SlowdownProfile};
    use simcore::rng::Stream;
    use simcore::time::SimDuration;

    fn predictor_config() -> PredictorConfig {
        PredictorConfig {
            window: SimDuration::from_secs(300),
            min_samples: 6,
            level_threshold: 0.9,
            slope_threshold: 0.05,
            consecutive_below: 4,
        }
    }

    #[test]
    fn monitor_exports_persistent_faults_only() {
        let mut registry = Registry::new(SimDuration::from_secs(30));
        let mut m = Monitor::new(ComponentId(1), PerfSpec::constant(10.0), 0.5, predictor_config());
        // A brief dip...
        let mut exported = 0;
        for s in 0..10u64 {
            let rate = if s == 3 { 2.0 } else { 10.0 };
            if m.observe(SimTime::from_secs(s), rate, &mut registry).exported.is_some() {
                exported += 1;
            }
        }
        assert_eq!(exported, 0, "transient dip must not export");
        // ...then a persistent slowdown.
        for s in 10..120u64 {
            if m.observe(SimTime::from_secs(s), 3.0, &mut registry).exported.is_some() {
                exported += 1;
            }
        }
        assert_eq!(exported, 1, "persistent fault exports exactly once");
        assert!(matches!(registry.exported(ComponentId(1)), HealthState::PerfFaulty { .. }));
    }

    #[test]
    fn monitor_detects_absolute_failure_immediately() {
        let mut registry = Registry::new(SimDuration::from_secs(30));
        let mut m = Monitor::new(ComponentId(2), PerfSpec::constant(10.0), 0.5, predictor_config());
        m.observe(SimTime::ZERO, 10.0, &mut registry);
        let e = m.observe(SimTime::from_secs(1), 0.0, &mut registry);
        assert_eq!(e.verdict, HealthState::Failed);
        assert!(e.exported.is_some(), "fail-stop bypasses the persistence filter");
    }

    #[test]
    fn monitor_predicts_wearout() {
        let inj = Injector::Wearout {
            onset: SimTime::from_secs(300),
            ramp: SimDuration::from_secs(600),
            floor: 0.2,
            fail_after: Some(SimDuration::from_secs(300)),
        };
        let profile = inj.timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(1));
        let fail_at = profile.fail_at().expect("fails");
        let mut registry = Registry::new(SimDuration::from_secs(60));
        let mut m = Monitor::new(ComponentId(3), PerfSpec::constant(10.0), 0.3, predictor_config());
        let mut t = SimTime::ZERO;
        let mut fired = None;
        while t < fail_at {
            let e = m.observe(t, 10.0 * profile.multiplier_at(t), &mut registry);
            if let Some(p) = e.prediction {
                fired = Some(p);
            }
            t += SimDuration::from_secs(15);
        }
        let p = fired.expect("wearout must be predicted");
        assert!(p.at < fail_at);
        assert_eq!(m.prediction(), Some(p));
    }

    #[test]
    fn healthy_component_stays_quiet() {
        let profile = SlowdownProfile::nominal();
        let mut registry = Registry::new(SimDuration::from_secs(30));
        let mut m = Monitor::new(ComponentId(4), PerfSpec::constant(10.0), 0.3, predictor_config());
        for s in 0..600u64 {
            let t = SimTime::from_secs(s);
            let e = m.observe(t, 10.0 * profile.multiplier_at(t), &mut registry);
            assert_eq!(e.verdict, HealthState::Healthy);
            assert!(e.exported.is_none());
            assert!(e.prediction.is_none());
        }
        assert_eq!(m.observations(), 600);
    }

    #[test]
    fn fit_spec_constant_and_envelope() {
        let samples = vec![9.0, 10.0, 11.0, 10.0];
        let c = fit_spec(&samples, SpecFidelity::Constant);
        assert!((c.expected_rate() - 10.0).abs() < 1e-9);
        let e = fit_spec(&samples, SpecFidelity::Envelope);
        assert!(e.is_within(9.0));
        assert!(!e.is_within(8.9));
    }

    #[test]
    fn fit_spec_distribution_tracks_cv() {
        // Noisy calibration → wide band; quiet calibration → tight band.
        let noisy = vec![5.0, 15.0, 5.0, 15.0];
        let quiet = vec![9.9, 10.1, 9.9, 10.1];
        let sn = fit_spec(&noisy, SpecFidelity::Distribution);
        let sq = fit_spec(&quiet, SpecFidelity::Distribution);
        assert!(sn.fault_floor() < sq.fault_floor());
        assert!(sq.is_within(9.8));
    }

    #[test]
    fn fitted_constant_spec_is_strictest() {
        // The paper's trade-off, via fitting: the naive constant spec has
        // the highest fault floor on a spread-out calibration — it will
        // flag behaviour the richer specs accept.
        let samples = vec![6.0, 8.0, 10.0, 12.0];
        let c = fit_spec(&samples, SpecFidelity::Constant);
        let d = fit_spec(&samples, SpecFidelity::Distribution);
        let e = fit_spec(&samples, SpecFidelity::Envelope);
        assert!(c.fault_floor() >= e.fault_floor() - 1e-9);
        assert!(c.fault_floor() >= d.fault_floor() - 1e-9);
        // Both fitted rich specs accept the calibration minimum; the
        // constant spec rejects it.
        assert!(e.is_within(6.0));
        assert!(d.is_within(6.0));
        assert!(!c.is_within(6.0));
    }

    #[test]
    #[should_panic]
    fn fit_spec_rejects_empty() {
        let _ = fit_spec(&[], SpecFidelity::Constant);
    }
}
