//! Monitoring glue: wiring specs, detectors, the registry, and the
//! predictor around a component.
//!
//! [`Monitor`] is the per-component pipeline a fail-stutter system runs:
//! feed it rate observations, and it keeps a smoothed verdict, reports to
//! the shared [`Registry`], and watches for the wear-out signature. It is
//! the piece the paper's §3.1 sketches as "allowing agents within the
//! system to readily learn of and react to these performance-faulty
//! constituents".

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
}
