//! Predicts what the detector/registry pipeline *must* do on a timeline.
//!
//! The campaign harness runs a real [`crate::detect::EwmaDetector`] feeding
//! a real [`crate::registry::Registry`] over an injected
//! [`crate::injector::SlowdownProfile`], then checks the observed behaviour
//! against a prediction computed here directly from the sampled timeline.
//! The prediction is deliberately three-valued: the notification rule has a
//! grey zone (short dips, smoothing lag, hysteresis) where both exporting
//! and staying silent are acceptable, and the oracle only constrains the
//! runs that fall outside it.
//!
//! Soundness contract for [`predict_export`], given observations sampled on
//! the *same grid* the detector sees:
//!
//! * `MustStaySilent` — every sampled multiplier is at or above the spec
//!   tolerance. An EWMA is a convex combination of its observations, so the
//!   smoothed rate can never fall below the fault floor and the registry
//!   never hears a faulty verdict.
//! * `MustExport` — some window of `settle + persistence + 1` consecutive
//!   samples sits at or below `tolerance − margin`. The caller must choose
//!   `settle` and `margin` so the detector's smoothing provably converges
//!   inside the window: for an EWMA with factor `alpha`,
//!   `(1 − alpha)^settle · max_multiplier ≤ margin` suffices. After the
//!   settle prefix the verdict is pinned faulty for more than the
//!   registry's persistence window, so a notification is mandatory.
//! * `Unconstrained` — anything else; the run is not judged.

use crate::injector::{Cursor, SlowdownProfile};
use simcore::time::{SimDuration, SimTime};

/// What the notification pipeline is required to do for one timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExportPrediction {
    /// A persistent fault is present; the registry must publish it.
    MustExport,
    /// The component never leaves spec; any notification is a false alarm.
    MustStaySilent,
    /// Grey zone (transient dips, settle-length windows): not judged.
    Unconstrained,
}

/// A failed oracle check: which oracle, and what it saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable identifier of the oracle that fired.
    pub oracle: &'static str,
    /// Human-readable account of expected vs measured.
    pub detail: String,
}

/// Samples `profile.multiplier_at` every `step` over `[0, horizon]` — the
/// exact observation grid a 1-per-`step` monitor sees (a failed component
/// samples as multiplier 0).
pub fn sample_multipliers(
    profile: &SlowdownProfile,
    step: SimDuration,
    horizon: SimDuration,
) -> Vec<f64> {
    assert!(step > SimDuration::ZERO, "sampling step must be positive");
    let mut out = Vec::new();
    let mut cursor = Cursor::default();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + horizon;
    while t <= end {
        out.push(profile.multiplier_from(&mut cursor, t));
        t += step;
    }
    out
}

/// Classifies a sampled timeline against the notification rule.
///
/// `tolerance` is the spec's in-spec multiplier floor (a
/// [`crate::spec::PerfSpec::Constant`] with tolerance `τ` flags observed
/// rates below `τ · nominal`). `persistence_samples` is the registry window
/// expressed in samples, `settle_samples` the smoothing-convergence
/// allowance, `margin` the depth below tolerance a dip must reach before we
/// insist the detector sees it. See the module docs for the soundness
/// contract.
pub fn predict_export(
    samples: &[f64],
    tolerance: f64,
    persistence_samples: usize,
    settle_samples: usize,
    margin: f64,
) -> ExportPrediction {
    assert!(margin > 0.0, "margin must be positive");
    if samples.iter().all(|&m| m >= tolerance) {
        return ExportPrediction::MustStaySilent;
    }
    let deep = tolerance - margin;
    let needed = settle_samples + persistence_samples + 1;
    let mut run = 0usize;
    for &m in samples {
        if m <= deep {
            run += 1;
            if run >= needed {
                return ExportPrediction::MustExport;
            }
        } else {
            run = 0;
        }
    }
    ExportPrediction::Unconstrained
}

/// Checks a real pipeline run against the prediction.
///
/// `published_faulty` is whether the registry published any performance-
/// fault or failure notification for the component during the run.
pub fn check_export_agreement(
    prediction: ExportPrediction,
    published_faulty: bool,
) -> Result<(), Violation> {
    match prediction {
        ExportPrediction::MustExport if !published_faulty => Err(Violation {
            oracle: "stutter/must-export",
            detail: "persistent fault in timeline but registry published nothing".to_string(),
        }),
        ExportPrediction::MustStaySilent if published_faulty => Err(Violation {
            oracle: "stutter/must-stay-silent",
            detail: "in-spec timeline but registry published a fault".to_string(),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::EwmaDetector;
    use crate::fault::{ComponentId, HealthState};
    use crate::injector::Injector;
    use crate::registry::Registry;
    use crate::spec::PerfSpec;
    use simcore::rng::Stream;

    const STEP: SimDuration = SimDuration::from_secs(1);
    const HORIZON: SimDuration = SimDuration::from_secs(600);

    fn run_pipeline(profile: &SlowdownProfile, nominal: f64, tolerance: f64) -> bool {
        let spec = PerfSpec::constant_with_tolerance(nominal, tolerance);
        let mut det = EwmaDetector::new(spec, 0.3);
        let mut reg = Registry::new(SimDuration::from_secs(30));
        for (k, m) in sample_multipliers(profile, STEP, HORIZON).iter().enumerate() {
            let verdict = det.observe(nominal * m);
            reg.report(ComponentId(0), SimTime::from_secs(k as u64), verdict);
        }
        reg.notifications().iter().any(|n| !matches!(n.state, HealthState::Healthy))
    }

    fn predict(profile: &SlowdownProfile, tolerance: f64) -> ExportPrediction {
        let samples = sample_multipliers(profile, STEP, HORIZON);
        // alpha = 0.3, settle = 40 → 0.7^40 ≈ 6e-7 ≪ margin.
        predict_export(&samples, tolerance, 31, 40, 0.05)
    }

    #[test]
    fn constant_slowdown_must_export_and_does() {
        let profile =
            Injector::StaticSlowdown { factor: 0.5 }.timeline(HORIZON, &mut Stream::from_seed(3));
        assert_eq!(predict(&profile, 0.9), ExportPrediction::MustExport);
        assert!(run_pipeline(&profile, 10.0, 0.9));
        check_export_agreement(ExportPrediction::MustExport, true).unwrap();
    }

    #[test]
    fn healthy_timeline_must_stay_silent_and_does() {
        let profile = Injector::NoFault.timeline(HORIZON, &mut Stream::from_seed(4));
        assert_eq!(predict(&profile, 0.9), ExportPrediction::MustStaySilent);
        assert!(!run_pipeline(&profile, 10.0, 0.9));
        check_export_agreement(ExportPrediction::MustStaySilent, false).unwrap();
    }

    #[test]
    fn shallow_slowdown_is_unconstrained() {
        // Below tolerance but inside the margin: too shallow to insist on.
        let profile =
            Injector::StaticSlowdown { factor: 0.87 }.timeline(HORIZON, &mut Stream::from_seed(5));
        assert_eq!(predict(&profile, 0.9), ExportPrediction::Unconstrained);
    }

    #[test]
    fn disagreements_are_violations() {
        assert!(check_export_agreement(ExportPrediction::MustExport, false).is_err());
        assert!(check_export_agreement(ExportPrediction::MustStaySilent, true).is_err());
        assert!(check_export_agreement(ExportPrediction::Unconstrained, true).is_ok());
        assert!(check_export_agreement(ExportPrediction::Unconstrained, false).is_ok());
    }
}
