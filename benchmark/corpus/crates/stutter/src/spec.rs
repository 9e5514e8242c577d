//! Performance specifications.
//!
//! Paper §3.1: "the fail-stutter model should present the system designer
//! with a trade-off. At one extreme, a model of component performance could
//! be as simple as possible: 'this disk delivers bandwidth at 10 MB/s.'
//! However, the simpler the model, the more likely performance faults
//! occur." A [`PerfSpec`] captures that trade-off as three fidelities; the
//! higher the fidelity, the fewer observations count as faults.

use crate::fault::HealthState;

/// A performance specification for one component, in abstract units/second.
#[derive(Clone, Debug, PartialEq)]
pub enum PerfSpec {
    /// Lowest fidelity: a single nominal rate. Anything below
    /// `nominal · tolerance` is a performance fault.
    Constant {
        /// The advertised rate.
        nominal: f64,
        /// Fraction of nominal below which an observation is faulty
        /// (e.g. 0.9 flags anything slower than 90% of spec).
        tolerance: f64,
    },
    /// Medium fidelity: a mean rate plus an allowed coefficient of
    /// variation. An observation is faulty when it falls more than
    /// `k_sigma` standard deviations below the mean.
    Distribution {
        /// Mean rate.
        mean: f64,
        /// Allowed coefficient of variation (std dev / mean).
        cv: f64,
        /// How many sigmas below the mean is still acceptable.
        k_sigma: f64,
    },
    /// Highest fidelity: an explicit acceptable band, such as a zoned disk
    /// whose sequential bandwidth legitimately spans outer-to-inner zones.
    Envelope {
        /// Smallest in-spec rate.
        min: f64,
        /// Largest expected rate (used for normalisation, not faulting).
        max: f64,
    },
}

impl PerfSpec {
    /// A constant-rate spec with the conventional 90% tolerance.
    pub fn constant(nominal: f64) -> Self {
        assert!(nominal > 0.0, "nominal rate must be positive, got {nominal}");
        PerfSpec::Constant { nominal, tolerance: 0.9 }
    }

    /// A constant-rate spec with an explicit tolerance fraction.
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not positive or `tolerance` outside `(0, 1]`.
    pub fn constant_with_tolerance(nominal: f64, tolerance: f64) -> Self {
        assert!(nominal > 0.0, "nominal rate must be positive, got {nominal}");
        assert!(tolerance > 0.0 && tolerance <= 1.0, "tolerance must be in (0,1], got {tolerance}");
        PerfSpec::Constant { nominal, tolerance }
    }

    /// A distributional spec.
    ///
    /// # Panics
    ///
    /// Panics on non-positive mean, negative cv, or non-positive k-sigma.
    pub fn distribution(mean: f64, cv: f64, k_sigma: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive, got {mean}");
        assert!(cv >= 0.0, "cv must be non-negative, got {cv}");
        assert!(k_sigma > 0.0, "k_sigma must be positive, got {k_sigma}");
        PerfSpec::Distribution { mean, cv, k_sigma }
    }

    /// An envelope spec over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if bounds are out of order or `min` not positive.
    pub fn envelope(min: f64, max: f64) -> Self {
        assert!(min > 0.0 && min <= max, "invalid envelope [{min}, {max}]");
        PerfSpec::Envelope { min, max }
    }

    /// The rate the designer plans around: nominal, mean, or envelope max.
    pub fn expected_rate(&self) -> f64 {
        match *self {
            PerfSpec::Constant { nominal, .. } => nominal,
            PerfSpec::Distribution { mean, .. } => mean,
            PerfSpec::Envelope { max, .. } => max,
        }
    }

    /// The slowest rate still considered in-spec.
    pub fn fault_floor(&self) -> f64 {
        match *self {
            PerfSpec::Constant { nominal, tolerance } => nominal * tolerance,
            PerfSpec::Distribution { mean, cv, k_sigma } => (mean - k_sigma * cv * mean).max(0.0),
            PerfSpec::Envelope { min, .. } => min,
        }
    }

    /// Classifies an observed rate against the spec.
    ///
    /// Returns [`HealthState::Healthy`] when in spec, otherwise
    /// [`HealthState::PerfFaulty`] with severity = observed / expected
    /// (clamped into `(0,1)`); an exactly-zero rate is [`HealthState::Failed`].
    pub fn classify(&self, observed_rate: f64) -> HealthState {
        if observed_rate <= 0.0 {
            return HealthState::Failed;
        }
        if observed_rate >= self.fault_floor() {
            return HealthState::Healthy;
        }
        let severity = (observed_rate / self.expected_rate()).clamp(f64::MIN_POSITIVE, 0.999_999);
        HealthState::PerfFaulty { severity }
    }

    /// True if an observation is within specification.
    pub fn is_within(&self, observed_rate: f64) -> bool {
        matches!(self.classify(observed_rate), HealthState::Healthy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_spec_floor_and_classify() {
        let s = PerfSpec::constant(10.0);
        assert_eq!(s.expected_rate(), 10.0);
        assert!((s.fault_floor() - 9.0).abs() < 1e-12);
        assert_eq!(s.classify(9.5), HealthState::Healthy);
        match s.classify(5.0) {
            HealthState::PerfFaulty { severity } => assert!((severity - 0.5).abs() < 1e-9),
            other => panic!("expected perf fault, got {other:?}"),
        }
        assert_eq!(s.classify(0.0), HealthState::Failed);
    }

    #[test]
    fn distribution_spec_uses_sigma_band() {
        // mean 10, cv 0.1 → sd 1; 2-sigma floor = 8.
        let s = PerfSpec::distribution(10.0, 0.1, 2.0);
        assert!((s.fault_floor() - 8.0).abs() < 1e-12);
        assert!(s.is_within(8.5));
        assert!(!s.is_within(7.9));
    }

    #[test]
    fn distribution_floor_clamps_at_zero() {
        let s = PerfSpec::distribution(10.0, 1.0, 3.0);
        assert_eq!(s.fault_floor(), 0.0);
        // Everything positive is in spec under such a loose model.
        assert!(s.is_within(0.001));
    }

    #[test]
    fn envelope_spec_accepts_band() {
        let s = PerfSpec::envelope(5.0, 10.0);
        assert!(s.is_within(5.0));
        assert!(s.is_within(10.0));
        assert!(!s.is_within(4.9));
        assert_eq!(s.expected_rate(), 10.0);
    }

    #[test]
    fn higher_fidelity_flags_fewer_faults() {
        // The paper's fidelity trade-off: an observation of 6 units/s from a
        // component that legitimately ranges 5..10.
        let naive = PerfSpec::constant(10.0);
        let faithful = PerfSpec::envelope(5.0, 10.0);
        assert!(!naive.is_within(6.0));
        assert!(faithful.is_within(6.0));
    }

    #[test]
    fn severity_reflects_deficit() {
        let s = PerfSpec::constant(100.0);
        match s.classify(25.0) {
            HealthState::PerfFaulty { severity } => assert!((severity - 0.25).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic]
    fn envelope_rejects_inverted_bounds() {
        let _ = PerfSpec::envelope(10.0, 5.0);
    }
}
