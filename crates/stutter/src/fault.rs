//! The fail-stutter fault taxonomy.
//!
//! The model's central move (paper §3.1) is to split component misbehaviour
//! into two classes:
//!
//! * **Correctness faults** — the component's behaviour is no longer
//!   consistent with its specification; under fail-stop it halts in a
//!   detectable way.
//! * **Performance faults** — the component still produces correct results,
//!   but at less than its *performance specification*.
//!
//! A component is therefore in one of three [`HealthState`]s, not two. The
//! in-between state is the whole point: "there is much to be gained by
//! utilizing performance-faulty components" (§3.1).

use core::fmt;

/// Identifies a component within a system (disk, link, node, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The observed health of a component under the fail-stutter model.
///
/// Ordered by decreasing health: `Healthy < PerfFaulty < Failed` compares by
/// *badness*, which lets callers write `state >= HealthState::PerfFaulty`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HealthState {
    /// Performing within specification.
    Healthy,
    /// Correct but under-performing; `severity` is the delivered fraction
    /// of specified performance (lower is worse).
    PerfFaulty {
        /// Delivered fraction of specified performance.
        severity: f64,
    },
    /// Absolutely (correctness) failed.
    Failed,
}

impl HealthState {
    /// True unless the component has absolutely failed.
    pub fn is_usable(&self) -> bool {
        !matches!(self, HealthState::Failed)
    }

    /// The delivered fraction of specified performance: 1 for healthy,
    /// the severity for performance-faulty, and 0 for failed.
    pub fn delivered_fraction(&self) -> f64 {
        match *self {
            HealthState::Healthy => 1.0,
            HealthState::PerfFaulty { severity } => severity,
            HealthState::Failed => 0.0,
        }
    }

    /// Badness rank used for ordering comparisons (0 = healthy).
    pub fn badness(&self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::PerfFaulty { .. } => 1,
            HealthState::Failed => 2,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::PerfFaulty { severity } => {
                write!(f, "perf-faulty({:.0}% of spec)", severity * 100.0)
            }
            HealthState::Failed => write!(f, "failed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_state_fractions() {
        assert_eq!(HealthState::Healthy.delivered_fraction(), 1.0);
        assert_eq!(HealthState::PerfFaulty { severity: 0.3 }.delivered_fraction(), 0.3);
        assert_eq!(HealthState::Failed.delivered_fraction(), 0.0);
        assert!(HealthState::Healthy.is_usable());
        assert!(HealthState::PerfFaulty { severity: 0.3 }.is_usable());
        assert!(!HealthState::Failed.is_usable());
    }

    #[test]
    fn badness_orders_states() {
        assert!(
            HealthState::Healthy.badness() < HealthState::PerfFaulty { severity: 0.9 }.badness()
        );
        assert!(
            HealthState::PerfFaulty { severity: 0.1 }.badness() < HealthState::Failed.badness()
        );
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            HealthState::PerfFaulty { severity: 0.25 }.to_string(),
            "perf-faulty(25% of spec)"
        );
        assert_eq!(ComponentId(7).to_string(), "c7");
    }
}
