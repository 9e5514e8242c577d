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
use simcore::time::{SimDuration, SimTime};

/// Identifies a component within a system (disk, link, node, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The kind of fault a component exhibits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Fail-stop: the component has stopped and other components can detect
    /// that it stopped.
    Correctness,
    /// Fail-stutter: the component works correctly but delivers only
    /// `severity` (in `(0, 1)`) of its specified performance.
    Performance {
        /// Fraction of specified performance actually delivered.
        severity: f64,
    },
}

impl FaultKind {
    /// Creates a performance fault delivering `severity` of spec.
    ///
    /// # Panics
    ///
    /// Panics if `severity` is not within `(0.0, 1.0)` — zero delivered
    /// performance is indistinguishable from a stop and must be modelled as
    /// [`FaultKind::Correctness`].
    pub fn performance(severity: f64) -> Self {
        assert!(
            severity > 0.0 && severity < 1.0,
            "performance-fault severity must be in (0,1), got {severity}"
        );
        FaultKind::Performance { severity }
    }

    /// True for correctness (fail-stop) faults.
    pub fn is_correctness(&self) -> bool {
        matches!(self, FaultKind::Correctness)
    }
}

/// A fault occurrence on a component's timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// The component affected.
    pub component: ComponentId,
    /// When the fault begins.
    pub at: SimTime,
    /// How long it lasts; `None` means permanent.
    pub duration: Option<SimDuration>,
    /// What kind of fault it is.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// When the fault ends, or `SimTime::MAX` if permanent.
    pub fn end(&self) -> SimTime {
        match self.duration {
            Some(d) => self.at + d,
            None => SimTime::MAX,
        }
    }

    /// True if the fault is in force at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.at && t < self.end()
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
    fn performance_severity_validated() {
        let f = FaultKind::performance(0.5);
        assert_eq!(f, FaultKind::Performance { severity: 0.5 });
        assert!(!f.is_correctness());
        assert!(FaultKind::Correctness.is_correctness());
    }

    #[test]
    #[should_panic]
    fn zero_severity_rejected() {
        let _ = FaultKind::performance(0.0);
    }

    #[test]
    #[should_panic]
    fn full_severity_rejected() {
        let _ = FaultKind::performance(1.0);
    }

    #[test]
    fn fault_event_activity_window() {
        let e = FaultEvent {
            component: ComponentId(1),
            at: SimTime::from_secs(10),
            duration: Some(SimDuration::from_secs(5)),
            kind: FaultKind::Correctness,
        };
        assert!(!e.active_at(SimTime::from_secs(9)));
        assert!(e.active_at(SimTime::from_secs(10)));
        assert!(e.active_at(SimTime::from_secs(14)));
        assert!(!e.active_at(SimTime::from_secs(15)));
        assert_eq!(e.end(), SimTime::from_secs(15));
    }

    #[test]
    fn permanent_fault_never_ends() {
        let e = FaultEvent {
            component: ComponentId(0),
            at: SimTime::ZERO,
            duration: None,
            kind: FaultKind::Correctness,
        };
        assert_eq!(e.end(), SimTime::MAX);
        assert!(e.active_at(SimTime::from_secs(1_000_000)));
    }

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
