//! The performance-state registry: the paper's notification rule.
//!
//! Paper §3.1: "we do not believe that other components need be informed of
//! all performance failures when they occur ... However, if a component is
//! persistently performance-faulty, it may be useful for a system to export
//! information about component 'performance state', allowing agents within
//! the system to readily learn of and react to these performance-faulty
//! constituents."
//!
//! [`Registry`] implements that rule: verdicts are reported locally on
//! every observation, but a component's exported state only changes after
//! the verdict has *persisted* for a configurable window. Transient
//! stutters therefore generate no notifications, while long-lived ones are
//! published exactly once per state change.

use std::collections::BTreeMap;

use crate::fault::{ComponentId, HealthState};
use simcore::time::{SimDuration, SimTime};

/// A published state-change notification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Notification {
    /// The component whose exported state changed.
    pub component: ComponentId,
    /// When the change was published.
    pub at: SimTime,
    /// The newly exported state.
    pub state: HealthState,
}

#[derive(Clone, Debug)]
struct Entry {
    exported: HealthState,
    // The verdict we are waiting to confirm, and since when it has held.
    candidate: HealthState,
    candidate_since: SimTime,
}

/// Tracks per-component verdicts and exports only persistent ones.
#[derive(Clone, Debug)]
pub struct Registry {
    persistence: SimDuration,
    entries: BTreeMap<ComponentId, Entry>,
    log: Vec<Notification>,
    suppressed: u64,
}

impl Registry {
    /// Creates a registry that exports a verdict only after it has held
    /// continuously for `persistence`.
    pub fn new(persistence: SimDuration) -> Self {
        Registry { persistence, entries: BTreeMap::new(), log: Vec::new(), suppressed: 0 }
    }

    fn same_class(a: HealthState, b: HealthState) -> bool {
        a.badness() == b.badness()
    }

    /// Reports a local verdict for `component` at time `now`.
    ///
    /// Returns `Some(notification)` if this report caused the exported
    /// state to change (i.e. the verdict class has persisted long enough),
    /// `None` otherwise. Correctness failures are exported immediately —
    /// fail-stop detection must not be delayed by the stutter filter.
    pub fn report(
        &mut self,
        component: ComponentId,
        now: SimTime,
        verdict: HealthState,
    ) -> Option<Notification> {
        let entry = self.entries.entry(component).or_insert(Entry {
            exported: HealthState::Healthy,
            candidate: HealthState::Healthy,
            candidate_since: now,
        });

        // A standing candidate that differs from the exported state and has
        // already outlived the persistence window is published the moment a
        // report of yet another class ends it — not silently discarded.
        // With sparse reporting a recovery to Ok could otherwise hold for
        // hours and never export: faulty verdicts before and after it would
        // fold the exported state straight back to faulty.
        let mut deferred = None;
        if !Self::same_class(entry.candidate, entry.exported)
            && !Self::same_class(verdict, entry.candidate)
            && now - entry.candidate_since >= self.persistence
        {
            entry.exported = entry.candidate;
            let n = Notification { component, at: now, state: entry.exported };
            self.log.push(n);
            deferred = Some(n);
        }

        if !Self::same_class(verdict, entry.candidate) {
            entry.candidate = verdict;
            entry.candidate_since = now;
        } else {
            // Keep the freshest severity for an unchanged class.
            entry.candidate = verdict;
        }

        if Self::same_class(entry.exported, entry.candidate) {
            // Refresh exported severity silently; no notification.
            entry.exported = entry.candidate;
            return deferred;
        }

        let held = now - entry.candidate_since;
        let publish = matches!(verdict, HealthState::Failed) || held >= self.persistence;
        if publish {
            entry.exported = entry.candidate;
            let n = Notification { component, at: now, state: entry.exported };
            self.log.push(n);
            Some(n)
        } else {
            self.suppressed += 1;
            deferred
        }
    }

    /// The exported state of a component (healthy if never reported).
    pub fn exported(&self, component: ComponentId) -> HealthState {
        self.entries.get(&component).map_or(HealthState::Healthy, |e| e.exported)
    }

    /// All components whose exported state is performance-faulty or failed.
    pub fn faulty_components(&self) -> Vec<(ComponentId, HealthState)> {
        self.entries
            .iter()
            .filter(|(_, e)| !matches!(e.exported, HealthState::Healthy))
            .map(|(&id, e)| (id, e.exported))
            .collect()
    }

    /// Every notification published, in order.
    pub fn notifications(&self) -> &[Notification] {
        &self.log
    }

    /// How many reports were swallowed by the persistence filter.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: ComponentId = ComponentId(1);

    fn registry() -> Registry {
        Registry::new(SimDuration::from_secs(10))
    }

    fn perf(severity: f64) -> HealthState {
        HealthState::PerfFaulty { severity }
    }

    #[test]
    fn transient_stutter_is_suppressed() {
        let mut r = registry();
        assert_eq!(r.report(C, SimTime::from_secs(0), perf(0.5)), None);
        assert_eq!(r.report(C, SimTime::from_secs(5), HealthState::Healthy), None);
        assert_eq!(r.exported(C), HealthState::Healthy);
        assert_eq!(r.suppressed(), 1);
        assert!(r.notifications().is_empty());
    }

    #[test]
    fn persistent_stutter_is_published_once() {
        let mut r = registry();
        r.report(C, SimTime::from_secs(0), perf(0.5));
        r.report(C, SimTime::from_secs(5), perf(0.5));
        let n = r.report(C, SimTime::from_secs(10), perf(0.4));
        assert!(n.is_some(), "persisted 10 s, must publish");
        assert_eq!(r.exported(C), perf(0.4));
        // Further reports of the same class are silent severity refreshes.
        assert_eq!(r.report(C, SimTime::from_secs(11), perf(0.3)), None);
        assert_eq!(r.exported(C), perf(0.3));
        assert_eq!(r.notifications().len(), 1);
    }

    #[test]
    fn recovery_also_requires_persistence() {
        let mut r = registry();
        r.report(C, SimTime::from_secs(0), perf(0.5));
        r.report(C, SimTime::from_secs(10), perf(0.5));
        assert!(!matches!(r.exported(C), HealthState::Healthy));
        // A single healthy sample must not flip the exported state back.
        assert_eq!(r.report(C, SimTime::from_secs(11), HealthState::Healthy), None);
        assert!(!matches!(r.exported(C), HealthState::Healthy));
        // Ten healthy seconds do.
        let n = r.report(C, SimTime::from_secs(21), HealthState::Healthy);
        assert!(n.is_some());
        assert_eq!(r.exported(C), HealthState::Healthy);
    }

    #[test]
    fn failure_bypasses_persistence() {
        let mut r = registry();
        let n = r.report(C, SimTime::from_secs(1), HealthState::Failed);
        assert_eq!(
            n,
            Some(Notification {
                component: C,
                at: SimTime::from_secs(1),
                state: HealthState::Failed
            })
        );
        assert_eq!(r.exported(C), HealthState::Failed);
    }

    #[test]
    fn candidate_reset_on_class_change() {
        let mut r = registry();
        r.report(C, SimTime::from_secs(0), perf(0.5));
        r.report(C, SimTime::from_secs(8), HealthState::Healthy);
        // Faulty again: the 8 s of fault history must not carry over.
        r.report(C, SimTime::from_secs(9), perf(0.5));
        assert_eq!(r.report(C, SimTime::from_secs(17), perf(0.5)), None);
        assert!(r.report(C, SimTime::from_secs(19), perf(0.5)).is_some());
    }

    #[test]
    fn sparse_reports_still_publish_both_edges() {
        // Fault confirmed, then a recovery witnessed by a *single* report
        // that holds far past the window before the next faulty verdict:
        // the recovery must still export, as a pair of notifications.
        let mut r = registry();
        r.report(C, SimTime::from_secs(0), perf(0.5));
        assert!(r.report(C, SimTime::from_secs(10), perf(0.5)).is_some());
        assert_eq!(r.report(C, SimTime::from_secs(11), HealthState::Healthy), None);
        // 89 healthy seconds later the fault returns. Before the fix this
        // silently folded exported straight back to PerfFaulty and the
        // recovery interval was never published.
        let n = r.report(C, SimTime::from_secs(100), perf(0.5));
        assert_eq!(
            n,
            Some(Notification {
                component: C,
                at: SimTime::from_secs(100),
                state: HealthState::Healthy
            }),
            "the out-lived recovery candidate must publish"
        );
        assert_eq!(r.exported(C), HealthState::Healthy, "new fault not yet persistent");
        // And the returning fault publishes once it persists in turn.
        assert!(r.report(C, SimTime::from_secs(110), perf(0.5)).is_some());
        let classes: Vec<_> = r.notifications().iter().map(|n| n.state.badness()).collect();
        assert_eq!(classes.len(), 3, "fault, recovery, fault again: {classes:?}");
    }

    #[test]
    fn deferred_recovery_with_failed_verdict_logs_both() {
        let mut r = registry();
        r.report(C, SimTime::from_secs(0), perf(0.5));
        r.report(C, SimTime::from_secs(10), perf(0.5));
        r.report(C, SimTime::from_secs(11), HealthState::Healthy);
        // The component dies outright after a long silent recovery: the
        // failure returns (it bypasses persistence) and the recovery edge
        // is still logged before it.
        let n = r.report(C, SimTime::from_secs(60), HealthState::Failed);
        assert_eq!(n.map(|n| n.state), Some(HealthState::Failed));
        let states: Vec<_> = r.notifications().iter().map(|n| n.state).collect();
        assert!(
            matches!(states[states.len() - 2], HealthState::Healthy),
            "recovery logged before the failure: {states:?}"
        );
    }

    #[test]
    fn faulty_components_lists_exported_only() {
        let mut r = registry();
        let a = ComponentId(1);
        let b = ComponentId(2);
        r.report(a, SimTime::from_secs(0), perf(0.5));
        r.report(a, SimTime::from_secs(10), perf(0.5));
        r.report(b, SimTime::from_secs(0), perf(0.5)); // transient
        let faulty = r.faulty_components();
        assert_eq!(faulty.len(), 1);
        assert_eq!(faulty[0].0, a);
    }
}
