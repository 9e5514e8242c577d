//! Staleness-aware consumer views over gossiped performance state.
//!
//! A consumer never sees the plane's transport; it queries a
//! [`StalenessView`] and gets back *state + age + confidence*. The decay
//! rule is the plane's defence against the metastable-failure trap of
//! trusting health signals forever: a `PerfFaulty` or `Ok` entry older
//! than the staleness bound demotes to [`PlaneState::Unknown`], and
//! confidence decays exponentially with age so consumers can hedge before
//! the hard cutoff. Fail-stop tombstones never decay — a component that
//! absolutely failed stays failed (paper §3.1).

use simcore::time::{SimDuration, SimTime};
use stutter::fault::{ComponentId, HealthState};

use crate::entry::HealthEntry;

use std::collections::BTreeMap;

/// How a view translates entry age into trust.
#[derive(Clone, Copy, Debug)]
pub struct StalenessConfig {
    /// Entries older than this demote to [`PlaneState::Unknown`]
    /// (tombstones excepted).
    pub stale_after: SimDuration,
    /// Confidence halves every `half_life` of age.
    pub half_life: SimDuration,
}

impl Default for StalenessConfig {
    fn default() -> Self {
        StalenessConfig {
            stale_after: SimDuration::from_secs(60),
            half_life: SimDuration::from_secs(30),
        }
    }
}

impl StalenessConfig {
    /// The confidence assigned to an entry of the given age: `0.5^(age /
    /// half_life)`, monotone non-increasing in age, 1.0 at age zero.
    pub fn confidence_at(&self, age: SimDuration) -> f64 {
        let h = self.half_life.as_secs_f64();
        if h <= 0.0 {
            return if age == SimDuration::ZERO { 1.0 } else { 0.0 };
        }
        0.5f64.powf(age.as_secs_f64() / h)
    }
}

/// What a consumer knows about a component's health.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlaneState {
    /// A sufficiently fresh entry exists (or a tombstone, which is
    /// forever).
    Known(HealthState),
    /// No entry has arrived, or the freshest one aged out.
    Unknown,
}

/// One staleness-aware answer: state, how old the evidence is, and how
/// much to trust it.
#[derive(Clone, Copy, Debug)]
pub struct PlaneView {
    /// The (possibly demoted) state.
    pub state: PlaneState,
    /// Time since the underlying observation was made at its origin
    /// (propagation delay included). `SimDuration::MAX` when nothing has
    /// ever arrived.
    pub age: SimDuration,
    /// `0.5^(age/half_life)` for known entries, 0.0 for never-heard-of,
    /// 1.0 for tombstones.
    pub confidence: f64,
    /// The origin's observed rate, when a fresh entry is known.
    pub rate: Option<f64>,
}

impl PlaneView {
    fn unknown(age: SimDuration, confidence: f64) -> Self {
        PlaneView { state: PlaneState::Unknown, age, confidence, rate: None }
    }
}

/// One node's queryable history of accepted plane updates.
///
/// Built from a [`crate::entry::Store`] after a gossip run; `query` is a
/// pure function of `(component, now)`, so consumers can replay any
/// decision instant.
#[derive(Clone, Debug)]
pub struct StalenessView {
    histories: BTreeMap<ComponentId, Vec<(SimTime, HealthEntry)>>,
    staleness: StalenessConfig,
}

impl StalenessView {
    /// Wraps an accepted-update history under a staleness policy.
    pub fn new(
        histories: BTreeMap<ComponentId, Vec<(SimTime, HealthEntry)>>,
        staleness: StalenessConfig,
    ) -> Self {
        StalenessView { histories, staleness }
    }

    /// The staleness policy in force.
    pub fn staleness(&self) -> StalenessConfig {
        self.staleness
    }

    /// The raw freshest entry that had arrived by `now`, if any.
    pub fn entry_at(&self, component: ComponentId, now: SimTime) -> Option<&HealthEntry> {
        let h = self.histories.get(&component)?;
        h.iter().rev().find(|(arrival, _)| *arrival <= now).map(|(_, e)| e)
    }

    /// The full accepted-update history for a component.
    pub fn history(&self, component: ComponentId) -> &[(SimTime, HealthEntry)] {
        self.histories.get(&component).map_or(&[], Vec::as_slice)
    }

    /// Components this node has ever heard about.
    pub fn components(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.histories.keys().copied()
    }

    /// What this node believed about `component` at instant `now`.
    pub fn query(&self, component: ComponentId, now: SimTime) -> PlaneView {
        let Some(e) = self.entry_at(component, now) else {
            return PlaneView::unknown(SimDuration::MAX, 0.0);
        };
        let age = now.saturating_since(e.observed_at);
        if e.is_tombstone() {
            // Fail-stop is permanent: tombstones never decay.
            return PlaneView {
                state: PlaneState::Known(HealthState::Failed),
                age,
                confidence: 1.0,
                rate: Some(0.0),
            };
        }
        let confidence = self.staleness.confidence_at(age);
        if age > self.staleness.stale_after {
            return PlaneView::unknown(age, confidence);
        }
        PlaneView { state: PlaneState::Known(e.state), age, confidence, rate: Some(e.rate) }
    }

    /// The rate a consumer should plan with at `now`: the gossiped rate
    /// when fresh, 0.0 for a tombstone, `fallback` (typically the
    /// component's nominal spec rate) when unknown or aged out.
    pub fn estimated_rate(&self, component: ComponentId, now: SimTime, fallback: f64) -> f64 {
        match self.query(component, now) {
            PlaneView { state: PlaneState::Known(HealthState::Failed), .. } => 0.0,
            PlaneView { state: PlaneState::Known(_), rate: Some(r), .. } => r,
            _ => fallback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::NodeId;

    fn entry(seq: u64, state: HealthState, observed_at: SimTime) -> HealthEntry {
        HealthEntry {
            component: ComponentId(0),
            origin: NodeId(0),
            seq,
            state,
            rate: 7.0,
            observed_at,
        }
    }

    fn view(history: Vec<(SimTime, HealthEntry)>) -> StalenessView {
        let mut m = BTreeMap::new();
        m.insert(ComponentId(0), history);
        StalenessView::new(
            m,
            StalenessConfig {
                stale_after: SimDuration::from_secs(60),
                half_life: SimDuration::from_secs(30),
            },
        )
    }

    #[test]
    fn never_heard_of_is_unknown() {
        let v = view(Vec::new());
        let q = v.query(ComponentId(0), SimTime::from_secs(10));
        assert_eq!(q.state, PlaneState::Unknown);
        assert_eq!(q.confidence, 0.0);
        assert_eq!(v.estimated_rate(ComponentId(0), SimTime::from_secs(10), 42.0), 42.0);
    }

    #[test]
    fn fresh_entries_are_known_and_decay_monotonically() {
        let v = view(vec![(
            SimTime::from_secs(5),
            entry(1, HealthState::Healthy, SimTime::from_secs(4)),
        )]);
        let early = v.query(ComponentId(0), SimTime::from_secs(10));
        let late = v.query(ComponentId(0), SimTime::from_secs(40));
        assert!(matches!(early.state, PlaneState::Known(HealthState::Healthy)));
        // Age counts from the origin's observation, not local arrival.
        assert_eq!(early.age, SimDuration::from_secs(6));
        assert!(early.confidence > late.confidence, "confidence must decay with age");
        assert_eq!(v.estimated_rate(ComponentId(0), SimTime::from_secs(10), 42.0), 7.0);
    }

    #[test]
    fn stale_entries_demote_to_unknown() {
        let v = view(vec![(
            SimTime::from_secs(5),
            entry(1, HealthState::PerfFaulty { severity: 0.5 }, SimTime::from_secs(4)),
        )]);
        let q = v.query(ComponentId(0), SimTime::from_secs(100));
        assert_eq!(q.state, PlaneState::Unknown);
        assert!(q.confidence < 0.2, "96 s at a 30 s half-life");
        assert_eq!(v.estimated_rate(ComponentId(0), SimTime::from_secs(100), 42.0), 42.0);
    }

    #[test]
    fn tombstones_never_decay() {
        let v = view(vec![(
            SimTime::from_secs(5),
            entry(1, HealthState::Failed, SimTime::from_secs(4)),
        )]);
        let q = v.query(ComponentId(0), SimTime::from_secs(10_000));
        assert!(matches!(q.state, PlaneState::Known(HealthState::Failed)));
        assert_eq!(q.confidence, 1.0);
        assert_eq!(v.estimated_rate(ComponentId(0), SimTime::from_secs(10_000), 42.0), 0.0);
    }

    #[test]
    fn query_is_time_travel_safe() {
        // Two versions; a query between the arrivals sees only the first.
        let v = view(vec![
            (SimTime::from_secs(5), entry(1, HealthState::Healthy, SimTime::from_secs(4))),
            (
                SimTime::from_secs(20),
                entry(2, HealthState::PerfFaulty { severity: 0.3 }, SimTime::from_secs(18)),
            ),
        ]);
        let between = v.query(ComponentId(0), SimTime::from_secs(10));
        assert!(matches!(between.state, PlaneState::Known(HealthState::Healthy)));
        let after = v.query(ComponentId(0), SimTime::from_secs(21));
        assert!(matches!(after.state, PlaneState::Known(HealthState::PerfFaulty { .. })));
    }
}
