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

use simcore::resource::Cursor;
use simcore::time::{SimDuration, SimTime};
use stutter::fault::{ComponentId, HealthState};

use crate::entry::HealthEntry;

/// Confidence halves every `HALF_LIFE` of age.
const HALF_LIFE: SimDuration = SimDuration::from_secs(30);

/// The confidence assigned to an entry of the given age: `0.5^(age /
/// HALF_LIFE)`, monotone non-increasing in age, 1.0 at age zero.
pub(crate) fn confidence_at(age: SimDuration) -> f64 {
    0.5f64.powf(age.as_secs_f64() / HALF_LIFE.as_secs_f64())
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
    /// `0.5^(age / 30 s)` for known entries, 0.0 for never-heard-of, 1.0
    /// for tombstones.
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
/// decision instant. Histories are indexed by component id, each in the
/// non-decreasing arrival order the store appended it; a lookup searches
/// one with a [`Cursor`], so a consumer reading in time order steps
/// forward instead of searching again.
#[derive(Clone, Debug)]
pub struct StalenessView {
    histories: Vec<Vec<(SimTime, HealthEntry)>>,
    stale_after: SimDuration,
}

impl StalenessView {
    /// Wraps the accepted-update histories, one per component id;
    /// entries older than `stale_after` demote to [`PlaneState::Unknown`]
    /// (tombstones excepted). Each history must be in non-decreasing
    /// arrival order.
    pub(crate) fn new(
        histories: Vec<Vec<(SimTime, HealthEntry)>>,
        stale_after: SimDuration,
    ) -> Self {
        StalenessView { histories, stale_after }
    }

    /// The raw freshest entry that had arrived by `now`, if any.
    pub fn entry_at(&self, component: ComponentId, now: SimTime) -> Option<&HealthEntry> {
        let h = self.history(component);
        Cursor::default().seek(h, now, arrival).map(|k| &h[k].1)
    }

    /// The full accepted-update history for a component.
    pub fn history(&self, component: ComponentId) -> &[(SimTime, HealthEntry)] {
        self.histories.get(component.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Components this node has ever heard about, ascending.
    pub fn components(&self) -> impl Iterator<Item = ComponentId> + '_ {
        (0u32..).zip(&self.histories).filter(|(_, h)| !h.is_empty()).map(|(c, _)| ComponentId(c))
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
        let confidence = confidence_at(age);
        if age > self.stale_after {
            return PlaneView::unknown(age, confidence);
        }
        PlaneView { state: PlaneState::Known(e.state), age, confidence, rate: Some(e.rate) }
    }

    /// The rate a consumer should plan with at `now`: the gossiped rate
    /// when fresh, 0.0 for a tombstone, `fallback` (typically the
    /// component's nominal spec rate) when unknown or aged out. The same
    /// answer [`Self::query`] implies, without computing its confidence.
    pub fn estimated_rate(&self, component: ComponentId, now: SimTime, fallback: f64) -> f64 {
        self.estimated_rate_from(&mut Cursor::default(), component, now, fallback)
    }

    /// [`Self::estimated_rate`] for a consumer reading one component in
    /// time order: the search for `now` starts at `cursor`, which moves to
    /// the entry found. As with [`RateProfile`](simcore::resource::RateProfile)'s
    /// cursor, any cursor reads correctly at any instant; a read behind it
    /// searches again.
    pub fn estimated_rate_from(
        &self,
        cursor: &mut Cursor,
        component: ComponentId,
        now: SimTime,
        fallback: f64,
    ) -> f64 {
        let h = self.history(component);
        match cursor.seek(h, now, arrival).map(|k| &h[k].1) {
            Some(e) if e.is_tombstone() => 0.0,
            Some(e) if now.saturating_since(e.observed_at) <= self.stale_after => e.rate,
            _ => fallback,
        }
    }
}

/// The instant a history item arrived: the key its lookups search by.
fn arrival(item: &(SimTime, HealthEntry)) -> SimTime {
    item.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::NodeId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        StalenessView::new(vec![history], SimDuration::from_secs(60))
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

    /// The reference lookup: the last arrival at or before `now`, found by
    /// a reverse linear scan.
    fn scan(history: &[(SimTime, HealthEntry)], now: SimTime) -> Option<&HealthEntry> {
        history.iter().rev().find(|(arrival, _)| *arrival <= now).map(|(_, e)| e)
    }

    /// The reference consumer rate, decided through `query`'s staleness rule.
    fn rate_via_query(v: &StalenessView, c: ComponentId, now: SimTime, fallback: f64) -> f64 {
        match v.query(c, now) {
            PlaneView { state: PlaneState::Known(HealthState::Failed), .. } => 0.0,
            PlaneView { state: PlaneState::Known(_), rate: Some(r), .. } => r,
            _ => fallback,
        }
    }

    /// One component's accepted history as a store appends it: arrivals
    /// non-decreasing (a zero gap lands several entries at one instant),
    /// seqs increasing, each entry observed up to 90 s before it arrived,
    /// and optionally a closing tombstone.
    fn history(c: u32) -> impl Strategy<Value = Vec<(SimTime, HealthEntry)>> {
        let step = (prop_oneof![Just(0u64), 1u64..40_000], 0u64..90_000, any::<bool>());
        (proptest::collection::vec(step, 0..8), any::<bool>()).prop_map(move |(steps, tomb)| {
            let last = steps.len();
            let mut arrival = SimTime::from_secs(100);
            let mut out = Vec::with_capacity(last);
            for (k, (gap_ms, lag_ms, slow)) in steps.into_iter().enumerate() {
                arrival += SimDuration::from_millis(gap_ms);
                let state = match (tomb && k + 1 == last, slow) {
                    (true, _) => HealthState::Failed,
                    (false, true) => HealthState::PerfFaulty { severity: 0.4 },
                    (false, false) => HealthState::Healthy,
                };
                let e = HealthEntry {
                    component: ComponentId(c),
                    origin: NodeId(c),
                    seq: k as u64 + 1,
                    state,
                    rate: if matches!(state, HealthState::Failed) { 0.0 } else { (k + 1) as f64 },
                    observed_at: arrival - SimDuration::from_millis(lag_ms),
                };
                out.push((arrival, e));
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Probed before the first arrival, 1 ns around and exactly at
        /// every arrival, at and just past every entry's staleness bound,
        /// and after the last arrival: `entry_at` agrees with the linear
        /// scan and `estimated_rate` with `query`. Read through a cursor —
        /// probes in time order, each twice, backwards, and with one cursor
        /// carried from component to component — they agree too.
        #[test]
        fn lookups_match_the_linear_scan_and_query(
            histories in (history(0), history(1), history(2))
        ) {
            let (h0, h1, h2) = histories;
            let stale_after = SimDuration::from_secs(60);
            let v = StalenessView::new(vec![h0.clone(), h1.clone(), h2.clone()], stale_after);
            let histories: BTreeMap<ComponentId, Vec<(SimTime, HealthEntry)>> = [h0, h1, h2]
                .into_iter()
                .filter(|h| !h.is_empty())
                .map(|h| (h[0].1.component, h))
                .collect();
            prop_assert!(v.components().eq(histories.keys().copied()));
            let mut probes = vec![SimTime::ZERO, SimTime::from_secs(10_000)];
            for (arrival, e) in histories.values().flatten() {
                let bound = e.observed_at + stale_after;
                let ns = SimDuration::from_nanos(1);
                probes.extend([*arrival - ns, *arrival, *arrival + ns, bound, bound + ns]);
            }
            for c in (0..4).map(ComponentId) {
                let h = histories.get(&c).map_or(&[][..], Vec::as_slice);
                for &now in &probes {
                    prop_assert_eq!(v.entry_at(c, now), scan(h, now), "{} at {:?}", c, now);
                    prop_assert_eq!(
                        v.estimated_rate(c, now, 42.0).to_bits(),
                        rate_via_query(&v, c, now, 42.0).to_bits(),
                        "{} at {:?}", c, now
                    );
                }
            }
            probes.sort();
            let twice: Vec<SimTime> = probes.iter().flat_map(|&t| [t, t]).collect();
            let backwards: Vec<SimTime> = probes.iter().rev().copied().collect();
            let mut carried = Cursor::default();
            for c in (0..4).map(ComponentId) {
                for order in [&probes, &twice, &backwards] {
                    let mut cursor = Cursor::default();
                    for &now in order {
                        let want = rate_via_query(&v, c, now, 42.0).to_bits();
                        prop_assert_eq!(
                            v.estimated_rate_from(&mut cursor, c, now, 42.0).to_bits(),
                            want,
                            "{} at {:?}", c, now
                        );
                        prop_assert_eq!(
                            v.estimated_rate_from(&mut carried, c, now, 42.0).to_bits(),
                            want,
                            "{} at {:?}", c, now
                        );
                    }
                }
            }
        }
    }
}
