//! Versioned performance-state entries and the per-node store.
//!
//! Each entry carries one component's exported [`HealthState`] plus the
//! observed rate behind it, stamped by the *origin* node that watched the
//! component, a monotone per-origin sequence number, and the observation
//! time. Entries are **single-writer**: only the origin ever mints new
//! versions of its components' entries, so "newer" is simply "higher
//! sequence number" and merges need no vector clocks.
//!
//! A [`HealthState::Failed`] entry is a **tombstone**: fail-stop is
//! permanent (paper §3.1 threshold rule — beyond `T` the component is
//! absolutely failed), so the origin stops publishing after it and no
//! later entry may overwrite it.

use simcore::time::SimTime;
use stutter::fault::{ComponentId, HealthState};

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Identifies a plane node (an observer/consumer of performance state).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One versioned performance-state fact about one component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthEntry {
    /// The component this entry describes.
    pub component: ComponentId,
    /// The node that observed the component and minted this version.
    pub origin: NodeId,
    /// Monotone per-`(origin, component)` version; higher is fresher.
    pub seq: u64,
    /// The exported health classification at the origin.
    pub state: HealthState,
    /// The origin's smoothed observed rate (units/second) behind the
    /// classification; what staleness-aware consumers actually plan with.
    pub rate: f64,
    /// When the origin made the observation. A view's *age* is measured
    /// from here, so propagation delay counts as staleness.
    pub observed_at: SimTime,
}

impl HealthEntry {
    /// True if this entry is a fail-stop tombstone.
    pub fn is_tombstone(&self) -> bool {
        matches!(self.state, HealthState::Failed)
    }
}

/// A node's local copy of the plane: latest entry per component, plus the
/// full accepted-update history (arrival time, entry) that staleness views
/// replay.
#[derive(Clone, Debug, Default)]
pub struct Store {
    entries: BTreeMap<ComponentId, HealthEntry>,
    history: BTreeMap<ComponentId, Vec<(SimTime, HealthEntry)>>,
    /// The gossip digest of `entries`, built on first use and dropped by
    /// every accepted merge.
    digest: OnceCell<Rc<[HealthEntry]>>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Merges one entry received (or locally produced) at `now`.
    ///
    /// Accepts iff the entry is strictly fresher than what the store
    /// holds; tombstones are terminal — once a component is failed no
    /// entry replaces it (single-writer sequencing makes a fresher
    /// non-failed entry after a tombstone impossible, and this guards the
    /// invariant against any buggy sender). Returns whether the entry was
    /// accepted.
    pub fn merge(&mut self, now: SimTime, entry: HealthEntry) -> bool {
        match self.entries.get(&entry.component) {
            Some(existing) if existing.is_tombstone() => return false,
            Some(existing) if entry.seq <= existing.seq => return false,
            _ => {}
        }
        self.entries.insert(entry.component, entry);
        self.history.entry(entry.component).or_default().push((now, entry));
        self.digest.take();
        true
    }

    /// The freshest entry for a component, if any version has arrived.
    pub fn get(&self, component: ComponentId) -> Option<&HealthEntry> {
        self.entries.get(&component)
    }

    /// All freshest entries, ordered by component — the gossip payload.
    /// Shared, so pushes carry one copy until a merge accepts an entry.
    pub fn snapshot(&self) -> Rc<[HealthEntry]> {
        Rc::clone(self.digest.get_or_init(|| self.entries.values().copied().collect()))
    }

    /// The freshest entries, ordered by component, without copying them.
    pub(crate) fn latest(&self) -> impl Iterator<Item = &HealthEntry> + '_ {
        self.entries.values()
    }

    /// Entries strictly fresher here than in `theirs` (or absent there) —
    /// the pull half of a push-pull exchange.
    ///
    /// `theirs` is a digest, in any order, with at most one entry per
    /// component. Digests are a few entries long, so each lookup is a
    /// linear scan.
    pub fn fresher_than(&self, theirs: &[HealthEntry]) -> Vec<HealthEntry> {
        self.entries
            .values()
            .filter(|e| {
                theirs.iter().find(|t| t.component == e.component).is_none_or(|t| e.seq > t.seq)
            })
            .copied()
            .collect()
    }

    /// Moves the history out of the store (for building a view). Each
    /// component's history is in arrival order.
    pub(crate) fn into_history(self) -> BTreeMap<ComponentId, Vec<(SimTime, HealthEntry)>> {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn entry(seq: u64, state: HealthState) -> HealthEntry {
        HealthEntry {
            component: ComponentId(0),
            origin: NodeId(0),
            seq,
            state,
            rate: 10.0,
            observed_at: SimTime::ZERO + SimDuration::from_secs(seq),
        }
    }

    #[test]
    fn merge_keeps_only_fresher_versions() {
        let mut s = Store::new();
        assert!(s.merge(SimTime::ZERO, entry(2, HealthState::Healthy)));
        assert!(!s.merge(SimTime::ZERO, entry(2, HealthState::Healthy)), "equal seq rejected");
        assert!(!s.merge(SimTime::ZERO, entry(1, HealthState::Healthy)), "stale rejected");
        assert!(s.merge(SimTime::ZERO, entry(3, HealthState::PerfFaulty { severity: 0.5 })));
        assert_eq!(s.get(ComponentId(0)).unwrap().seq, 3);
        assert_eq!(s.into_history()[&ComponentId(0)].len(), 2);
    }

    #[test]
    fn tombstones_are_terminal() {
        let mut s = Store::new();
        assert!(s.merge(SimTime::ZERO, entry(5, HealthState::Failed)));
        assert!(!s.merge(SimTime::ZERO, entry(9, HealthState::Healthy)));
        assert!(s.get(ComponentId(0)).unwrap().is_tombstone());
    }

    #[test]
    fn fresher_than_implements_the_pull_half() {
        let mut a = Store::new();
        let mut b = Store::new();
        a.merge(SimTime::ZERO, entry(3, HealthState::Healthy));
        b.merge(SimTime::ZERO, entry(1, HealthState::Healthy));
        let mut other = entry(7, HealthState::Healthy);
        other.component = ComponentId(1);
        a.merge(SimTime::ZERO, other);

        let reply = a.fresher_than(&b.snapshot());
        assert_eq!(reply.len(), 2, "newer version and unknown component");
        assert!(a.fresher_than(&a.snapshot()).is_empty());
    }

    #[test]
    fn the_cached_digest_tracks_every_merge() {
        let on = |component: u32, seq: u64, state: HealthState| HealthEntry {
            component: ComponentId(component),
            ..entry(seq, state)
        };
        let merges = [
            (on(1, 4, HealthState::Healthy), true),
            (on(0, 2, HealthState::Healthy), true),
            (on(1, 3, HealthState::Healthy), false), // stale
            (on(0, 2, HealthState::PerfFaulty { severity: 0.5 }), false), // equal seq
            (on(1, 5, HealthState::PerfFaulty { severity: 0.5 }), true),
            (on(0, 6, HealthState::Failed), true),
            (on(0, 9, HealthState::Healthy), false), // after the tombstone
            (on(2, 1, HealthState::Healthy), true),
        ];
        let mut s = Store::new();
        for (at, (e, accepted)) in merges.into_iter().enumerate() {
            let before = s.snapshot();
            assert_eq!(s.merge(SimTime::from_secs(at as u64), e), accepted, "{e:?}");
            let after = s.snapshot();
            let rebuilt: Vec<HealthEntry> =
                (0..3).filter_map(|c| s.get(ComponentId(c)).copied()).collect();
            assert_eq!(*after, *rebuilt, "after merging {e:?}");
            // One digest is shared until a merge accepts an entry.
            assert!(Rc::ptr_eq(&after, &s.snapshot()), "{e:?}");
            assert_eq!(Rc::ptr_eq(&before, &after), !accepted, "{e:?}");
        }
    }
}
