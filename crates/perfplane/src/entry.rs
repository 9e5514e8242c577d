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
///
/// A plane's components are its node indices, so both tables are indexed
/// by component id and sized once for the `n` components of the plane.
#[derive(Clone, Debug)]
pub struct Store {
    entries: Vec<Option<HealthEntry>>,
    history: Vec<Vec<(SimTime, HealthEntry)>>,
}

impl Store {
    /// Creates an empty store for components `0..n`.
    pub fn new(n: usize) -> Self {
        Store { entries: vec![None; n], history: vec![Vec::new(); n] }
    }

    /// Merges one entry received (or locally produced) at `now`.
    ///
    /// Accepts iff the entry is strictly fresher than what the store
    /// holds; tombstones are terminal — once a component is failed no
    /// entry replaces it (single-writer sequencing makes a fresher
    /// non-failed entry after a tombstone impossible, and this guards the
    /// invariant against any buggy sender). An entry for a component
    /// outside the store's `0..n` is refused. Returns whether the entry
    /// was accepted.
    pub fn merge(&mut self, now: SimTime, entry: HealthEntry) -> bool {
        let c = entry.component.0 as usize;
        let Some(slot) = self.entries.get_mut(c) else { return false };
        match slot {
            Some(existing) if existing.is_tombstone() => return false,
            Some(existing) if entry.seq <= existing.seq => return false,
            _ => {}
        }
        *slot = Some(entry);
        self.history[c].push((now, entry));
        true
    }

    /// The freshest entry for a component, if any version has arrived.
    pub fn get(&self, component: ComponentId) -> Option<&HealthEntry> {
        self.entries.get(component.0 as usize)?.as_ref()
    }

    /// The freshest entries, ordered by component — the gossip payload.
    pub(crate) fn latest(&self) -> impl Iterator<Item = &HealthEntry> + '_ {
        self.entries.iter().flatten()
    }

    /// Entries strictly fresher here than in `theirs` (or absent there),
    /// ordered by component — the pull half of a push-pull exchange.
    ///
    /// `theirs` is a digest, in any order, with at most one entry per
    /// component. Digests are a few entries long, so each lookup is a
    /// linear scan.
    pub fn fresher_than<'a>(
        &'a self,
        theirs: &'a [HealthEntry],
    ) -> impl Iterator<Item = HealthEntry> + 'a {
        self.latest()
            .filter(|e| {
                theirs.iter().find(|t| t.component == e.component).is_none_or(|t| e.seq > t.seq)
            })
            .copied()
    }

    /// Moves the history out of the store (for building a view): one
    /// arrival-ordered history per component, indexed by component id.
    pub(crate) fn into_history(self) -> Vec<Vec<(SimTime, HealthEntry)>> {
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
        let mut s = Store::new(1);
        assert!(s.merge(SimTime::ZERO, entry(2, HealthState::Healthy)));
        assert!(!s.merge(SimTime::ZERO, entry(2, HealthState::Healthy)), "equal seq rejected");
        assert!(!s.merge(SimTime::ZERO, entry(1, HealthState::Healthy)), "stale rejected");
        assert!(s.merge(SimTime::ZERO, entry(3, HealthState::PerfFaulty { severity: 0.5 })));
        assert_eq!(s.get(ComponentId(0)).unwrap().seq, 3);
        assert_eq!(s.into_history()[0].len(), 2);
    }

    #[test]
    fn tombstones_are_terminal() {
        let mut s = Store::new(1);
        assert!(s.merge(SimTime::ZERO, entry(5, HealthState::Failed)));
        assert!(!s.merge(SimTime::ZERO, entry(9, HealthState::Healthy)));
        assert!(s.get(ComponentId(0)).unwrap().is_tombstone());
    }

    #[test]
    fn fresher_than_implements_the_pull_half() {
        let mut a = Store::new(2);
        let mut b = Store::new(2);
        a.merge(SimTime::ZERO, entry(3, HealthState::Healthy));
        b.merge(SimTime::ZERO, entry(1, HealthState::Healthy));
        let mut other = entry(7, HealthState::Healthy);
        other.component = ComponentId(1);
        a.merge(SimTime::ZERO, other);

        let theirs: Vec<HealthEntry> = b.latest().copied().collect();
        let reply: Vec<HealthEntry> = a.fresher_than(&theirs).collect();
        assert_eq!(reply.len(), 2, "newer version and unknown component");
        let mine: Vec<HealthEntry> = a.latest().copied().collect();
        assert_eq!(a.fresher_than(&mine).count(), 0);
    }

    #[test]
    fn components_outside_the_plane_are_refused() {
        let n = 3;
        let mut s = Store::new(n);
        assert!(s.merge(SimTime::ZERO, entry(1, HealthState::Healthy)));
        for c in [n as u32, u32::MAX] {
            let e = HealthEntry { component: ComponentId(c), ..entry(2, HealthState::Failed) };
            assert!(!s.merge(SimTime::from_secs(1), e), "component {c} merged into {n}");
            assert_eq!(s.get(ComponentId(c)), None);
        }
        assert_eq!(s.latest().count(), 1);
        let history = s.into_history();
        assert_eq!(history.len(), n, "a refused merge grows no table");
        assert_eq!(history[0].len(), 1);
        assert!(history[1..].iter().all(|h| h.capacity() == 0), "nothing allocated");
    }
}
