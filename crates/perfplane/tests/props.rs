//! Property tests for the store's pull half: `Store::fresher_than` must
//! answer the same for a digest in any order.

use proptest::prelude::*;

use perfplane::entry::{HealthEntry, NodeId, Store};
use simcore::rng::Stream;
use simcore::time::SimTime;
use stutter::fault::{ComponentId, HealthState};

/// Components per generated plane (the campaign's planes have ≤ 8 nodes).
const COMPONENTS: usize = 8;

fn entry(component: usize, seq: u64, tombstone: bool) -> HealthEntry {
    HealthEntry {
        component: ComponentId(component as u32),
        origin: NodeId(component as u32),
        seq,
        state: if tombstone { HealthState::Failed } else { HealthState::Healthy },
        rate: if tombstone { 0.0 } else { 10.0 },
        observed_at: SimTime::from_secs(seq),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Against a per-component table of the digest's sequence numbers: an
    /// entry is fresher when the digest lacks its component or holds an
    /// older version of it. The digest is shuffled before the call.
    #[test]
    fn fresher_than_matches_a_per_component_model(
        merges in proptest::collection::vec((0..COMPONENTS, 0u64..6, any::<bool>()), 0..24),
        digest in proptest::collection::vec(proptest::option::of(0u64..6), COMPONENTS),
        seed in any::<u64>()
    ) {
        let mut store = Store::new(COMPONENTS);
        for &(c, seq, tombstone) in &merges {
            store.merge(SimTime::ZERO, entry(c, seq, tombstone));
        }
        let mut theirs: Vec<HealthEntry> = digest
            .iter()
            .enumerate()
            .filter_map(|(c, seq)| seq.map(|s| entry(c, s, false)))
            .collect();
        Stream::from_seed(seed).shuffle(&mut theirs);

        let want: Vec<HealthEntry> = (0..COMPONENTS)
            .filter_map(|c| store.get(ComponentId(c as u32)).copied())
            .filter(|mine| digest[mine.component.0 as usize].is_none_or(|s| mine.seq > s))
            .collect();
        prop_assert_eq!(store.fresher_than(&theirs).collect::<Vec<_>>(), want);
    }
}
