//! Property tests for the event queue: pop order is a function of
//! `(time, sequence)` and nothing else.

use proptest::prelude::*;

use simcore::rng::Stream;
use simcore::sim::EventQueue;
use simcore::time::SimTime;

/// Pops every queued event in dispatch order.
fn drain<E>(queue: &mut EventQueue<E>) -> Vec<E> {
    std::iter::from_fn(|| queue.pop_until(SimTime::MAX)).collect()
}

proptest! {
    /// Events at distinct times run in time order no matter what order they
    /// were inserted in. This is the regression guard for the class of bug
    /// fs-lint's `stable-tiebreak` rule hunts: an ordering that silently
    /// depends on queue/insertion state instead of scheduled time.
    #[test]
    fn distinct_time_events_run_in_time_order(
        times in proptest::collection::btree_set(0u64..1_000_000, 1..64),
        seed in any::<u64>()
    ) {
        let sorted: Vec<u64> = times.iter().copied().collect();
        let mut insertion: Vec<u64> = sorted.clone();
        Stream::from_seed(seed).shuffle(&mut insertion);

        let mut queue = EventQueue::new();
        for &ms in &insertion {
            queue.schedule_at(SimTime::from_millis(ms), ms);
        }
        prop_assert_eq!(drain(&mut queue), sorted);
    }

    /// Equal-time events run in insertion order — the FIFO tie-break is the
    /// *defined* semantics (sequence numbers), so two same-time events never
    /// race on heap internals.
    #[test]
    fn equal_time_events_run_fifo(at in 0u64..1_000_000, n in 1usize..32) {
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.schedule_at(SimTime::from_millis(at), i);
        }
        prop_assert_eq!(drain(&mut queue), (0..n).collect::<Vec<_>>());
    }

    /// Mixed case: any multiset of times executes sorted by time, and within
    /// one time by insertion order.
    #[test]
    fn multiset_times_execute_in_stable_time_order(
        times in proptest::collection::vec(0u64..10_000, 1..64)
    ) {
        let mut queue = EventQueue::new();
        for (i, &ms) in times.iter().enumerate() {
            queue.schedule_at(SimTime::from_millis(ms), (ms, i));
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, ms)| (ms, i)).collect();
        // A stable sort by time alone models (time, insertion-seq) order.
        expected.sort_by_key(|&(ms, _)| ms);
        prop_assert_eq!(drain(&mut queue), expected);
    }
}
