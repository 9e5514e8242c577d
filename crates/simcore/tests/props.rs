//! Property tests for the event core: execution order is a function of
//! `(time, sequence)` and nothing else.

use proptest::prelude::*;

use simcore::rng::Stream;
use simcore::sim::Simulation;
use simcore::time::{SimDuration, SimTime};

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

        let mut sim = Simulation::new(Vec::<u64>::new());
        for &ms in &insertion {
            sim.schedule_at(SimTime::from_millis(ms), move |log: &mut Vec<u64>, _| {
                log.push(ms);
            });
        }
        sim.run();
        prop_assert_eq!(sim.into_state(), sorted);
    }

    /// Equal-time events run in insertion order — the FIFO tie-break is the
    /// *defined* semantics (sequence numbers), so two same-time events never
    /// race on heap internals.
    #[test]
    fn equal_time_events_run_fifo(at in 0u64..1_000_000, n in 1usize..32) {
        let mut sim = Simulation::new(Vec::<usize>::new());
        for i in 0..n {
            sim.schedule_at(SimTime::from_millis(at), move |log: &mut Vec<usize>, _| {
                log.push(i);
            });
        }
        sim.run();
        prop_assert_eq!(sim.into_state(), (0..n).collect::<Vec<_>>());
    }

    /// Mixed case: any multiset of times executes sorted by time, and within
    /// one time by insertion order.
    #[test]
    fn multiset_times_execute_in_stable_time_order(
        times in proptest::collection::vec(0u64..10_000, 1..64)
    ) {
        let mut sim = Simulation::new(Vec::<(u64, usize)>::new());
        for (i, &ms) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_millis(ms), move |log: &mut Vec<(u64, usize)>, _| {
                log.push((ms, i));
            });
        }
        sim.run();
        let got = sim.into_state();
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, ms)| (ms, i)).collect();
        // A stable sort by time alone models (time, insertion-seq) order.
        expected.sort_by_key(|&(ms, _)| ms);
        prop_assert_eq!(got, expected);
    }

    /// Periodic timers tick at exactly `first + k*period`.
    #[test]
    fn periodic_ticks_exact(
        first_ms in 0u64..10,
        period_ms in 1u64..10,
        reps in 1usize..10
    ) {
        let mut sim = Simulation::new(Vec::<u64>::new());
        let mut left = reps;
        sim.schedule_periodic(
            SimDuration::from_millis(first_ms),
            move |log: &mut Vec<u64>, ctx| {
                log.push(ctx.now().as_nanos());
                left -= 1;
                if left > 0 { Some(SimDuration::from_millis(period_ms)) } else { None }
            },
        );
        sim.run();
        let want: Vec<u64> = (0..reps as u64)
            .map(|k| SimTime::from_millis(first_ms + k * period_ms).as_nanos())
            .collect();
        prop_assert_eq!(sim.into_state(), want);
    }
}
