//! Property tests for the event core: execution order is a function of
//! `(time, sequence)` and nothing else.

use proptest::prelude::*;

use simcore::queue::{CalendarQueue, EventKey, EventQueue, QueueKind, ReferenceQueue};
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
}

// ---------------------------------------------------------------------------
// Calendar-queue invariants (raw queue level, explicit geometry).
// ---------------------------------------------------------------------------

/// Pops every key from `q`, checking ascending `(at, seq)` order.
fn drain_sorted(q: &mut dyn EventQueue) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    while let Some(k) = q.pop_next() {
        out.push((k.at.as_nanos(), k.seq));
    }
    out
}

proptest! {
    /// Events exactly on bucket edges and year boundaries (multiples of
    /// the width, including 0 and the year length) must pop in the same
    /// order as the reference heap — the off-by-one-bucket failure mode.
    #[test]
    fn calendar_bucket_edge_times_match_reference(
        width in 1u64..50,
        buckets in 1usize..12,
        edges in proptest::collection::vec(0u64..40, 2..64)
    ) {
        let mut cal = CalendarQueue::with_geometry(width, buckets);
        let mut refr = ReferenceQueue::new();
        for (seq, &e) in edges.iter().enumerate() {
            // Exact bucket-edge times: e buckets' worth of nanoseconds,
            // which also hits year boundaries whenever e % buckets == 0.
            let key = EventKey {
                at: SimTime::from_nanos(e * width),
                seq: seq as u64,
                slot: seq as u32,
            };
            cal.push(key);
            refr.push(key);
        }
        prop_assert_eq!(drain_sorted(&mut cal), drain_sorted(&mut refr));
    }

    /// Far-future keys demote to the overflow ladder at push and promote
    /// back as years advance; interleaved pops and pushes (always at or
    /// after the last popped time, per the queue contract) must still
    /// yield the exact reference order.
    #[test]
    fn calendar_overflow_promotion_matches_reference(
        width in 1u64..1000,
        buckets in 1usize..16,
        times in proptest::collection::vec((0u64..1 << 40, any::<bool>()), 2..64),
        pop_every in 1usize..4
    ) {
        let mut cal = CalendarQueue::with_geometry(width, buckets);
        let mut refr = ReferenceQueue::new();
        let mut floor = 0u64; // last popped time: pushes must be >= floor
        let mut popped = Vec::new();
        for (seq, &(t, near)) in times.iter().enumerate() {
            // Mix near-floor times (ties and next-bucket) with far-future
            // ones that land on the overflow ladder.
            let at = if near { floor + t % (width * 4) } else { floor.saturating_add(t) };
            let key =
                EventKey { at: SimTime::from_nanos(at), seq: seq as u64, slot: seq as u32 };
            cal.push(key);
            refr.push(key);
            if seq % pop_every == 0 {
                let (c, r) = (cal.pop_next(), refr.pop_next());
                prop_assert_eq!(c, r);
                if let Some(k) = c {
                    floor = k.at.as_nanos();
                    popped.push((k.at.as_nanos(), k.seq));
                }
            }
        }
        let cal_rest = drain_sorted(&mut cal);
        let ref_rest = drain_sorted(&mut refr);
        prop_assert_eq!(&cal_rest, &ref_rest);
        popped.extend(cal_rest);
        // No key lost or duplicated, and the full popped sequence is
        // strictly increasing by (at, seq) — seqs are unique.
        prop_assert_eq!(popped.len(), times.len());
        prop_assert!(popped.windows(2).all(|w| w[0] < w[1]));
    }

    /// A cancelled event never fires, under either queue kind, no matter
    /// where its timestamp sits relative to the cancel.
    #[test]
    fn cancelled_events_never_fire(
        spec in proptest::collection::vec((0u64..50, any::<bool>()), 1..32)
    ) {
        for kind in [QueueKind::Calendar, QueueKind::Reference] {
            let mut sim = Simulation::with_queue_kind(Vec::<usize>::new(), kind);
            let n = spec.len();
            let spec2 = spec.clone();
            // A setup event at t=0 creates one cancellable per spec entry
            // and immediately cancels the flagged ones.
            sim.schedule_at(SimTime::ZERO, move |_, ctx| {
                let mut handles = Vec::new();
                for (i, &(ms, doomed)) in spec2.iter().enumerate() {
                    let h = ctx.at_cancellable(
                        SimTime::from_millis(ms),
                        move |log: &mut Vec<usize>, _| log.push(i),
                    );
                    if doomed {
                        handles.push(h);
                    }
                }
                for h in &handles {
                    h.cancel();
                    assert!(h.is_cancelled());
                }
            });
            sim.run();
            // Cancelled events still advance the clock and count as
            // executed; they must just never reach their handler.
            prop_assert_eq!(sim.events_executed(), 1 + n as u64);
            let survivors: Vec<usize> =
                (0..n).filter(|&i| !spec[i].1).collect();
            let mut got = sim.into_state();
            let mut want_sorted: Vec<(u64, usize)> =
                survivors.iter().map(|&i| (spec[i].0, i)).collect();
            want_sorted.sort_by_key(|&(ms, i)| (ms, i));
            got.sort_by_key(|&i| (spec[i].0, i));
            prop_assert_eq!(
                got,
                want_sorted.iter().map(|&(_, i)| i).collect::<Vec<_>>()
            );
        }
    }

    /// Periodic timers under the calendar queue tick at exactly
    /// `first + k*period` regardless of bucket geometry.
    #[test]
    fn calendar_periodic_ticks_exact(
        first_ms in 0u64..10,
        period_ms in 1u64..10,
        reps in 1usize..10
    ) {
        let mut sim =
            Simulation::with_queue_kind(Vec::<u64>::new(), QueueKind::Calendar);
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
