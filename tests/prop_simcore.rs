//! Property tests for the simulation kernel.

use proptest::prelude::*;

use fail_stutter::simcore::prelude::*;
use fail_stutter::simcore::stats::exact_quantile;

proptest! {
    /// Events always execute in (time, insertion) order, regardless of the
    /// order they were scheduled in.
    #[test]
    fn event_order_is_time_then_fifo(times in proptest::collection::vec(0u64..1_000, 1..64)) {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.schedule_at(SimTime::from_nanos(t), (t, i));
        }
        let log: Vec<(u64, usize)> =
            std::iter::from_fn(|| queue.pop_until(SimTime::MAX)).collect();
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated: {:?}", w);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated: {:?}", w);
            }
        }
    }

    /// The same seed produces the same stream; different labels decouple.
    #[test]
    fn rng_derivation_deterministic(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let a: Vec<u64> = {
            let mut s = Stream::from_seed(seed).derive(&label);
            (0..32).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = Stream::from_seed(seed).derive(&label);
            (0..32).map(|_| s.next_u64()).collect()
        };
        prop_assert_eq!(a, b);
    }

    /// `next_below` stays in bounds for any positive bound.
    #[test]
    fn next_below_in_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut s = Stream::from_seed(seed);
        for _ in 0..64 {
            prop_assert!(s.next_below(bound) < bound);
        }
    }

    /// Histogram quantiles respect the bucket's relative-error guarantee
    /// against exact sample quantiles.
    #[test]
    fn histogram_quantile_bounded_error(
        samples in proptest::collection::vec(1.0f64..1e9, 32..256),
        q in 0.01f64..0.99
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        let _ = exact_quantile(&mut sorted, q); // sorts
        let approx = h.quantile(q);
        // Log-bucketed: relative error bounded by one bucket width. Rank
        // conventions differ by at most one position between the histogram
        // (ceil(q*n)) and the exact helper (round((n-1)*q)), so accept a
        // match against any sample within one rank of the target.
        let n = sorted.len();
        let k = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        let lo = k.saturating_sub(1);
        let hi = (k + 1).min(n - 1);
        let ok = sorted[lo..=hi]
            .iter()
            .any(|&s| approx >= s / 1.15 && approx <= s * 1.15);
        prop_assert!(
            ok,
            "q={q}: approx {approx} vs neighbourhood {:?}",
            &sorted[lo..=hi]
        );
    }

    /// A rate profile's `time_to_transfer` inverts `integrate`.
    #[test]
    fn rate_profile_transfer_inverts_integration(
        rates in proptest::collection::vec(0.1f64..100.0, 1..6),
        units in 1.0f64..10_000.0
    ) {
        let bps: Vec<(SimTime, f64)> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (SimTime::from_secs(10 * i as u64), r))
            .collect();
        let p = fail_stutter::simcore::resource::RateProfile::from_breakpoints(bps);
        let start = SimTime::from_secs(3);
        let dt = p.time_to_transfer(start, units).expect("positive rates never stall");
        let moved = p.integrate(start, start + dt);
        prop_assert!((moved - units).abs() < units * 1e-6 + 1e-3, "moved {moved} vs {units}");
    }

    /// A FIFO server never serves two requests concurrently and never
    /// goes backwards.
    #[test]
    fn fcfs_grants_are_disjoint_and_ordered(
        arrivals in proptest::collection::vec(0u64..1_000_000, 1..64),
        services in proptest::collection::vec(1u64..10_000, 64)
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut server = FcfsServer::new();
        let mut last_finish = SimTime::ZERO;
        for (&a, &s) in sorted.iter().zip(&services) {
            let g = server.serve(SimTime::from_nanos(a), SimDuration::from_nanos(s));
            prop_assert!(g.start >= last_finish, "overlap: {g:?}");
            prop_assert!(g.start >= SimTime::from_nanos(a), "served before arrival");
            prop_assert_eq!(g.finish - g.start, SimDuration::from_nanos(s));
            last_finish = g.finish;
        }
    }
}
