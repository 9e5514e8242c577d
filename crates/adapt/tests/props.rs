//! Property tests for the adaptive mechanisms.

use proptest::prelude::*;

use adapt::prelude::*;
use adapt::queue::Strategy as DistStrategy;
use simcore::resource::RateProfile;
use simcore::time::{SimDuration, SimTime};

proptest! {
    /// Work distribution conserves items under both strategies.
    #[test]
    fn distribution_conserves_items(
        rates in proptest::collection::vec(0.1f64..100.0, 1..12),
        items in 1u64..2_000,
        pull in any::<bool>()
    ) {
        let profiles: Vec<RateProfile> = rates.iter().map(|&r| RateProfile::constant(r)).collect();
        let strategy = if pull { DistStrategy::Pull } else { DistStrategy::Push };
        let out = distribute(strategy, &profiles, items, 1.0, SimTime::ZERO).expect("alive");
        prop_assert_eq!(out.per_consumer.iter().sum::<u64>(), items);
    }

    /// Pull never has a longer makespan than push (up to one item of
    /// slack on the slowest consumer).
    #[test]
    fn pull_never_materially_worse(
        rates in proptest::collection::vec(0.1f64..100.0, 2..10),
        items in 10u64..1_000
    ) {
        let profiles: Vec<RateProfile> = rates.iter().map(|&r| RateProfile::constant(r)).collect();
        let push = distribute(DistStrategy::Push, &profiles, items, 1.0, SimTime::ZERO).expect("alive");
        let pull = distribute(DistStrategy::Pull, &profiles, items, 1.0, SimTime::ZERO).expect("alive");
        let slowest = rates.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::INFINITY);
        let slack = 1.0 / slowest;
        prop_assert!(
            pull.makespan.as_secs_f64() <= push.makespan.as_secs_f64() + slack + 1e-9,
            "pull {} vs push {}",
            pull.makespan,
            push.makespan
        );
    }

    /// Pull's makespan is at least the aggregate-bandwidth lower bound.
    #[test]
    fn pull_respects_aggregate_bound(
        rates in proptest::collection::vec(0.1f64..100.0, 1..10),
        items in 1u64..1_000
    ) {
        let profiles: Vec<RateProfile> = rates.iter().map(|&r| RateProfile::constant(r)).collect();
        let out = distribute(DistStrategy::Pull, &profiles, items, 1.0, SimTime::ZERO).expect("alive");
        let aggregate: f64 = rates.iter().sum();
        let bound = items as f64 / aggregate;
        // Nanosecond rounding of each item's service time can shave up to
        // 0.5 ns per item off the theoretical bound.
        prop_assert!(out.makespan.as_secs_f64() >= bound - 1e-9 * items as f64);
    }

    /// Hedged batches commit every task exactly once, with a valid winner,
    /// and waste is bounded by total work.
    #[test]
    fn hedging_commits_exactly_once(
        speeds in proptest::collection::vec(0.05f64..2.0, 2..10),
        tasks in 1u64..128,
        hedge_s in proptest::option::of(1u64..20)
    ) {
        let rates: Vec<RateProfile> = speeds.iter().map(|&s| RateProfile::constant(s)).collect();
        let config = HedgeConfig { hedge_after: hedge_s.map(SimDuration::from_secs) };
        let out = run_hedged(&rates, tasks, 1.0, config, SimTime::ZERO).expect("all alive");
        prop_assert_eq!(out.tasks.len(), tasks as usize);
        for t in &out.tasks {
            prop_assert!(t.winner < speeds.len());
            prop_assert!(t.committed >= t.issued);
        }
        prop_assert!(out.work_wasted <= out.work_spent + 1e-9);
        prop_assert!(out.makespan >= out.worst_latency());
    }

    /// Availability is the exact fraction of latencies within deadline.
    #[test]
    fn availability_is_a_fraction(
        lats in proptest::collection::vec(0u64..10_000, 1..128),
        deadline in 1u64..10_000
    ) {
        let mut meter = AvailabilityMeter::new(SimDuration::from_millis(deadline));
        for &ms in &lats {
            meter.record(SimDuration::from_millis(ms));
        }
        let a = meter.availability();
        let expect =
            lats.iter().filter(|&&ms| ms <= deadline).count() as f64 / lats.len() as f64;
        prop_assert!((a - expect).abs() < 1e-12);
    }
}
