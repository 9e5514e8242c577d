//! Property tests for the cluster workloads.

use proptest::prelude::*;

use cluster::dds::OFFERED_LOAD;
use cluster::prelude::*;
use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime};
use stutter::component::Component;
use stutter::injector::Injector;

proptest! {
    /// The sort conserves records under both placements and any mix of
    /// node speeds.
    #[test]
    fn sort_conserves_records(
        speeds in proptest::collection::vec(0.1f64..1.0, 1..12),
        records in 1u64..5_000_000,
        adaptive in any::<bool>()
    ) {
        let nodes: Vec<Node> = speeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let p = Injector::StaticSlowdown { factor: s }
                    .timeline(SimDuration::from_secs(1 << 20), &mut Stream::from_seed(i as u64));
                Node::new(1e6, 10e6).with_cpu_profile(p.clone()).with_disk_profile(p)
            })
            .collect();
        let placement = if adaptive { Placement::Adaptive } else { Placement::Static };
        let out = run_sort(&nodes, SortJob::minute_sort(records), placement, SimTime::ZERO);
        prop_assert_eq!(out.per_node.iter().sum::<u64>(), records);
        prop_assert_eq!(out.total, out.read_phase + out.sort_phase + out.write_phase);
    }

    /// Adaptive placement never loses to static placement under static
    /// (time-invariant) node speeds, up to apportionment rounding.
    #[test]
    fn adaptive_placement_never_materially_worse(
        speeds in proptest::collection::vec(0.2f64..1.0, 2..10),
        millions in 1u64..8
    ) {
        let nodes: Vec<Node> = speeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let p = Injector::StaticSlowdown { factor: s }
                    .timeline(SimDuration::from_secs(1 << 20), &mut Stream::from_seed(i as u64));
                Node::new(1e6, 10e6).with_cpu_profile(p.clone()).with_disk_profile(p)
            })
            .collect();
        const RECORDS_PER_MILLION: u64 = 1_000_000;
        let job = SortJob::minute_sort(millions * RECORDS_PER_MILLION);
        let s = run_sort(&nodes, job, Placement::Static, SimTime::ZERO);
        let a = run_sort(&nodes, job, Placement::Adaptive, SimTime::ZERO);
        // One record per phase of slack on the slowest node.
        let slowest = speeds.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::INFINITY);
        let slack = 3.0 * 100.0 / (10e6 * slowest);
        prop_assert!(
            a.total.as_secs_f64() <= s.total.as_secs_f64() * 1.001 + slack,
            "adaptive {} vs static {}",
            a.total,
            s.total
        );
    }

    /// The replicated hash table never acknowledges more than it was
    /// offered, and throughput samples are non-negative.
    #[test]
    fn dds_conservation(pairs in 1usize..5, slow in 0.1f64..1.0) {
        let mut bricks: Vec<Component> = (0..2 * pairs).map(|_| Component::new(2_000.0)).collect();
        bricks[0] = Component::new(2_000.0).with_profile(
            Injector::StaticSlowdown { factor: slow }
                .timeline(SimDuration::from_secs(120), &mut Stream::from_seed(1)),
        );
        let out = run_dds(&bricks);
        prop_assert!(
            out.mean_throughput <= OFFERED_LOAD * 1.001,
            "acked {} op/s, offered {OFFERED_LOAD} op/s",
            out.mean_throughput
        );
        for &(_, v) in out.throughput.points() {
            prop_assert!(v >= -1e-9);
        }
        prop_assert!(out.peak_backlog >= 0.0);
    }
}
