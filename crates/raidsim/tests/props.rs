//! Property tests for the RAID substrate beyond the fluid controllers:
//! the WiND manager and the mechanical array.

use proptest::prelude::*;

use blockdev::disk::Disk;
use blockdev::geometry::Geometry;
use raidsim::prelude::*;
use raidsim::wind::OFFERED_LOAD;
use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime};
use stutter::injector::Injector;

fn pairs_with_factors(factors: &[f64]) -> Vec<MirrorPair> {
    factors
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            if f >= 1.0 {
                MirrorPair::healthy(10e6)
            } else {
                let p = Injector::StaticSlowdown { factor: f }
                    .timeline(SimDuration::from_secs(100_000), &mut Stream::from_seed(i as u64));
                MirrorPair::new(VDisk::new(10e6).with_profile(p), VDisk::new(10e6))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// WiND metrics are well-formed: availability in [0,1], delivered
    /// bandwidth never exceeds offered, and runs are deterministic.
    #[test]
    fn wind_metrics_well_formed(
        factors in proptest::collection::vec(0.2f64..1.0, 2..6),
        managed in any::<bool>()
    ) {
        let pairs = pairs_with_factors(&factors);
        let mode = if managed { Management::Managed { hot_spares: 1 } } else { Management::Unmanaged };
        let a = run_wind(&pairs, mode);
        let b = run_wind(&pairs, mode);
        prop_assert!((0.0..=1.0).contains(&a.availability));
        prop_assert!(a.mean_throughput <= OFFERED_LOAD * 1.001);
        prop_assert_eq!(a.mean_throughput, b.mean_throughput);
        prop_assert_eq!(a.availability, b.availability);
        prop_assert_eq!(a.events.len(), b.events.len());
    }

    /// Managed WiND never delivers less than unmanaged on the same
    /// hardware (pull beats pinned static shares).
    #[test]
    fn managed_never_worse(factors in proptest::collection::vec(0.2f64..1.0, 2..6)) {
        let pairs = pairs_with_factors(&factors);
        let unmanaged = run_wind(&pairs, Management::Unmanaged);
        let managed = run_wind(&pairs, Management::Managed { hot_spares: 0 });
        prop_assert!(
            managed.mean_throughput >= unmanaged.mean_throughput * 0.999,
            "managed {} vs unmanaged {}",
            managed.mean_throughput,
            unmanaged.mean_throughput
        );
    }

    /// The mechanical array conserves blocks and both designs agree on
    /// totals.
    #[test]
    fn mech_conserves_blocks(
        n_pairs in 2usize..5,
        blocks in 64u64..2_048,
        chunk in 8u64..128
    ) {
        let build = || {
            MechRaid10::new(
                (0..n_pairs)
                    .map(|i| {
                        let root = Stream::from_seed(i as u64);
                        MechPair::new(
                            Disk::new(Geometry::barracuda_7200(), root.derive("raid-props.a")),
                            Disk::new(Geometry::barracuda_7200(), root.derive("raid-props.b")),
                        )
                    })
                    .collect(),
            )
        };
        let w = Workload::new(blocks, 65_536);
        let s1 = build().write_static(w, SimTime::ZERO, chunk).expect("alive");
        let s3 = build().write_adaptive(w, SimTime::ZERO, chunk).expect("alive");
        prop_assert_eq!(s1.per_pair_blocks.iter().sum::<u64>(), blocks);
        prop_assert_eq!(s3.per_pair_blocks.iter().sum::<u64>(), blocks);
        prop_assert!(s1.throughput > 0.0 && s3.throughput > 0.0);
        // On healthy hardware, adaptive is within rounding of static.
        let ratio = s3.elapsed.as_secs_f64() / s1.elapsed.as_secs_f64();
        prop_assert!(ratio < 1.25, "adaptive {ratio}x static on healthy metal");
    }
}
