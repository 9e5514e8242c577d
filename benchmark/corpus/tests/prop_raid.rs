//! Property tests for the RAID-10 controllers — the paper's bookkeeping
//! worries made machine-checked.

use proptest::prelude::*;

use fail_stutter::raidsim::prelude::*;
use fail_stutter::simcore::prelude::*;
use fail_stutter::stutter::prelude::*;

const HORIZON: SimDuration = SimDuration::from_secs(100_000);

/// An array of 2..=8 pairs with arbitrary static speed factors.
fn arb_array() -> impl Strategy<Value = Raid10> {
    proptest::collection::vec(0.05f64..1.0, 2..8).prop_map(|factors| {
        let pairs: Vec<MirrorPair> = factors
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let profile = Injector::StaticSlowdown { factor: f }
                    .timeline(HORIZON, &mut Stream::from_seed(i as u64));
                MirrorPair::new(VDisk::new(10e6).with_profile(profile), VDisk::new(10e6))
            })
            .collect();
        Raid10::new(pairs, HORIZON)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The adaptive block map is a partition of [0, D): every block lands
    /// exactly once — "the controller must record where each block is
    /// written" (§3.2), and the record must be exact.
    #[test]
    fn adaptive_block_map_is_a_partition(
        array in arb_array(),
        blocks in 1u64..5_000,
        chunk in 1u64..256
    ) {
        let w = Workload::new(blocks, 4_096);
        let out = array.write_adaptive(w, SimTime::ZERO, chunk).expect("static-slow pairs stay alive");
        let map = out.block_map.expect("adaptive keeps a map");
        let mut covered = 0u64;
        for e in &map {
            prop_assert_eq!(e.start, covered, "gap or overlap at block {}", covered);
            prop_assert!(e.len > 0);
            prop_assert!(e.pair < array.n());
            covered += e.len;
        }
        prop_assert_eq!(covered, blocks);
        // And the per-pair tallies agree with the map.
        let mut tally = vec![0u64; array.n()];
        for e in &map {
            tally[e.pair] += e.len;
        }
        prop_assert_eq!(tally, out.per_pair_blocks);
    }

    /// Every controller conserves blocks.
    #[test]
    fn assignments_sum_to_d(array in arb_array(), blocks in 1u64..100_000) {
        let w = Workload::new(blocks, 4_096);
        let s1 = array.write_static(w, SimTime::ZERO).expect("alive");
        prop_assert_eq!(s1.per_pair_blocks.iter().sum::<u64>(), blocks);
        let s2 = array.write_proportional(w, SimTime::ZERO, SimTime::ZERO).expect("alive");
        prop_assert_eq!(s2.per_pair_blocks.iter().sum::<u64>(), blocks);
        let s3 = array.write_adaptive(w, SimTime::ZERO, 64).expect("alive");
        prop_assert_eq!(s3.per_pair_blocks.iter().sum::<u64>(), blocks);
    }

    /// Under static (time-invariant) performance faults, the design
    /// hierarchy holds: adaptive is at least as fast as proportional
    /// (up to one chunk of slack), which is at least as fast as equal
    /// static striping (up to rounding).
    #[test]
    fn design_hierarchy_under_static_faults(array in arb_array(), blocks in 512u64..20_000) {
        let w = Workload::new(blocks, 65_536);
        let s1 = array.write_static(w, SimTime::ZERO).expect("alive");
        let s2 = array.write_proportional(w, SimTime::ZERO, SimTime::ZERO).expect("alive");
        let s3 = array.write_adaptive(w, SimTime::ZERO, 16).expect("alive");
        // One block of rounding slack for s2 vs s1; one chunk for s3 vs s2.
        let slowest = array
            .pairs()
            .iter()
            .map(|p| p.write_rate_at(SimTime::ZERO))
            .min_by(f64::total_cmp).unwrap_or(f64::INFINITY);
        let block_slack = 65_536.0 / slowest;
        let chunk_slack = 16.0 * 65_536.0 / slowest;
        prop_assert!(
            s2.elapsed.as_secs_f64() <= s1.elapsed.as_secs_f64() + block_slack + 1e-6,
            "proportional {} vs static {}",
            s2.elapsed,
            s1.elapsed
        );
        prop_assert!(
            s3.elapsed.as_secs_f64() <= s2.elapsed.as_secs_f64() + chunk_slack + 1e-6,
            "adaptive {} vs proportional {}",
            s3.elapsed,
            s2.elapsed
        );
    }

    /// The simulated scenario-1 and scenario-2 throughputs match the
    /// paper's closed forms for a single slow pair.
    #[test]
    fn closed_forms_hold(n in 2usize..12, frac in 0.05f64..1.0) {
        let slow = Injector::StaticSlowdown { factor: frac }
            .timeline(HORIZON, &mut Stream::from_seed(9));
        let mut pairs: Vec<MirrorPair> = (0..n).map(|_| MirrorPair::healthy(10e6)).collect();
        pairs[0] = MirrorPair::new(VDisk::new(10e6).with_profile(slow), VDisk::new(10e6));
        let array = Raid10::new(pairs, HORIZON);
        let w = Workload::new(n as u64 * 4_096, 65_536);
        let s1 = array.write_static(w, SimTime::ZERO).expect("alive");
        let s2 = array.write_proportional(w, SimTime::ZERO, SimTime::ZERO).expect("alive");
        let predict1 = scenario1_throughput(n, 10e6, frac * 10e6);
        let predict2 = scenario2_throughput(n, 10e6, frac * 10e6);
        prop_assert!((s1.throughput / predict1 - 1.0).abs() < 0.02, "{} vs {}", s1.throughput, predict1);
        prop_assert!((s2.throughput / predict2 - 1.0).abs() < 0.02, "{} vs {}", s2.throughput, predict2);
    }

    /// Fail-stop is subsumed: with one replica of each pair failing at an
    /// arbitrary time, every controller still completes (pairs degrade to
    /// their survivors), and with any whole pair dead the static design
    /// halts while adaptive completes on the survivors.
    #[test]
    fn fail_stop_is_subsumed(
        n in 2usize..6,
        fail_s in 1u64..100,
        dead_pair in 0usize..6
    ) {
        let dead_pair = dead_pair % n;
        // One replica per pair dies: arrays degrade but never halt.
        let pairs: Vec<MirrorPair> = (0..n)
            .map(|i| {
                let dying = SlowdownProfile::nominal()
                    .with_failure_at(SimTime::from_secs(fail_s + i as u64));
                MirrorPair::new(VDisk::new(10e6).with_profile(dying), VDisk::new(10e6))
            })
            .collect();
        let array = Raid10::new(pairs, HORIZON);
        let w = Workload::new(16_384, 65_536);
        prop_assert!(array.write_static(w, SimTime::ZERO).is_ok());
        prop_assert!(array.write_adaptive(w, SimTime::ZERO, 64).is_ok());

        // A whole pair dies: static halts, adaptive survives.
        let mut pairs: Vec<MirrorPair> = (0..n).map(|_| MirrorPair::healthy(10e6)).collect();
        let dead = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(fail_s));
        pairs[dead_pair] =
            MirrorPair::new(VDisk::new(10e6).with_profile(dead.clone()), VDisk::new(10e6).with_profile(dead));
        let array = Raid10::new(pairs, HORIZON);
        // Size the write so it cannot finish before the pair dies.
        let blocks = (n as f64 * 10e6 * (fail_s + 60) as f64 / 65_536.0) as u64;
        let w = Workload::new(blocks, 65_536);
        let halted = matches!(
            array.write_static(w, SimTime::ZERO),
            Err(RaidError::PairFailed { .. })
        );
        prop_assert!(halted);
        let adaptive = array.write_adaptive(w, SimTime::ZERO, 64).expect("survivors carry on");
        prop_assert_eq!(adaptive.per_pair_blocks.iter().sum::<u64>(), blocks);
    }
}
