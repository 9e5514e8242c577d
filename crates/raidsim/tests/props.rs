//! Property tests for the RAID substrate beyond the fluid controllers:
//! the WiND manager and the mechanical array.

use proptest::prelude::*;

use blockdev::disk::Disk;
use blockdev::geometry::Geometry;
use raidsim::prelude::*;
use raidsim::wind::OFFERED_LOAD;
use simcore::resource::RateProfile;
use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime};
use stutter::injector::{Injector, SlowdownProfile};

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

/// A replica at `nominal` whose breakpoints are the grid instants (in ms)
/// that `bits` selects, at `levels`. It fails where `fail_kind` says:
/// never, on a grid instant, strictly between two, or after `horizon_ms`.
fn replica(
    nominal: f64,
    grid: &[u64],
    bits: u64,
    levels: &[f64],
    (fail_kind, pick): (u64, u64),
    horizon_ms: u64,
) -> VDisk {
    let mut bps = vec![(SimTime::ZERO, levels[0])];
    for (k, &t) in grid.iter().enumerate() {
        if (bits >> k) & 1 == 1 {
            bps.push((SimTime::from_millis(t), levels[k + 1]));
        }
    }
    let k = (pick % grid.len() as u64) as usize;
    let gap = grid.get(k + 1).map_or(2, |&next| next - grid[k]);
    let fail = match fail_kind {
        0 => None,
        1 => Some(grid[k]),
        2 => Some(grid[k] + 1 + pick % (gap - 1).max(1)),
        _ => Some(horizon_ms + 1 + pick % 100_000),
    };
    let mut profile = SlowdownProfile::from_breakpoints(bps);
    if let Some(f) = fail {
        profile = profile.with_failure_at(SimTime::from_millis(f));
    }
    VDisk::new(nominal).with_profile(profile)
}

/// The pair's write-rate profile as the parent construction built it on
/// every write: collect every instant either replica can change rate at,
/// sort, dedup, and read the RAID-1 write rate at each.
fn collected_write_rate_profile(pair: &MirrorPair, horizon: SimDuration) -> RateProfile {
    let mut times: Vec<SimTime> = vec![SimTime::ZERO];
    let end = SimTime::ZERO + horizon;
    for d in [&pair.a, &pair.b] {
        for &(t, _) in d.profile.segments() {
            if t <= end {
                times.push(t);
            }
        }
        if let Some(f) = d.profile.fail_at() {
            if f <= end {
                times.push(f);
            }
        }
    }
    times.sort_unstable();
    times.dedup();
    RateProfile::from_breakpoints(times.into_iter().map(|t| (t, pair.write_rate_at(t))).collect())
}

proptest! {
    /// The write-rate profile merged forward from both replicas' timelines
    /// equals the collect-sort-dedup construction: the same breakpoints,
    /// coincident ones once, with bit-identical rates, through failures
    /// on a breakpoint, between two and past the horizon.
    #[test]
    fn write_rate_profile_matches_the_collected_construction(
        gaps in proptest::collection::vec(prop_oneof![Just(1u64), 2u64..90_000], 1..64),
        bits in (any::<u64>(), any::<u64>()),
        levels_a in proptest::collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0], 65),
        levels_b in proptest::collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0], 65),
        fail_a in (0u64..4, any::<u64>()),
        fail_b in (0u64..4, any::<u64>()),
        horizon_pick in any::<u64>(),
    ) {
        let mut grid = Vec::new();
        let mut t = 0;
        for g in &gaps {
            t += g;
            grid.push(t);
        }
        // On a grid instant, or strictly inside the grid's span.
        let horizon_ms = if horizon_pick % 2 == 0 {
            grid[(horizon_pick / 2 % grid.len() as u64) as usize]
        } else {
            1 + horizon_pick % t
        };
        // Both replicas share the odd grid instants, so breakpoints coincide.
        let shared = 0xAAAA_AAAA_AAAA_AAAA;
        let a = replica(10e6, &grid, bits.0 | shared, &levels_a, fail_a, horizon_ms);
        let b = replica(8e6, &grid, bits.1 | shared, &levels_b, fail_b, horizon_ms);
        let pair = MirrorPair::new(a, b);
        let horizon = SimDuration::from_millis(horizon_ms);
        let collected = collected_write_rate_profile(&pair, horizon);
        prop_assert_eq!(pair.write_rate_profile(horizon), collected);
    }
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
