//! Property tests for the fail-stutter fault model.

use proptest::prelude::*;

use fail_stutter::simcore::prelude::*;
use fail_stutter::stutter::injector::Cursor;
use fail_stutter::stutter::prelude::*;

/// Strategy producing an arbitrary injector from the §2 catalog.
fn arb_injector() -> impl Strategy<Value = Injector> {
    prop_oneof![
        Just(Injector::NoFault),
        (0.01f64..1.0).prop_map(|factor| Injector::StaticSlowdown { factor }),
        (1u64..120, 1u64..30).prop_map(|(gap, dur)| Injector::Blackouts {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(gap) },
            duration: DurationDist::Const(SimDuration::from_secs(dur)),
        }),
        (1u64..120, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(hold, a, b)| Injector::Stutter {
            hold: DurationDist::Const(SimDuration::from_secs(hold)),
            factor: FactorDist::TwoPoint { p: 0.8, a, b },
        }),
        (1u64..120, 1u64..60, 0.0f64..0.99).prop_map(|(gap, dur, factor)| Injector::Episodes {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(gap) },
            duration: DurationDist::Const(SimDuration::from_secs(dur)),
            factor,
        }),
        (0u64..1_000, 1u64..1_000, 0.0f64..1.0, proptest::option::of(0u64..500)).prop_map(
            |(onset, ramp, floor, fail)| Injector::Wearout {
                onset: SimTime::from_secs(onset),
                ramp: SimDuration::from_secs(ramp),
                floor,
                fail_after: fail.map(SimDuration::from_secs),
            }
        ),
    ]
}

const HORIZON: SimDuration = SimDuration::from_secs(1_800);

proptest! {
    /// Every injector's timeline keeps multipliers within [0, 1] and is
    /// deterministic for a given seed.
    #[test]
    fn timelines_are_bounded_and_deterministic(inj in arb_injector(), seed in any::<u64>()) {
        let p1 = inj.timeline(HORIZON, &mut Stream::from_seed(seed));
        let p2 = inj.timeline(HORIZON, &mut Stream::from_seed(seed));
        prop_assert_eq!(&p1, &p2);
        for s in (0..1_800).step_by(7) {
            let m = p1.multiplier_at(SimTime::from_secs(s));
            prop_assert!((0.0..=1.0).contains(&m), "multiplier {m} at {s}s");
        }
        let mean = p1.mean_multiplier(HORIZON);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&mean), "mean {mean}");
    }

    /// Composition is pointwise multiplication: bounded by each factor,
    /// and composing with NoFault is the identity.
    #[test]
    fn composition_is_pointwise_product(
        a in arb_injector(),
        b in arb_injector(),
        seed in any::<u64>()
    ) {
        let pa = a.timeline(HORIZON, &mut Stream::from_seed(seed));
        let pb = b.timeline(HORIZON, &mut Stream::from_seed(seed.wrapping_add(1)));
        let pc = pa.compose(&pb);
        for s in (0..1_800).step_by(13) {
            let t = SimTime::from_secs(s);
            let expect = pa.multiplier_at(t) * pb.multiplier_at(t);
            prop_assert!((pc.multiplier_at(t) - expect).abs() < 1e-12);
        }
        let identity = pa.compose(&SlowdownProfile::nominal());
        for s in (0..1_800).step_by(13) {
            let t = SimTime::from_secs(s);
            prop_assert!((identity.multiplier_at(t) - pa.multiplier_at(t)).abs() < 1e-12);
        }
    }

    /// After an absolute failure the multiplier is zero forever, and
    /// `next_active` never resurrects the component.
    #[test]
    fn failure_is_permanent(inj in arb_injector(), seed in any::<u64>(), fail_s in 0u64..1_800) {
        let p = inj
            .timeline(HORIZON, &mut Stream::from_seed(seed))
            .with_failure_at(SimTime::from_secs(fail_s));
        for s in (fail_s..fail_s + 600).step_by(11) {
            let t = SimTime::from_secs(s);
            prop_assert_eq!(p.multiplier_at(t), 0.0);
            prop_assert!(p.failed_at(t));
            prop_assert_eq!(p.next_active(t), None);
        }
    }

    /// Spec classification is monotone: a slower observation is never
    /// healthier than a faster one.
    #[test]
    fn spec_classification_monotone(
        nominal in 1.0f64..1e9,
        tol in 0.1f64..1.0,
        r1 in 0.0f64..2.0,
        r2 in 0.0f64..2.0
    ) {
        let spec = PerfSpec::constant_with_tolerance(nominal, tol);
        let (fast, slow) = if r1 >= r2 { (r1, r2) } else { (r2, r1) };
        let h_fast = spec.classify(fast * nominal);
        let h_slow = spec.classify(slow * nominal);
        prop_assert!(
            h_fast.badness() <= h_slow.badness(),
            "fast {h_fast:?} vs slow {h_slow:?}"
        );
        prop_assert!(h_fast.delivered_fraction() >= h_slow.delivered_fraction() - 1e-9);
    }

    /// The registry never exports a performance fault that held for less
    /// than the persistence window, and always exports one that held for
    /// longer (with continuous reporting).
    #[test]
    fn registry_persistence_rule(hold_s in 1u64..120, persist_s in 1u64..120) {
        let mut r = Registry::new(SimDuration::from_secs(persist_s));
        let c = ComponentId(0);
        let verdict = HealthState::PerfFaulty { severity: 0.5 };
        let mut exported = false;
        for s in 0..=hold_s {
            if r.report(c, SimTime::from_secs(s), verdict).is_some() {
                exported = true;
            }
        }
        prop_assert_eq!(exported, hold_s >= persist_s, "hold {} persist {}", hold_s, persist_s);
    }

    /// Threshold detector: verdicts partition latency space exactly at the
    /// configured thresholds.
    #[test]
    fn threshold_detector_partitions(lat_us in 1u64..10_000_000) {
        let degraded = SimDuration::from_millis(100);
        let failed = SimDuration::from_secs(5);
        let mut d = ThresholdDetector::new(degraded, failed);
        let latency = SimDuration::from_micros(lat_us);
        let verdict = d.observe(latency);
        if latency >= failed {
            prop_assert_eq!(verdict, HealthState::Failed);
        } else if latency >= degraded {
            let is_perf_faulty = matches!(verdict, HealthState::PerfFaulty { .. });
            prop_assert!(is_perf_faulty);
        } else {
            prop_assert_eq!(verdict, HealthState::Healthy);
        }
    }
}

proptest! {
    /// The catalog generates valid, deterministic timelines for any seed.
    #[test]
    fn catalog_timelines_valid_for_any_seed(seed in any::<u64>()) {
        use fail_stutter::stutter::catalog;
        for (name, inj) in catalog::all() {
            let a = inj.timeline(SimDuration::from_secs(600), &mut Stream::from_seed(seed));
            let b = inj.timeline(SimDuration::from_secs(600), &mut Stream::from_seed(seed));
            prop_assert_eq!(&a, &b, "{} not deterministic", name);
            let mean = a.mean_multiplier(SimDuration::from_secs(600));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&mean), "{name}: {mean}");
        }
    }
}

/// Where a random profile fails: never, on a breakpoint, 1 ns before one,
/// strictly between two, or past the last one.
fn fail_instant(kind: u64, pick: u64, starts: &[u64]) -> Option<u64> {
    let k = (pick % starts.len() as u64) as usize;
    let next = starts.get(k + 1).copied();
    match kind {
        0 => None,
        1 => Some(starts[k]),
        2 => Some(starts[k].max(1) - 1),
        3 => {
            next.filter(|&n| n > starts[k] + 1).map(|n| starts[k] + 1 + pick % (n - starts[k] - 1))
        }
        _ => Some(starts[starts.len() - 1] + 1 + pick % 5_000_000_000),
    }
}

proptest! {
    /// Reads through a caller-held cursor equal the random-access reads at
    /// the same instant: forward in time with repeats and long jumps,
    /// through one cursor shared by both reads (as a link's sends use it),
    /// and with the same cursors reused backwards.
    #[test]
    fn forward_reads_equal_random_access(
        gaps in proptest::collection::vec(prop_oneof![1u64..3, 1u64..4_000_000_000], 0..200),
        levels in proptest::collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0], 200),
        fail_kind in 0u64..5,
        fail_pick in any::<u64>(),
        moves in proptest::collection::vec(0usize..50, 1_500),
    ) {
        let mut starts = vec![0u64];
        for g in &gaps {
            starts.push(starts[starts.len() - 1] + g);
        }
        let bps = starts.iter().zip(&levels).map(|(&s, &m)| (SimTime::from_nanos(s), m)).collect();
        let mut profile = SlowdownProfile::from_breakpoints(bps);
        let fail = fail_instant(fail_kind, fail_pick, &starts);
        if let Some(f) = fail {
            profile = profile.with_failure_at(SimTime::from_nanos(f));
        }
        // Every breakpoint and the failure, exactly and 1 ns either side,
        // then instants past both ends.
        let mut probes: Vec<u64> =
            starts.iter().chain(&fail).flat_map(|&s| [s.max(1) - 1, s, s + 1]).collect();
        let last = starts[starts.len() - 1].max(fail.unwrap_or(0));
        probes.extend([last + 1_000, last + 7_000_000_000]);
        probes.sort_unstable();
        // Walk them in order: repeat an instant, step to the next probe,
        // or jump 2 to 25 probes (about 1 to 8 breakpoints), 60 or 300.
        let mut queries = Vec::new();
        let mut i = 0;
        for &m in &moves {
            let Some(&t) = probes.get(i) else { break };
            queries.push(SimTime::from_nanos(t));
            i += match m {
                0 => 0,
                1..=23 => 1,
                24..=47 => m - 22,
                48 => 60,
                _ => 300,
            };
        }
        let [mut reading, mut active, mut shared] = [Cursor::default(); 3];
        for &t in &queries {
            let want = profile.multiplier_at(t);
            prop_assert_eq!(profile.multiplier_from(&mut reading, t), want, "at {:?}", t);
            let next = profile.next_active(t);
            prop_assert_eq!(profile.next_active_from(&mut active, t), next, "at {:?}", t);
            prop_assert_eq!(profile.next_active_from(&mut shared, t), next, "at {:?}", t);
            if let Some(n) = next {
                let at_next = profile.multiplier_at(n);
                prop_assert_eq!(profile.multiplier_from(&mut shared, n), at_next, "at {:?}", n);
            }
        }
        for &t in queries.iter().rev() {
            prop_assert_eq!(profile.multiplier_from(&mut reading, t), profile.multiplier_at(t));
            prop_assert_eq!(profile.next_active_from(&mut active, t), profile.next_active(t));
        }
    }
}
