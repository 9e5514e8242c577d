//! Property tests for the fail-stutter fault model.

use proptest::prelude::*;

use fail_stutter::simcore::prelude::*;
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
