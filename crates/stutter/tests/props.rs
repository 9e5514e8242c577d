//! Property tests for the §3.1 detection rules: the threshold rule `T`
//! separating "very slow" from "absolutely failed", and the persistence
//! filter that keeps transient stutters out of the exported state. Also
//! the component's rate reads and its stuttering-FIFO service rule.

use proptest::prelude::*;
use simcore::resource::{FcfsServer, Grant};
use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime};
use stutter::injector::Cursor;
use stutter::prelude::*;

const C: ComponentId = ComponentId(0);

proptest! {
    /// The threshold rule: any request at or beyond `T` marks the
    /// component absolutely failed, and failure is sticky forever after.
    #[test]
    fn beyond_threshold_always_eventually_failed(
        pre_ms in proptest::collection::vec(1u64..5_000, 0..32),
        overshoot_ms in 0u64..10_000,
        post_ms in proptest::collection::vec(1u64..5_000, 0..32),
    ) {
        let degraded = SimDuration::from_millis(100);
        let t = SimDuration::from_millis(5_000);
        let mut det = ThresholdDetector::new(degraded, t);
        for &ms in &pre_ms {
            let s = det.observe(SimDuration::from_millis(ms));
            prop_assert!(!matches!(s, HealthState::Failed));
        }
        det.observe(t + SimDuration::from_millis(overshoot_ms));
        prop_assert!(matches!(det.state(), HealthState::Failed));
        for &ms in &post_ms {
            let s = det.observe(SimDuration::from_millis(ms));
            prop_assert!(matches!(s, HealthState::Failed));
        }
    }

    /// Below `T` the rule never claims absolute failure, however slow the
    /// requests get — that regime is performance faults by definition.
    #[test]
    fn under_threshold_is_performance_faulty_at_worst(
        lat_ms in proptest::collection::vec(1u64..5_000, 1..64)
    ) {
        let degraded = SimDuration::from_millis(100);
        let t = SimDuration::from_millis(5_000);
        let mut det = ThresholdDetector::new(degraded, t);
        for &ms in &lat_ms {
            let lat = SimDuration::from_millis(ms);
            match det.observe(lat) {
                HealthState::Failed => prop_assert!(false, "failed below T at {ms} ms"),
                HealthState::PerfFaulty { .. } => prop_assert!(lat >= degraded),
                HealthState::Healthy => prop_assert!(lat < degraded),
            }
        }
    }

    /// A component persistently below its performance spec is always
    /// eventually exported, whatever the persistence window.
    #[test]
    fn persistent_slowdown_is_always_exported(
        frac in 0.05f64..0.85,
        persistence_s in 1u64..120,
        extra_s in 0u64..60,
    ) {
        let nominal = 10.0;
        // Spec tolerance 0.9: rates below 0.9 · nominal are out of spec,
        // and `frac < 0.85` keeps the input strictly below the floor.
        let spec = PerfSpec::constant_with_tolerance(nominal, 0.9);
        let mut det = EwmaDetector::new(spec, 0.3);
        let mut reg = Registry::new(SimDuration::from_secs(persistence_s));
        let mut published = 0usize;
        for s in 0..=(persistence_s + extra_s) {
            let v = det.observe(nominal * frac);
            if reg.report(C, SimTime::from_secs(s), v).is_some() {
                published += 1;
            }
        }
        prop_assert_eq!(published, 1, "one state change must publish exactly once");
        prop_assert!(!matches!(reg.exported(C), HealthState::Healthy));
    }

    /// Transient stutters strictly shorter than the persistence window are
    /// never exported, no matter how many of them occur.
    #[test]
    fn transient_stutters_never_exported(
        bursts in proptest::collection::vec((1u64..10, 1u64..20), 1..12),
        persistence_s in 10u64..60,
    ) {
        // alpha = 1 disables smoothing so verdicts track the input exactly;
        // every faulty burst is at most 9 samples = 8 s, below the window.
        let mut det = EwmaDetector::new(PerfSpec::constant(10.0), 1.0);
        let mut reg = Registry::new(SimDuration::from_secs(persistence_s));
        let mut now = 0u64;
        for &(faulty_len, healthy_len) in &bursts {
            for _ in 0..faulty_len {
                let v = det.observe(5.0);
                prop_assert!(reg.report(C, SimTime::from_secs(now), v).is_none());
                now += 1;
            }
            for _ in 0..healthy_len {
                let v = det.observe(10.0);
                prop_assert!(reg.report(C, SimTime::from_secs(now), v).is_none());
                now += 1;
            }
        }
        prop_assert_eq!(reg.notifications().len(), 0);
        prop_assert!(matches!(reg.exported(C), HealthState::Healthy));
        prop_assert!(reg.suppressed() > 0);
    }

    /// A persistent fault followed by a persistent recovery always exports
    /// as a publish/retract *pair*: first the fault, then Ok — regardless
    /// of the sampling cadence on each side of the edge.
    #[test]
    fn fault_then_recovery_publishes_a_pair(
        persistence_s in 1u64..60,
        fault_gap_s in 1u64..30,
        recovery_gap_s in 1u64..30,
        slack_s in 0u64..50,
    ) {
        let persistence = SimDuration::from_secs(persistence_s);
        let mut reg = Registry::new(persistence);
        let faulty = HealthState::PerfFaulty { severity: 0.5 };
        // Fault phase: sparse reports every `fault_gap_s` until well past
        // the window; recovery phase likewise.
        let fault_end = persistence_s + slack_s + fault_gap_s;
        let mut now = 0;
        while now <= fault_end {
            reg.report(C, SimTime::from_secs(now), faulty);
            now += fault_gap_s;
        }
        let recovery_end = now + persistence_s + slack_s + recovery_gap_s;
        while now <= recovery_end {
            reg.report(C, SimTime::from_secs(now), HealthState::Healthy);
            now += recovery_gap_s;
        }
        // One more faulty verdict long after: even if no healthy report
        // landed past the window, the deferred rule must have retracted.
        reg.report(C, SimTime::from_secs(now + 1), faulty);

        let classes: Vec<u8> =
            reg.notifications().iter().map(|n| n.state.badness()).collect();
        prop_assert!(classes.len() >= 2, "expected publish + retract, got {classes:?}");
        prop_assert_eq!(classes[0], faulty.badness());
        prop_assert_eq!(classes[1], HealthState::Healthy.badness());
    }

    /// Notification classes always alternate: a publish is never followed
    /// by another publish of the same class without a retract in between.
    #[test]
    fn notification_classes_always_alternate(
        verdicts in proptest::collection::vec((0u8..2, 1u64..40), 1..64),
        persistence_s in 0u64..30,
    ) {
        let mut reg = Registry::new(SimDuration::from_secs(persistence_s));
        let mut now = 0u64;
        for &(class, hold_s) in &verdicts {
            let v = if class == 0 {
                HealthState::Healthy
            } else {
                HealthState::PerfFaulty { severity: 0.4 }
            };
            reg.report(C, SimTime::from_secs(now), v);
            now += hold_s;
        }
        for pair in reg.notifications().windows(2) {
            prop_assert_ne!(
                pair[0].state.badness(),
                pair[1].state.badness(),
                "adjacent notifications with the same class"
            );
        }
    }

    /// Hysteresis: on constant-rate input the pipeline publishes at most
    /// one notification — the exported state never oscillates.
    #[test]
    fn constant_input_never_oscillates(
        rate in 0.01f64..15.0,
        alpha_pct in 1u32..101,
        persistence_s in 0u64..60,
        horizon_s in 61u64..400,
    ) {
        let mut det = EwmaDetector::new(PerfSpec::constant(10.0), f64::from(alpha_pct) / 100.0);
        let mut reg = Registry::new(SimDuration::from_secs(persistence_s));
        let mut published = 0usize;
        for s in 0..horizon_s {
            let v = det.observe(rate);
            if reg.report(C, SimTime::from_secs(s), v).is_some() {
                published += 1;
            }
        }
        prop_assert!(published <= 1, "{published} notifications on constant input");
    }
}

/// Blackouts, interference episodes and wear-out (down to a floor of zero,
/// where the component never runs again) on a scale of seconds.
fn arb_stutter() -> impl Strategy<Value = Injector> {
    prop_oneof![
        (1u64..20, 1u64..10).prop_map(|(gap, dur)| Injector::Blackouts {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(gap) },
            duration: DurationDist::Exp { mean: SimDuration::from_secs(dur) },
        }),
        (1u64..20, 1u64..10, 0.0f64..0.9).prop_map(|(gap, dur, factor)| Injector::Episodes {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(gap) },
            duration: DurationDist::Exp { mean: SimDuration::from_secs(dur) },
            factor,
        }),
        (0u64..100, 1u64..200, prop_oneof![Just(0.0), 0.0f64..1.0]).prop_map(
            |(onset, ramp, floor)| Injector::Wearout {
                onset: SimTime::from_secs(onset),
                ramp: SimDuration::from_secs(ramp),
                floor,
                fail_after: None,
            }
        ),
    ]
}

/// A partition's FIFO service as it read before the rule was shared:
/// every read searches the whole timeline.
fn serve_at_random(c: &Component, server: &mut FcfsServer, now: SimTime) -> Option<Grant> {
    let queue_start = now.max(server.next_free());
    let start = c.profile.next_active(queue_start)?;
    let m = c.profile.multiplier_at(start);
    let service = SimDuration::from_secs_f64(1.0 / (c.nominal * m));
    server.block_until(start);
    Some(server.serve(now, service))
}

proptest! {
    /// The stuttering-FIFO rule grants what the random-access rule grants
    /// to every arrival in time order, and `None` from the first arrival
    /// that can never start on. A rate read through any cursor (fresh,
    /// walked forward, left behind by the rule, or carried over from
    /// another timeline) equals the random-access rate and the absolute
    /// rate profile.
    #[test]
    fn fifo_service_matches_the_random_access_rule(
        inj in arb_stutter(),
        other in arb_stutter(),
        seed in any::<u64>(),
        fail_s in proptest::option::of(0u64..400),
        rate in 0.5f64..5.0,
        gaps_ms in proptest::collection::vec(0u64..3_000, 1..300),
    ) {
        let horizon = SimDuration::from_secs(400);
        let mut profile = inj.timeline(horizon, &mut Stream::from_seed(seed));
        if let Some(f) = fail_s {
            profile = profile.with_failure_at(SimTime::from_secs(f));
        }
        let c = Component::new(rate).with_profile(profile);
        let (mut server, mut reference, mut served) =
            (FcfsServer::new(), FcfsServer::new(), Cursor::default());
        let mut arrivals = Vec::new();
        let mut now = SimTime::ZERO;
        let mut stopped = false;
        for &g in &gaps_ms {
            now += SimDuration::from_millis(g);
            arrivals.push(now);
            let got = c.profile.serve(&mut served, &mut server, now, |m| {
                SimDuration::from_secs_f64(1.0 / (rate * m))
            });
            prop_assert_eq!(got, serve_at_random(&c, &mut reference, now), "arrival at {:?}", now);
            prop_assert!(!(stopped && got.is_some()), "served at {:?} after a refusal", now);
            stopped |= got.is_none();
        }

        let mut probes: Vec<SimTime> = c.profile.segments().iter().map(|&(t, _)| t).collect();
        probes.extend(c.profile.fail_at());
        probes.extend(arrivals);
        probes.sort_unstable();
        let rates = c.rate_profile();
        let mut foreign = Cursor::default();
        let elsewhere = other.timeline(horizon, &mut Stream::from_seed(!seed));
        elsewhere.multiplier_from(&mut foreign, SimTime::from_secs(seed % 400));
        let mut forward = Cursor::default();
        for &t in &probes {
            let want = c.rate_at(t);
            prop_assert_eq!(rates.rate_at(t), want, "profile at {:?}", t);
            prop_assert_eq!(c.rate_from(&mut Cursor::default(), t), want, "fresh at {:?}", t);
            prop_assert_eq!(c.rate_from(&mut forward, t), want, "forward at {:?}", t);
            prop_assert_eq!(c.rate_from(&mut served.clone(), t), want, "left at {:?}", t);
            prop_assert_eq!(c.rate_from(&mut foreign.clone(), t), want, "foreign at {:?}", t);
        }
        for &t in probes.iter().rev() {
            prop_assert_eq!(c.rate_from(&mut forward, t), c.rate_at(t), "backward at {:?}", t);
        }
    }
}
