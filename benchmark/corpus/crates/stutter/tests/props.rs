//! Property tests for the §3.1 detection rules: the threshold rule `T`
//! separating "very slow" from "absolutely failed", and the persistence
//! filter that keeps transient stutters out of the exported state.

use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
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
