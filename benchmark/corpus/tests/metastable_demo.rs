//! Tier-1 acceptance cell for the metastable subsystem.
//!
//! The headline claim, end to end: under the campaign population a
//! 30-second full outage *ignites* a retry/orphan-work feedback loop
//! that keeps goodput collapsed for at least 10× the trigger duration
//! after the trigger is gone (the sustaining effect that defines a
//! metastable failure), while either mitigation — depth/age load
//! shedding or the circuit breaker — restores the stable regime within
//! the recovery deadline. The fluid model must also agree that this
//! configuration is vulnerable.

use metastable::engine::{run, Config};
use metastable::oracle::{self, OracleParams, Regime};
use metastable::policy::{BreakerConfig, Mitigation, ShedConfig};
use simcore::prelude::*;
use stutter::injector::SlowdownProfile;

/// A full outage over [60 s, 90 s): capacity 1.0 → 0.0 → 1.0.
fn outage() -> SlowdownProfile {
    SlowdownProfile::from_breakpoints(vec![
        (SimTime::ZERO, 1.0),
        (SimTime::from_secs(60), 0.0),
        (SimTime::from_secs(90), 1.0),
    ])
}

fn shed() -> Mitigation {
    Mitigation::Shed(ShedConfig { max_depth: 1_000, drop_expired: true })
}

fn breaker() -> Mitigation {
    Mitigation::Breaker(BreakerConfig {
        window_ticks: 100,
        open_threshold: 0.5,
        half_open_threshold: 0.1,
        min_failures: 50,
        min_failures_half: 20,
        probe_per_tick: 2,
        half_open_per_tick: 50,
    })
}

#[test]
fn outage_ignites_sustained_collapse_and_mitigations_recover() {
    let cfg = Config::campaign();
    let params = OracleParams::default();
    assert!(
        oracle::predict_vulnerable(&cfg),
        "the fluid model must classify the campaign population as vulnerable"
    );

    let trigger = outage();
    let unmit = run(&cfg, &trigger, Mitigation::None, &mut Stream::from_seed(7));
    let a = oracle::assess(&cfg, &unmit, &params);
    oracle::check_conservation(&cfg, &unmit).expect("conservation");
    oracle::check_capacity(&unmit).expect("capacity");
    assert_eq!(a.regime, Regime::Metastable, "assessment: {a:?}");
    let (first, last) = a.trigger_secs.expect("trigger observed");
    let span = last - first + 1;
    assert!(
        a.collapsed_secs_post >= 10 * span,
        "collapse must outlive the trigger 10×: {} collapsed seconds after a {span}-second \
         trigger",
        a.collapsed_secs_post
    );

    for (label, mit) in [("shed", shed()), ("breaker", breaker())] {
        let trace = run(&cfg, &trigger, mit, &mut Stream::from_seed(7));
        let m = oracle::assess(&cfg, &trace, &params);
        oracle::check_conservation(&cfg, &trace).expect("conservation");
        let recovery = m.recovery_secs.unwrap_or(u64::MAX);
        assert!(
            recovery <= params.recovery_deadline.as_secs_f64() as u64,
            "{label} must recover within the deadline, took {recovery} s"
        );
        assert_ne!(m.regime, Regime::Metastable, "{label} must break the sustaining loop");
        assert!(
            trace.total_goodput() > 3 * unmit.total_goodput(),
            "{label} goodput {} should dwarf the unmitigated {}",
            trace.total_goodput(),
            unmit.total_goodput()
        );
    }
}

#[test]
fn no_trigger_means_no_collapse() {
    let cfg = Config::campaign();
    let flat = SlowdownProfile::nominal();
    let trace = run(&cfg, &flat, Mitigation::None, &mut Stream::from_seed(7));
    let a = oracle::assess(&cfg, &trace, &OracleParams::default());
    oracle::check_no_trigger_stable(&a).expect("vulnerable-but-untriggered stays stable");
    assert_eq!(a.collapsed_secs_post, 0);
}
