//! The sustaining-effect oracle family.
//!
//! Following "A Formal Framework for Predicting Distributed System
//! Performance under Faults" (PAPERS.md), the checks pair an analytic
//! *fluid-model* prediction — is this configuration vulnerable, i.e.
//! does the fully-collapsed retry storm demand more than nominal
//! capacity? — with the simulated outcome:
//!
//! * conservation audits (every request and every client accounted for),
//! * a capacity bound (you cannot serve work that was never affordable),
//! * regime classification per run (stable / vulnerable / metastable),
//! * "trigger removed but goodput stays collapsed" detection, and
//! * "mitigation restores the stable regime within a deadline".

use simcore::time::SimDuration;

use crate::engine::{Config, RunTrace};

pub use stutter::oracle::Violation;

/// Observed/predicted regime of one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Healthy, and the configuration could not sustain a collapse.
    Stable,
    /// Healthy in this run, but the configuration admits a sustained
    /// collapse (a deep enough trigger would stick).
    Vulnerable,
    /// Goodput stayed collapsed for the whole sustain window after the
    /// trigger was removed — the feedback loop, not the fault, is in
    /// charge.
    Metastable,
}

impl Regime {
    /// Stable numeric code for campaign metrics (0/1/2).
    pub fn code(self) -> u64 {
        match self {
            Regime::Stable => 0,
            Regime::Vulnerable => 1,
            Regime::Metastable => 2,
        }
    }
}

/// Classification thresholds.
#[derive(Clone, Copy, Debug)]
pub struct OracleParams {
    /// Seconds of ramp-in excluded from the baseline.
    pub warmup_secs: u64,
    /// A second is *collapsed* when goodput is below this fraction of
    /// baseline.
    pub collapse_frac: f64,
    /// A second is *recovered* when goodput is at or above this fraction
    /// of baseline.
    pub recover_frac: f64,
    /// Consecutive recovered seconds required to declare recovery.
    pub recover_dwell_secs: u64,
    /// Collapse must persist this × the trigger span (post-trigger) to
    /// classify as metastable.
    pub sustain_mult: u64,
    /// Mitigations must restore the stable regime within this much time
    /// after the trigger is removed.
    pub recovery_deadline: SimDuration,
}

impl Default for OracleParams {
    fn default() -> Self {
        OracleParams {
            warmup_secs: 20,
            collapse_frac: 0.1,
            recover_frac: 0.5,
            recover_dwell_secs: 5,
            sustain_mult: 10,
            recovery_deadline: SimDuration::from_secs(45),
        }
    }
}

/// Everything the classifier measured about one run.
#[derive(Clone, Copy, Debug)]
pub struct Assessment {
    /// Mean goodput per second over the pre-trigger baseline window.
    pub baseline_per_sec: f64,
    /// Degraded span `(first, last)` in whole seconds, if any.
    pub trigger_secs: Option<(u64, u64)>,
    /// Consecutive collapsed seconds immediately after the trigger.
    pub collapsed_secs_post: u64,
    /// Seconds from trigger end to sustained recovery, if it happened.
    pub recovery_secs: Option<u64>,
    /// Fluid-model prediction for the configuration.
    pub predicted_vulnerable: bool,
    /// The resulting classification.
    pub regime: Regime,
}

/// Fluid-model vulnerability prediction for a configuration.
///
/// In the fully-collapsed state every attempt times out, so one
/// operation costs `max_attempts × timeout + Σ backoff + think` seconds
/// and issues `max_attempts` requests (one request per `timeout + think`
/// when a budget chokes retries — with no successes there is nothing to
/// earn tokens from). The configuration is vulnerable when that demand
/// meets or exceeds nominal capacity **and** the queue bound is deep
/// enough (`> service_rate × timeout`) to hold the head past the client
/// timeout, which is what keeps all served work orphaned.
pub fn predict_vulnerable(cfg: &Config) -> bool {
    let timeout = cfg.policy.timeout.as_secs_f64();
    let think = cfg.think.as_secs_f64();
    let collapsed_rate = if cfg.budget.is_none() {
        let attempts = cfg.policy.max_attempts as f64;
        let cycle = attempts * timeout + cfg.policy.total_backoff_secs() + think;
        cfg.population as f64 * attempts / cycle
    } else {
        cfg.population as f64 / (timeout + think)
    } + cfg.open_per_sec;
    let deep_enough = cfg.queue_cap as f64 > cfg.service_rate * timeout;
    collapsed_rate >= cfg.service_rate && deep_enough
}

/// Classifies one run: measures the baseline, detects sustained
/// post-trigger collapse, finds the recovery point, and combines with
/// the fluid-model prediction into a [`Regime`].
pub fn assess(cfg: &Config, trace: &RunTrace, params: &OracleParams) -> Assessment {
    let per_sec = trace.goodput_per_sec();
    let trigger_secs = trace.degraded_secs();
    let baseline_window: Vec<u64> = match trigger_secs {
        Some((first, _)) => {
            per_sec.iter().copied().take(first as usize).skip(params.warmup_secs as usize).collect()
        }
        None => per_sec.iter().copied().skip(params.warmup_secs as usize).collect(),
    };
    let baseline_per_sec = if baseline_window.is_empty() {
        0.0
    } else {
        baseline_window.iter().sum::<u64>() as f64 / baseline_window.len() as f64
    };

    let mut collapsed_secs_post = 0;
    let mut recovery_secs = None;
    if let Some((_, last)) = trigger_secs {
        let post_start = (last + 1) as usize;
        let collapse_at = params.collapse_frac * baseline_per_sec;
        for &g in per_sec.iter().skip(post_start) {
            if (g as f64) < collapse_at {
                collapsed_secs_post += 1;
            } else {
                break;
            }
        }
        let recover_at = params.recover_frac * baseline_per_sec;
        let post: Vec<u64> = per_sec.iter().copied().skip(post_start).collect();
        let dwell = params.recover_dwell_secs as usize;
        if dwell > 0 && post.len() >= dwell {
            for (i, w) in post.windows(dwell).enumerate() {
                if w.iter().all(|&g| g as f64 >= recover_at) {
                    recovery_secs = Some(i as u64);
                    break;
                }
            }
        }
    }

    let predicted_vulnerable = predict_vulnerable(cfg);
    let sustained = match trigger_secs {
        Some((first, last)) => {
            let span = last - first + 1;
            collapsed_secs_post >= params.sustain_mult * span
        }
        None => false,
    };
    let regime = if sustained {
        Regime::Metastable
    } else if predicted_vulnerable {
        Regime::Vulnerable
    } else {
        Regime::Stable
    };
    Assessment {
        baseline_per_sec,
        trigger_secs,
        collapsed_secs_post,
        recovery_secs,
        predicted_vulnerable,
        regime,
    }
}

/// Request- and client-conservation audit over the run totals.
pub fn check_conservation(cfg: &Config, trace: &RunTrace) -> Result<(), Violation> {
    let t = &trace.totals;
    let issued = t.issued_fresh + t.issued_retry + t.issued_open;
    let rejected = t.rejected_breaker + t.rejected_shed + t.rejected_cap;
    if issued != t.admitted + rejected {
        return Err(Violation {
            oracle: "meta-conservation",
            detail: format!("issued {issued} != admitted {} + rejected {rejected}", t.admitted),
        });
    }
    let drained = t.served_live
        + t.served_open
        + t.served_orphan
        + t.dropped_expired
        + t.queue_live_end
        + t.queue_open_end
        + t.queue_orphan_end;
    if t.admitted != drained {
        return Err(Violation {
            oracle: "meta-conservation",
            detail: format!("admitted {} != dispositions {drained}", t.admitted),
        });
    }
    let orphans = t.served_orphan + t.dropped_expired + t.queue_orphan_end;
    if t.timeouts + t.open_timeouts != orphans {
        return Err(Violation {
            oracle: "meta-conservation",
            detail: format!(
                "timeouts {} + open {} != orphan dispositions {orphans}",
                t.timeouts, t.open_timeouts
            ),
        });
    }
    if t.retries_scheduled != t.issued_retry + t.backoff_end {
        return Err(Violation {
            oracle: "meta-conservation",
            detail: format!(
                "retries scheduled {} != issued {} + pending {}",
                t.retries_scheduled, t.issued_retry, t.backoff_end
            ),
        });
    }
    let clients = t.queue_live_end + t.backoff_end + t.think_end;
    if cfg.population != clients {
        return Err(Violation {
            oracle: "meta-conservation",
            detail: format!("population {} != accounted clients {clients}", cfg.population),
        });
    }
    Ok(())
}

/// Served work never exceeds the capacity that was actually available.
pub fn check_capacity(trace: &RunTrace) -> Result<(), Violation> {
    let t = &trace.totals;
    let served = (t.served_live + t.served_open + t.served_orphan) as f64;
    if served > t.capacity_credit + 1.0 {
        return Err(Violation {
            oracle: "meta-capacity",
            detail: format!(
                "served {served} requests with only {:.1} credit accrued",
                t.capacity_credit
            ),
        });
    }
    Ok(())
}

/// Without a trigger the run must not collapse (baseline load is
/// feasible by construction, so collapse would mean the engine itself
/// leaks demand).
pub fn check_no_trigger_stable(a: &Assessment) -> Result<(), Violation> {
    if a.trigger_secs.is_none() && (a.regime == Regime::Metastable || a.collapsed_secs_post > 0) {
        return Err(Violation {
            oracle: "meta-no-trigger-stable",
            detail: format!("collapse with no trigger: {a:?}"),
        });
    }
    Ok(())
}

/// Sound direction of the fluid model: an observed sustained collapse
/// must have been predicted possible.
pub fn check_prediction(a: &Assessment) -> Result<(), Violation> {
    if a.regime == Regime::Metastable && !a.predicted_vulnerable {
        return Err(Violation {
            oracle: "meta-prediction",
            detail: format!(
                "sustained collapse in a configuration predicted invulnerable \
                 (baseline {:.1}/s, collapsed {} s post-trigger)",
                a.baseline_per_sec, a.collapsed_secs_post
            ),
        });
    }
    Ok(())
}

/// A mitigated run must return to the stable regime within the deadline
/// of the trigger being removed (vacuous without a trigger or without a
/// measurable baseline).
pub fn check_mitigation_recovers(a: &Assessment, params: &OracleParams) -> Result<(), Violation> {
    if a.trigger_secs.is_none() || a.baseline_per_sec <= 0.0 {
        return Ok(());
    }
    let deadline = params.recovery_deadline.as_secs_f64();
    match a.recovery_secs {
        Some(r) if (r as f64) <= deadline => Ok(()),
        got => Err(Violation {
            oracle: "meta-recovery",
            detail: format!(
                "mitigated run recovered at {got:?} s post-trigger, deadline {deadline} s"
            ),
        }),
    }
}

/// A mitigation must break the sustaining loop: where the unmitigated
/// run sticks in the collapsed state, the mitigated one must not.
pub fn check_mitigation_effective(
    unmitigated: &Assessment,
    mitigated: &Assessment,
) -> Result<(), Violation> {
    if unmitigated.regime == Regime::Metastable && mitigated.regime == Regime::Metastable {
        return Err(Violation {
            oracle: "meta-mitigation",
            detail: format!(
                "mitigation failed to break the loop: unmitigated {unmitigated:?} vs \
                 mitigated {mitigated:?}"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Backoff, BudgetConfig, RetryPolicy};
    use crate::policy::{Mitigation, ShedConfig};
    use simcore::rng::Stream;
    use simcore::time::SimTime;
    use stutter::injector::SlowdownProfile;

    /// A vulnerable-by-design configuration small enough for unit tests:
    /// stable utilisation ≈ 0.67, collapsed demand ≈ 1.2× capacity.
    fn vulnerable_cfg() -> Config {
        Config {
            population: 1_300,
            think: SimDuration::from_secs(10),
            policy: RetryPolicy {
                timeout: SimDuration::from_secs(1),
                max_attempts: 3,
                backoff: Backoff {
                    base: SimDuration::from_millis(500),
                    cap: SimDuration::from_secs(2),
                },
            },
            budget: None,
            service_rate: 200.0,
            queue_cap: 2_000,
            dt: SimDuration::from_millis(50),
            horizon: SimDuration::from_secs(450),
            open_per_sec: 0.0,
            initial_burst: false,
        }
    }

    fn outage_trigger() -> SlowdownProfile {
        SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(60), 0.0),
            (SimTime::from_secs(90), 1.0),
        ])
    }

    #[test]
    fn prediction_matches_design() {
        let cfg = vulnerable_cfg();
        assert!(predict_vulnerable(&cfg));
        // Budgeted retries choke the storm below capacity.
        let budgeted = Config { budget: Some(BudgetConfig { floor: 10.0, ratio: 0.1 }), ..cfg };
        assert!(!predict_vulnerable(&budgeted));
        // A shallow queue cannot hold the head past the timeout.
        assert!(!predict_vulnerable(&Config { queue_cap: 100, ..cfg }));
        // No retries, longer effective cycle: not vulnerable.
        let no_retry = Config { policy: RetryPolicy { max_attempts: 1, ..cfg.policy }, ..cfg };
        assert!(!predict_vulnerable(&no_retry));
    }

    #[test]
    fn unmitigated_outage_sticks_and_classifies_metastable() {
        let cfg = vulnerable_cfg();
        let mut rng = Stream::from_seed(3).derive("meta-oracle-test-unmit");
        let tr = crate::engine::run(&cfg, &outage_trigger(), Mitigation::None, &mut rng);
        let a = assess(&cfg, &tr, &OracleParams::default());
        assert_eq!(a.regime, Regime::Metastable, "assessment: {a:?}");
        check_conservation(&cfg, &tr).expect("conservation");
        check_capacity(&tr).expect("capacity");
        check_prediction(&a).expect("prediction agreement");
        // Collapse outlives the trigger by >= 10x its span.
        assert!(a.collapsed_secs_post >= 10 * 30, "collapsed only {} s", a.collapsed_secs_post);
    }

    #[test]
    fn shedding_restores_stable_within_deadline() {
        let cfg = vulnerable_cfg();
        let shed = Mitigation::Shed(ShedConfig { max_depth: 100, drop_expired: true });
        let mut rng = Stream::from_seed(3).derive("meta-oracle-test-shed");
        let tr = crate::engine::run(&cfg, &outage_trigger(), shed, &mut rng);
        let a = assess(&cfg, &tr, &OracleParams::default());
        check_conservation(&cfg, &tr).expect("conservation");
        check_mitigation_recovers(&a, &OracleParams::default()).expect("recovery");
        assert_ne!(a.regime, Regime::Metastable);
    }

    #[test]
    fn no_trigger_run_is_not_collapsed() {
        let cfg = vulnerable_cfg();
        let mut rng = Stream::from_seed(3).derive("meta-oracle-test-quiet");
        let tr = crate::engine::run(&cfg, &SlowdownProfile::nominal(), Mitigation::None, &mut rng);
        let a = assess(&cfg, &tr, &OracleParams::default());
        check_no_trigger_stable(&a).expect("no-trigger stability");
        assert_eq!(a.regime, Regime::Vulnerable, "vulnerable config, healthy run: {a:?}");
    }
}
