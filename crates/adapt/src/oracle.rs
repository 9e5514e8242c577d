//! Machine-checkable invariants for the queue and hedging mechanisms.
//!
//! Used by the `fs-campaign` harness: every scenario run is checked against
//! these oracles, so a regression in `distribute` or `run_hedged` fails the
//! campaign instead of just shifting a plot.

use crate::hedge::HedgeOutcome;
use crate::queue::DistributeOutcome;
use simcore::time::SimDuration;

pub use stutter::oracle::Violation;

/// Every item offered must be consumed by exactly one consumer.
pub fn check_queue_conservation(out: &DistributeOutcome, items: u64) -> Result<(), Violation> {
    let consumed: u64 = out.per_consumer.iter().sum();
    if consumed == items {
        Ok(())
    } else {
        Err(Violation {
            oracle: "queue/conservation",
            detail: format!("consumed {consumed} items, offered {items}"),
        })
    }
}

/// The fluid lower bound on any schedule: `items·units / Σ nominal rates`.
///
/// Injected faults only remove bandwidth, so no strategy may finish faster
/// than the all-nominal aggregate — this doubles as the metamorphic
/// "a stutter never speeds the queue up" check.
pub fn aggregate_floor(items: u64, item_units: f64, aggregate_rate: f64) -> SimDuration {
    SimDuration::from_secs_f64(items as f64 * item_units / aggregate_rate)
}

/// Makespan must respect the aggregate fluid bound (within `rel_tol`).
pub fn check_aggregate_floor(
    out: &DistributeOutcome,
    floor: SimDuration,
    rel_tol: f64,
) -> Result<(), Violation> {
    let lo = floor.as_secs_f64() * (1.0 - rel_tol);
    if out.makespan.as_secs_f64() >= lo {
        Ok(())
    } else {
        Err(Violation {
            oracle: "queue/aggregate-floor",
            detail: format!(
                "makespan {:.6}s beats the fluid bound {:.6}s",
                out.makespan.as_secs_f64(),
                floor.as_secs_f64()
            ),
        })
    }
}

/// River's claim: the distributed queue is never materially worse than the
/// static partition. `slack` absorbs the one-item granularity tail — the
/// last item pulled may land on the consumer just before its worst stall.
pub fn check_pull_competitive(
    pull: &DistributeOutcome,
    push: &DistributeOutcome,
    slack: SimDuration,
    rel_tol: f64,
) -> Result<(), Violation> {
    let limit = push.makespan.as_secs_f64() * (1.0 + rel_tol) + slack.as_secs_f64();
    if pull.makespan.as_secs_f64() <= limit {
        Ok(())
    } else {
        Err(Violation {
            oracle: "queue/pull-competitive",
            detail: format!(
                "pull {:.6}s exceeds push {:.6}s plus slack {:.6}s",
                pull.makespan.as_secs_f64(),
                push.makespan.as_secs_f64(),
                slack.as_secs_f64()
            ),
        })
    }
}

/// Structural invariants every hedged (or blocking) run must satisfy:
/// one outcome per task, winners in range, commit after issue, bounded
/// waste, and `worst_latency ≤ makespan`.
pub fn check_hedge_sanity(out: &HedgeOutcome, tasks: u64, workers: usize) -> Result<(), Violation> {
    if out.tasks.len() as u64 != tasks {
        return Err(Violation {
            oracle: "hedge/task-count",
            detail: format!("{} outcomes for {tasks} tasks", out.tasks.len()),
        });
    }
    for (i, t) in out.tasks.iter().enumerate() {
        if t.winner >= workers {
            return Err(Violation {
                oracle: "hedge/winner-range",
                detail: format!("task {i} won by worker {} of {workers}", t.winner),
            });
        }
        if t.committed < t.issued {
            return Err(Violation {
                oracle: "hedge/commit-after-issue",
                detail: format!("task {i} committed before it was issued"),
            });
        }
    }
    if out.work_wasted > out.work_spent + 1e-9 {
        return Err(Violation {
            oracle: "hedge/waste-bounded",
            detail: format!("wasted {:.6e} of {:.6e} spent", out.work_wasted, out.work_spent),
        });
    }
    if out.reconciled as usize > out.tasks.len() {
        return Err(Violation {
            oracle: "hedge/reconcile-bounded",
            detail: format!("{} reconciliations for {} tasks", out.reconciled, out.tasks.len()),
        });
    }
    if out.worst_latency() > out.makespan {
        return Err(Violation {
            oracle: "hedge/latency-le-makespan",
            detail: format!(
                "worst latency {:.6}s exceeds makespan {:.6}s",
                out.worst_latency().as_secs_f64(),
                out.makespan.as_secs_f64()
            ),
        });
    }
    Ok(())
}

/// Without duplicate issue there is nothing to waste or reconcile.
pub fn check_blocking_spends_everything(out: &HedgeOutcome) -> Result<(), Violation> {
    if out.work_wasted.abs() > 1e-9 || out.reconciled != 0 || out.tasks.iter().any(|t| t.hedged) {
        Err(Violation {
            oracle: "hedge/blocking-no-waste",
            detail: format!(
                "blocking run wasted {:.6e}, reconciled {}",
                out.work_wasted, out.reconciled
            ),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hedge::{run_hedged, HedgeConfig};
    use crate::queue::{distribute, Strategy};
    use simcore::resource::RateProfile;
    use simcore::time::SimTime;

    fn rates() -> Vec<RateProfile> {
        [10.0, 10.0, 10.0, 2.5].iter().map(|&r| RateProfile::constant(r)).collect()
    }

    #[test]
    fn queue_oracles_accept_real_runs() {
        let rates = rates();
        let push = distribute(Strategy::Push, &rates, 400, 1.0, SimTime::ZERO).unwrap();
        let pull = distribute(Strategy::Pull, &rates, 400, 1.0, SimTime::ZERO).unwrap();
        check_queue_conservation(&push, 400).unwrap();
        check_queue_conservation(&pull, 400).unwrap();
        let floor = aggregate_floor(400, 1.0, 40.0);
        check_aggregate_floor(&pull, floor, 1e-9).unwrap();
        check_pull_competitive(&pull, &push, SimDuration::from_secs_f64(0.4), 0.01).unwrap();
    }

    #[test]
    fn impossible_makespan_is_caught() {
        let rates = rates();
        let mut pull = distribute(Strategy::Pull, &rates, 400, 1.0, SimTime::ZERO).unwrap();
        // Finishing in half the fluid bound means work was lost, not done.
        pull.makespan = SimDuration::from_secs_f64(400.0 / 40.0 / 2.0);
        let floor = aggregate_floor(400, 1.0, 40.0);
        let v = check_aggregate_floor(&pull, floor, 0.01).unwrap_err();
        assert_eq!(v.oracle, "queue/aggregate-floor");
    }

    #[test]
    fn hedge_oracles_accept_real_runs() {
        let rates = rates();
        let blocking =
            run_hedged(&rates, 32, 10.0, HedgeConfig { hedge_after: None }, SimTime::ZERO).unwrap();
        check_hedge_sanity(&blocking, 32, 4).unwrap();
        check_blocking_spends_everything(&blocking).unwrap();
        let hedged = run_hedged(
            &rates,
            32,
            10.0,
            HedgeConfig { hedge_after: Some(SimDuration::from_secs(2)) },
            SimTime::ZERO,
        )
        .unwrap();
        check_hedge_sanity(&hedged, 32, 4).unwrap();
    }
}
