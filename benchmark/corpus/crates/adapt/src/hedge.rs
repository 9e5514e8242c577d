//! Duplicate issue under slow-down failures — Shasha & Turek's move.
//!
//! Paper §4: Shasha and Turek "design an algorithm that runs transactions
//! correctly in the presence of such [slow-down] failures, by simply
//! issuing new processes to do the work elsewhere, and reconciling
//! properly so as to avoid work replication."
//!
//! [`run_hedged`] executes a batch of tasks on a pool of workers. A task
//! that has not completed within `hedge_after` of being issued is
//! *re-issued* to a different worker; the first copy to finish commits,
//! and reconciliation discards the loser so side effects happen exactly
//! once. The cost of the strategy is the wasted duplicate work; the
//! benefit is a bounded tail.

use simcore::resource::RateProfile;
use simcore::time::{SimDuration, SimTime};

/// Configuration of the hedging policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeConfig {
    /// Re-issue a task if it has not completed within this delay.
    /// `None` disables hedging (the blocking baseline).
    pub hedge_after: Option<SimDuration>,
}

/// Per-task outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskOutcome {
    /// When the task was issued.
    pub issued: SimTime,
    /// When its first copy committed.
    pub committed: SimTime,
    /// Which worker's copy won.
    pub winner: usize,
    /// Whether a duplicate was issued.
    pub hedged: bool,
}

/// Batch-level outcome.
#[derive(Clone, Debug)]
pub struct HedgeOutcome {
    /// Per-task results, in issue order.
    pub tasks: Vec<TaskOutcome>,
    /// When the whole batch was done.
    pub makespan: SimDuration,
    /// Total work-seconds spent, including discarded duplicates.
    pub work_spent: f64,
    /// Work-seconds discarded by reconciliation (the replication cost).
    pub work_wasted: f64,
    /// Number of duplicate commits prevented by reconciliation (every one
    /// of these would have been a double side effect).
    pub reconciled: u64,
}

impl HedgeOutcome {
    /// The slowest task's commit latency.
    pub fn worst_latency(&self) -> SimDuration {
        self.tasks.iter().map(|t| t.committed - t.issued).max().unwrap_or(SimDuration::ZERO)
    }
}

/// Runs `tasks` tasks of `task_units` each over workers with capacities
/// `rates`. Tasks are issued round-robin at time `start`, one per worker
/// slot, FIFO per worker. With hedging enabled, a late task is duplicated
/// onto the *least-loaded other* worker.
///
/// # Examples
///
/// ```
/// use adapt::prelude::*;
/// use simcore::resource::RateProfile;
/// use simcore::time::{SimDuration, SimTime};
///
/// let rates = vec![RateProfile::constant(1.0), RateProfile::constant(0.01)];
/// let out = run_hedged(
///     &rates,
///     2,
///     1.0,
///     HedgeConfig { hedge_after: Some(SimDuration::from_secs(2)) },
///     SimTime::ZERO,
/// )
/// .expect("workers alive");
/// assert!(out.worst_latency() < SimDuration::from_secs(5));
/// ```
///
/// Workers that never finish (rate permanently zero) simply never commit
/// their copies; with hedging the duplicate rescues the task, without it
/// the run returns `None` (the blocking baseline blocks forever).
pub fn run_hedged(
    rates: &[RateProfile],
    tasks: u64,
    task_units: f64,
    config: HedgeConfig,
    start: SimTime,
) -> Option<HedgeOutcome> {
    assert!(rates.len() >= 2, "hedging needs at least two workers");
    assert!(tasks > 0 && task_units > 0.0, "degenerate batch");

    // Each worker serves its queue FIFO; track the next-free time.
    let mut next_free = vec![start; rates.len()];
    let mut outcomes = Vec::with_capacity(tasks as usize);
    let mut work_spent = 0.0;
    let mut work_wasted = 0.0;
    let mut reconciled = 0;
    let mut makespan = SimDuration::ZERO;

    for t in 0..tasks {
        let issued = start;
        let primary = (t as usize) % rates.len();
        let p_start = next_free[primary];
        let p_done = rates[primary].time_to_transfer(p_start, task_units).map(|d| p_start + d);

        // Decide whether to hedge: the task is late if it has not
        // committed within hedge_after of issue.
        let hedge_at = config.hedge_after.map(|d| issued + d);
        let needs_hedge = match (hedge_at, p_done) {
            (Some(h), Some(done)) => done > h,
            (Some(_), None) => true,
            (None, _) => false,
        };

        if !needs_hedge {
            let done = p_done?; // blocking baseline: a dead worker blocks forever
            next_free[primary] = done;
            let spent = (done - p_start).as_secs_f64();
            work_spent += spent;
            makespan = makespan.max(done - start);
            outcomes.push(TaskOutcome { issued, committed: done, winner: primary, hedged: false });
            continue;
        }

        // Duplicate onto the least-loaded other worker at the hedge time.
        let hedge_time = hedge_at.expect("hedging enabled").max(issued);
        let secondary = (0..rates.len())
            .filter(|&w| w != primary)
            .min_by_key(|&w| next_free[w])
            .expect("at least two workers");
        let s_start = next_free[secondary].max(hedge_time);
        let s_done = rates[secondary].time_to_transfer(s_start, task_units).map(|d| s_start + d);

        let (winner, committed) = match (p_done, s_done) {
            (Some(p), Some(s)) => {
                if p <= s {
                    (primary, p)
                } else {
                    (secondary, s)
                }
            }
            (Some(p), None) => (primary, p),
            (None, Some(s)) => (secondary, s),
            (None, None) => return None, // both copies stuck forever
        };

        // Both copies occupy their workers until they finish or are
        // cancelled at commit time (reconciliation cancels the loser).
        let p_busy_until = p_done.unwrap_or(SimTime::MAX).min(committed);
        let s_busy_until = s_done.unwrap_or(SimTime::MAX).min(committed);
        let p_work = (p_busy_until.max(p_start) - p_start).as_secs_f64();
        let s_work = (s_busy_until.max(s_start) - s_start).as_secs_f64();
        next_free[primary] = p_busy_until.max(next_free[primary]);
        next_free[secondary] = s_busy_until.max(next_free[secondary]);
        work_spent += p_work + s_work;
        if winner == primary {
            work_wasted += s_work;
        } else {
            work_wasted += p_work;
        }
        // Would both copies have completed (and thus double-applied their
        // side effects) without reconciliation? Count the save.
        if p_done.is_some() && s_done.is_some() {
            reconciled += 1;
        }
        makespan = makespan.max(committed - start);
        outcomes.push(TaskOutcome { issued, committed, winner, hedged: true });
    }

    Some(HedgeOutcome { tasks: outcomes, makespan, work_spent, work_wasted, reconciled })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(rs: &[f64]) -> Vec<RateProfile> {
        rs.iter().map(|&r| RateProfile::constant(r)).collect()
    }

    fn dead_after(rate: f64, secs: u64) -> RateProfile {
        if secs == 0 {
            RateProfile::constant(0.0)
        } else {
            RateProfile::from_breakpoints(vec![
                (SimTime::ZERO, rate),
                (SimTime::from_secs(secs), 0.0),
            ])
        }
    }

    const NO_HEDGE: HedgeConfig = HedgeConfig { hedge_after: None };

    fn hedge(secs: u64) -> HedgeConfig {
        HedgeConfig { hedge_after: Some(SimDuration::from_secs(secs)) }
    }

    #[test]
    fn healthy_pool_never_hedges() {
        let r = rates(&[1.0, 1.0, 1.0, 1.0]);
        let out = run_hedged(&r, 4, 1.0, hedge(10), SimTime::ZERO).expect("ok");
        assert!(out.tasks.iter().all(|t| !t.hedged));
        assert_eq!(out.work_wasted, 0.0);
        assert_eq!(out.makespan, SimDuration::from_secs(1));
    }

    #[test]
    fn slow_worker_tasks_get_rescued() {
        // Worker 1 runs at 1/100 speed: its task takes 100 s unhedged.
        let r = rates(&[1.0, 0.01]);
        let blocking = run_hedged(&r, 2, 1.0, NO_HEDGE, SimTime::ZERO).expect("ok");
        assert_eq!(blocking.worst_latency(), SimDuration::from_secs(100));
        let hedged = run_hedged(&r, 2, 1.0, hedge(2), SimTime::ZERO).expect("ok");
        // The duplicate on worker 0 commits at ~3 s (hedge at 2 + 1 s work).
        assert!(hedged.worst_latency() <= SimDuration::from_secs(4), "{}", hedged.worst_latency());
        assert!(hedged.work_wasted > 0.0, "the loser's partial work is discarded");
    }

    #[test]
    fn dead_worker_blocks_baseline_forever() {
        let r = vec![RateProfile::constant(1.0), dead_after(1.0, 0)];
        assert!(run_hedged(&r, 2, 1.0, NO_HEDGE, SimTime::ZERO).is_none());
        let hedged = run_hedged(&r, 2, 1.0, hedge(1), SimTime::ZERO).expect("rescued");
        assert_eq!(hedged.tasks.len(), 2);
        assert!(hedged.tasks.iter().all(|t| t.winner == 0));
    }

    #[test]
    fn reconciliation_counts_double_finishers() {
        // Both workers healthy but one marginally slower: a tight hedge
        // triggers duplicates that both complete.
        let r = rates(&[1.0, 0.9]);
        let out = run_hedged(&r, 2, 10.0, hedge(1), SimTime::ZERO).expect("ok");
        assert!(out.tasks.iter().any(|t| t.hedged));
        assert!(out.reconciled > 0, "duplicate commits must be reconciled away");
    }

    #[test]
    fn hedging_bounds_the_tail_at_bounded_cost() {
        // 16 workers, one catastrophically slow.
        let mut rs = vec![1.0; 16];
        rs[7] = 0.02;
        let r = rates(&rs);
        let blocking = run_hedged(&r, 64, 1.0, NO_HEDGE, SimTime::ZERO).expect("ok");
        let hedged = run_hedged(&r, 64, 1.0, hedge(2), SimTime::ZERO).expect("ok");
        assert!(blocking.worst_latency() > SimDuration::from_secs(100));
        assert!(hedged.worst_latency() < SimDuration::from_secs(10));
        // Waste is a small fraction of total work.
        assert!(
            hedged.work_wasted < 0.3 * hedged.work_spent,
            "wasted {} of {}",
            hedged.work_wasted,
            hedged.work_spent
        );
    }

    #[test]
    fn all_workers_dead_returns_none() {
        let r = vec![dead_after(1.0, 0), dead_after(1.0, 0)];
        assert!(run_hedged(&r, 1, 1.0, hedge(1), SimTime::ZERO).is_none());
    }
}
