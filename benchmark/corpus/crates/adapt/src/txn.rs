//! Wait-free transaction execution under slow-down failures.
//!
//! Paper §4: "The earliest [model beyond fail-stop] that we are aware of
//! is Shasha and Turek's work on 'slow-down' failures. The authors design
//! an algorithm that runs transactions correctly in the presence of such
//! failures, by simply issuing new processes to do the work elsewhere, and
//! reconciling properly so as to avoid work replication."
//!
//! This module distils that scheme: transactions acquire locks on data
//! items and hold a processor for their execution time.
//!
//! * Under [`Executor::Blocking`] (two-phase locking on fixed processors),
//!   a transaction scheduled onto a slowed processor holds its locks for
//!   the whole stretched execution, and every conflicting transaction
//!   convoys behind it.
//! * Under [`Executor::WaitFree`], a transaction whose processor misses a
//!   progress deadline is re-issued on another processor; versioned
//!   commits ensure exactly one copy's effects apply (the loser aborts at
//!   commit).

use std::collections::BTreeMap;

use simcore::time::{SimDuration, SimTime};

/// A transaction: a set of data items and a nominal execution time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Txn {
    /// Items read/written (lock set).
    pub items: Vec<u32>,
    /// Execution time on a nominal-speed processor.
    pub work: SimDuration,
}

/// Execution strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Executor {
    /// 2PL on a fixed processor per transaction (round-robin assignment).
    Blocking,
    /// Re-issue a transaction elsewhere if it has not committed within
    /// `patience` of starting; first commit wins.
    WaitFree {
        /// Progress deadline before a duplicate is issued.
        patience: SimDuration,
    },
}

/// Per-transaction result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxnOutcome {
    /// When the transaction's effects committed.
    pub committed: SimTime,
    /// Which processor's copy won.
    pub processor: usize,
    /// Whether a duplicate was issued.
    pub reissued: bool,
}

/// Batch result.
#[derive(Clone, Debug)]
pub struct TxnBatchOutcome {
    /// Per-transaction outcomes, in input order.
    pub outcomes: Vec<TxnOutcome>,
    /// When the batch finished.
    pub makespan: SimDuration,
    /// Copies aborted by reconciliation (duplicates that lost the race).
    pub aborted_duplicates: u64,
}

impl TxnBatchOutcome {
    /// Worst commit latency from batch start.
    pub fn worst_latency(&self) -> SimDuration {
        self.outcomes.iter().map(|o| o.committed - SimTime::ZERO).max().unwrap_or(SimDuration::ZERO)
    }
}

/// Executes `txns` over processors with the given speed multipliers
/// (1.0 = nominal; smaller = slowed; transactions serialise per item in
/// input order).
///
/// The model is deliberately sequential-per-lock: conflicting transactions
/// run in input order; independent ones in parallel across processors.
pub fn run_transactions(
    txns: &[Txn],
    processor_speeds: &[f64],
    executor: Executor,
) -> TxnBatchOutcome {
    assert!(!txns.is_empty(), "empty batch");
    assert!(processor_speeds.len() >= 2, "need at least two processors");
    for &s in processor_speeds {
        assert!(s > 0.0, "processor speeds must be positive (use tiny for near-stopped)");
    }

    // When each lock (item) becomes free, and when each processor is free.
    let mut lock_free: BTreeMap<u32, SimTime> = BTreeMap::new();
    let mut cpu_free = vec![SimTime::ZERO; processor_speeds.len()];
    let mut outcomes = Vec::with_capacity(txns.len());
    let mut aborted = 0u64;
    let mut makespan = SimDuration::ZERO;

    for (idx, t) in txns.iter().enumerate() {
        // Locks acquired when every item is free.
        let locks_at = t
            .items
            .iter()
            .map(|i| lock_free.get(i).copied().unwrap_or(SimTime::ZERO))
            .max()
            .unwrap_or(SimTime::ZERO);

        let primary = idx % processor_speeds.len();
        let p_start = cpu_free[primary].max(locks_at);
        let p_exec = t.work.mul_f64(1.0 / processor_speeds[primary]);
        let p_done = p_start + p_exec;

        let (committed, processor, reissued) = match executor {
            Executor::Blocking => {
                cpu_free[primary] = p_done;
                (p_done, primary, false)
            }
            Executor::WaitFree { patience } => {
                if p_done <= p_start + patience {
                    cpu_free[primary] = p_done;
                    (p_done, primary, false)
                } else {
                    // Re-issue on the least-loaded other processor at the
                    // patience deadline.
                    let deadline = p_start + patience;
                    let secondary = (0..processor_speeds.len())
                        .filter(|&p| p != primary)
                        .min_by_key(|&p| cpu_free[p].max(deadline))
                        .expect("two processors");
                    let s_start = cpu_free[secondary].max(deadline).max(locks_at);
                    let s_done = s_start + t.work.mul_f64(1.0 / processor_speeds[secondary]);
                    aborted += 1;
                    if s_done < p_done {
                        // The duplicate wins; the primary's copy aborts at
                        // commit time and releases its processor then.
                        cpu_free[secondary] = s_done;
                        cpu_free[primary] = cpu_free[primary].max(s_done.min(p_done));
                        (s_done, secondary, true)
                    } else {
                        cpu_free[primary] = p_done;
                        cpu_free[secondary] = cpu_free[secondary].max(p_done.min(s_done));
                        (p_done, primary, true)
                    }
                }
            }
        };

        for i in &t.items {
            lock_free.insert(*i, committed);
        }
        makespan = makespan.max(committed - SimTime::ZERO);
        outcomes.push(TxnOutcome { committed, processor, reissued });
    }

    TxnBatchOutcome { outcomes, makespan, aborted_duplicates: aborted }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(items: &[u32], ms: u64) -> Txn {
        Txn { items: items.to_vec(), work: SimDuration::from_millis(ms) }
    }

    const WAIT_FREE: Executor = Executor::WaitFree { patience: SimDuration::from_millis(50) };

    #[test]
    fn independent_txns_run_in_parallel() {
        let txns = vec![txn(&[1], 10), txn(&[2], 10), txn(&[3], 10), txn(&[4], 10)];
        let out = run_transactions(&txns, &[1.0; 4], Executor::Blocking);
        assert_eq!(out.makespan, SimDuration::from_millis(10));
    }

    #[test]
    fn conflicting_txns_serialise() {
        let txns = vec![txn(&[1], 10), txn(&[1], 10), txn(&[1], 10)];
        let out = run_transactions(&txns, &[1.0; 4], Executor::Blocking);
        assert_eq!(out.makespan, SimDuration::from_millis(30));
    }

    #[test]
    fn slow_processor_convoys_blocking_execution() {
        // Processor 1 at 1% speed; the second transaction lands on it and
        // holds the lock on item 1 for 1 s; the third convoys behind it.
        let mut speeds = vec![1.0; 4];
        speeds[1] = 0.01;
        let txns = vec![txn(&[1], 10), txn(&[1], 10), txn(&[1], 10)];
        let blocking = run_transactions(&txns, &speeds, Executor::Blocking);
        assert!(blocking.makespan > SimDuration::from_millis(1_000), "{}", blocking.makespan);

        let wait_free = run_transactions(&txns, &speeds, WAIT_FREE);
        assert!(wait_free.makespan < SimDuration::from_millis(200), "{}", wait_free.makespan);
        assert_eq!(wait_free.aborted_duplicates, 1);
        assert!(wait_free.outcomes[1].reissued);
    }

    #[test]
    fn wait_free_pays_nothing_when_healthy() {
        let txns = vec![txn(&[1], 10), txn(&[2], 10), txn(&[3], 10)];
        let blocking = run_transactions(&txns, &[1.0; 4], Executor::Blocking);
        let wait_free = run_transactions(&txns, &[1.0; 4], WAIT_FREE);
        assert_eq!(blocking.makespan, wait_free.makespan);
        assert_eq!(wait_free.aborted_duplicates, 0);
    }

    #[test]
    fn reconciliation_keeps_serial_order() {
        // Commits on the same item must be strictly ordered even when
        // copies are re-issued.
        let mut speeds = vec![1.0; 4];
        speeds[1] = 0.02;
        let txns: Vec<Txn> = (0..8).map(|_| txn(&[7], 10)).collect();
        let out = run_transactions(&txns, &speeds, WAIT_FREE);
        for w in out.outcomes.windows(2) {
            assert!(w[0].committed <= w[1].committed, "{w:?}");
        }
    }

    #[test]
    fn duplicate_losing_the_race_is_aborted_not_committed() {
        // Patience so tight everything re-issues, but the primary is
        // actually faster: the duplicate must lose.
        let txns = vec![txn(&[1], 100)];
        let speeds = vec![1.0, 0.5];
        let out = run_transactions(
            &txns,
            &speeds,
            Executor::WaitFree { patience: SimDuration::from_millis(10) },
        );
        assert_eq!(out.aborted_duplicates, 1);
        assert_eq!(out.outcomes[0].processor, 0, "primary's copy wins");
        assert_eq!(out.outcomes[0].committed, SimTime::from_millis(100));
    }

    #[test]
    fn near_stopped_processor_is_survivable() {
        let mut speeds = vec![1.0; 8];
        speeds[3] = 1e-6; // effectively stopped, but never "detectably failed"
        let txns: Vec<Txn> = (0..32).map(|i| txn(&[i as u32 % 4], 10)).collect();
        let out = run_transactions(&txns, &speeds, WAIT_FREE);
        assert!(out.makespan < SimDuration::from_secs(2), "{}", out.makespan);
        assert_eq!(out.outcomes.len(), 32);
    }
}
