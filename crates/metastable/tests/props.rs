//! Property tests for the mitigation layer, the retry budget and the
//! server queue.
//!
//! Two contracts matter for the metastable scenarios and are promised in
//! the module docs: the circuit breaker is *monotone* in the observed
//! failure rate (a strictly worse observation window can never move the
//! breaker toward Closed, so flapping cannot be caused by the state
//! function itself), and its admission limit never starves probes. The
//! retry budget's token accounting must be non-negative and invariant
//! under any permutation of same-tick client arrivals, so engine results
//! cannot depend on client iteration order. The server queue keeps only
//! a count of its orphaned head, which must behave exactly like marking
//! each cohort at its deadline.

use proptest::prelude::*;

use metastable::client::{BudgetConfig, RetryBudget};
use metastable::policy::{BreakerConfig, CircuitBreaker};
use metastable::server::{Cohort, Expired, Served, ServerQueue};

/// The server queue with no bookkeeping: every cohort ever pushed, in
/// push order, with its own liveness flag, and expiry by a linear scan
/// for cohorts whose deadline is exactly the expiring tick.
struct NaiveQueue {
    cohorts: Vec<(Cohort, bool)>,
}

impl NaiveQueue {
    fn depth(&self) -> u64 {
        self.cohorts.iter().map(|(c, _)| c.remaining).sum()
    }

    fn push(&mut self, c: Cohort) {
        self.cohorts.push((c, true));
    }

    fn serve(&mut self, credit: &mut f64, drop_expired: bool) -> Served {
        let mut out = Served::default();
        for (c, live) in self.cohorts.iter_mut().filter(|(c, _)| c.remaining > 0) {
            if drop_expired && !*live {
                out.dropped_expired += c.remaining;
                c.remaining = 0;
                continue;
            }
            let can = *credit as u64;
            if can == 0 {
                break;
            }
            let k = can.min(c.remaining);
            *credit -= k as f64;
            c.remaining -= k;
            match (*live, c.open) {
                (false, _) => out.orphan += k,
                (true, true) => out.live_open += k,
                (true, false) => out.live_closed += k,
            }
            if c.remaining > 0 {
                break;
            }
        }
        out
    }

    fn expire(&mut self, tick: u64) -> Vec<Expired> {
        let mut out = Vec::new();
        for (c, live) in self.cohorts.iter_mut().filter(|(c, _)| c.deadline_tick == tick) {
            if *live && c.remaining > 0 {
                out.push(Expired { attempt: c.attempt, count: c.remaining, open: c.open });
            }
            *live = false;
        }
        out
    }

    fn census(&self) -> (u64, u64, u64) {
        let mut census = (0, 0, 0);
        for (c, live) in &self.cohorts {
            match (*live, c.open) {
                (false, _) => census.2 += c.remaining,
                (true, true) => census.1 += c.remaining,
                (true, false) => census.0 += c.remaining,
            }
        }
        census
    }
}

fn breaker_cfg() -> BreakerConfig {
    BreakerConfig {
        window_ticks: 8,
        open_threshold: 0.5,
        half_open_threshold: 0.2,
        min_failures: 20,
        min_failures_half: 10,
        probe_per_tick: 2,
        half_open_per_tick: 16,
    }
}

proptest! {
    /// Closed → HalfOpen → Open is monotone in the observed failure
    /// rate: feeding one breaker a per-tick trace that is everywhere at
    /// least as bad (same volume, at least as many failures) keeps its
    /// state at or above the better breaker's at every tick.
    #[test]
    fn breaker_state_monotone_in_failure_rate(
        ticks in proptest::collection::vec((0u64..200, 0u64..100, 0u64..100), 1..60)
    ) {
        let mut better = CircuitBreaker::new(breaker_cfg());
        let mut worse = CircuitBreaker::new(breaker_cfg());
        for &(total, cut_a, cut_b) in &ticks {
            // Both breakers see `total` outcomes this tick; the worse
            // one sees at least as many failures.
            let fail_lo = (total * cut_a.min(cut_b)) / 100;
            let fail_hi = (total * cut_a.max(cut_b)) / 100;
            better.begin_tick();
            better.record(total - fail_lo, fail_lo);
            worse.begin_tick();
            worse.record(total - fail_hi, fail_hi);
            prop_assert!(
                worse.state() >= better.state(),
                "worse window {:?} below better window {:?}",
                worse.state(),
                better.state()
            );
        }
    }

    /// Whatever the observation history, the breaker either admits
    /// everything (Closed ⇒ `None`) or admits at least the configured
    /// probe floor — a recovering server is always re-discovered.
    #[test]
    fn breaker_admission_never_below_probe_floor(
        ticks in proptest::collection::vec((0u64..1_000, 0u64..1_000), 1..80)
    ) {
        let mut b = CircuitBreaker::new(breaker_cfg());
        for &(succ, fail) in &ticks {
            b.begin_tick();
            b.record(succ, fail);
            match b.admit_limit() {
                None => {}
                Some(limit) => prop_assert!(
                    limit >= b.probe_floor(),
                    "admission {limit} fell below the probe floor {}",
                    b.probe_floor()
                ),
            }
        }
    }

    /// Token accounting never goes negative and never grants more than
    /// the allowance, under any interleaving of deposits and grants.
    #[test]
    fn budget_balance_never_negative(
        floor in 0.0f64..50.0,
        ratio in 0.0f64..1.0,
        ops in proptest::collection::vec((any::<bool>(), 0u64..200), 1..100)
    ) {
        let mut budget = RetryBudget::new(BudgetConfig { floor, ratio });
        let mut deposited = 0u64;
        let mut granted = 0u64;
        for &(is_deposit, n) in &ops {
            if is_deposit {
                budget.deposit(n);
                deposited += n;
            } else {
                granted += budget.grant(n);
            }
            prop_assert!(budget.balance() >= 0.0);
            prop_assert!(
                (granted as f64) <= floor + ratio * deposited as f64,
                "granted {granted} exceeds allowance {}",
                floor + ratio * deposited as f64
            );
        }
    }

    /// The total granted to a same-tick batch of requests is invariant
    /// under any permutation of the arrivals: it only depends on the
    /// requested sum and the allowance, never on client order.
    #[test]
    fn budget_grant_is_permutation_invariant(
        floor in 0.0f64..100.0,
        ratio in 0.0f64..0.5,
        successes in 0u64..5_000,
        requests in proptest::collection::vec(0u64..40, 1..30),
        shuffle_seed in any::<u64>()
    ) {
        // Deterministic Fisher-Yates driven by a splitmix-style stream,
        // so the permutation is itself a generated input.
        let mut permuted = requests.clone();
        let mut s = shuffle_seed;
        for i in (1..permuted.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 32) as usize % (i + 1);
            permuted.swap(i, j);
        }

        let mut a = RetryBudget::new(BudgetConfig { floor, ratio });
        let mut b = RetryBudget::new(BudgetConfig { floor, ratio });
        a.deposit(successes);
        b.deposit(successes);
        let granted_a: u64 = requests.iter().map(|&r| a.grant(r)).sum();
        let granted_b: u64 = permuted.iter().map(|&r| b.grant(r)).sum();
        prop_assert_eq!(granted_a, granted_b);
        let total: u64 = requests.iter().sum();
        prop_assert_eq!(granted_a, total.min(a.available() + granted_a));
    }

    /// `ServerQueue` agrees with the naive model on every tick of a run
    /// shaped like the engine's: serve (with or without age shedding),
    /// expire the tick, then push cohorts clamped to the free slots,
    /// with deadlines that never decrease and always lie ahead.
    #[test]
    fn server_queue_matches_naive_model(
        cap in 1u64..300,
        ticks in proptest::collection::vec(
            (
                0u64..400,
                any::<bool>(),
                proptest::collection::vec((0u64..3, 0u64..120, 1u32..4, any::<bool>()), 0..4),
            ),
            1..60,
        )
    ) {
        let mut queue = ServerQueue::new(cap);
        let mut model = NaiveQueue { cohorts: Vec::new() };
        let mut deadline = 0;
        for (t, (quarters, drop_expired, pushes)) in (0u64..).zip(&ticks) {
            let mut credit = *quarters as f64 / 4.0;
            let mut model_credit = credit;
            let served = queue.serve(&mut credit, *drop_expired);
            prop_assert_eq!(served, model.serve(&mut model_credit, *drop_expired));
            prop_assert_eq!(credit, model_credit);
            let expired: Vec<Expired> = std::iter::from_fn(|| queue.expire_next(t)).collect();
            prop_assert_eq!(expired, model.expire(t));
            for &(gap, n, attempt, open) in pushes {
                deadline = deadline.max(t + 1) + gap;
                let remaining = n.min(queue.free_slots());
                let c = Cohort { deadline_tick: deadline, attempt, remaining, open };
                queue.push(c);
                model.push(c);
            }
            prop_assert_eq!(queue.depth(), model.depth());
            prop_assert_eq!(queue.census(), model.census());
        }
    }
}
