//! Client-side retry machinery: backoff schedules, the per-client retry
//! policy, and the aggregate retry-token budget.
//!
//! The budget is the SRE-folklore "retry budget": clients may spend
//! retry tokens only in proportion to recently observed successes (plus
//! a small floor), which caps the demand amplification a retry storm can
//! produce. It is deliberately aggregate — token accounting is done per
//! batch, and the grant arithmetic makes totals invariant under any
//! permutation of same-tick client arrivals (property-tested in
//! `tests/props.rs`).

use simcore::time::SimDuration;

/// Delay schedule between a failed attempt and the retry that follows
/// it: `base × 2^(attempt-1)`, saturating at `cap`. With `base == cap`
/// every retry waits the same fixed delay.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    /// Delay after the first failed attempt.
    pub base: SimDuration,
    /// Upper bound on the computed delay.
    pub cap: SimDuration,
}

impl Backoff {
    /// Delay before the retry that follows failed attempt `attempt`
    /// (1-based: `attempt = 1` is the first try).
    pub fn delay(self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(32);
        let nanos = self.base.as_nanos().saturating_mul(1u64 << shift);
        SimDuration::from_nanos(nanos).min(self.cap)
    }
}

/// Per-client request policy: how long to wait and how often to retry.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// How long a client waits for a response before declaring failure.
    pub timeout: SimDuration,
    /// Total tries per logical operation (1 = no retries).
    pub max_attempts: u32,
    /// Delay schedule between failed attempts.
    pub backoff: Backoff,
}

impl RetryPolicy {
    /// Sum of all backoff delays a client can spend on one operation
    /// (between attempts 1..`max_attempts`), in seconds.
    pub fn total_backoff_secs(&self) -> f64 {
        (1..self.max_attempts).map(|a| self.backoff.delay(a).as_secs_f64()).sum()
    }
}

/// Retry-budget tuning: the allowance is `floor + ratio × successes`.
#[derive(Clone, Copy, Debug)]
pub struct BudgetConfig {
    /// Tokens available before any success has been observed.
    pub floor: f64,
    /// Extra tokens granted per observed success (e.g. 0.1 = retries may
    /// add at most 10% to successful traffic).
    pub ratio: f64,
}

/// Aggregate retry-token accounting.
///
/// `earned` only grows with [`deposit`](RetryBudget::deposit)ed
/// successes and `spent` only grows by grants clamped to the available
/// balance, so the balance is non-negative by construction — there is no
/// code path that can drive it below zero.
#[derive(Clone, Copy, Debug)]
pub struct RetryBudget {
    cfg: BudgetConfig,
    earned: f64,
    spent: u64,
}

impl RetryBudget {
    /// An empty budget (only the floor is available).
    pub fn new(cfg: BudgetConfig) -> Self {
        RetryBudget { cfg, earned: 0.0, spent: 0 }
    }

    /// Credits `successes` observed completions.
    pub fn deposit(&mut self, successes: u64) {
        self.earned += successes as f64;
    }

    /// Whole tokens currently available to spend.
    pub fn available(&self) -> u64 {
        let balance = self.cfg.floor + self.cfg.ratio * self.earned - self.spent as f64;
        if balance <= 0.0 {
            0
        } else {
            balance as u64
        }
    }

    /// Grants up to `requested` tokens, returning how many were granted.
    ///
    /// Sequential grants against a fixed allowance satisfy
    /// `grant(a) + grant(b) = min(a + b, available)` no matter how a
    /// batch is split or ordered, which is what makes same-tick client
    /// arrival order irrelevant.
    pub fn grant(&mut self, requested: u64) -> u64 {
        let granted = requested.min(self.available());
        self.spent += granted;
        granted
    }

    /// Current fractional balance (always ≥ 0, may be < 1).
    pub fn balance(&self) -> f64 {
        (self.cfg.floor + self.cfg.ratio * self.earned - self.spent as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let b = Backoff { base: SimDuration::from_millis(500), cap: SimDuration::from_secs(2) };
        assert_eq!(b.delay(1), SimDuration::from_millis(500));
        assert_eq!(b.delay(2), SimDuration::from_secs(1));
        assert_eq!(b.delay(3), SimDuration::from_secs(2));
        assert_eq!(b.delay(9), SimDuration::from_secs(2));
    }

    #[test]
    fn budget_floor_then_ratio() {
        let mut b = RetryBudget::new(BudgetConfig { floor: 3.0, ratio: 0.1 });
        assert_eq!(b.available(), 3);
        assert_eq!(b.grant(5), 3);
        assert_eq!(b.grant(1), 0);
        b.deposit(20); // +2 tokens
        assert_eq!(b.grant(5), 2);
        assert!(b.balance() >= 0.0);
    }

    #[test]
    fn budget_split_invariant() {
        let mut whole = RetryBudget::new(BudgetConfig { floor: 10.0, ratio: 0.0 });
        let mut split = RetryBudget::new(BudgetConfig { floor: 10.0, ratio: 0.0 });
        let all = whole.grant(7 + 6);
        let parts = split.grant(7) + split.grant(6);
        assert_eq!(all, parts);
    }
}
