//! The mitigation layer: depth/age load shedding, a windowed circuit
//! breaker with half-open probing, and predictor-armed early shedding.
//!
//! The circuit breaker is deliberately *stateless-from-window*: its
//! state is a pure function of the success/failure counts in the
//! sliding observation window, with nested thresholds
//! (`open ≥ half_open`). That makes closed→half-open→open monotone in
//! the observed failure rate by construction — a strictly worse window
//! can never move the breaker toward Closed — and the admission floor
//! guarantees probes always flow, so a recovering server is always
//! re-discovered. Both properties are property-tested in
//! `tests/props.rs`.

use std::collections::VecDeque;

use stutter::predict::PredictorConfig;

/// Load-shedding configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShedConfig {
    /// Reject new admissions once queue depth reaches this bound. To
    /// guarantee served requests beat their issuer's timeout, keep this
    /// below `service_rate × timeout`.
    pub max_depth: u64,
    /// Discard queued requests whose issuers already timed out instead
    /// of serving them (age-based shedding of orphan work).
    pub drop_expired: bool,
}

/// Circuit-breaker tuning.
///
/// Monotonicity contract: `open_threshold ≥ half_open_threshold` and
/// `min_failures ≥ min_failures_half`, so the Open predicate implies the
/// HalfOpen predicate and a worse window can only escalate the state.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Sliding observation window, in engine ticks.
    pub window_ticks: usize,
    /// Failure rate at or above which the breaker opens.
    pub open_threshold: f64,
    /// Failure rate at or above which the breaker is at least half-open.
    pub half_open_threshold: f64,
    /// Minimum windowed failures before opening (volume gate).
    pub min_failures: u64,
    /// Minimum windowed failures before half-opening.
    pub min_failures_half: u64,
    /// Requests admitted per tick while Open — the probe floor;
    /// admission never drops below this.
    pub probe_per_tick: u64,
    /// Requests admitted per tick while HalfOpen (clamped up to at
    /// least the probe floor).
    pub half_open_per_tick: u64,
}

/// Breaker admission state, derived from the observation window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BreakerState {
    /// Healthy: admit everything.
    Closed,
    /// Degraded: admit a trickle to probe for recovery.
    HalfOpen,
    /// Failing: admit only the probe floor.
    Open,
}

/// A windowed circuit breaker with half-open probing.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    ring: VecDeque<(u64, u64)>,
    succ: u64,
    fail: u64,
}

impl CircuitBreaker {
    /// A breaker with an empty (healthy) observation window.
    pub fn new(cfg: BreakerConfig) -> Self {
        assert!(cfg.window_ticks > 0, "breaker window must be non-empty");
        assert!(
            cfg.open_threshold >= cfg.half_open_threshold
                && cfg.min_failures >= cfg.min_failures_half,
            "breaker thresholds must nest (open >= half-open) for monotonicity"
        );
        CircuitBreaker { cfg, ring: VecDeque::new(), succ: 0, fail: 0 }
    }

    /// Opens a fresh per-tick observation slot, evicting expired ones.
    pub fn begin_tick(&mut self) {
        self.ring.push_back((0, 0));
        while self.ring.len() > self.cfg.window_ticks {
            if let Some((s, f)) = self.ring.pop_front() {
                self.succ -= s;
                self.fail -= f;
            }
        }
    }

    /// Records observed request outcomes in the current tick slot.
    pub fn record(&mut self, successes: u64, failures: u64) {
        if let Some(slot) = self.ring.back_mut() {
            slot.0 += successes;
            slot.1 += failures;
        }
        self.succ += successes;
        self.fail += failures;
    }

    /// Current state — a pure function of the windowed counts.
    pub fn state(&self) -> BreakerState {
        let total = self.succ + self.fail;
        if total == 0 {
            return BreakerState::Closed;
        }
        let rate = self.fail as f64 / total as f64;
        if self.fail >= self.cfg.min_failures && rate >= self.cfg.open_threshold {
            BreakerState::Open
        } else if self.fail >= self.cfg.min_failures_half && rate >= self.cfg.half_open_threshold {
            BreakerState::HalfOpen
        } else {
            BreakerState::Closed
        }
    }

    /// Per-tick admission limit: `None` means unlimited (Closed). The
    /// limit never falls below `probe_per_tick`.
    pub fn admit_limit(&self) -> Option<u64> {
        match self.state() {
            BreakerState::Closed => None,
            BreakerState::HalfOpen => {
                Some(self.cfg.half_open_per_tick.max(self.cfg.probe_per_tick))
            }
            BreakerState::Open => Some(self.cfg.probe_per_tick),
        }
    }

    /// The configured probe floor.
    pub fn probe_floor(&self) -> u64 {
        self.cfg.probe_per_tick
    }
}

/// A mitigation variant applied to the served system.
#[derive(Clone, Copy, Debug)]
pub enum Mitigation {
    /// No protection: naive clients against a bounded queue.
    None,
    /// Depth/age load shedding at the queue.
    Shed(ShedConfig),
    /// A circuit breaker between the client population and the queue.
    Breaker(BreakerConfig),
    /// Depth/age shedding armed early by a `FailurePredictor` trend
    /// crossing (the ROADMAP "prediction as the load-shedding trigger"
    /// pairing): sheds only while the observed capacity trend is at or
    /// below `level` and declining at least `decline` per window.
    PredictiveShed {
        /// Shedding applied while the trend threshold is crossed.
        shed: ShedConfig,
        /// Trend estimator configuration.
        predictor: PredictorConfig,
        /// Arm when the fitted capacity level is at or below this.
        level: f64,
        /// Arm when declining at least this much per predictor window.
        decline: f64,
    },
}

impl Mitigation {
    /// Short stable label for metrics and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Mitigation::None => "none",
            Mitigation::Shed(_) => "shed",
            Mitigation::Breaker(_) => "breaker",
            Mitigation::PredictiveShed { .. } => "predictive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window_ticks: 4,
            open_threshold: 0.5,
            half_open_threshold: 0.25,
            min_failures: 8,
            min_failures_half: 4,
            probe_per_tick: 2,
            half_open_per_tick: 10,
        }
    }

    #[test]
    fn escalates_and_recovers_through_half_open() {
        let mut b = CircuitBreaker::new(cfg());
        b.begin_tick();
        b.record(20, 0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.begin_tick();
        b.record(0, 30);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit_limit(), Some(2));
        // Failures age out of the window; successes re-close the breaker.
        for _ in 0..3 {
            b.begin_tick();
            b.record(2, 0);
        }
        assert_eq!(b.state(), BreakerState::Open); // 30 fails still in window
        b.begin_tick();
        b.record(2, 1); // the 30-failure slot just aged out
        assert!(b.state() <= BreakerState::HalfOpen);
        for _ in 0..4 {
            b.begin_tick();
            b.record(20, 0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit_limit(), None);
    }

    #[test]
    fn admission_never_below_probe_floor() {
        let mut b = CircuitBreaker::new(cfg());
        b.begin_tick();
        b.record(0, 1_000_000);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit_limit().unwrap_or(u64::MAX) >= b.probe_floor());
    }
}
