//! Metastable-failure workload engine: a closed-loop client population
//! with timeouts and retries over a bounded server queue, where a
//! transient stutter (the trigger) can ignite a retry/queue feedback
//! loop that outlives the trigger itself.
//!
//! The paper argues that components which stay correct but go slow break
//! fail-stop designs; "Characterizing Metastable Faults and Failures"
//! (PAPERS.md) is the at-scale version of that claim. This crate models
//! it end to end:
//!
//! * [`engine`] — an aggregate cohort-based tick engine: a run is a
//!   plain loop over fixed ticks with thinking and backing-off clients
//!   counted in fixed-size tick wheels, so runs are deterministic, use no
//!   event queue, and cost is independent of the client population
//!   (10⁵–10⁶ clients are free).
//! * [`client`] — per-client retry policy (timeout, attempts, backoff)
//!   and the aggregate retry-token budget.
//! * [`server`] — the bounded FIFO queue of request cohorts and the
//!   trigger-windowing helper that turns any `stutter` injector profile
//!   into a transient mid-run trigger.
//! * [`policy`] — the mitigation layer: depth/age load shedding, a
//!   windowed circuit breaker with half-open probing, and
//!   predictor-armed early shedding via
//!   `stutter::predict::FailurePredictor`.
//! * [`oracle`] — the sustaining-effect oracle family: conservation and
//!   capacity audits, fluid-model vulnerability prediction, regime
//!   classification (stable / vulnerable / metastable), and
//!   "mitigation restores the stable regime within a deadline" checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod oracle;
pub mod policy;
pub mod server;

/// Convenience re-exports of the crate's main types.
pub mod prelude {
    pub use crate::client::{Backoff, BudgetConfig, RetryBudget, RetryPolicy};
    pub use crate::engine::{Config, RunTrace, Totals};
    pub use crate::oracle::{Assessment, OracleParams, Regime, Violation};
    pub use crate::policy::{BreakerConfig, BreakerState, CircuitBreaker, Mitigation, ShedConfig};
    pub use crate::server::trigger_window;
}
