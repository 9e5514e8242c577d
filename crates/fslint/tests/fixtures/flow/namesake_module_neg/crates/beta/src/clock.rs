//! Simulated time: the clock this crate folds.

/// The simulated instant, in nanos: a pure function of its argument.
pub fn now_nanos(sim_nanos: u64) -> u64 {
    sim_nanos
}
