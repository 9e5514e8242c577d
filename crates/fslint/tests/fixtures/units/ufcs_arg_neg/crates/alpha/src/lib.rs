//! Unit fixture: the receiver of a method called through its type's
//! path is no parameter, so a seconds-named receiver never meets the
//! millis parameter; the millis value after it does, and agrees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// A waiter holding a budget in seconds.
pub struct S(pub u64);

impl S {
    /// Waits for a timeout in milliseconds.
    pub fn wait(&self, t_ms: u64) -> u64 {
        t_ms
    }

    /// Waits for a timeout in milliseconds, consuming the boxed waiter.
    pub fn wait_boxed(self: Box<Self>, t_ms: u64) -> u64 {
        t_ms
    }
}

/// Passes each method its receiver and a timeout in millis.
pub fn settle(budget_secs: &S, boxed_secs: Box<S>, d_ms: u64) -> u64 {
    S::wait(budget_secs, d_ms) + S::wait_boxed(boxed_secs, d_ms)
}
