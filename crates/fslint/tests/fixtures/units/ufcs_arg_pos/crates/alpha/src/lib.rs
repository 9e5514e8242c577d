//! Unit fixture: a method called through its type's path takes its
//! receiver as the first argument, so the seconds value after it meets
//! the millis parameter, for a `&self` and a typed `self` receiver alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// A waiter.
pub struct S;

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

/// Passes a timeout in seconds where each method wants millis.
pub fn misuse(s: &S, b: Box<S>, d_secs: u64) -> u64 {
    S::wait(s, d_secs) + S::wait_boxed(b, d_secs)
}
