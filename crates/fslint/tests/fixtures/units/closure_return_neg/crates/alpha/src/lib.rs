//! Unit fixture: a closure's `return` leaves the closure, not its fn.
//! `retries` returns a count; the millis its closure returns never
//! leave it, so comparing the count with a limit in secs is clean.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// How many delays exceed three milliseconds.
pub fn retries(xs: &[u64]) -> u64 {
    let pick = |a_ms: u64| -> u64 {
        if a_ms > 3 {
            return a_ms;
        }
        0
    };
    xs.iter().map(|&x| pick(x)).filter(|&v| v > 0).count() as u64
}

/// True when the retries outnumber the limit.
pub fn over(xs: &[u64], limit_secs: u64) -> bool {
    retries(xs) > limit_secs
}
