//! Unit fixture: a fn's own return carries its unit past a closure that
//! returns another. `backoff` returns millis; the secs its closure
//! returns stay inside the closure, so comparing the backoff with a
//! limit in secs is a unit mismatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The base delay stretched by one millisecond per long entry.
pub fn backoff(xs: &[u64], base_ms: u64) -> u64 {
    let clamp = |a_secs: u64| -> u64 {
        if a_secs > 3 {
            return a_secs;
        }
        0
    };
    base_ms + xs.iter().map(|&x| clamp(x)).filter(|&v| v > 0).count() as u64
}

/// True when the backoff outlasts the limit.
pub fn over(xs: &[u64], base_ms: u64, limit_secs: u64) -> bool {
    backoff(xs, base_ms) > limit_secs
}
