//! Unit fixture: a one-token `return a_ms;` returns millis; the
//! function's return unit must come from that token.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// The fast path's millis budget, or nothing.
pub fn pick(fast: bool, a_ms: u64) -> u64 {
    if fast {
        return a_ms;
    }
    let z = 0;
    z
}

/// Compares the picked millis budget against a deadline in seconds.
pub fn late(deadline_secs: u64) -> bool {
    pick(true, 5) > deadline_secs
}
