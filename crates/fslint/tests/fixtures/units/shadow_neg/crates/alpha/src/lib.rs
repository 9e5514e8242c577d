//! Unit fixture, negative: a `let` rebinding to a value of unknown unit
//! shadows a nanos local before it meets a millis budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Pads an opaque delay with a millis budget.
pub fn padded(t_nanos: u64, budget_ms: u64) -> u64 {
    let d = t_nanos;
    let d = opaque(d);
    d + budget_ms
}
