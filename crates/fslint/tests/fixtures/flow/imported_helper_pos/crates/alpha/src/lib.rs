//! Flow fixture, tainted half: the wall-clock read lives two calls away
//! from the sink, in a different crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// The root source: reads the host clock.
pub fn now_nanos() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}

/// An innocent-looking wrapper — the taint summary must propagate
/// through it for the sink crate to be flagged.
pub fn stamp() -> u64 {
    now_nanos() ^ 0x9e37_79b9
}
