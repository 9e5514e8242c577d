//! The host clock: tainted, but no code in the other crate calls it.

/// Reads the host clock.
pub fn now_nanos() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}
