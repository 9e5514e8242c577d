//! Unit fixture, helper half: the return unit comes from the parameter's
//! `_ms` suffix.

/// The deadline a wait sets, in millis.
pub fn deadline(wait_ms: u64) -> u64 {
    wait_ms
}
