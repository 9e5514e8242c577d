//! Flow fixture, negative: `a.load(..)` is the std atomic's — this file
//! names neither `Vm` nor a trait of it, so beta's tainted `Vm::load`
//! is not the callee.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
use std::sync::atomic::{AtomicU64, Ordering};

/// A stand-in FNV-1a accumulator.
pub struct Fnv64(u64);

impl Fnv64 {
    /// Folds one word into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// Folds a counter's current value.
pub fn fold(a: &AtomicU64) -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    h.write_u64(a.load(Ordering::Relaxed));
    h.0
}
