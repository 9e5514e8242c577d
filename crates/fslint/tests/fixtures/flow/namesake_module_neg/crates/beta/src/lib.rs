//! Flow fixture, sink half: folds `clock::now_nanos(t)` from its own
//! `clock` module, a pure fn that shares only its module's name and its
//! own name with the host-clock read in the other crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod clock;

/// A stand-in FNV-1a accumulator.
pub struct Fnv64(u64);

impl Fnv64 {
    /// Folds one word into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// The sink: folds simulated time only.
pub fn fold(t: u64) -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    h.write_u64(clock::now_nanos(t));
    h.0
}
