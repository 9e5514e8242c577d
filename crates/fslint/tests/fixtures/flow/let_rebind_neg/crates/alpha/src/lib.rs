//! Flow fixture, negative: a wall-clock local is rebound to a constant
//! before the fold. The new `t` is a different binding, so
//! `digest-taint` must stay silent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// A stand-in FNV-1a accumulator.
pub struct Fnv64(u64);

impl Fnv64 {
    /// Folds one word into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// Folds the rebound constant, not the clock reading: no finding.
pub fn fold_rebound() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let t = std::time::Instant::now().elapsed().as_nanos() as u64;
    let t = 7;
    h.write_u64(t);
    h.0
}
