//! Flow fixture, positive: the twin of `let_rebind_neg` without the
//! rebinding, so the wall-clock local reaches the fold.

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

/// Folds the clock reading — the finding this tree exists to produce.
pub fn fold_rebound() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let t = std::time::Instant::now().elapsed().as_nanos() as u64;
    h.write_u64(t);
    h.0
}
