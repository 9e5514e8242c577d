//! Flow fixture, negative: an `if let` whose value carries no taint
//! rebinds `t` inside its block. The fold inside the block reads that
//! constant, not the outer wall-clock `t`, so `digest-taint` must stay
//! silent.

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

/// Folds the `if let`'s constant under a shadowed clock reading: no
/// finding.
pub fn fold_under_if_let() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let t = std::time::Instant::now().elapsed().as_nanos() as u64;
    if let Some(t) = Some(3u64) {
        h.write_u64(t);
    }
    h.0
}
