//! Flow fixture, negative: the twin of `if_let_shadow_pos` with the
//! taint on the other binding. The `if let` binds a clock reading to `t`
//! inside its block only; the fold after the block reads the outer
//! constant `t`, so `digest-taint` must stay silent.

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

/// Folds the outer constant, not the clock reading: no finding.
pub fn fold_past_if_let() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let t = 7;
    if let Some(t) = Some(std::time::Instant::now().elapsed().as_nanos() as u64) {
        h.0 ^= t;
    }
    let z = 1;
    h.write_u64(t + z);
    h.0
}
