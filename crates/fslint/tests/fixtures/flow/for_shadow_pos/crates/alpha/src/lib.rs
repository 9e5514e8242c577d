//! Flow fixture, positive: the twin of `for_shadow_neg` whose fold sits
//! after the loop. The loop's `t` hides the outer wall-clock `t` inside
//! the loop body only; after the body the fold reads the outer one, so
//! it draws `digest-taint`.

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

/// Folds the clock reading after a loop that shadows it — the finding
/// this tree exists to produce.
pub fn fold_after_loop(xs: &[u64]) -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let t = std::time::Instant::now().elapsed().as_nanos() as u64;
    for t in xs {
        h.0 ^= *t;
    }
    h.write_u64(t);
    h.0
}
