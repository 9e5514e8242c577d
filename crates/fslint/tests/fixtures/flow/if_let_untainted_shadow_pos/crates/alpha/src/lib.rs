//! Flow fixture, positive: the twin of `if_let_untainted_shadow_neg`
//! whose fold sits in the `else` branch. The `if let` hides the outer
//! wall-clock `t` inside its own block only; the `else` block reads it,
//! so the fold draws `digest-taint`.

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

/// Folds the clock reading in the `else` branch of a shadowing `if let`
/// — the finding this tree exists to produce.
pub fn fold_in_else(x: Option<u64>) -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let t = std::time::Instant::now().elapsed().as_nanos() as u64;
    if let Some(t) = x {
        h.0 ^= t;
    } else {
        h.write_u64(t);
    }
    h.0
}
