//! Flow fixture, positive: an `if let` rebinds `t` inside its block only
//! (the block leaves it unread), and a statement follows the block. After
//! the block `t` is the wall-clock local again, so the fold draws
//! `digest-taint`.

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

/// Folds the clock reading past a shadowing `if let` — the finding this
/// tree exists to produce.
pub fn fold_past_if_let(x: Option<u64>) -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let t = std::time::Instant::now().elapsed().as_nanos() as u64;
    if let Some(t) = x {
        h.0 ^= 1;
    }
    let z = 1;
    h.write_u64(t + z);
    h.0
}
