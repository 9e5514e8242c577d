//! Flow fixture, negative: a `for` binds its names inside the loop body
//! only. The first fold reads the loop's untainted `t` under a tainted
//! outer `t`; the second reads, after the loop, an untainted outer `t`
//! that a tainted loop `t` shadowed inside the body. `digest-taint` must
//! stay silent on both.

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

/// Folds the loop counter under a shadowed clock reading: no finding.
pub fn fold_in_loop() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let t = std::time::Instant::now().elapsed().as_nanos() as u64;
    for t in 0..3 {
        h.write_u64(t);
    }
    h.0 ^ t
}

/// Folds the outer constant after a loop over clock readings: no
/// finding.
pub fn fold_after_loop() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let clock = std::time::Instant::now().elapsed().as_nanos() as u64;
    let t = 3u64;
    for t in [clock] {
        h.0 ^= t;
    }
    h.write_u64(t);
    h.0
}
