//! Flow fixture, negative: the twin of `path_pattern_pos` whose
//! path-pattern local carries a constant, so `digest-taint` must stay
//! silent. The clock is still read, into a local the fold never sees.

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

/// A one-variant wrapper the pattern unpacks.
pub enum Wrap {
    /// The wrapped word.
    A(u64),
}

/// Folds the unwrapped constant, not the clock reading: no finding.
pub fn fold_unwrapped() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let Wrap::A(elapsed) = Wrap::A(std::time::Instant::now().elapsed().as_nanos() as u64);
    let Wrap::A(t) = Wrap::A(7);
    h.write_u64(t);
    h.0 ^ elapsed
}
