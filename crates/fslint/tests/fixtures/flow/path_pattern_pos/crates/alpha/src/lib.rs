//! Flow fixture, positive: a `let` whose pattern is a path (`Wrap::A(t)`)
//! binds `t` to a wall-clock reading, and `t` reaches the fold. The
//! path's `::` is no type ascription, so `t` is a local like any other.

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

/// Folds the clock reading — the finding this tree exists to produce.
pub fn fold_unwrapped() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let Wrap::A(t) = Wrap::A(std::time::Instant::now().elapsed().as_nanos() as u64);
    h.write_u64(t);
    h.0
}
