//! Flow fixture, sink half: the wrapper is imported with `use` and called
//! unqualified (`beta::fold` → `alpha::stamp` → `alpha::now_nanos`), so
//! only the import resolves the call to `alpha::stamp`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
use alpha::stamp;

/// A stand-in FNV-1a accumulator.
pub struct Fnv64(u64);

impl Fnv64 {
    /// Folds one word into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// The sink: nothing in this function reads a clock, and the tainted
/// helper is named only through the import.
pub fn fold() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let s = stamp();
    h.write_u64(s);
    h.0
}
