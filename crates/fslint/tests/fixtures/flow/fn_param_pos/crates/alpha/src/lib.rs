//! Flow fixture, positive: `sort_pos`'s fold behind a fn-pointer
//! parameter — the `fn(u64) -> u64` type before `m` must not hide the
//! `HashMap` parameter from the signature reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
use std::collections::HashMap;

/// A stand-in FNV-1a accumulator.
pub struct Fnv64(u64);

impl Fnv64 {
    /// Folds one word into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// Folds mapped keys in hash order — the finding this tree exists to
/// produce.
pub fn fold(f: fn(u64) -> u64, m: &HashMap<u64, u64>) -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    let keys: Vec<u64> = m.keys().copied().collect();
    for k in keys {
        h.write_u64(f(k));
    }
    h.0
}
