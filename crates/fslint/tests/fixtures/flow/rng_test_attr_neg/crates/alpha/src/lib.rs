//! Flow fixture, negative: a `#[test]` fn may seed streams from its loop
//! index. The string `"["` in the attribute below `#[test]` is no bracket:
//! it must not hide the `#[test]`, so `rng-lineage` stays silent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// A stand-in for `simcore::rng::Stream`.
pub struct Stream(u64);

impl Stream {
    /// Roots a stream on an explicit seed.
    pub fn from_seed(seed: u64) -> Stream {
        Stream(seed)
    }
}

#[test]
#[doc = "["]
fn sweep() {
    for i in 0..4u64 {
        let _s = Stream::from_seed(i);
    }
}
