//! Deterministic random-number generation.
//!
//! Every run of a simulation must be exactly reproducible from a single
//! master seed, and adding a new component must not perturb the random
//! streams seen by existing components. Both properties come from a
//! *seed tree*: each component derives its own independent
//! [`Stream`] from the master seed and a stable label, so streams are
//! decoupled from the order in which components happen to draw.
//!
//! The generator is xoshiro256**, seeded through SplitMix64, implemented
//! locally so that the exact sequence is pinned by this crate rather than by
//! an external crate version.

/// A deterministic xoshiro256** random stream.
///
/// # Examples
///
/// ```
/// use simcore::rng::Stream;
///
/// let mut a = Stream::from_seed(42).derive("disk-0");
/// let mut b = Stream::from_seed(42).derive("disk-0");
/// assert_eq!(a.next_u64(), b.next_u64()); // identical labels → identical streams
///
/// let mut c = Stream::from_seed(42).derive("disk-1");
/// assert_ne!(a.next_u64(), c.next_u64()); // different labels → decoupled streams
/// ```
#[derive(Clone, Debug)]
pub struct Stream {
    s: [u64; 4],
}

/// SplitMix64 step used for seeding and label hashing.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Stream {
    /// Creates a stream from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Stream { s }
    }

    /// Derives an independent child stream from a stable label.
    ///
    /// Deriving the same label twice from equal parent states yields equal
    /// children; deriving different labels yields decoupled streams. The
    /// parent is not advanced.
    pub fn derive(&self, label: &str) -> Stream {
        // Fold the label into a 64-bit key with an FNV-1a pass, then mix the
        // parent state and key through SplitMix64 to seed the child.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(34)
            ^ self.s[3].rotate_left(51)
            ^ h;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Stream { s }
    }

    /// Derives an independent child stream from an integer index.
    pub fn derive_index(&self, index: u64) -> Stream {
        self.derive(&format!("#{index}"))
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Debiased multiply-shift (Lemire 2019).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Returns a uniform value in `[lo, hi)`.
    pub fn next_f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a random permutation index: shuffles `slice` in place
    /// (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "cannot choose from an empty slice");
        &slice[self.next_below(slice.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = Stream::from_seed(7);
        let mut b = Stream::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Stream::from_seed(1);
        let mut b = Stream::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn derive_is_stable_and_decoupled() {
        let root = Stream::from_seed(99);
        let mut a1 = root.derive("x");
        let mut a2 = root.derive("x");
        let mut b = root.derive("y");
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_does_not_advance_parent() {
        let mut root = Stream::from_seed(5);
        let before = root.clone().next_u64();
        let _child = root.derive("c");
        assert_eq!(root.next_u64(), before);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut s = Stream::from_seed(3);
        for _ in 0..10_000 {
            let x = s.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_near_half() {
        let mut s = Stream::from_seed(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| s.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_is_unbiased_enough() {
        let mut s = Stream::from_seed(13);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[s.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "count {c}");
        }
    }

    #[test]
    fn next_range_covers_endpoints() {
        let mut s = Stream::from_seed(17);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match s.next_range(4, 6) {
                4 => saw_lo = true,
                6 => saw_hi = true,
                5 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut s = Stream::from_seed(23);
        let mut v: Vec<u32> = (0..50).collect();
        s.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bool_probability_tracks_p() {
        let mut s = Stream::from_seed(29);
        let hits = (0..100_000).filter(|_| s.next_bool(0.25)).count();
        assert!((hits as i64 - 25_000).abs() < 1_000, "hits {hits}");
    }
}
