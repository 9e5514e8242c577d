//! A TLB with nondeterministic replacement.
//!
//! Paper §2.1.1 (Replacement Policy), citing Bressoud & Schneider's
//! hypervisor-based fault tolerance: "The TLB replacement policy on our HP
//! 9000/720 processors was non-deterministic. An identical series of
//! location-references and TLB-insert operations at the processors running
//! the primary and backup virtual machines could lead to different TLB
//! contents."
//!
//! [`Tlb`] models a unified TLB whose victim selection consults a hidden
//! internal state (an LFSR whose phase is set at power-on and advanced by
//! unrelated micro-events). Two chips executing the *same* reference
//! string from different hidden phases end up with different contents —
//! which is precisely what broke deterministic replay.

use std::collections::BTreeSet;

/// A TLB entry: a virtual page number.
pub type Vpn = u64;

/// A set-associative TLB with pseudo-random (hidden-state) replacement.
#[derive(Clone, Debug)]
pub struct Tlb {
    sets: u32,
    ways: u32,
    entries: Vec<Option<Vpn>>,
    // Hidden replacement state: a 16-bit LFSR. Its power-on phase is not
    // architecturally visible, which is the source of nondeterminism.
    lfsr: u16,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `sets × ways` entries and hidden phase `phase`
    /// (zero is mapped to a non-zero seed; an LFSR must never be zero).
    pub fn new(sets: u32, ways: u32, phase: u16) -> Self {
        assert!(sets > 0 && ways > 0, "degenerate TLB");
        Tlb {
            sets,
            ways,
            entries: vec![None; (sets * ways) as usize],
            lfsr: if phase == 0 { 0xACE1 } else { phase },
            hits: 0,
            misses: 0,
        }
    }

    fn step_lfsr(&mut self) -> u16 {
        // Fibonacci LFSR, taps 16,15,13,4.
        let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
        self.lfsr = (self.lfsr >> 1) | (bit << 15);
        self.lfsr
    }

    /// References a virtual page; returns true on TLB hit. On a miss the
    /// translation is inserted, evicting a pseudo-randomly chosen way.
    pub fn reference(&mut self, vpn: Vpn) -> bool {
        let set = (vpn % self.sets as u64) as usize;
        let ways = self.ways as usize;
        let base = set * ways;
        let row = &self.entries[base..base + ways];
        if row.contains(&Some(vpn)) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Prefer an invalid way; otherwise consult the hidden state.
        let invalid = row.iter().position(Option::is_none);
        let victim = invalid.unwrap_or_else(|| (self.step_lfsr() as usize) % ways);
        let slot = base + victim;
        self.entries[slot] = Some(vpn);
        false
    }

    /// Explicit insert (the hypervisor's TLB-insert operation).
    pub fn insert(&mut self, vpn: Vpn) {
        let _ = self.reference(vpn);
    }

    /// The set of currently resident translations.
    pub fn contents(&self) -> BTreeSet<Vpn> {
        self.entries.iter().flatten().copied().collect()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Runs the same reference string through two TLBs and returns the size of
/// the symmetric difference of their final contents (0 = identical).
pub fn divergence(a: &mut Tlb, b: &mut Tlb, refs: &[Vpn]) -> usize {
    for &vpn in refs {
        a.reference(vpn);
        b.reference(vpn);
    }
    a.contents().symmetric_difference(&b.contents()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;

    fn workload(len: usize, pages: u64, seed: u64) -> Vec<Vpn> {
        let mut rng = Stream::from_seed(seed);
        (0..len).map(|_| rng.next_below(pages)).collect()
    }

    #[test]
    fn same_phase_same_contents() {
        let refs = workload(10_000, 256, 1);
        let mut a = Tlb::new(16, 4, 7);
        let mut b = Tlb::new(16, 4, 7);
        assert_eq!(divergence(&mut a, &mut b, &refs), 0);
        assert_eq!(a.hits(), b.hits());
    }

    #[test]
    fn different_phase_diverges_on_identical_input() {
        // The Bressoud–Schneider surprise: identical reference strings,
        // different final TLB contents.
        let refs = workload(10_000, 256, 2);
        let mut a = Tlb::new(16, 4, 7);
        let mut b = Tlb::new(16, 4, 8);
        let d = divergence(&mut a, &mut b, &refs);
        assert!(d > 0, "hidden phase must be observable through contents");
    }

    #[test]
    fn small_working_set_always_hits_eventually() {
        let mut t = Tlb::new(16, 4, 3);
        // 32 pages in a 64-entry TLB: after warmup, no misses.
        for round in 0..10 {
            for vpn in 0..32 {
                let hit = t.reference(vpn);
                if round > 0 {
                    assert!(hit, "round {round} vpn {vpn}");
                }
            }
        }
        assert_eq!(t.misses(), 32);
    }

    #[test]
    fn contents_bounded_by_capacity() {
        let mut t = Tlb::new(4, 2, 1);
        for vpn in 0..100 {
            t.reference(vpn);
        }
        assert!(t.contents().len() <= 8);
    }

    #[test]
    fn insert_is_a_reference() {
        let mut t = Tlb::new(4, 2, 1);
        t.insert(42);
        assert!(t.reference(42));
    }

    #[test]
    fn divergence_grows_with_pressure() {
        // Higher pressure (more conflict misses) gives the hidden state
        // more opportunities to matter.
        let light = workload(5_000, 32, 3);
        let heavy = workload(5_000, 1024, 3);
        let d_light = divergence(&mut Tlb::new(16, 4, 1), &mut Tlb::new(16, 4, 2), &light);
        let d_heavy = divergence(&mut Tlb::new(16, 4, 1), &mut Tlb::new(16, 4, 2), &heavy);
        assert!(d_heavy >= d_light, "light {d_light} heavy {d_heavy}");
        assert!(d_heavy > 0);
    }
}
