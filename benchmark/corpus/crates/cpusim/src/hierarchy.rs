//! A two-level cache hierarchy.
//!
//! Fault masking rarely stops at L1: a part can ship with a trimmed L1
//! *and* mapped-out L2 lines. [`Hierarchy`] stacks two [`Cache`] levels so
//! working-set experiments can show the characteristic staircase — and how
//! masking moves the cliff edges of "identical" parts.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Per-level costs of a memory access, in cycles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HierarchyCosts {
    /// L1 hit.
    pub l1_hit: f64,
    /// L1 miss that hits L2.
    pub l2_hit: f64,
    /// Miss in both levels (memory access).
    pub memory: f64,
}

impl Default for HierarchyCosts {
    fn default() -> Self {
        HierarchyCosts { l1_hit: 1.0, l2_hit: 12.0, memory: 80.0 }
    }
}

/// Statistics of a hierarchy run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Accesses that hit L1.
    pub l1_hits: u64,
    /// Accesses that missed L1 and hit L2.
    pub l2_hits: u64,
    /// Accesses that missed both.
    pub memory_accesses: u64,
}

impl HierarchyStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.memory_accesses
    }

    /// Run time in cycles under the given costs.
    pub fn cycles(&self, costs: HierarchyCosts) -> f64 {
        self.l1_hits as f64 * costs.l1_hit
            + self.l2_hits as f64 * costs.l2_hit
            + self.memory_accesses as f64 * costs.memory
    }
}

/// A two-level cache hierarchy (non-inclusive: levels fill independently).
///
/// # Examples
///
/// ```
/// use cpusim::hierarchy::{run_hierarchy_working_set, Hierarchy};
///
/// let mut h = Hierarchy::vintage_2001();
/// let stats = run_hierarchy_working_set(&mut h, 8 * 1024, 32, 4);
/// assert_eq!(stats.l2_hits + stats.memory_accesses, 0); // fits L1
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// The first level.
    pub l1: Cache,
    /// The second level.
    pub l2: Cache,
    stats: HierarchyStats,
}

impl Hierarchy {
    /// Creates a hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if L2 is not larger than L1 (not a hierarchy).
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert!(l2.capacity > l1.capacity, "L2 must be larger than L1");
        Hierarchy { l1: Cache::new(l1), l2: Cache::new(l2), stats: HierarchyStats::default() }
    }

    /// A 2001-vintage part: 16 KB 4-way L1, 256 KB 8-way L2.
    pub fn vintage_2001() -> Self {
        Hierarchy::new(
            CacheConfig::viking_spec(),
            CacheConfig { capacity: 256 * 1024, line: 32, ways: 8 },
        )
    }

    /// Performs one access through the hierarchy.
    pub fn access(&mut self, addr: u64) {
        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
        } else if self.l2.access(addr) {
            self.stats.l2_hits += 1;
        } else {
            self.stats.memory_accesses += 1;
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Resets statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    /// Per-level raw stats `(l1, l2)`.
    pub fn level_stats(&self) -> (CacheStats, CacheStats) {
        (self.l1.stats(), self.l2.stats())
    }
}

/// Sweeps a working set through the hierarchy: warmup pass, then `iters`
/// measured passes.
pub fn run_hierarchy_working_set(
    h: &mut Hierarchy,
    ws_bytes: u64,
    stride: u64,
    iters: u32,
) -> HierarchyStats {
    let sweep = |h: &mut Hierarchy| {
        let mut addr = 0;
        while addr < ws_bytes {
            h.access(addr);
            addr += stride;
        }
    };
    sweep(h);
    h.reset_stats();
    for _ in 0..iters {
        sweep(h);
    }
    h.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staircase_l1_l2_memory() {
        // 8 KB fits L1; 128 KB fits only L2; 1 MB fits neither.
        let mut h = Hierarchy::vintage_2001();
        let small = run_hierarchy_working_set(&mut h, 8 * 1024, 32, 4);
        assert_eq!(small.l2_hits + small.memory_accesses, 0, "{small:?}");

        let mut h = Hierarchy::vintage_2001();
        let mid = run_hierarchy_working_set(&mut h, 128 * 1024, 32, 4);
        assert_eq!(mid.memory_accesses, 0, "{mid:?}");
        assert!(mid.l2_hits > mid.l1_hits, "{mid:?}");

        let mut h = Hierarchy::vintage_2001();
        let big = run_hierarchy_working_set(&mut h, 1 << 20, 32, 4);
        assert!(big.memory_accesses > big.accesses() / 2, "{big:?}");
    }

    #[test]
    fn cycles_reflect_the_staircase() {
        let costs = HierarchyCosts::default();
        let per_access = |ws: u64| {
            let mut h = Hierarchy::vintage_2001();
            let s = run_hierarchy_working_set(&mut h, ws, 32, 4);
            s.cycles(costs) / s.accesses() as f64
        };
        let l1 = per_access(8 * 1024);
        let l2 = per_access(128 * 1024);
        let mem = per_access(1 << 20);
        assert!(l1 < l2 && l2 < mem, "{l1} {l2} {mem}");
        assert!((l1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn masked_l2_moves_the_cliff() {
        // Two "identical" parts: one loses half its L2 ways. A 128 KB
        // working set fits the healthy L2 but spills to memory on the
        // masked part.
        let mut healthy = Hierarchy::vintage_2001();
        let h = run_hierarchy_working_set(&mut healthy, 128 * 1024, 32, 4);
        let mut masked = Hierarchy::vintage_2001();
        masked.l2.mask_ways(2);
        let m = run_hierarchy_working_set(&mut masked, 128 * 1024, 32, 4);
        assert_eq!(h.memory_accesses, 0);
        assert!(m.memory_accesses > 0, "{m:?}");
        let costs = HierarchyCosts::default();
        let slowdown = m.cycles(costs) / h.cycles(costs);
        assert!(slowdown > 1.2, "slowdown {slowdown}");
    }

    #[test]
    fn accounting_adds_up() {
        let mut h = Hierarchy::vintage_2001();
        for i in 0..10_000u64 {
            h.access(i * 64);
        }
        assert_eq!(h.stats().accesses(), 10_000);
        let (l1, l2) = h.level_stats();
        assert_eq!(l1.accesses(), 10_000);
        assert_eq!(l2.accesses(), l1.misses);
    }
}
