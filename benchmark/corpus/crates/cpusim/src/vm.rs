//! Virtual-memory page placement and cache colouring.
//!
//! Paper §2.2.1 (Page Mapping), citing Chen & Bershad: "virtual-memory
//! mapping decisions can reduce application performance by up to 50% ...
//! Unless the cache is small enough so that the page offset is not used in
//! the cache tag, the allocation of pages in memory will affect the
//! cache-miss rate."
//!
//! A physically-indexed cache of `colors` page-colours spreads a working
//! set perfectly when consecutive virtual pages land on distinct colours
//! ([`Allocation::Colored`]) and suffers conflict misses when the OS hands
//! out pages arbitrarily ([`Allocation::Random`]).

use simcore::rng::Stream;

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Page-allocation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Allocation {
    /// Page colouring: virtual page `v` gets physical colour `v mod colors`.
    Colored,
    /// First-free / arbitrary placement: colours are effectively random.
    Random,
}

/// A machine with a physically-indexed cache and a page allocator.
#[derive(Clone, Debug)]
pub struct VmMachine {
    cache: Cache,
    page_bytes: u64,
    colors: u64,
    // Virtual page -> physical page (lazy).
    mappings: Vec<Option<u64>>,
    next_free_by_color: Vec<u64>,
    policy: Allocation,
    rng: Stream,
}

impl VmMachine {
    /// Creates a machine with the given cache, 4 KB pages and a policy.
    pub fn new(config: CacheConfig, policy: Allocation, rng: Stream) -> Self {
        let page_bytes = 4096u64;
        let colors = (config.capacity as u64 / config.ways as u64 / page_bytes).max(1);
        VmMachine {
            cache: Cache::new(config),
            page_bytes,
            colors,
            mappings: Vec::new(),
            next_free_by_color: vec![0; colors as usize],
            policy,
            rng,
        }
    }

    /// Number of page colours in the cache.
    pub fn colors(&self) -> u64 {
        self.colors
    }

    fn physical_page(&mut self, vpage: u64) -> u64 {
        if self.mappings.len() <= vpage as usize {
            self.mappings.resize(vpage as usize + 1, None);
        }
        if let Some(p) = self.mappings[vpage as usize] {
            return p;
        }
        let color = match self.policy {
            Allocation::Colored => vpage % self.colors,
            Allocation::Random => self.rng.next_below(self.colors),
        };
        let index = self.next_free_by_color[color as usize];
        self.next_free_by_color[color as usize] += 1;
        // Physical page number with the chosen colour.
        let p = index * self.colors + color;
        self.mappings[vpage as usize] = Some(p);
        p
    }

    /// Performs a load at a virtual address; returns true on cache hit.
    pub fn load(&mut self, vaddr: u64) -> bool {
        let vpage = vaddr / self.page_bytes;
        let offset = vaddr % self.page_bytes;
        let ppage = self.physical_page(vpage);
        self.cache.access(ppage * self.page_bytes + offset)
    }

    /// Sweeps a working set of `pages` virtual pages, touching one word
    /// every `stride` bytes, `iters` times; returns the cache statistics
    /// for the sweeps after a warmup pass.
    pub fn run_sweeps(&mut self, pages: u64, stride: u64, iters: u32) -> CacheStats {
        let sweep = |m: &mut Self| {
            for vpage in 0..pages {
                let mut off = 0;
                while off < m.page_bytes {
                    m.load(vpage * m.page_bytes + off);
                    off += stride;
                }
            }
        };
        sweep(self);
        self.cache.reset_stats();
        for _ in 0..iters {
            sweep(self);
        }
        self.cache.stats()
    }
}

/// Runs the Chen–Bershad comparison: the same working set under coloured
/// and random placement; returns `(colored_stats, random_stats)`.
pub fn mapping_comparison(config: CacheConfig, pages: u64, seed: u64) -> (CacheStats, CacheStats) {
    let mut colored = VmMachine::new(config, Allocation::Colored, Stream::from_seed(seed));
    let mut random = VmMachine::new(config, Allocation::Random, Stream::from_seed(seed));
    let colored_stats = colored.run_sweeps(pages, 32, 4);
    let random_stats = random.run_sweeps(pages, 32, 4);
    (colored_stats, random_stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A big physically-indexed L2: 1 MB, 2-way, 64 B lines → 128 colours.
    fn l2() -> CacheConfig {
        CacheConfig { capacity: 1 << 20, line: 64, ways: 2 }
    }

    #[test]
    fn color_count_matches_geometry() {
        let m = VmMachine::new(l2(), Allocation::Colored, Stream::from_seed(1));
        assert_eq!(m.colors(), (1 << 20) / 2 / 4096);
    }

    #[test]
    fn colored_mapping_fits_working_set() {
        let mut m = VmMachine::new(l2(), Allocation::Colored, Stream::from_seed(1));
        // Working set = exactly the cache size in pages.
        let pages = (1 << 20) / 4096;
        let stats = m.run_sweeps(pages, 64, 4);
        assert!(stats.miss_ratio() < 0.01, "{stats:?}");
    }

    #[test]
    fn random_mapping_conflicts() {
        let mut m = VmMachine::new(l2(), Allocation::Random, Stream::from_seed(1));
        let pages = (1 << 20) / 4096;
        let stats = m.run_sweeps(pages, 64, 4);
        assert!(stats.miss_ratio() > 0.05, "{stats:?}");
    }

    #[test]
    fn chen_bershad_shape_up_to_fifty_percent() {
        let pages = (1 << 20) / 4096;
        let (colored, random) = mapping_comparison(l2(), pages, 3);
        // Run-time model: ~20 cycles of work per access, +30 on a miss —
        // an application whose memory stalls are a large minority of its
        // execution, as in the Chen–Bershad measurements.
        let t_colored = crate::cache::run_time_cycles(colored, 20.0, 50.0);
        let t_random = crate::cache::run_time_cycles(random, 20.0, 50.0);
        let slowdown = t_random / t_colored;
        assert!(slowdown > 1.15, "slowdown {slowdown}");
        assert!(slowdown < 2.0, "slowdown {slowdown}");
    }

    #[test]
    fn identical_seeds_reproduce() {
        let pages = 64;
        let (c1, r1) = mapping_comparison(l2(), pages, 9);
        let (c2, r2) = mapping_comparison(l2(), pages, 9);
        assert_eq!(c1, c2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn mapping_is_stable_per_page() {
        let mut m = VmMachine::new(l2(), Allocation::Random, Stream::from_seed(2));
        let p1 = m.physical_page(10);
        let p2 = m.physical_page(10);
        assert_eq!(p1, p2);
        let p3 = m.physical_page(11);
        assert_ne!(p1, p3);
    }
}
