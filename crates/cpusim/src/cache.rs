//! A set-associative cache with fault masking.
//!
//! Paper §2.1.1 (Fault Masking): "chips with different characteristics are
//! sold as identical ... The graphs reveal that the [effective size of the]
//! first level cache is only 4K and is direct-mapped," against a 16 KB
//! 4-way specification, and the measured application spread across
//! "identical" Viking processors reached 40%.
//!
//! [`Cache`] simulates an LRU set-associative cache in which whole ways
//! can be *masked out* (disabled to hide manufacturing defects — the
//! Vax-11/780 turned off a set). A masked cache is architecturally
//! identical and silently smaller.

/// Configuration of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (before masking).
    pub capacity: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// The specified Viking L1D: 16 KB, 4-way, 32-byte lines.
    pub fn viking_spec() -> Self {
        CacheConfig { capacity: 16 * 1024, line: 32, ways: 4 }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.capacity / (self.line * self.ways)
    }
}

/// Access statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 for no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// An LRU set-associative cache with maskable ways.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    enabled_ways: u32,
    // tags[set * ways + way] = Some(tag); LRU order per set in `lru`.
    tags: Vec<Option<u64>>,
    // Smaller value = more recently used.
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a fully enabled cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero sets or ways).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0 && config.line > 0, "degenerate cache");
        assert!(config.sets() > 0, "capacity too small for line × ways");
        let slots = (config.sets() * config.ways) as usize;
        Cache {
            config,
            enabled_ways: config.ways,
            tags: vec![None; slots],
            stamps: vec![0; slots],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Masks out all but `remaining_ways` ways in every set — the silent
    /// capacity loss of a fault-masked part. Masking flushes the cache.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= remaining_ways <= ways`.
    pub fn mask_ways(&mut self, remaining_ways: u32) {
        assert!(
            remaining_ways >= 1 && remaining_ways <= self.config.ways,
            "remaining_ways {remaining_ways} out of range"
        );
        self.enabled_ways = remaining_ways;
        self.tags.fill(None);
        self.stamps.fill(0);
    }

    /// The effective capacity after masking, in bytes.
    pub fn effective_capacity(&self) -> u32 {
        self.config.sets() * self.config.line * self.enabled_ways
    }

    /// Performs one access; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr / self.config.line as u64;
        let set = (line % self.config.sets() as u64) as usize;
        let tag = line / self.config.sets() as u64;
        let base = set * self.config.ways as usize;
        let ways = self.enabled_ways as usize;

        for w in 0..ways {
            if self.tags[base + w] == Some(tag) {
                self.stamps[base + w] = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: fill the LRU way among the enabled ones.
        let victim = (0..ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("mask_ways keeps at least one way");
        self.tags[base + victim] = Some(tag);
        self.stamps[base + victim] = self.tick;
        self.stats.misses += 1;
        false
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// Runs a working-set loop over the cache: `iters` sweeps of a working set
/// of `ws_bytes` with the given access `stride`, returning the stats.
pub fn run_working_set(cache: &mut Cache, ws_bytes: u64, stride: u64, iters: u32) -> CacheStats {
    cache.reset_stats();
    for _ in 0..iters {
        let mut addr = 0;
        while addr < ws_bytes {
            cache.access(addr);
            addr += stride;
        }
    }
    cache.stats()
}

/// Estimated run time in cycles for a stats record, with the given hit and
/// miss costs.
pub fn run_time_cycles(stats: CacheStats, hit_cycles: f64, miss_cycles: f64) -> f64 {
    stats.hits as f64 * hit_cycles + stats.misses as f64 * miss_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig::viking_spec());
        // 8 KB working set in a 16 KB cache: second sweep is all hits.
        run_working_set(&mut c, 8 * 1024, 32, 1);
        let stats = run_working_set(&mut c, 8 * 1024, 32, 4);
        assert_eq!(stats.misses, 0, "{stats:?}");
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Cache::new(CacheConfig::viking_spec());
        // 32 KB working set in a 16 KB cache with sequential sweeps: LRU
        // evicts everything before reuse.
        run_working_set(&mut c, 32 * 1024, 32, 1);
        let stats = run_working_set(&mut c, 32 * 1024, 32, 4);
        assert!(stats.miss_ratio() > 0.99, "{stats:?}");
    }

    #[test]
    fn masked_cache_has_reduced_effective_capacity() {
        let mut c = Cache::new(CacheConfig::viking_spec());
        assert_eq!(c.effective_capacity(), 16 * 1024);
        c.mask_ways(1);
        assert_eq!(c.effective_capacity(), 4 * 1024, "the paper's 4 KB direct-mapped part");
    }

    #[test]
    fn masked_part_misses_where_spec_part_hits() {
        // An 8 KB working set: fits the specified 16 KB part, thrashes the
        // masked 4 KB part.
        let mut spec = Cache::new(CacheConfig::viking_spec());
        run_working_set(&mut spec, 8 * 1024, 32, 1);
        let s_spec = run_working_set(&mut spec, 8 * 1024, 32, 8);

        let mut masked = Cache::new(CacheConfig::viking_spec());
        masked.mask_ways(1);
        run_working_set(&mut masked, 8 * 1024, 32, 1);
        let s_masked = run_working_set(&mut masked, 8 * 1024, 32, 8);

        assert_eq!(s_spec.misses, 0);
        assert!(s_masked.miss_ratio() > 0.9, "{s_masked:?}");
    }

    #[test]
    fn run_time_spread_can_reach_forty_percent() {
        // With a 1-cycle hit, 10-cycle miss and a mixed workload, the
        // masked part runs tens of percent slower — the Viking measurement.
        let mix = |cache: &mut Cache| {
            // 6 KB hot loop (cacheable on spec part) + light streaming.
            run_working_set(cache, 6 * 1024, 32, 1);

            run_working_set(cache, 6 * 1024, 32, 16)
        };
        let mut spec = Cache::new(CacheConfig::viking_spec());
        let t_spec = run_time_cycles(mix(&mut spec), 1.0, 10.0);
        let mut masked = Cache::new(CacheConfig::viking_spec());
        masked.mask_ways(1);
        let t_masked = run_time_cycles(mix(&mut masked), 1.0, 10.0);
        let slowdown = t_masked / t_spec;
        assert!(slowdown > 1.3, "slowdown {slowdown}");
        assert!(slowdown < 12.0, "slowdown {slowdown}");
    }

    #[test]
    fn stats_and_reset() {
        let mut c = Cache::new(CacheConfig::viking_spec());
        c.access(0);
        c.access(0);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.accesses(), 2);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct construction: 2 sets won't do; use a tiny 1-set cache.
        let cfg = CacheConfig { capacity: 128, line: 32, ways: 4 };
        let mut c = Cache::new(cfg);
        assert_eq!(cfg.sets(), 1);
        // Fill 4 lines: tags 0..4.
        for i in 0..4u64 {
            c.access(i * 32); // same set (1 set), different tags
        }
        // Touch tag 0 so tag 1 is LRU, then insert tag 4.
        c.access(0);
        c.access(4 * 32);
        // Tag 0 must still hit; tag 1 must miss.
        assert!(c.access(0));
        assert!(!c.access(32));
    }
}
