//! A drive read cache with read-ahead.
//!
//! Part of why "identical" disks behave differently (§2.1.2): the drive's
//! cache segments, read-ahead policy, and firmware revision shape observed
//! latency at least as much as the mechanism does. [`CachedDisk`] wraps a
//! [`Disk`] with a segment cache: sequential re-reads and read-ahead hits
//! are served at bus speed without touching the mechanism.

use simcore::resource::Grant;
use simcore::time::{SimDuration, SimTime};

use crate::disk::{Disk, DiskError};

/// Configuration of the drive cache.
#[derive(Clone, Copy, Debug)]
pub struct DriveCacheConfig {
    /// Number of cache segments (distinct sequential streams tracked).
    pub segments: usize,
    /// Segment size in blocks.
    pub segment_blocks: u64,
    /// Blocks of read-ahead fetched beyond each miss.
    pub read_ahead_blocks: u64,
    /// Bus transfer rate for cache hits, bytes/second.
    pub bus_rate: f64,
}

impl Default for DriveCacheConfig {
    fn default() -> Self {
        DriveCacheConfig {
            segments: 8,
            segment_blocks: 512,
            read_ahead_blocks: 256,
            bus_rate: 40e6,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Segment {
    start: u64,
    len: u64,
    last_used: u64,
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriveCacheStats {
    /// Requests fully served from cache.
    pub hits: u64,
    /// Requests that touched the mechanism.
    pub misses: u64,
}

/// A disk behind a segment read cache.
#[derive(Clone, Debug)]
pub struct CachedDisk {
    disk: Disk,
    config: DriveCacheConfig,
    segments: Vec<Segment>,
    tick: u64,
    stats: DriveCacheStats,
}

impl CachedDisk {
    /// Wraps `disk` with a cache.
    pub fn new(disk: Disk, config: DriveCacheConfig) -> Self {
        assert!(config.segments > 0 && config.segment_blocks > 0, "degenerate cache");
        assert!(config.bus_rate > 0.0, "bus rate must be positive");
        CachedDisk {
            disk,
            config,
            segments: Vec::new(),
            tick: 0,
            stats: DriveCacheStats::default(),
        }
    }

    /// The wrapped disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Cache statistics.
    pub fn stats(&self) -> DriveCacheStats {
        self.stats
    }

    fn find_covering(&mut self, lba: u64, n: u64) -> Option<usize> {
        self.segments.iter().position(|s| lba >= s.start && lba + n <= s.start + s.len)
    }

    fn insert_segment(&mut self, start: u64, len: u64) {
        self.tick += 1;
        let seg = Segment { start, len, last_used: self.tick };
        if self.segments.len() < self.config.segments {
            self.segments.push(seg);
        } else {
            let victim = self
                .segments
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("segments non-empty");
            self.segments[victim] = seg;
        }
    }

    /// Reads `n` blocks at `lba`. Cache hits are served at bus speed;
    /// misses go to the mechanism and pull `read_ahead_blocks` extra.
    pub fn read(&mut self, now: SimTime, lba: u64, n: u64) -> Result<Grant, DiskError> {
        if n == 0 || lba + n > self.disk.geometry().blocks {
            return Err(DiskError::OutOfRange);
        }
        self.tick += 1;
        if let Some(i) = self.find_covering(lba, n) {
            self.segments[i].last_used = self.tick;
            self.stats.hits += 1;
            // Bus-speed transfer, no mechanism involvement; still subject
            // to the disk being alive (the firmware serving the cache dies
            // with the drive).
            if self.disk.failed_at(now) {
                return Err(DiskError::Failed);
            }
            let bytes = n * self.disk.geometry().block_bytes as u64;
            let dt = SimDuration::from_secs_f64(bytes as f64 / self.config.bus_rate);
            return Ok(Grant { start: now, finish: now + dt });
        }
        self.stats.misses += 1;
        // Miss: fetch the request plus read-ahead, capped at the device
        // end and the segment size.
        let fetch = (n + self.config.read_ahead_blocks)
            .min(self.config.segment_blocks)
            .min(self.disk.geometry().blocks - lba)
            .max(n);
        let grant = self.disk.read(now, lba, fetch)?;
        self.insert_segment(lba, fetch);
        Ok(grant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use simcore::rng::Stream;
    use stutter::injector::SlowdownProfile;

    fn cached() -> CachedDisk {
        let disk = Disk::new(Geometry::hawk_5400(), Stream::from_seed(1));
        CachedDisk::new(disk, DriveCacheConfig::default())
    }

    #[test]
    fn reread_hits_cache_and_is_faster() {
        let mut d = cached();
        let miss = d.read(SimTime::ZERO, 1_000, 64).expect("ok");
        let t1 = miss.finish;
        let hit = d.read(t1, 1_000, 64).expect("ok");
        assert_eq!(d.stats(), DriveCacheStats { hits: 1, misses: 1 });
        let miss_cost = miss.finish - miss.start;
        let hit_cost = hit.finish - hit.start;
        assert!(hit_cost < miss_cost / 2, "hit {hit_cost} vs miss {miss_cost}");
    }

    #[test]
    fn read_ahead_serves_the_next_request() {
        let mut d = cached();
        let g = d.read(SimTime::ZERO, 0, 64).expect("ok");
        // The next sequential request falls inside the read-ahead window.
        let g2 = d.read(g.finish, 64, 64).expect("ok");
        assert_eq!(d.stats().hits, 1);
        assert!(g2.finish - g2.start < SimDuration::from_millis(2));
    }

    #[test]
    fn random_reads_do_not_benefit() {
        let mut d = cached();
        let mut rng = Stream::from_seed(2);
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            let lba = rng.next_below(3_000_000);
            let g = d.read(t, lba, 16).expect("ok");
            t = g.finish;
        }
        assert!(d.stats().hits <= 2, "{:?}", d.stats());
    }

    #[test]
    fn cache_capacity_is_bounded() {
        let mut d = cached();
        let mut t = SimTime::ZERO;
        // Touch 20 distinct far-apart regions: only 8 segments retained.
        for i in 0..20u64 {
            let g = d.read(t, i * 100_000, 16).expect("ok");
            t = g.finish;
        }
        assert!(d.segments.len() <= 8);
        // The oldest region was evicted: re-reading it misses.
        let misses_before = d.stats().misses;
        d.read(t, 0, 16).expect("ok");
        assert_eq!(d.stats().misses, misses_before + 1);
    }

    #[test]
    fn dead_drive_fails_even_on_hits() {
        let profile = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(10));
        let disk = Disk::new(Geometry::hawk_5400(), Stream::from_seed(3)).with_profile(profile);
        let mut d = CachedDisk::new(disk, DriveCacheConfig::default());
        d.read(SimTime::ZERO, 0, 16).expect("alive");
        assert_eq!(d.read(SimTime::from_secs(11), 0, 16), Err(DiskError::Failed));
    }

    #[test]
    fn out_of_range_checked() {
        let mut d = cached();
        let blocks = d.disk().geometry().blocks;
        assert_eq!(d.read(SimTime::ZERO, blocks - 1, 2), Err(DiskError::OutOfRange));
    }
}
