//! The §3.2 controllers over mechanical disks.
//!
//! The fluid controllers in [`crate::controller`] reason in bandwidths,
//! which matches the paper's closed forms exactly. This module runs the
//! *same three designs* over [`blockdev::disk::Disk`] instances — seeks,
//! rotation, zones, remapped blocks, recalibrations and all — showing that
//! the model's conclusions survive contact with a mechanical substrate.
//!
//! A mechanical mirror pair writes each chunk to both replicas and
//! completes when the slower one finishes (RAID-1 semantics); a replica
//! that has fail-stopped is skipped (degraded writes to the survivor);
//! both replicas dead halts the pair.

use blockdev::disk::{Disk, DiskError};
use simcore::time::SimTime;

use crate::controller::{RaidError, Workload, WriteOutcome};

/// A mirror pair of mechanical disks.
#[derive(Clone, Debug)]
pub struct MechPair {
    /// First replica.
    pub a: Disk,
    /// Second replica.
    pub b: Disk,
    // Next LBA to allocate on this pair (chunks are laid out sequentially).
    next_lba: u64,
}

impl MechPair {
    /// Creates a pair.
    pub fn new(a: Disk, b: Disk) -> Self {
        MechPair { a, b, next_lba: 0 }
    }

    /// Writes `nblocks` at this pair's next sequential position, arriving
    /// at `now`; returns the completion time (both replicas done).
    fn write_chunk(&mut self, now: SimTime, nblocks: u64) -> Result<SimTime, RaidError> {
        let lba = self.next_lba;
        let ra = self.a.write(now, lba, nblocks);
        let rb = self.b.write(now, lba, nblocks);
        let done = match (ra, rb) {
            (Ok(ga), Ok(gb)) => ga.finish.max(gb.finish),
            (Ok(ga), Err(DiskError::Failed)) => ga.finish,
            (Err(DiskError::Failed), Ok(gb)) => gb.finish,
            _ => return Err(RaidError::NoUsablePairs),
        };
        self.next_lba = lba + nblocks;
        Ok(done)
    }

    /// The earliest instant this pair could accept a new chunk.
    fn next_free(&self) -> SimTime {
        self.a.next_free().max(self.b.next_free())
    }

    /// True once both replicas have fail-stopped.
    pub fn failed_at(&self, t: SimTime) -> bool {
        self.a.failed_at(t) && self.b.failed_at(t)
    }
}

/// A RAID-10 array of mechanical mirror pairs.
#[derive(Clone, Debug)]
pub struct MechRaid10 {
    pairs: Vec<MechPair>,
}

impl MechRaid10 {
    /// Creates the array.
    pub fn new(pairs: Vec<MechPair>) -> Self {
        assert!(!pairs.is_empty(), "an array needs at least one pair");
        MechRaid10 { pairs }
    }

    /// Number of pairs.
    pub fn n(&self) -> usize {
        self.pairs.len()
    }

    /// Scenario 1 on metal: equal static striping in `chunk_blocks`-block
    /// stripes. Consumes the array (disks hold queue state).
    pub fn write_static(
        mut self,
        w: Workload,
        start: SimTime,
        chunk_blocks: u64,
    ) -> Result<WriteOutcome, RaidError> {
        let mut per_pair = vec![0u64; self.pairs.len()];
        let mut finish = start;
        let mut issued = 0u64;
        let mut i = 0usize;
        let bs = w.block_bytes / 512;
        assert!(bs > 0, "block size below a sector");
        while issued < w.blocks {
            let len = chunk_blocks.min(w.blocks - issued);
            // Static striping ignores queue depth: round-robin placement.
            let done = self.pairs[i].write_chunk(start, len * bs)?;
            per_pair[i] += len;
            finish = finish.max(done);
            issued += len;
            i = (i + 1) % self.pairs.len();
        }
        Ok(WriteOutcome::new(w, finish - start, per_pair, None))
    }

    /// Scenario 3 on metal: each chunk goes to the pair that frees up
    /// first (pull-style adaptive striping).
    pub fn write_adaptive(
        mut self,
        w: Workload,
        start: SimTime,
        chunk_blocks: u64,
    ) -> Result<WriteOutcome, RaidError> {
        let mut per_pair = vec![0u64; self.pairs.len()];
        let mut finish = start;
        let mut issued = 0u64;
        let bs = w.block_bytes / 512;
        assert!(bs > 0, "block size below a sector");
        let mut dead = vec![false; self.pairs.len()];
        while issued < w.blocks {
            let len = chunk_blocks.min(w.blocks - issued);
            // Pull: the pair whose queue drains earliest takes the chunk.
            let Some(i) = (0..self.pairs.len())
                .filter(|&i| !dead[i])
                .min_by_key(|&i| self.pairs[i].next_free())
            else {
                return Err(RaidError::NoUsablePairs);
            };
            match self.pairs[i].write_chunk(start, len * bs) {
                Ok(done) => {
                    per_pair[i] += len;
                    finish = finish.max(done);
                    issued += len;
                }
                Err(_) => {
                    dead[i] = true;
                }
            }
        }
        Ok(WriteOutcome::new(w, finish - start, per_pair, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::geometry::Geometry;
    use simcore::rng::Stream;
    use simcore::time::SimDuration;
    use stutter::injector::Injector;

    fn pair(seed: u64, slow_factor: Option<f64>) -> MechPair {
        let root = Stream::from_seed(seed);
        let mut a = Disk::new(Geometry::barracuda_7200(), root.derive("mech.a"));
        let b = Disk::new(Geometry::barracuda_7200(), root.derive("mech.b"));
        if let Some(f) = slow_factor {
            let p = Injector::StaticSlowdown { factor: f }
                .timeline(SimDuration::from_secs(100_000), &mut root.derive("mech.inj"));
            a = a.with_profile(p);
        }
        MechPair::new(a, b)
    }

    /// 512 MB in 64 KB blocks.
    fn workload() -> Workload {
        Workload::new(8_192, 65_536)
    }

    #[test]
    fn healthy_metal_array_balances() {
        let array = MechRaid10::new((0..4).map(|i| pair(i, None)).collect());
        let out = array.write_static(workload(), SimTime::ZERO, 64).expect("alive");
        // Four pairs streaming at ~40 MB/s each (outer zone).
        assert!(out.throughput > 120e6, "{}", out.throughput);
        let max = *out.per_pair_blocks.iter().max().expect("pairs");
        let min = *out.per_pair_blocks.iter().min().expect("pairs");
        assert!(max - min <= 64, "balanced: {:?}", out.per_pair_blocks);
    }

    #[test]
    fn slow_replica_gates_static_but_not_adaptive_on_metal() {
        // The §3.2 shape on a mechanical substrate.
        let build = || {
            MechRaid10::new(
                (0..4).map(|i| pair(i, if i == 0 { Some(0.5) } else { None })).collect(),
            )
        };
        let s1 = build().write_static(workload(), SimTime::ZERO, 64).expect("alive");
        let s3 = build().write_adaptive(workload(), SimTime::ZERO, 64).expect("alive");
        // Static tracks the slow pair; adaptive recovers most of the gap.
        assert!(s3.throughput > 1.4 * s1.throughput, "s1 {} s3 {}", s1.throughput, s3.throughput);
        // And the slow pair received fewer blocks under adaptation.
        assert!(s3.per_pair_blocks[0] < s3.per_pair_blocks[1], "{:?}", s3.per_pair_blocks);
    }

    #[test]
    fn single_replica_failure_degrades_not_halts() {
        let root = Stream::from_seed(9);
        let dying =
            stutter::injector::SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(1));
        let a = Disk::new(Geometry::barracuda_7200(), root.derive("mech.a")).with_profile(dying);
        let b = Disk::new(Geometry::barracuda_7200(), root.derive("mech.b"));
        let mut pairs = vec![MechPair::new(a, b)];
        pairs.push(pair(1, None));
        let array = MechRaid10::new(pairs);
        let out = array.write_static(workload(), SimTime::ZERO, 64).expect("degraded");
        assert_eq!(out.per_pair_blocks.iter().sum::<u64>(), workload().blocks);
    }

    #[test]
    fn whole_pair_failure_halts_static_survives_adaptive() {
        let root = Stream::from_seed(11);
        let dead = stutter::injector::SlowdownProfile::nominal().with_failure_at(SimTime::ZERO);
        let a =
            Disk::new(Geometry::barracuda_7200(), root.derive("mech.a")).with_profile(dead.clone());
        let b = Disk::new(Geometry::barracuda_7200(), root.derive("mech.b")).with_profile(dead);
        let build = |broken: MechPair| MechRaid10::new(vec![broken, pair(2, None), pair(3, None)]);
        let broken = MechPair::new(a, b);
        let s1 = build(broken.clone()).write_static(workload(), SimTime::ZERO, 64);
        assert!(s1.is_err());
        let s3 = build(broken).write_adaptive(workload(), SimTime::ZERO, 64).expect("survivors");
        assert_eq!(s3.per_pair_blocks[0], 0);
        assert_eq!(s3.per_pair_blocks.iter().sum::<u64>(), workload().blocks);
    }

    #[test]
    fn remap_heavy_replica_taxes_the_pair() {
        let root = Stream::from_seed(13);
        let a = Disk::new(Geometry::barracuda_7200(), root.derive("mech.a"))
            .with_random_defects(20_000);
        let b = Disk::new(Geometry::barracuda_7200(), root.derive("mech.b"));
        let mut dirty_pairs = vec![MechPair::new(a, b)];
        dirty_pairs.push(pair(5, None));
        let dirty = MechRaid10::new(dirty_pairs)
            .write_adaptive(workload(), SimTime::ZERO, 64)
            .expect("alive");
        // The remap-heavy pair did less of the work.
        assert!(dirty.per_pair_blocks[0] < dirty.per_pair_blocks[1], "{:?}", dirty.per_pair_blocks);
    }
}
