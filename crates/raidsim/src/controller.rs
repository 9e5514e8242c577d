//! The three §3.2 controller designs.
//!
//! The paper's example: write `D` data blocks in parallel to `2·N` disks
//! arranged as `N` RAID-1 mirror pairs with RAID-0 striping across pairs.
//!
//! * **Scenario 1** ([`Raid10::write_static`]): fail-stop thinking only.
//!   Every pair receives `D/N` blocks; one slow pair gates the array
//!   (`N·b` throughput).
//! * **Scenario 2** ([`Raid10::write_proportional`]): static performance
//!   faults acknowledged. Rates are gauged once, blocks striped
//!   proportionally (`(N−1)·B + b`); drift after gauging re-creates the
//!   problem.
//! * **Scenario 3** ([`Raid10::write_adaptive`]): general performance
//!   faults. Pairs *pull* fixed-size chunks as they finish ("continually
//!   gauge performance and write blocks across mirror-pairs in proportion
//!   to their current rates"), at the cost of a block map recording where
//!   every block landed — the paper's bookkeeping trade-off.

use simcore::resource::{apportion, barrier, equal_shares, RateProfile};
use simcore::time::{SimDuration, SimTime};

use crate::vdisk::MirrorPair;

/// A write workload: `D` blocks of `block_bytes` each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Number of data blocks (the paper's `D`).
    pub blocks: u64,
    /// Block size in bytes.
    pub block_bytes: u64,
}

impl Workload {
    /// Creates a workload.
    pub fn new(blocks: u64, block_bytes: u64) -> Self {
        assert!(blocks > 0 && block_bytes > 0, "degenerate workload");
        Workload { blocks, block_bytes }
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.blocks * self.block_bytes
    }
}

/// One block-map entry: blocks `[start, start + len)` went to `pair`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapEntry {
    /// First logical block of the run.
    pub start: u64,
    /// Run length in blocks.
    pub len: u64,
    /// Index of the pair holding the run.
    pub pair: usize,
}

/// The outcome of a completed array write, fluid or mechanical.
#[derive(Clone, Debug)]
pub struct WriteOutcome {
    /// Time from issue to the last pair finishing.
    pub elapsed: SimDuration,
    /// Aggregate throughput in bytes/second.
    pub throughput: f64,
    /// Blocks assigned to each pair.
    pub per_pair_blocks: Vec<u64>,
    /// Where every block landed (the fluid adaptive controllers only).
    pub block_map: Option<Vec<MapEntry>>,
}

impl WriteOutcome {
    /// The outcome of writing `w` in `elapsed`.
    pub(crate) fn new(
        w: Workload,
        elapsed: SimDuration,
        per_pair_blocks: Vec<u64>,
        block_map: Option<Vec<MapEntry>>,
    ) -> Self {
        let throughput = w.total_bytes() as f64 / elapsed.as_secs_f64().max(1e-12);
        WriteOutcome { elapsed, throughput, per_pair_blocks, block_map }
    }
}

/// Errors an array write can hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaidError {
    /// A mirror pair absolutely failed (both replicas) before completing
    /// its statically assigned work — the fail-stop design halts.
    PairFailed {
        /// Index of the failed pair.
        pair: usize,
    },
    /// Every pair has absolutely failed; no controller can proceed.
    NoUsablePairs,
}

impl std::fmt::Display for RaidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaidError::PairFailed { pair } => write!(f, "mirror pair {pair} absolutely failed"),
            RaidError::NoUsablePairs => write!(f, "no usable mirror pairs remain"),
        }
    }
}

impl std::error::Error for RaidError {}

/// A RAID-10 array of `N` mirror pairs.
///
/// # Examples
///
/// ```
/// use raidsim::prelude::*;
/// use simcore::prelude::*;
///
/// let pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10e6)).collect();
/// let array = Raid10::new(pairs, SimDuration::from_secs(3600));
/// let out = array
///     .write_static(Workload::new(4_096, 65_536), SimTime::ZERO)
///     .expect("healthy array");
/// assert!((out.throughput / 40e6 - 1.0).abs() < 0.01);
/// ```
#[derive(Clone, Debug)]
pub struct Raid10 {
    pairs: Vec<MirrorPair>,
    /// Each pair's write-rate profile over the horizon, built once.
    profiles: Vec<RateProfile>,
}

impl Raid10 {
    /// Creates an array, building each pair's write-rate profile over
    /// `[0, horizon]` once ([`MirrorPair::write_rate_profile`]); every
    /// write reads these. A profile's last rate holds past `horizon`, so
    /// `horizon` must comfortably exceed any write's duration.
    pub fn new(pairs: Vec<MirrorPair>, horizon: SimDuration) -> Self {
        assert!(!pairs.is_empty(), "an array needs at least one pair");
        let profiles = pairs.iter().map(|p| p.write_rate_profile(horizon)).collect();
        Raid10 { pairs, profiles }
    }

    /// Number of mirror pairs (the paper's `N`).
    pub fn n(&self) -> usize {
        self.pairs.len()
    }

    /// The pairs.
    pub fn pairs(&self) -> &[MirrorPair] {
        &self.pairs
    }

    /// Scenario 1: equal static striping (fail-stop design).
    ///
    /// Blocks split evenly; the write completes when the slowest pair
    /// finishes. A pair that absolutely fails before finishing halts the
    /// operation with [`RaidError::PairFailed`].
    pub fn write_static(&self, w: Workload, start: SimTime) -> Result<WriteOutcome, RaidError> {
        self.run_static_assignment(w, start, equal_shares(w.blocks, self.n()))
    }

    /// Scenario 2: proportional static striping.
    ///
    /// Pair rates are gauged once at `gauge_at` (installation time) and
    /// blocks are assigned proportionally. Rates can drift arbitrarily
    /// afterwards; the assignment does not.
    pub fn write_proportional(
        &self,
        w: Workload,
        start: SimTime,
        gauge_at: SimTime,
    ) -> Result<WriteOutcome, RaidError> {
        let rates: Vec<f64> = self.pairs.iter().map(|p| p.write_rate_at(gauge_at)).collect();
        let total: f64 = rates.iter().sum();
        if total <= 0.0 {
            return Err(RaidError::NoUsablePairs);
        }
        self.run_static_assignment(w, start, apportion(w.blocks, &rates))
    }

    fn run_static_assignment(
        &self,
        w: Workload,
        start: SimTime,
        per_pair: Vec<u64>,
    ) -> Result<WriteOutcome, RaidError> {
        debug_assert_eq!(per_pair.iter().sum::<u64>(), w.blocks);
        let elapsed = barrier(&self.profiles, &per_pair, w.block_bytes as f64, start)
            .map_err(|pair| RaidError::PairFailed { pair })?;
        Ok(WriteOutcome::new(w, elapsed, per_pair, None))
    }

    /// Scenario 3: adaptive chunked striping with a block map.
    ///
    /// Work is cut into `chunk_blocks`-block chunks; each pair pulls a new
    /// chunk the moment it finishes its previous one. Pairs that
    /// absolutely fail simply stop pulling — their pending chunk is
    /// re-queued to the survivors (the write only fails if *every* pair is
    /// dead). The returned block map records where each chunk landed.
    pub fn write_adaptive(
        &self,
        w: Workload,
        start: SimTime,
        chunk_blocks: u64,
    ) -> Result<WriteOutcome, RaidError> {
        assert!(chunk_blocks > 0, "chunk size must be positive");
        // Each chunk goes to the pair that would *complete* it earliest —
        // equivalent to pairs pulling work in proportion to their current
        // rates, and free of the straggler tail a naive earliest-available
        // assignment leaves on the slowest pair.
        let mut avail = vec![start; self.n()];
        let mut dead = vec![false; self.n()];
        let mut next_block = 0u64;
        let mut per_pair_blocks = vec![0u64; self.n()];
        let mut map: Vec<MapEntry> = Vec::new();
        let mut finish = start;

        while next_block < w.blocks {
            let chunk_len = chunk_blocks.min(w.blocks - next_block);
            let bytes = (chunk_len * w.block_bytes) as f64;
            let mut best: Option<(SimTime, usize)> = None;
            for i in 0..self.n() {
                if dead[i] {
                    continue;
                }
                match self.profiles[i].time_to_transfer(avail[i], bytes) {
                    Some(dt) => {
                        let done = avail[i] + dt;
                        if best.is_none_or(|(b, _)| done < b) {
                            best = Some((done, i));
                        }
                    }
                    None => dead[i] = true,
                }
            }
            let Some((done, i)) = best else {
                return Err(RaidError::NoUsablePairs);
            };
            avail[i] = done;
            finish = finish.max(done);
            per_pair_blocks[i] += chunk_len;
            map.push(MapEntry { start: next_block, len: chunk_len, pair: i });
            next_block += chunk_len;
        }
        map.sort_by_key(|e| (e.start, e.pair));
        Ok(WriteOutcome::new(w, finish - start, per_pair_blocks, Some(map)))
    }

    /// Scenario 3bis: adaptive chunked striping steered by an external
    /// rate estimator instead of omniscient profiles.
    ///
    /// This is the distributed variant of scenario 3: the controller does
    /// not gauge the pairs itself — it plans with whatever a
    /// performance-state plane (or any other estimator) believes each
    /// pair's current write rate is. `estimate(pair, at)` returns the
    /// believed rate in bytes/second at decision time `at`; non-positive
    /// or non-finite estimates mark the pair unusable for that chunk.
    /// The planner schedules on **believed** completion times only: each
    /// pair's queue clock advances by `bytes / estimate`, never by the
    /// true service time it cannot observe. Actual completions still come
    /// from the pairs' *true* profiles, so a stale or wrong estimate
    /// mis-apportions real work — with a useless (uniform) estimator the
    /// plan degenerates to equal striping and the paper's `N·b`, and with
    /// a perfect one it recovers scenario 3. That gap is exactly what the
    /// plane's staleness oracles quantify. One hard signal bypasses the
    /// beliefs: a write to an absolutely failed pair errors out, so the
    /// pair is retired and its chunk re-queued (the write only fails if
    /// every pair is dead). When the estimator believes in *nobody*, the
    /// planner falls back to ack-clocking: it rotates chunks through the
    /// least-loaded live pair, advancing that pair's clock by the acked
    /// true service time.
    pub fn write_estimated(
        &self,
        w: Workload,
        start: SimTime,
        chunk_blocks: u64,
        estimate: &mut dyn FnMut(usize, SimTime) -> f64,
    ) -> Result<WriteOutcome, RaidError> {
        assert!(chunk_blocks > 0, "chunk size must be positive");
        // Believed busy-time per pair (seconds past `start`) vs the true
        // availability the planner never sees.
        let mut believed = vec![0.0f64; self.n()];
        let mut true_avail = vec![start; self.n()];
        let mut dead = vec![false; self.n()];
        let mut next_block = 0u64;
        let mut per_pair_blocks = vec![0u64; self.n()];
        let mut map: Vec<MapEntry> = Vec::new();
        let mut finish = start;

        while next_block < w.blocks {
            let chunk_len = chunk_blocks.min(w.blocks - next_block);
            let bytes = (chunk_len * w.block_bytes) as f64;
            let mut best: Option<(f64, usize)> = None;
            let mut fallback: Option<(f64, usize)> = None;
            for i in 0..self.n() {
                if dead[i] {
                    continue;
                }
                if fallback.is_none_or(|(b, _)| believed[i] < b) {
                    fallback = Some((believed[i], i));
                }
                let at = start + SimDuration::from_secs_f64(believed[i]);
                let est = estimate(i, at);
                if est > 0.0 && est.is_finite() {
                    let done = believed[i] + bytes / est;
                    if best.is_none_or(|(b, _)| done < b) {
                        best = Some((done, i));
                    }
                }
            }
            let (chosen, believed_dt) = match (best, fallback) {
                (Some((done, i)), _) => (i, done - believed[i]),
                (None, Some((_, i))) => (i, f64::NAN), // ack-clocked below
                (None, None) => return Err(RaidError::NoUsablePairs),
            };
            let i = chosen;
            match self.profiles[i].time_to_transfer(true_avail[i], bytes) {
                Some(dt) => {
                    true_avail[i] += dt;
                    finish = finish.max(true_avail[i]);
                    believed[i] +=
                        if believed_dt.is_finite() { believed_dt } else { dt.as_secs_f64() };
                    per_pair_blocks[i] += chunk_len;
                    map.push(MapEntry { start: next_block, len: chunk_len, pair: i });
                    next_block += chunk_len;
                }
                None => dead[i] = true, // write error: retire, re-queue the chunk
            }
        }
        map.sort_by_key(|e| (e.start, e.pair));
        Ok(WriteOutcome::new(w, finish - start, per_pair_blocks, Some(map)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vdisk::VDisk;
    use simcore::rng::Stream;
    use stutter::injector::{Injector, SlowdownProfile};

    const MB: f64 = 1e6;
    const HOUR: SimDuration = SimDuration::from_secs(3600);

    /// N pairs at B = 10 MB/s, with pair 0 slowed to `b_frac` of B.
    fn array_with_slow_pair(n: usize, b_frac: f64) -> Raid10 {
        let slow =
            Injector::StaticSlowdown { factor: b_frac }.timeline(HOUR, &mut Stream::from_seed(1));
        let mut pairs =
            vec![MirrorPair::new(VDisk::new(10.0 * MB).with_profile(slow), VDisk::new(10.0 * MB))];
        for _ in 1..n {
            pairs.push(MirrorPair::healthy(10.0 * MB));
        }
        Raid10::new(pairs, HOUR)
    }

    fn workload() -> Workload {
        // 4 GB in 64 KB blocks.
        Workload::new(65_536, 65_536)
    }

    #[test]
    fn scenario1_matches_n_times_b() {
        // One pair at b = 5 MB/s among N = 4: perceived throughput N·b.
        let array = array_with_slow_pair(4, 0.5);
        let out = array.write_static(workload(), SimTime::ZERO).expect("alive");
        let predicted = 4.0 * 5.0 * MB;
        assert!(
            (out.throughput / predicted - 1.0).abs() < 0.01,
            "got {} want {predicted}",
            out.throughput
        );
    }

    #[test]
    fn scenario2_matches_n_minus_one_b_plus_b() {
        let array = array_with_slow_pair(4, 0.5);
        let out =
            array.write_proportional(workload(), SimTime::ZERO, SimTime::ZERO).expect("alive");
        let predicted = 3.0 * 10.0 * MB + 5.0 * MB;
        assert!(
            (out.throughput / predicted - 1.0).abs() < 0.01,
            "got {} want {predicted}",
            out.throughput
        );
        // The slow pair received proportionally fewer blocks.
        assert!(out.per_pair_blocks[0] < out.per_pair_blocks[1]);
    }

    #[test]
    fn scenario3_matches_available_bandwidth() {
        let array = array_with_slow_pair(4, 0.5);
        let out = array.write_adaptive(workload(), SimTime::ZERO, 64).expect("alive");
        let available = 3.0 * 10.0 * MB + 5.0 * MB;
        assert!(out.throughput > 0.97 * available, "got {} of {available}", out.throughput);
        // Bookkeeping: the block map covers every block exactly once.
        let map = out.block_map.as_ref().expect("adaptive keeps a map");
        let mut covered = 0;
        for (i, e) in map.iter().enumerate() {
            assert_eq!(e.start, covered, "entry {i} not contiguous");
            covered += e.len;
        }
        assert_eq!(covered, workload().blocks);
    }

    #[test]
    fn drift_after_gauging_defeats_scenario2_but_not_scenario3() {
        // All pairs healthy at gauge time; pair 2 collapses to 20% right
        // after the write begins.
        let drift = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(1), 0.2),
        ]);
        let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10.0 * MB)).collect();
        pairs[2] =
            MirrorPair::new(VDisk::new(10.0 * MB).with_profile(drift), VDisk::new(10.0 * MB));
        let array = Raid10::new(pairs, HOUR);
        let w = workload();
        let s2 = array.write_proportional(w, SimTime::ZERO, SimTime::ZERO).expect("alive");
        let s3 = array.write_adaptive(w, SimTime::ZERO, 64).expect("alive");
        // Scenario 2 gauged equal rates, so it degenerates to scenario 1:
        // ~4·2 = 8 MB/s. Scenario 3 keeps ~32 MB/s.
        assert!(s2.throughput < 12.0 * MB, "s2 {}", s2.throughput);
        assert!(s3.throughput > 28.0 * MB, "s3 {}", s3.throughput);
    }

    #[test]
    fn static_design_halts_on_pair_failure() {
        let dead_a = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(5));
        let dead_b = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(6));
        let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10.0 * MB)).collect();
        pairs[1] = MirrorPair::new(
            VDisk::new(10.0 * MB).with_profile(dead_a),
            VDisk::new(10.0 * MB).with_profile(dead_b),
        );
        let array = Raid10::new(pairs, HOUR);
        let err = array.write_static(workload(), SimTime::ZERO).unwrap_err();
        assert_eq!(err, RaidError::PairFailed { pair: 1 });
    }

    #[test]
    fn adaptive_design_survives_pair_failure() {
        let dead_a = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(5));
        let dead_b = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(6));
        let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10.0 * MB)).collect();
        pairs[1] = MirrorPair::new(
            VDisk::new(10.0 * MB).with_profile(dead_a),
            VDisk::new(10.0 * MB).with_profile(dead_b),
        );
        let array = Raid10::new(pairs, HOUR);
        let out = array.write_adaptive(workload(), SimTime::ZERO, 64).expect("survives");
        // All blocks landed, none on the dead pair after its death beyond
        // what it completed.
        assert_eq!(out.per_pair_blocks.iter().sum::<u64>(), workload().blocks);
        // Throughput approaches the three survivors' 30 MB/s.
        assert!(out.throughput > 25.0 * MB, "{}", out.throughput);
    }

    #[test]
    fn single_disk_failure_in_a_pair_is_transparent() {
        let dying = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(3));
        let mut pairs: Vec<MirrorPair> = (0..2).map(|_| MirrorPair::healthy(10.0 * MB)).collect();
        pairs[0] =
            MirrorPair::new(VDisk::new(10.0 * MB).with_profile(dying), VDisk::new(10.0 * MB));
        let array = Raid10::new(pairs, HOUR);
        let out = array.write_static(workload(), SimTime::ZERO).expect("degraded, not dead");
        assert!((out.throughput / (20.0 * MB) - 1.0).abs() < 0.01);
    }

    #[test]
    fn all_pairs_dead_is_an_error_everywhere() {
        let dead = SlowdownProfile::nominal().with_failure_at(SimTime::ZERO);
        let pairs = vec![MirrorPair::new(
            VDisk::new(10.0 * MB).with_profile(dead.clone()),
            VDisk::new(10.0 * MB).with_profile(dead),
        )];
        let array = Raid10::new(pairs, HOUR);
        let w = Workload::new(16, 65_536);
        assert!(array.write_static(w, SimTime::ZERO).is_err());
        assert!(matches!(
            array.write_proportional(w, SimTime::ZERO, SimTime::ZERO),
            Err(RaidError::NoUsablePairs)
        ));
        assert!(matches!(array.write_adaptive(w, SimTime::ZERO, 4), Err(RaidError::NoUsablePairs)));
    }

    #[test]
    fn estimated_with_perfect_estimates_matches_adaptive() {
        let array = array_with_slow_pair(4, 0.5);
        let w = workload();
        let s3 = array.write_adaptive(w, SimTime::ZERO, 64).expect("alive");
        let mut oracle = |i: usize, at: SimTime| array.pairs()[i].write_rate_at(at);
        let bis = array.write_estimated(w, SimTime::ZERO, 64, &mut oracle).expect("alive");
        assert!(
            bis.throughput > 0.97 * s3.throughput,
            "perfect estimates should match scenario 3: {} vs {}",
            bis.throughput,
            s3.throughput
        );
        assert_eq!(bis.per_pair_blocks.iter().sum::<u64>(), w.blocks);
    }

    #[test]
    fn estimated_with_blind_estimates_collapses_to_static() {
        // A uniform (wrong) belief degenerates toward scenario 1's N·b.
        let array = array_with_slow_pair(4, 0.5);
        let w = workload();
        let s1 = array.write_static(w, SimTime::ZERO).expect("alive");
        let mut blind = |_: usize, _: SimTime| 10.0 * MB;
        let out = array.write_estimated(w, SimTime::ZERO, 64, &mut blind).expect("alive");
        assert!(
            (out.throughput / s1.throughput - 1.0).abs() < 0.05,
            "blind estimates ≈ static: {} vs {}",
            out.throughput,
            s1.throughput
        );
    }

    #[test]
    fn estimated_survives_true_failure_despite_rosy_estimates() {
        let dead_a = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(5));
        let dead_b = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(6));
        let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10.0 * MB)).collect();
        pairs[1] = MirrorPair::new(
            VDisk::new(10.0 * MB).with_profile(dead_a),
            VDisk::new(10.0 * MB).with_profile(dead_b),
        );
        let array = Raid10::new(pairs, HOUR);
        // The estimator never learns about the death; the controller must
        // still route the re-queued chunks to survivors.
        let mut rosy = |_: usize, _: SimTime| 10.0 * MB;
        let out = array.write_estimated(workload(), SimTime::ZERO, 64, &mut rosy).expect("alive");
        assert_eq!(out.per_pair_blocks.iter().sum::<u64>(), workload().blocks);
    }

    #[test]
    fn estimated_falls_back_when_no_pair_is_believed_in() {
        let array = array_with_slow_pair(2, 0.5);
        let mut nihilist = |_: usize, _: SimTime| 0.0;
        let w = Workload::new(64, 65_536);
        let out = array.write_estimated(w, SimTime::ZERO, 16, &mut nihilist).expect("alive");
        assert_eq!(out.per_pair_blocks.iter().sum::<u64>(), w.blocks);
    }

    #[test]
    fn proportional_assignment_sums_to_d() {
        let array = array_with_slow_pair(7, 0.37);
        let w = Workload::new(100_003, 4096);
        let out = array.write_proportional(w, SimTime::ZERO, SimTime::ZERO).expect("alive");
        assert_eq!(out.per_pair_blocks.iter().sum::<u64>(), w.blocks);
    }
}
