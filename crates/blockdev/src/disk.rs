//! The disk model: geometry + remapping + fail-stutter timeline.
//!
//! A [`Disk`] serves reads and writes through a FIFO queue with the
//! classical mechanical cost model (seek + rotation + zoned transfer),
//! taxed by two fail-stutter mechanisms:
//!
//! * **grown defects** ([`crate::remap`]): each remapped block in a request
//!   costs an extra round-trip seek to the spare area, the silent
//!   bandwidth tax of §2.1.2's 5.0-vs-5.5 MB/s Hawk;
//! * **a slowdown timeline** ([`stutter::injector::SlowdownProfile`]):
//!   thermal recalibrations, bus-reset blackouts and wear-out scale or
//!   suspend the mechanism, and a permanent fail-stop cuts it off.

use simcore::resource::{FcfsServer, Grant};
use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime};
use stutter::injector::{Cursor, SlowdownProfile};

use crate::geometry::Geometry;
use crate::remap::RemapTable;

/// Errors a disk can return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// The disk has absolutely (fail-stop) failed.
    Failed,
    /// The request extends beyond the end of the device.
    OutOfRange,
    /// The slowdown timeline never becomes active again within the
    /// simulated horizon (treated as an absolute failure by callers).
    NeverActive,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Failed => write!(f, "disk has fail-stopped"),
            DiskError::OutOfRange => write!(f, "request beyond end of device"),
            DiskError::NeverActive => write!(f, "disk never becomes active again"),
        }
    }
}

impl std::error::Error for DiskError {}

/// A disk: mechanical model, defect list, and fail-stutter timeline.
#[derive(Clone, Debug)]
pub struct Disk {
    geom: Geometry,
    remap: RemapTable,
    profile: SlowdownProfile,
    cursor: Cursor,
    server: FcfsServer,
    head_cyl: u32,
    // The LBA immediately after the last transfer: a request starting here
    // streams without repositioning.
    next_lba: u64,
    rng: Stream,
    bytes_moved: u64,
}

impl Disk {
    /// Creates a healthy disk with a 0.25% spare area.
    pub fn new(geom: Geometry, rng: Stream) -> Self {
        let spare = (geom.blocks / 400).max(16);
        Disk {
            remap: RemapTable::new(geom.blocks, spare),
            geom,
            profile: SlowdownProfile::nominal(),
            cursor: Cursor::default(),
            server: FcfsServer::new(),
            head_cyl: 0,
            next_lba: 0,
            rng,
            bytes_moved: 0,
        }
    }

    /// Attaches a fail-stutter timeline (replacing any previous one).
    pub fn with_profile(mut self, profile: SlowdownProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Grows `count` uniformly scattered defects.
    pub fn with_random_defects(mut self, count: u64) -> Self {
        let mut rng = self.rng.derive("defects");
        self.remap.grow_random_defects(count, &mut rng);
        self
    }

    /// The geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The attached fail-stutter timeline.
    pub fn profile(&self) -> &SlowdownProfile {
        &self.profile
    }

    /// True if the disk has fail-stopped by `now`.
    pub fn failed_at(&self, now: SimTime) -> bool {
        self.profile.failed_at(now)
    }

    /// Total bytes transferred so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// The earliest instant a new request could begin service.
    pub fn next_free(&self) -> SimTime {
        self.server.next_free()
    }

    /// Stalls the disk until `t` (e.g. a SCSI bus reset on its chain).
    pub fn block_until(&mut self, t: SimTime) {
        self.server.block_until(t);
    }

    /// Reads `nblocks` starting at `lba`, arriving at `now`.
    pub fn read(&mut self, now: SimTime, lba: u64, nblocks: u64) -> Result<Grant, DiskError> {
        self.io(now, lba, nblocks)
    }

    /// Writes `nblocks` starting at `lba`, arriving at `now` (same cost
    /// model as reads in this simulator).
    pub fn write(&mut self, now: SimTime, lba: u64, nblocks: u64) -> Result<Grant, DiskError> {
        self.io(now, lba, nblocks)
    }

    fn io(&mut self, now: SimTime, lba: u64, nblocks: u64) -> Result<Grant, DiskError> {
        if nblocks == 0 || lba + nblocks > self.geom.blocks {
            return Err(DiskError::OutOfRange);
        }
        if self.profile.failed_at(now) {
            return Err(DiskError::Failed);
        }
        // The head picks the request up once the queue frees and the
        // timeline is active. The mechanical time is drawn only for a
        // request that starts, and the multiplier at that instant scales
        // the whole mechanism.
        let grant = self.profile.serve(&mut self.cursor, &mut self.server, now, |m| {
            let target_cyl = self.geom.cylinder_of(lba);
            let mut t = self.geom.seek_time(self.head_cyl, target_cyl);
            if lba != self.next_lba {
                // Any discontiguous access re-synchronises with the
                // platter: a uniformly random rotational delay, even on the
                // same cylinder. Back-to-back sequential transfers stream
                // for free.
                let frac = self.rng.next_f64();
                t += self.geom.rotation_time().mul_f64(frac);
            }
            t += self.geom.transfer_time(lba, nblocks);

            // Each remapped block costs a round trip to the spare area and
            // back: two long seeks plus half a rotation each way on average.
            let remapped = self.remap.remapped_in_range(lba, nblocks);
            if remapped > 0 {
                let spare_cyl = self.geom.cylinders - 1;
                let round_trip =
                    self.geom.seek_time(target_cyl, spare_cyl) * 2 + self.geom.rotation_time();
                t += round_trip * remapped;
            }
            SimDuration::from_secs_f64(t.as_secs_f64() / m)
        });
        let Some(grant) = grant else {
            let queue_start = now.max(self.server.next_free());
            return Err(if self.profile.failed_at(queue_start) {
                DiskError::Failed
            } else {
                DiskError::NeverActive
            });
        };
        self.head_cyl = self.geom.cylinder_of(lba + nblocks - 1);
        self.next_lba = lba + nblocks;
        self.bytes_moved += nblocks * self.geom.block_bytes as u64;
        Ok(grant)
    }
}

/// Measures sequential read bandwidth (bytes/second) by streaming
/// `total_bytes` from LBA 0 in `chunk_bytes` requests starting at `now`.
///
/// Returns `(bandwidth, finish_time)`.
pub fn measure_sequential_read(
    disk: &mut Disk,
    now: SimTime,
    total_bytes: u64,
    chunk_bytes: u64,
) -> Result<(f64, SimTime), DiskError> {
    let bs = disk.geometry().block_bytes as u64;
    let chunk_blocks = (chunk_bytes / bs).max(1);
    let total_blocks = (total_bytes / bs).max(1);
    let mut lba = 0;
    let mut t = now;
    let mut finish = now;
    while lba < total_blocks {
        let n = chunk_blocks.min(total_blocks - lba);
        let grant = disk.read(t, lba, n)?;
        finish = grant.finish;
        t = grant.finish;
        lba += n;
    }
    let elapsed = (finish - now).as_secs_f64();
    let bw = if elapsed > 0.0 { (total_blocks * bs) as f64 / elapsed } else { 0.0 };
    Ok((bw, finish))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stutter::injector::{DurationDist, Injector};

    fn disk() -> Disk {
        Disk::new(Geometry::hawk_5400(), Stream::from_seed(7).derive("disk-unit.disk"))
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn sequential_read_approaches_outer_rate() {
        let mut d = disk();
        let (bw, _) =
            measure_sequential_read(&mut d, SimTime::ZERO, 64 * MB, MB).expect("healthy disk");
        // Within 5% of 5.5 MB/s (seek/rotation amortised away).
        assert!((bw / 5.5e6 - 1.0).abs() < 0.05, "bw {bw}");
    }

    #[test]
    fn defective_disk_loses_bandwidth() {
        // Calibrated to the paper: a remap-heavy disk reads ~5.0 MB/s
        // where its peers read 5.5 MB/s.
        let mut clean = disk();
        let mut dirty = disk().with_random_defects(2_000);
        let (bw_clean, _) =
            measure_sequential_read(&mut clean, SimTime::ZERO, 64 * MB, MB).expect("ok");
        let (bw_dirty, _) =
            measure_sequential_read(&mut dirty, SimTime::ZERO, 64 * MB, MB).expect("ok");
        assert!(bw_dirty < bw_clean * 0.97, "dirty {bw_dirty} vs clean {bw_clean}");
        assert!(bw_dirty > bw_clean * 0.5, "penalty should be a tax, not a collapse");
    }

    #[test]
    fn random_access_slower_than_sequential() {
        let mut d = disk();
        let g0 = d.read(SimTime::ZERO, 0, 64).expect("ok");
        // A far-away block pays seek + rotation.
        let far = d.geometry().blocks - 1_000;
        let g1 = d.read(g0.finish, far, 64).expect("ok");
        let near_cost = g0.finish - g0.start;
        let far_cost = g1.finish - g1.start;
        assert!(far_cost > near_cost * 2, "far {far_cost} vs near {near_cost}");
    }

    #[test]
    fn slowdown_profile_halves_bandwidth() {
        let mut d = disk().with_profile(
            Injector::StaticSlowdown { factor: 0.5 }
                .timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(1)),
        );
        let (bw, _) = measure_sequential_read(&mut d, SimTime::ZERO, 32 * MB, MB).expect("ok");
        assert!((bw / 2.75e6 - 1.0).abs() < 0.06, "bw {bw}");
    }

    #[test]
    fn blackout_delays_request() {
        // Blacked out from t=10s to t=20s.
        let profile = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(10), 0.0),
            (SimTime::from_secs(20), 1.0),
        ]);
        let mut d = disk().with_profile(profile);
        let g = d.read(SimTime::from_secs(12), 0, 64).expect("ok");
        assert!(g.finish >= SimTime::from_secs(20), "served during blackout: {g:?}");
    }

    #[test]
    fn failed_disk_errors() {
        let profile = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(5));
        let mut d = disk().with_profile(profile);
        assert!(d.read(SimTime::from_secs(1), 0, 8).is_ok());
        assert_eq!(d.read(SimTime::from_secs(6), 0, 8), Err(DiskError::Failed));
        assert!(d.failed_at(SimTime::from_secs(6)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = disk();
        let blocks = d.geometry().blocks;
        assert_eq!(d.read(SimTime::ZERO, blocks, 1), Err(DiskError::OutOfRange));
        assert_eq!(d.read(SimTime::ZERO, 0, 0), Err(DiskError::OutOfRange));
    }

    #[test]
    fn identical_seeds_identical_behaviour() {
        let mut a = disk();
        let mut b = disk();
        let ga = a.read(SimTime::ZERO, 500_000, 64).expect("ok");
        let gb = b.read(SimTime::ZERO, 500_000, 64).expect("ok");
        assert_eq!(ga, gb);
    }

    #[test]
    fn thermal_recalibration_produces_latency_spikes() {
        // §2.1.2: disks "go off-line at random intervals for short periods
        // of time, apparently due to thermal recalibrations."
        let inj = Injector::Blackouts {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(3) },
            duration: DurationDist::Uniform {
                lo: SimDuration::from_millis(500),
                hi: SimDuration::from_millis(1500),
            },
        };
        let profile = inj.timeline(SimDuration::from_secs(600), &mut Stream::from_seed(3));
        let mut d = disk().with_profile(profile);
        let mut spikes = 0;
        let mut t = SimTime::ZERO;
        for i in 0..2_000 {
            let lba = (i % 1_000) * 64;
            let g = d.read(t, lba, 64).expect("no absolute failure here");
            if g.latency_from(t) > SimDuration::from_millis(400) {
                spikes += 1;
            }
            t = g.finish;
        }
        assert!(spikes >= 2, "expected recalibration spikes, saw {spikes}");
    }

    #[test]
    fn bytes_moved_accumulates() {
        let mut d = disk();
        d.read(SimTime::ZERO, 0, 100).expect("ok");
        assert_eq!(d.bytes_moved(), 100 * 512);
    }
}
