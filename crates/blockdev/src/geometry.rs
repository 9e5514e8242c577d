//! Zoned disk geometry and the mechanical service-time model.
//!
//! Paper §2.1.2 (Geometry): "disks have multiple zones, with performance
//! across zones differing by up to a factor of two." Outer zones pack more
//! sectors per track, so sequential bandwidth declines from the outer to
//! the inner diameter. [`Geometry`] models a disk as `zones` equal-sized
//! LBA ranges whose transfer rates interpolate between an outer and an
//! inner rate, plus the classical seek/rotation mechanical model.

use simcore::time::SimDuration;

/// Static description of a disk's geometry and mechanics.
#[derive(Clone, Debug)]
pub struct Geometry {
    /// Total number of addressable blocks.
    pub blocks: u64,
    /// Block size in bytes.
    pub block_bytes: u32,
    /// Number of zones (constant-bandwidth bands), outermost first.
    pub zones: u32,
    /// Sequential transfer rate in the outermost zone, bytes/second.
    pub outer_rate: f64,
    /// Sequential transfer rate in the innermost zone, bytes/second.
    pub inner_rate: f64,
    /// Number of cylinders (for seek distance computation).
    pub cylinders: u32,
    /// Full-stroke seek time.
    pub full_seek: SimDuration,
    /// Single-track seek time.
    pub track_seek: SimDuration,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
}

impl Geometry {
    /// A model of a mid-1990s 5400-RPM drive, the class measured in the
    /// paper's bad-block experiment (Seagate Hawk: ~5.5 MB/s outer).
    pub fn hawk_5400() -> Self {
        Geometry {
            blocks: 4_000_000, // ~2 GB at 512 B
            block_bytes: 512,
            zones: 8,
            outer_rate: 5.5e6,
            inner_rate: 2.75e6,
            cylinders: 4_000,
            full_seek: SimDuration::from_millis(18),
            track_seek: SimDuration::from_millis(1),
            rpm: 5400,
        }
    }

    /// A model of a modern-for-2001 7200-RPM drive.
    pub fn barracuda_7200() -> Self {
        Geometry {
            blocks: 40_000_000, // ~20 GB at 512 B
            block_bytes: 512,
            zones: 16,
            outer_rate: 40.0e6,
            inner_rate: 20.0e6,
            cylinders: 16_000,
            full_seek: SimDuration::from_millis(12),
            track_seek: SimDuration::from_micros(800),
            rpm: 7200,
        }
    }

    /// The zone containing `lba` (0 = outermost).
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range.
    pub fn zone_of(&self, lba: u64) -> u32 {
        assert!(lba < self.blocks, "lba {lba} out of range ({} blocks)", self.blocks);
        let z = (lba as u128 * self.zones as u128 / self.blocks as u128) as u32;
        z.min(self.zones - 1)
    }

    /// Sequential transfer rate (bytes/second) in the given zone,
    /// interpolated linearly from outer to inner.
    pub fn zone_rate(&self, zone: u32) -> f64 {
        assert!(zone < self.zones, "zone {zone} out of range");
        if self.zones == 1 {
            return self.outer_rate;
        }
        let frac = zone as f64 / (self.zones - 1) as f64;
        self.outer_rate + frac * (self.inner_rate - self.outer_rate)
    }

    /// Sequential transfer rate at an LBA.
    pub fn rate_at(&self, lba: u64) -> f64 {
        self.zone_rate(self.zone_of(lba))
    }

    /// The cylinder containing `lba` (uniform blocks-per-cylinder
    /// approximation).
    pub fn cylinder_of(&self, lba: u64) -> u32 {
        assert!(lba < self.blocks, "lba {lba} out of range");
        ((lba as u128 * self.cylinders as u128) / self.blocks as u128) as u32
    }

    /// Seek time between two cylinders: square-root model interpolating
    /// between a single-track and a full-stroke seek, zero for same
    /// cylinder.
    pub fn seek_time(&self, from_cyl: u32, to_cyl: u32) -> SimDuration {
        let dist = from_cyl.abs_diff(to_cyl);
        if dist == 0 {
            return SimDuration::ZERO;
        }
        let frac = (dist as f64 / self.cylinders as f64).sqrt();
        let t = self.track_seek.as_secs_f64()
            + frac * (self.full_seek.as_secs_f64() - self.track_seek.as_secs_f64());
        SimDuration::from_secs_f64(t)
    }

    /// Duration of one full platter rotation.
    pub fn rotation_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / self.rpm as f64)
    }

    /// Time to transfer `nblocks` sequential blocks starting at `lba`,
    /// accounting for zone crossings.
    pub fn transfer_time(&self, lba: u64, nblocks: u64) -> SimDuration {
        assert!(lba + nblocks <= self.blocks, "transfer beyond end of disk");
        let mut remaining = nblocks;
        let mut cur = lba;
        let mut total = 0.0;
        while remaining > 0 {
            let zone = self.zone_of(cur);
            let zone_end = ((zone as u64 + 1) * self.blocks) / self.zones as u64;
            let span = remaining.min(zone_end - cur).max(1);
            total += span as f64 * self.block_bytes as f64 / self.zone_rate(zone);
            cur += span;
            remaining -= span;
        }
        SimDuration::from_secs_f64(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_partition_the_disk() {
        let g = Geometry::hawk_5400();
        assert_eq!(g.zone_of(0), 0);
        assert_eq!(g.zone_of(g.blocks - 1), g.zones - 1);
        let mut last = 0;
        for lba in (0..g.blocks).step_by((g.blocks / 64) as usize) {
            let z = g.zone_of(lba);
            assert!(z >= last, "zones must be monotone in lba");
            last = z;
        }
    }

    #[test]
    fn outer_zone_twice_as_fast_as_inner() {
        let g = Geometry::hawk_5400();
        let ratio = g.zone_rate(0) / g.zone_rate(g.zones - 1);
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
        assert_eq!(g.rate_at(0), g.outer_rate);
    }

    #[test]
    fn zone_rates_decline_monotonically() {
        let g = Geometry::barracuda_7200();
        for z in 1..g.zones {
            assert!(g.zone_rate(z) < g.zone_rate(z - 1));
        }
    }

    #[test]
    fn seek_time_monotone_in_distance() {
        let g = Geometry::hawk_5400();
        assert_eq!(g.seek_time(100, 100), SimDuration::ZERO);
        let near = g.seek_time(100, 101);
        let mid = g.seek_time(0, g.cylinders / 2);
        let full = g.seek_time(0, g.cylinders - 1);
        assert!(near >= g.track_seek);
        assert!(near < mid && mid < full);
        assert!(full <= g.full_seek + SimDuration::from_micros(10));
    }

    #[test]
    fn rotation_time_matches_rpm() {
        let g = Geometry::hawk_5400();
        let ms = g.rotation_time().as_secs_f64() * 1e3;
        assert!((ms - 11.111).abs() < 0.01, "rotation {ms} ms");
    }

    #[test]
    fn transfer_time_uses_zone_rates() {
        let g = Geometry::hawk_5400();
        // 1 MB in the outer zone at 5.5 MB/s.
        let mb_bytes = 1u64 << 20;
        let n = mb_bytes / g.block_bytes as u64;
        let t = g.transfer_time(0, n).as_secs_f64();
        assert!((t - (1 << 20) as f64 / 5.5e6).abs() < 1e-6);
        // The same amount in the innermost zone takes twice as long.
        let inner_start = g.blocks - n;
        let t_inner = g.transfer_time(inner_start, n).as_secs_f64();
        assert!((t_inner / t - 2.0).abs() < 0.05, "ratio {}", t_inner / t);
    }

    #[test]
    fn transfer_time_across_zone_boundary() {
        let g = Geometry::hawk_5400();
        let boundary = g.blocks / g.zones as u64;
        let t = g.transfer_time(boundary - 10, 20);
        let t0 = g.transfer_time(boundary - 10, 10);
        let t1 = g.transfer_time(boundary, 10);
        let sum = t0 + t1;
        let diff = t.as_secs_f64() - sum.as_secs_f64();
        assert!(diff.abs() < 1e-9, "diff {diff}");
    }

    #[test]
    fn cylinder_of_is_monotone() {
        let g = Geometry::hawk_5400();
        assert_eq!(g.cylinder_of(0), 0);
        assert!(
            g.cylinder_of(g.blocks - 1) == g.cylinders - 1
                || g.cylinder_of(g.blocks - 1) == g.cylinders
        );
    }
}
