//! Hot spares and reconstruction.
//!
//! §3.2, scenario 1: "if an absolute failure occurs on a single disk, it
//! is detected and operation continues, perhaps with a reconstruction
//! initiated to a hot spare." Reconstruction competes with foreground
//! traffic for the survivor's bandwidth, so it is itself a source of
//! performance faults: a rebuilding pair is a stuttering pair.

use simcore::time::{SimDuration, SimTime};

use crate::vdisk::MirrorPair;

/// Policy for dividing a surviving disk's bandwidth during a rebuild.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebuildPolicy {
    /// Fraction of the survivor's bandwidth devoted to reconstruction
    /// (the rest serves foreground writes).
    pub rebuild_share: f64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy { rebuild_share: 0.3 }
    }
}

/// The outcome of a reconstruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebuildOutcome {
    /// When the spare holds a full copy and the pair is whole again.
    pub completed: SimTime,
    /// Mean foreground rate (bytes/s) while the rebuild ran.
    pub foreground_rate_during: f64,
}

/// Simulates reconstructing `capacity_bytes` from the survivor of `pair`
/// onto a hot spare of `spare_rate` bytes/s, starting at `start`.
///
/// Returns `None` if the survivor fails before the copy completes (data
/// loss under RAID-1).
pub fn rebuild_to_spare(
    pair: &MirrorPair,
    survivor_is_a: bool,
    capacity_bytes: f64,
    spare_rate: f64,
    policy: RebuildPolicy,
    start: SimTime,
    horizon: SimDuration,
) -> Option<RebuildOutcome> {
    assert!((0.0..=1.0).contains(&policy.rebuild_share), "rebuild share must be a fraction");
    assert!(spare_rate > 0.0, "spare rate must be positive");
    let survivor = if survivor_is_a { &pair.a } else { &pair.b };
    // Walk the survivor's profile integrating the rebuild share of its rate,
    // capped by the spare's ingest rate.
    let mut copied = 0.0;
    let mut t = start;
    let step = SimDuration::from_millis(100);
    let end = start + horizon;
    while copied < capacity_bytes {
        if t >= end {
            return None;
        }
        if survivor.failed_at(t) {
            return None;
        }
        let read_rate = survivor.rate_at(t) * policy.rebuild_share;
        let rate = read_rate.min(spare_rate);
        copied += rate * step.as_secs_f64();
        t += step;
    }
    let elapsed = (t - start).as_secs_f64();
    let foreground = survivor.rate_at(start) * (1.0 - policy.rebuild_share);
    let _ = elapsed;
    Some(RebuildOutcome { completed: t, foreground_rate_during: foreground })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vdisk::VDisk;
    use stutter::injector::SlowdownProfile;

    const MB: f64 = 1e6;
    const DAY: SimDuration = SimDuration::from_secs(86_400);

    fn degraded_pair() -> MirrorPair {
        let dead = SlowdownProfile::nominal().with_failure_at(SimTime::ZERO);
        MirrorPair::new(VDisk::new(10.0 * MB), VDisk::new(10.0 * MB).with_profile(dead))
    }

    #[test]
    fn rebuild_time_tracks_share_and_capacity() {
        let pair = degraded_pair();
        // 1 GB at 30% of 10 MB/s = 3 MB/s → ~333 s.
        let out = rebuild_to_spare(
            &pair,
            true,
            1e9,
            20.0 * MB,
            RebuildPolicy::default(),
            SimTime::ZERO,
            DAY,
        )
        .expect("survivor healthy");
        let secs = (out.completed - SimTime::ZERO).as_secs_f64();
        assert!((secs - 333.3).abs() < 2.0, "rebuild took {secs}");
        assert!((out.foreground_rate_during - 7.0 * MB).abs() < 1e-6);
    }

    #[test]
    fn slow_spare_gates_rebuild() {
        let pair = degraded_pair();
        // Spare ingests at 1 MB/s < 3 MB/s read share.
        let out = rebuild_to_spare(
            &pair,
            true,
            1e9,
            1.0 * MB,
            RebuildPolicy::default(),
            SimTime::ZERO,
            DAY,
        )
        .expect("survivor healthy");
        let secs = (out.completed - SimTime::ZERO).as_secs_f64();
        assert!((secs - 1000.0).abs() < 2.0, "rebuild took {secs}");
    }

    #[test]
    fn survivor_death_means_data_loss() {
        let dying = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(10));
        let dead = SlowdownProfile::nominal().with_failure_at(SimTime::ZERO);
        let pair = MirrorPair::new(
            VDisk::new(10.0 * MB).with_profile(dying),
            VDisk::new(10.0 * MB).with_profile(dead),
        );
        let out = rebuild_to_spare(
            &pair,
            true,
            1e9,
            20.0 * MB,
            RebuildPolicy::default(),
            SimTime::ZERO,
            DAY,
        );
        assert!(out.is_none());
    }

    #[test]
    fn higher_share_rebuilds_faster_but_hurts_foreground() {
        let pair = degraded_pair();
        let fast = rebuild_to_spare(
            &pair,
            true,
            1e9,
            20.0 * MB,
            RebuildPolicy { rebuild_share: 0.6 },
            SimTime::ZERO,
            DAY,
        )
        .expect("ok");
        let slow = rebuild_to_spare(
            &pair,
            true,
            1e9,
            20.0 * MB,
            RebuildPolicy { rebuild_share: 0.3 },
            SimTime::ZERO,
            DAY,
        )
        .expect("ok");
        assert!(fast.completed < slow.completed);
        assert!(fast.foreground_rate_during < slow.foreground_rate_during);
    }
}
