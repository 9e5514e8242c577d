//! Fluid disk and mirror-pair models for the §3.2 example.
//!
//! The paper's example reasons about disks as bandwidth sources (`B` MB/s
//! vs `b` MB/s), so this module models a disk as a nominal rate shaped by a
//! fail-stutter timeline, and a RAID-1 mirror pair as the rate-combination
//! of its two disks:
//!
//! * both disks alive → writes go to both: the pair runs at the *minimum*
//!   of the two rates (the paper: "the rate of each mirror is determined by
//!   the rate of its slowest disk");
//! * one disk failed → fail-stop handled: writes continue to the survivor
//!   at the survivor's rate (degraded but correct);
//! * both disks failed → the pair has absolutely failed.

use simcore::resource::{union, RateProfile};
use simcore::time::{SimDuration, SimTime};
use stutter::component::Component;
use stutter::injector::Cursor;

/// A disk modelled as a rate source with a fail-stutter timeline: the
/// paper's component, in bytes/second.
pub type VDisk = Component;

/// The instants at which `disk`'s rate can change, up to `end`: its
/// segment starts and its fail-stop instant, ascending.
fn changes(disk: &VDisk, end: SimTime) -> impl Iterator<Item = SimTime> + '_ {
    let starts = disk.profile.segments().iter().map(|&(t, _)| t);
    union(starts, disk.profile.fail_at().into_iter()).take_while(move |&t| t <= end)
}

/// A RAID-1 mirror pair.
#[derive(Clone, Debug)]
pub struct MirrorPair {
    /// First replica.
    pub a: VDisk,
    /// Second replica.
    pub b: VDisk,
}

impl MirrorPair {
    /// Creates a pair.
    pub fn new(a: VDisk, b: VDisk) -> Self {
        MirrorPair { a, b }
    }

    /// A pair of identical healthy disks.
    pub fn healthy(nominal: f64) -> Self {
        MirrorPair::new(VDisk::new(nominal), VDisk::new(nominal))
    }

    /// Effective *write* rate at `t` under RAID-1 semantics.
    pub fn write_rate_at(&self, t: SimTime) -> f64 {
        self.write_rate_from(&mut [Cursor::default(); 2], t)
    }

    /// [`MirrorPair::write_rate_at`] for a caller reading in time order,
    /// with one cursor per replica.
    fn write_rate_from(&self, [a, b]: &mut [Cursor; 2], t: SimTime) -> f64 {
        match (self.a.profile.failed_at(t), self.b.profile.failed_at(t)) {
            (false, false) => self.a.rate_from(a, t).min(self.b.rate_from(b, t)),
            (true, false) => self.b.rate_from(b, t),
            (false, true) => self.a.rate_from(a, t),
            (true, true) => 0.0,
        }
    }

    /// True once both replicas have failed (pair absolutely failed).
    pub fn failed_at(&self, t: SimTime) -> bool {
        self.a.profile.failed_at(t) && self.b.profile.failed_at(t)
    }

    /// The instant the pair absolutely fails (both replicas down), if ever.
    pub fn pair_fail_at(&self) -> Option<SimTime> {
        match (self.a.profile.fail_at(), self.b.profile.fail_at()) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => None,
        }
    }

    /// Builds the pair's write-rate profile over `[0, horizon]`: a
    /// breakpoint wherever either disk's rate can change (a segment start
    /// or a fail-stop instant). It walks both disks' timelines forward
    /// once, merging their instants in order.
    pub fn write_rate_profile(&self, horizon: SimDuration) -> RateProfile {
        let end = SimTime::ZERO + horizon;
        let mut cursors = [Cursor::default(); 2];
        let bps = union(changes(&self.a, end), changes(&self.b, end))
            .map(|t| (t, self.write_rate_from(&mut cursors, t)))
            .collect();
        RateProfile::from_breakpoints(bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;
    use stutter::injector::{Injector, SlowdownProfile};

    const MB: f64 = 1e6;
    const HOUR: SimDuration = SimDuration::from_secs(3600);

    #[test]
    fn healthy_pair_runs_at_disk_rate() {
        let p = MirrorPair::healthy(10.0 * MB);
        assert_eq!(p.write_rate_at(SimTime::ZERO), 10.0 * MB);
        let t = p.write_rate_profile(HOUR).time_to_transfer(SimTime::ZERO, 100.0 * MB);
        let t = t.expect("alive");
        assert_eq!(t, SimDuration::from_secs(10));
    }

    #[test]
    fn pair_tracks_slowest_replica() {
        // The paper: "the rate of each mirror is determined by the rate of
        // its slowest disk."
        let slow =
            Injector::StaticSlowdown { factor: 0.5 }.timeline(HOUR, &mut Stream::from_seed(1));
        let p = MirrorPair::new(VDisk::new(10.0 * MB), VDisk::new(10.0 * MB).with_profile(slow));
        assert_eq!(p.write_rate_at(SimTime::ZERO), 5.0 * MB);
    }

    #[test]
    fn single_failure_degrades_to_survivor() {
        let dead = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(10));
        let p = MirrorPair::new(VDisk::new(10.0 * MB).with_profile(dead), VDisk::new(10.0 * MB));
        assert_eq!(p.write_rate_at(SimTime::from_secs(5)), 10.0 * MB);
        // After the failure, the survivor carries the pair at full rate.
        assert_eq!(p.write_rate_at(SimTime::from_secs(20)), 10.0 * MB);
        assert!(!p.failed_at(SimTime::from_secs(20)));
        assert_eq!(p.pair_fail_at(), None);
    }

    #[test]
    fn double_failure_kills_the_pair() {
        let d1 = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(10));
        let d2 = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(20));
        let p = MirrorPair::new(
            VDisk::new(10.0 * MB).with_profile(d1),
            VDisk::new(10.0 * MB).with_profile(d2),
        );
        assert!(!p.failed_at(SimTime::from_secs(15)));
        assert!(p.failed_at(SimTime::from_secs(20)));
        assert_eq!(p.pair_fail_at(), Some(SimTime::from_secs(20)));
        // A large write never finishes.
        assert_eq!(p.write_rate_profile(HOUR).time_to_transfer(SimTime::ZERO, 1e9), None);
    }

    #[test]
    fn time_varying_rates_integrate() {
        // Replica b halves its speed at t = 5 s.
        let stepped = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(5), 0.5),
        ]);
        let p = MirrorPair::new(VDisk::new(10.0 * MB), VDisk::new(10.0 * MB).with_profile(stepped));
        // 75 MB: 50 MB in the first 5 s, then 25 MB at 5 MB/s = 5 s more.
        let t = p.write_rate_profile(HOUR).time_to_transfer(SimTime::ZERO, 75.0 * MB);
        let t = t.expect("alive");
        assert_eq!(t, SimDuration::from_secs(10));
    }

    #[test]
    fn write_rate_profile_reflects_failure_handover() {
        let slow =
            Injector::StaticSlowdown { factor: 0.3 }.timeline(HOUR, &mut Stream::from_seed(2));
        let dying = slow.with_failure_at(SimTime::from_secs(100));
        let p = MirrorPair::new(VDisk::new(10.0 * MB).with_profile(dying), VDisk::new(10.0 * MB));
        let prof = p.write_rate_profile(HOUR);
        // Before failure the stuttering replica gates the pair at 3 MB/s;
        // after it dies the healthy survivor restores 10 MB/s.
        assert_eq!(prof.rate_at(SimTime::from_secs(50)), 3.0 * MB);
        assert_eq!(prof.rate_at(SimTime::from_secs(150)), 10.0 * MB);
    }
}
