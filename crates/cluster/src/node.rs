//! Cluster nodes: CPU and disk rate sources with fail-stutter timelines.

use simcore::resource::RateProfile;
use simcore::time::{SimDuration, SimTime};
use stutter::injector::SlowdownProfile;

/// A cluster node with CPU and disk bandwidth, each under its own
/// fail-stutter timeline.
#[derive(Clone, Debug)]
pub struct Node {
    cpu_rate: f64,
    disk_rate: f64,
    cpu_profile: SlowdownProfile,
    disk_profile: SlowdownProfile,
}

impl Node {
    /// Creates a healthy node with `cpu_rate` (records/second it can sort)
    /// and `disk_rate` (bytes/second it can stream).
    pub fn new(cpu_rate: f64, disk_rate: f64) -> Self {
        assert!(cpu_rate > 0.0 && disk_rate > 0.0, "rates must be positive");
        Node {
            cpu_rate,
            disk_rate,
            cpu_profile: SlowdownProfile::nominal(),
            disk_profile: SlowdownProfile::nominal(),
        }
    }

    /// Attaches a CPU timeline (hogs, scheduling interference).
    pub fn with_cpu_profile(mut self, profile: SlowdownProfile) -> Self {
        self.cpu_profile = profile;
        self
    }

    /// Attaches a disk timeline.
    pub fn with_disk_profile(mut self, profile: SlowdownProfile) -> Self {
        self.disk_profile = profile;
        self
    }

    /// Effective CPU rate at `t`.
    pub fn cpu_rate_at(&self, t: SimTime) -> f64 {
        self.cpu_rate * self.cpu_profile.multiplier_at(t)
    }

    /// Effective disk rate at `t`.
    pub fn disk_rate_at(&self, t: SimTime) -> f64 {
        self.disk_rate * self.disk_profile.multiplier_at(t)
    }

    /// The node's CPU capacity as a [`RateProfile`] over `[0, horizon]`.
    pub fn cpu_rate_profile(&self, horizon: SimDuration) -> RateProfile {
        self.cpu_profile.to_rate_profile(self.cpu_rate).clipped(horizon)
    }

    /// The node's disk capacity as a [`RateProfile`] over `[0, horizon]`.
    pub fn disk_rate_profile(&self, horizon: SimDuration) -> RateProfile {
        self.disk_profile.to_rate_profile(self.disk_rate).clipped(horizon)
    }
}

/// Extension helper: clip is a no-op for our piecewise profiles, but keeps
/// the intent explicit at call sites.
trait Clip {
    fn clipped(self, horizon: SimDuration) -> Self;
}

impl Clip for RateProfile {
    fn clipped(self, _horizon: SimDuration) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;
    use stutter::injector::Injector;

    #[test]
    fn healthy_node_runs_at_nominal() {
        let n = Node::new(1e6, 10e6);
        assert_eq!(n.cpu_rate_at(SimTime::from_secs(5)), 1e6);
        assert_eq!(n.disk_rate_at(SimTime::from_secs(5)), 10e6);
    }

    #[test]
    fn profiles_scale_rates_independently() {
        let hog = Injector::StaticSlowdown { factor: 0.5 }
            .timeline(SimDuration::from_secs(100), &mut Stream::from_seed(1));
        let n = Node::new(1e6, 10e6).with_cpu_profile(hog);
        assert_eq!(n.cpu_rate_at(SimTime::ZERO), 0.5e6);
        assert_eq!(n.disk_rate_at(SimTime::ZERO), 10e6, "disk unaffected");
    }

    #[test]
    fn rate_profile_export() {
        let n = Node::new(2.0, 4.0);
        let p = n.cpu_rate_profile(SimDuration::from_secs(10));
        assert_eq!(p.rate_at(SimTime::from_secs(3)), 2.0);
    }
}
