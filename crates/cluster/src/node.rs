//! Cluster nodes: CPU and disk rate sources with fail-stutter timelines.

use stutter::component::Component;
use stutter::injector::SlowdownProfile;

/// A cluster node with CPU and disk bandwidth, each under its own
/// fail-stutter timeline.
#[derive(Clone, Debug)]
pub struct Node {
    /// Sorting capacity, records/second.
    pub cpu: Component,
    /// Streaming bandwidth, bytes/second.
    pub disk: Component,
}

impl Node {
    /// Creates a healthy node with `cpu_rate` (records/second it can sort)
    /// and `disk_rate` (bytes/second it can stream).
    pub fn new(cpu_rate: f64, disk_rate: f64) -> Self {
        Node { cpu: Component::new(cpu_rate), disk: Component::new(disk_rate) }
    }

    /// Attaches a CPU timeline (hogs, scheduling interference).
    pub fn with_cpu_profile(mut self, profile: SlowdownProfile) -> Self {
        self.cpu.profile = profile;
        self
    }

    /// Attaches a disk timeline.
    pub fn with_disk_profile(mut self, profile: SlowdownProfile) -> Self {
        self.disk.profile = profile;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;
    use simcore::time::{SimDuration, SimTime};
    use stutter::injector::Injector;

    #[test]
    fn profiles_scale_rates_independently() {
        let hog = Injector::StaticSlowdown { factor: 0.5 }
            .timeline(SimDuration::from_secs(100), &mut Stream::from_seed(1));
        let n = Node::new(1e6, 10e6).with_cpu_profile(hog);
        assert_eq!(n.cpu.rate_at(SimTime::ZERO), 0.5e6);
        assert_eq!(n.disk.rate_at(SimTime::ZERO), 10e6, "disk unaffected");
    }
}
