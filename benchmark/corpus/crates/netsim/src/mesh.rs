//! A full mesh of directed links — the carrier for control-plane traffic.
//!
//! A cluster-wide performance-state plane (or any other gossip protocol)
//! needs point-to-point transport between every pair of nodes, where each
//! direction is its own serialising [`Link`] that can carry its own
//! fail-stutter timeline. [`Mesh`] provides exactly that: `n·(n−1)`
//! directed links, individually profilable, so the control plane's own
//! carrier can be slowed, black-holed, or partitioned like any §2
//! component.

use simcore::time::{SimDuration, SimTime};
use stutter::injector::SlowdownProfile;

use crate::link::{Delivery, Link};

/// A full mesh of directed point-to-point links between `n` nodes.
#[derive(Clone, Debug)]
pub struct Mesh {
    n: usize,
    rate: f64,
    latency: SimDuration,
    links: Vec<Link>,
}

impl Mesh {
    /// Creates a homogeneous mesh: every directed link runs at `rate`
    /// bytes/second with propagation `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `rate` is not positive.
    pub fn homogeneous(n: usize, rate: f64, latency: SimDuration) -> Self {
        assert!(n >= 2, "a mesh needs at least two nodes, got {n}");
        let links = (0..n * n).map(|_| Link::new(rate, latency)).collect();
        Mesh { n, rate, latency, links }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    fn idx(&self, from: usize, to: usize) -> usize {
        assert!(from < self.n && to < self.n && from != to, "bad link ({from} -> {to})");
        from * self.n + to
    }

    /// Attaches a fail-stutter timeline to the directed link `from → to`.
    pub fn set_profile(&mut self, from: usize, to: usize, profile: SlowdownProfile) {
        let i = self.idx(from, to);
        self.links[i] = Link::new(self.rate, self.latency).with_profile(profile);
    }

    /// The directed link `from → to`.
    pub fn link(&self, from: usize, to: usize) -> &Link {
        &self.links[self.idx(from, to)]
    }

    /// Transmits `bytes` over the directed link `from → to`, queueing
    /// behind earlier transmissions. Returns `None` if that link is
    /// permanently down (the message is lost).
    pub fn send(&mut self, from: usize, to: usize, now: SimTime, bytes: u64) -> Option<Delivery> {
        let i = self.idx(from, to);
        self.links[i].send(now, bytes)
    }

    /// Total payload bytes accepted across every link.
    pub fn bytes_sent(&self) -> u64 {
        self.links.iter().map(Link::bytes_sent).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_are_independent() {
        let mut m = Mesh::homogeneous(3, 1e6, SimDuration::ZERO);
        let a = m.send(0, 1, SimTime::ZERO, 500_000).expect("up");
        let b = m.send(0, 2, SimTime::ZERO, 500_000).expect("up");
        // Different directed links do not queue behind each other.
        assert_eq!(a.arrive, SimTime::from_millis(500));
        assert_eq!(b.arrive, SimTime::from_millis(500));
        assert_eq!(m.bytes_sent(), 1_000_000);
    }

    #[test]
    fn profiled_link_slows_only_its_direction() {
        let mut m = Mesh::homogeneous(2, 1e6, SimDuration::ZERO);
        let half = SlowdownProfile::from_breakpoints(vec![(SimTime::ZERO, 0.5)]);
        m.set_profile(0, 1, half);
        let fwd = m.send(0, 1, SimTime::ZERO, 1_000_000).expect("up");
        let rev = m.send(1, 0, SimTime::ZERO, 1_000_000).expect("up");
        assert_eq!(fwd.arrive, SimTime::from_secs(2));
        assert_eq!(rev.arrive, SimTime::from_secs(1));
    }

    #[test]
    fn dead_link_drops_the_message() {
        let mut m = Mesh::homogeneous(2, 1e6, SimDuration::ZERO);
        m.set_profile(0, 1, SlowdownProfile::nominal().with_failure_at(SimTime::ZERO));
        assert!(m.send(0, 1, SimTime::from_secs(1), 64).is_none());
        assert!(m.send(1, 0, SimTime::from_secs(1), 64).is_some());
    }

    #[test]
    #[should_panic]
    fn self_link_is_rejected() {
        let m = Mesh::homogeneous(2, 1e6, SimDuration::ZERO);
        let _ = m.link(1, 1);
    }
}
