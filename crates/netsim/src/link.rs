//! Point-to-point links.
//!
//! A [`Link`] is a serialising resource with bandwidth and propagation
//! latency, optionally carrying a fail-stutter timeline (a flaky cable or
//! congested uplink is a performance-faulty component like any other).

use simcore::resource::FcfsServer;
use simcore::time::{SimDuration, SimTime};
use stutter::component::Component;
use stutter::injector::{Cursor, SlowdownProfile};

/// The outcome of a transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// When the first bit left the sender.
    pub depart: SimTime,
    /// When the last bit arrived at the receiver.
    pub arrive: SimTime,
}

/// A serialising link with bandwidth, latency, and a stutter timeline.
#[derive(Clone, Debug)]
pub struct Link {
    /// Bandwidth in bytes/second under the link's timeline.
    component: Component,
    latency: SimDuration,
    /// Where `send` last read the timeline; its queue start never moves
    /// back.
    cursor: Cursor,
    server: FcfsServer,
    bytes_sent: u64,
}

impl Link {
    /// Creates a link with `rate` bytes/second and propagation `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn new(rate: f64, latency: SimDuration) -> Self {
        Link {
            component: Component::new(rate),
            latency,
            cursor: Cursor::default(),
            server: FcfsServer::new(),
            bytes_sent: 0,
        }
    }

    /// Attaches a fail-stutter timeline.
    pub fn with_profile(mut self, profile: SlowdownProfile) -> Self {
        self.component.profile = profile;
        self
    }

    /// Transmits `bytes`, queueing behind earlier transmissions.
    ///
    /// Returns `None` if the link is permanently down at the queue time.
    // Inlined into each caller across crates: every gossip push and reply
    // is one send.
    #[inline]
    pub fn send(&mut self, now: SimTime, bytes: u64) -> Option<Delivery> {
        let rate = self.component.nominal;
        let grant = self.component.profile.serve(&mut self.cursor, &mut self.server, now, |m| {
            SimDuration::from_secs_f64(bytes as f64 / (rate * m))
        })?;
        self.bytes_sent += bytes;
        Some(Delivery { depart: grant.start, arrive: grant.finish + self.latency })
    }

    /// Total payload bytes accepted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;
    use stutter::injector::Injector;

    #[test]
    fn serialisation_plus_latency() {
        let mut l = Link::new(1e6, SimDuration::from_millis(1));
        let d = l.send(SimTime::ZERO, 1_000_000).expect("up");
        assert_eq!(d.depart, SimTime::ZERO);
        assert_eq!(d.arrive, SimTime::from_secs(1) + SimDuration::from_millis(1));
    }

    #[test]
    fn back_to_back_sends_queue() {
        let mut l = Link::new(1e6, SimDuration::ZERO);
        let a = l.send(SimTime::ZERO, 500_000).expect("up");
        let b = l.send(SimTime::ZERO, 500_000).expect("up");
        assert_eq!(a.arrive, SimTime::from_millis(500));
        assert_eq!(b.depart, SimTime::from_millis(500));
        assert_eq!(b.arrive, SimTime::from_secs(1));
        assert_eq!(l.bytes_sent(), 1_000_000);
    }

    #[test]
    fn slow_profile_stretches_serialisation() {
        let profile = Injector::StaticSlowdown { factor: 0.5 }
            .timeline(SimDuration::from_secs(100), &mut Stream::from_seed(1));
        let mut l = Link::new(1e6, SimDuration::ZERO).with_profile(profile);
        let d = l.send(SimTime::ZERO, 1_000_000).expect("up");
        assert_eq!(d.arrive, SimTime::from_secs(2));
    }

    #[test]
    fn dead_link_returns_none() {
        let profile = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(1));
        let mut l = Link::new(1e6, SimDuration::ZERO).with_profile(profile);
        assert!(l.send(SimTime::ZERO, 100).is_some());
        assert!(l.send(SimTime::from_secs(2), 100).is_none());
    }
}
