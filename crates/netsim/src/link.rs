//! Point-to-point links.
//!
//! A [`Link`] is a serialising resource with bandwidth and propagation
//! latency, optionally carrying a fail-stutter timeline (a flaky cable or
//! congested uplink is a performance-faulty component like any other).

use simcore::resource::FcfsServer;
use simcore::time::{SimDuration, SimTime};
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
    rate: f64,
    latency: SimDuration,
    profile: SlowdownProfile,
    /// Where `send` last read the profile; its queue start never moves
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
        assert!(rate > 0.0, "link rate must be positive, got {rate}");
        Link {
            rate,
            latency,
            profile: SlowdownProfile::nominal(),
            cursor: Cursor::default(),
            server: FcfsServer::new(),
            bytes_sent: 0,
        }
    }

    /// Attaches a fail-stutter timeline.
    pub fn with_profile(mut self, profile: SlowdownProfile) -> Self {
        self.profile = profile;
        self.cursor = Cursor::default();
        self
    }

    /// Nominal rate in bytes/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The effective rate at `t` under the stutter timeline.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.rate * self.profile.multiplier_at(t)
    }

    /// Transmits `bytes`, queueing behind earlier transmissions.
    ///
    /// Returns `None` if the link is permanently down at the queue time.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> Option<Delivery> {
        let queue_start = now.max(self.server.next_free());
        let start = self.profile.next_active_from(&mut self.cursor, queue_start)?;
        let m = self.profile.multiplier_from(&mut self.cursor, start);
        let serialisation = SimDuration::from_secs_f64(bytes as f64 / (self.rate * m));
        self.server.block_until(start);
        let grant = self.server.serve(now, serialisation);
        self.bytes_sent += bytes;
        Some(Delivery { depart: grant.start, arrive: grant.finish + self.latency })
    }

    /// Stalls the link until `t` (e.g. a switch-wide deadlock recovery).
    pub fn block_until(&mut self, t: SimTime) {
        self.server.block_until(t);
    }

    /// The earliest instant a new transmission could begin.
    pub fn next_free(&self) -> SimTime {
        self.server.next_free()
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
        assert_eq!(l.rate_at(SimTime::ZERO), 0.5e6);
    }

    #[test]
    fn dead_link_returns_none() {
        let profile = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(1));
        let mut l = Link::new(1e6, SimDuration::ZERO).with_profile(profile);
        assert!(l.send(SimTime::ZERO, 100).is_some());
        assert!(l.send(SimTime::from_secs(2), 100).is_none());
    }
}
