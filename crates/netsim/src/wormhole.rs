//! Wormhole routing with a deadlock watchdog — the Myrinet halt.
//!
//! Paper §2.1.3 (Deadlock): "by waiting too long between packets that form
//! a logical 'message', the deadlock-detection hardware triggers and begins
//! the deadlock recovery process, halting all switch traffic for two
//! seconds."
//!
//! In wormhole routing a message holds its route open from first to last
//! packet. [`WormholeFabric::send_message`] models a message as a packet
//! train with a configurable inter-packet gap; if any gap reaches the
//! watchdog threshold, the fabric declares deadlock and halts *all*
//! traffic for the recovery time. The victim is not just the guilty
//! message: every message in flight pays.

use simcore::time::{SimDuration, SimTime};

/// Gap between packets of one message that triggers deadlock detection.
const THRESHOLD: SimDuration = SimDuration::from_millis(50);
/// How long deadlock recovery halts all traffic (Myrinet: two seconds).
const RECOVERY: SimDuration = SimDuration::from_secs(2);

/// Outcome of sending one message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MessageOutcome {
    /// When the last packet was delivered.
    pub finished: SimTime,
    /// How many deadlock recoveries this message triggered.
    pub deadlocks_triggered: u32,
}

/// A shared wormhole fabric with one global watchdog.
#[derive(Clone, Debug)]
pub struct WormholeFabric {
    rate: f64,
    // No traffic moves before this instant (recovery in progress).
    halted_until: SimTime,
    deadlocks: u64,
    bytes_delivered: u64,
}

impl WormholeFabric {
    /// Creates a fabric draining `rate` bytes/second per route.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        WormholeFabric { rate, halted_until: SimTime::ZERO, deadlocks: 0, bytes_delivered: 0 }
    }

    /// Sends one logical message of `packets` packets of `packet_bytes`
    /// each, with the sender pausing `gap` between consecutive packets
    /// (the communication-software structure that provoked the Myrinet
    /// deadlock).
    ///
    /// Returns when the message finished and how many deadlocks it caused.
    pub fn send_message(
        &mut self,
        now: SimTime,
        packets: u32,
        packet_bytes: u64,
        gap: SimDuration,
    ) -> MessageOutcome {
        assert!(packets > 0, "empty message");
        let per_packet = SimDuration::from_secs_f64(packet_bytes as f64 / self.rate);
        let mut t = now.max(self.halted_until);
        let mut deadlocks_triggered = 0;
        for i in 0..packets {
            if i > 0 {
                // The route sits open and idle during the gap; the watchdog
                // measures exactly this idleness.
                if gap >= THRESHOLD {
                    // Deadlock detected mid-gap: recovery halts everything,
                    // the message's route is torn down and re-established,
                    // and only then does the next packet flow.
                    let detect_at = t + THRESHOLD;
                    self.halted_until = detect_at + RECOVERY;
                    self.deadlocks += 1;
                    deadlocks_triggered += 1;
                    t = self.halted_until.max(t + gap);
                } else {
                    t += gap;
                }
            }
            t = t.max(self.halted_until);
            t += per_packet;
            self.bytes_delivered += packet_bytes;
        }
        MessageOutcome { finished: t, deadlocks_triggered }
    }

    /// Total deadlock recoveries so far.
    pub fn deadlocks(&self) -> u64 {
        self.deadlocks
    }

    /// Total bytes delivered.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// True if the fabric is halted (recovering) at `t`.
    pub fn halted_at(&self, t: SimTime) -> bool {
        t < self.halted_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> WormholeFabric {
        // 100 MB/s fabric, 50 ms watchdog, 2 s recovery.
        WormholeFabric::new(100e6)
    }

    #[test]
    fn tight_message_never_deadlocks() {
        let mut f = fabric();
        let out = f.send_message(SimTime::ZERO, 100, 100_000, SimDuration::from_micros(10));
        assert_eq!(out.deadlocks_triggered, 0);
        assert_eq!(f.deadlocks(), 0);
        // 10 MB at 100 MB/s plus 99 tiny gaps ≈ 0.1 s.
        assert!(out.finished < SimTime::from_millis(200), "{}", out.finished);
    }

    #[test]
    fn slow_pacing_triggers_recovery_per_gap() {
        let mut f = fabric();
        let out = f.send_message(SimTime::ZERO, 3, 1_000, SimDuration::from_millis(60));
        assert_eq!(out.deadlocks_triggered, 2);
        // Each of the two gaps cost a 2 s recovery.
        assert!(out.finished > SimTime::from_secs(4), "{}", out.finished);
    }

    #[test]
    fn threshold_is_a_cliff() {
        let mut below = fabric();
        let mut above = fabric();
        let b = below.send_message(SimTime::ZERO, 50, 10_000, SimDuration::from_millis(49));
        let a = above.send_message(SimTime::ZERO, 50, 10_000, SimDuration::from_millis(50));
        let slowdown =
            (a.finished - SimTime::ZERO).as_secs_f64() / (b.finished - SimTime::ZERO).as_secs_f64();
        assert!(slowdown > 10.0, "crossing the watchdog must be a cliff: {slowdown}");
    }

    #[test]
    fn recovery_halts_innocent_traffic() {
        let mut f = fabric();
        // A guilty sender deadlocks the fabric...
        f.send_message(SimTime::ZERO, 2, 1_000, SimDuration::from_millis(60));
        assert!(f.halted_at(SimTime::from_millis(100)));
        // ...and an innocent message issued during recovery must wait.
        let out = f.send_message(SimTime::from_millis(100), 1, 1_000, SimDuration::ZERO);
        assert!(out.finished > SimTime::from_secs(2), "{}", out.finished);
        assert_eq!(out.deadlocks_triggered, 0);
    }

    #[test]
    fn bytes_accounting() {
        let mut f = fabric();
        f.send_message(SimTime::ZERO, 10, 500, SimDuration::ZERO);
        assert_eq!(f.bytes_delivered(), 5_000);
    }
}
