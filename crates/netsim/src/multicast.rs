//! Multicast under stutter: atomic delivery vs Birman's bimodal approach.
//!
//! Paper §4: "Birman's recent work on Bimodal Multicast also addresses the
//! issue of nodes that 'stutter' in the context of multicast-based
//! applications. Birman's solution is to change the semantics of multicast
//! from absolute delivery requirements to probabilistic ones, and thus
//! gracefully degrade when nodes begin to perform poorly."
//!
//! Fluid model of a process group: each member applies messages at a
//! (possibly stuttering) rate.
//!
//! * **Atomic** multicast delivers a message only when *every* member has
//!   applied it, so the group's delivery rate is the minimum member rate —
//!   one stutterer stalls the group.
//! * **Bimodal** multicast delivers at the healthy majority's pace and
//!   lets lagging members repair via background gossip; the cost is a
//!   transient *delivery gap* at the laggards, not group throughput.

use simcore::stats::Series;
use simcore::time::{SimDuration, SimTime};
use stutter::component::Component;

/// Multicast semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McastProtocol {
    /// Deliver when all members have applied (virtual synchrony).
    Atomic,
    /// Deliver at the majority's pace; laggards gossip-repair.
    Bimodal,
}

/// Offered message rate from the sender, messages/second.
const OFFERED_RATE: f64 = 900.0;
/// Simulated duration.
const DURATION: SimDuration = SimDuration::from_secs(120);
/// Time step.
const DT: SimDuration = SimDuration::from_millis(10);

/// The outcome of a multicast run.
#[derive(Clone, Debug)]
pub struct McastOutcome {
    /// Group delivery rate over time (messages/second).
    pub delivery_rate: Series,
    /// Mean group delivery rate.
    pub mean_delivery: f64,
    /// Largest lag (messages) any member accumulated behind the group.
    pub peak_lag: f64,
    /// Lag remaining at the end of the run.
    pub final_lag: f64,
}

/// Runs the group under the chosen protocol; each member is a
/// [`Component`] applying messages/second under its own timeline.
pub fn run_multicast(members: &[Component], protocol: McastProtocol) -> McastOutcome {
    assert!(members.len() >= 2, "a group needs at least two members");
    let dt = DT.as_secs_f64();
    let steps = (DURATION.as_secs_f64() / dt).round() as u64;
    let sample_every = (steps / 600).max(1);

    // Messages the group has delivered, and each member's applied count.
    let mut group_delivered = 0.0f64;
    let mut applied = vec![0.0f64; members.len()];
    let mut peak_lag = 0.0f64;
    let mut series = Series::new();
    let mut last_sample = (SimTime::ZERO, 0.0f64);
    let mut t = SimTime::ZERO;
    let mut offered = 0.0f64;

    for step in 0..steps {
        t += DT;
        offered += OFFERED_RATE * dt;
        // Each member applies at its own pace, bounded by what exists.
        for (i, m) in members.iter().enumerate() {
            let capacity = m.rate_at(t) * dt;
            applied[i] = (applied[i] + capacity).min(offered);
        }
        let min_applied = applied.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::INFINITY);
        let new_group = match protocol {
            McastProtocol::Atomic => min_applied,
            McastProtocol::Bimodal => {
                // Deliver at the majority's pace: the median applied count.
                let mut sorted = applied.clone();
                sorted.sort_by(f64::total_cmp);
                sorted[sorted.len() / 2]
            }
        };
        group_delivered = group_delivered.max(new_group);
        let lag = group_delivered - min_applied;
        peak_lag = peak_lag.max(lag);
        if step % sample_every == 0 && t > last_sample.0 {
            let rate = (group_delivered - last_sample.1) / (t - last_sample.0).as_secs_f64();
            series.push(t, rate);
            last_sample = (t, group_delivered);
        }
    }

    let min_applied = applied.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::INFINITY);
    McastOutcome {
        mean_delivery: group_delivered / DURATION.as_secs_f64(),
        peak_lag,
        final_lag: group_delivered - min_applied,
        delivery_rate: series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;
    use stutter::injector::{DurationDist, Injector, SlowdownProfile};

    fn group_with_stutterer(n: usize, seed: u64) -> Vec<Component> {
        let gc = Injector::Blackouts {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(10) },
            duration: DurationDist::Const(SimDuration::from_secs(2)),
        };
        let mut members: Vec<Component> = (0..n).map(|_| Component::new(1_000.0)).collect();
        members[1] = Component::new(1_000.0)
            .with_profile(gc.timeline(SimDuration::from_secs(240), &mut Stream::from_seed(seed)));
        members
    }

    #[test]
    fn healthy_group_delivers_offered_rate_both_ways() {
        let members: Vec<Component> = (0..8).map(|_| Component::new(1_000.0)).collect();
        for p in [McastProtocol::Atomic, McastProtocol::Bimodal] {
            let out = run_multicast(&members, p);
            assert!((out.mean_delivery / 900.0 - 1.0).abs() < 0.02, "{p:?}: {}", out.mean_delivery);
            assert!(out.peak_lag < 50.0, "{p:?}: lag {}", out.peak_lag);
        }
    }

    #[test]
    fn atomic_multicast_stalls_with_the_stutterer() {
        let members = group_with_stutterer(8, 1);
        let out = run_multicast(&members, McastProtocol::Atomic);
        // Repeated 2 s pauses leave the laggard's applied total short of
        // the offered stream → delivery drops below offered.
        assert!(out.mean_delivery < 850.0, "{}", out.mean_delivery);
        // And the delivery-rate series shows stalls.
        assert!(out.delivery_rate.min() < 500.0, "{}", out.delivery_rate.min());
    }

    #[test]
    fn bimodal_multicast_degrades_gracefully() {
        // One member pauses for 5 s mid-run and then recovers.
        let pause = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(30), 0.0),
            (SimTime::from_secs(35), 1.0),
        ]);
        let mut members: Vec<Component> = (0..8).map(|_| Component::new(1_000.0)).collect();
        members[1] = Component::new(1_000.0).with_profile(pause);
        let out = run_multicast(&members, McastProtocol::Bimodal);
        assert!((out.mean_delivery / 900.0 - 1.0).abs() < 0.02, "{}", out.mean_delivery);
        // The pausing member lags ~4500 messages during the pause...
        assert!(out.peak_lag > 4_000.0, "peak lag {}", out.peak_lag);
        // ...and gossip-repairs to parity before the run ends.
        assert!(out.final_lag < 100.0, "final lag {}", out.final_lag);
    }

    #[test]
    fn bimodal_beats_atomic_under_persistent_stutter() {
        // A member at half speed forever: atomic tracks it, bimodal does
        // not — "gracefully degrade when nodes begin to perform poorly."
        let slow = Injector::StaticSlowdown { factor: 0.5 }
            .timeline(SimDuration::from_secs(240), &mut Stream::from_seed(3));
        let mut members: Vec<Component> = (0..12).map(|_| Component::new(1_000.0)).collect();
        members[4] = Component::new(1_000.0).with_profile(slow);
        let atomic = run_multicast(&members, McastProtocol::Atomic);
        let bimodal = run_multicast(&members, McastProtocol::Bimodal);
        assert!((atomic.mean_delivery / 500.0 - 1.0).abs() < 0.05, "{}", atomic.mean_delivery);
        assert!((bimodal.mean_delivery / 900.0 - 1.0).abs() < 0.02, "{}", bimodal.mean_delivery);
    }

    #[test]
    fn permanently_failed_member_blocks_atomic_forever() {
        let mut members: Vec<Component> = (0..4).map(|_| Component::new(1_000.0)).collect();
        members[2] = Component::new(1_000.0)
            .with_profile(SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(10)));
        let atomic = run_multicast(&members, McastProtocol::Atomic);
        let bimodal = run_multicast(&members, McastProtocol::Bimodal);
        // Atomic delivery freezes at the failure point: ~10 s of 120 s.
        assert!(atomic.mean_delivery < 100.0, "{}", atomic.mean_delivery);
        // Bimodal keeps the living majority going; the dead member's gap
        // grows without bound.
        assert!((bimodal.mean_delivery / 900.0 - 1.0).abs() < 0.02);
        assert!(bimodal.final_lag > 90_000.0);
    }
}
