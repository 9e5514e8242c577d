//! A replicated in-memory hash table — the DDS garbage-collection stutter.
//!
//! Paper §2.2.1 (Background Operations), citing Gribble et al.: "untimely
//! garbage collection causes one node to fall behind its mirror in a
//! replicated update. The result is that one machine over-saturates and
//! thus is the bottleneck."
//!
//! [`run_dds`] time-steps a cluster of *bricks* grouped into mirror pairs.
//! Every write goes to both replicas of its pair and is acknowledged when
//! the slower replica applies it. A replica under GC applies nothing; its
//! partner keeps applying but the pair's acknowledged throughput stalls,
//! queues grow on the GC'd node, and after the pause it over-saturates
//! draining the backlog.

use simcore::stats::Series;
use simcore::time::{SimDuration, SimTime};
use stutter::component::Component;

/// Offered write load in operations/second (spread evenly over pairs).
pub const OFFERED_LOAD: f64 = 8_000.0;
/// Simulated duration.
const DURATION: SimDuration = SimDuration::from_secs(60);
/// Time step.
const DT: SimDuration = SimDuration::from_millis(10);

/// Result of a DDS run.
#[derive(Clone, Debug)]
pub struct DdsOutcome {
    /// Acknowledged operations per second, sampled over time.
    pub throughput: Series,
    /// Maximum backlog (unacknowledged operations) on any replica.
    pub peak_backlog: f64,
    /// Total acknowledged operations.
    pub acked: f64,
    /// Mean acknowledged throughput over the run.
    pub mean_throughput: f64,
}

/// Runs the replicated hash table over mirror pairs of bricks, each a
/// [`Component`] applying operations/second under its own timeline.
///
/// # Panics
///
/// Panics if `bricks` is empty or odd-sized (bricks mirror in pairs).
pub fn run_dds(bricks: &[Component]) -> DdsOutcome {
    assert!(!bricks.is_empty() && bricks.len().is_multiple_of(2), "bricks must form pairs");
    let pairs = bricks.len() / 2;
    let dt = DT.as_secs_f64();
    let per_pair_load = OFFERED_LOAD / pairs as f64;

    // Per-replica backlog of writes accepted but not yet applied.
    let mut backlog = vec![0.0f64; bricks.len()];
    // Per-pair count of operations applied by each replica (monotone).
    let mut applied = vec![0.0f64; bricks.len()];
    // A pair's acknowledged ops = min(applied a, applied b).
    let mut acked_so_far = 0.0f64;
    let mut throughput = Series::new();
    let mut peak_backlog = 0.0f64;

    let steps = (DURATION.as_secs_f64() / dt).round() as u64;
    let mut t = SimTime::ZERO;
    // Sample throughput every ~100 steps.
    let sample_every = (steps / 600).max(1);
    let mut last_sample_acked = 0.0;
    let mut last_sample_t = SimTime::ZERO;

    for step in 0..steps {
        t += DT;
        for p in 0..pairs {
            let (a, b) = (2 * p, 2 * p + 1);
            let incoming = per_pair_load * dt;
            backlog[a] += incoming;
            backlog[b] += incoming;
            for &r in &[a, b] {
                let capacity = bricks[r].rate_at(t) * dt;
                let done = capacity.min(backlog[r]);
                backlog[r] -= done;
                applied[r] += done;
                peak_backlog = peak_backlog.max(backlog[r]);
            }
        }
        let acked: f64 = (0..pairs).map(|p| applied[2 * p].min(applied[2 * p + 1])).sum();
        acked_so_far = acked;
        if step % sample_every == 0 && t > last_sample_t {
            let rate = (acked - last_sample_acked) / (t - last_sample_t).as_secs_f64();
            throughput.push(t, rate);
            last_sample_acked = acked;
            last_sample_t = t;
        }
    }

    let mean_throughput = acked_so_far / DURATION.as_secs_f64();
    DdsOutcome { throughput, peak_backlog, acked: acked_so_far, mean_throughput }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;
    use stutter::injector::{DurationDist, Injector, SlowdownProfile};

    /// Four pairs of 2 kop/s bricks.
    fn healthy_bricks() -> Vec<Component> {
        (0..8).map(|_| Component::new(2_000.0)).collect()
    }

    fn gc_profile(seed: u64) -> SlowdownProfile {
        // A 2-second full GC pause every ~10 s.
        Injector::Blackouts {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(10) },
            duration: DurationDist::Const(SimDuration::from_secs(2)),
        }
        .timeline(SimDuration::from_secs(120), &mut Stream::from_seed(seed))
    }

    #[test]
    fn healthy_table_carries_offered_load() {
        let out = run_dds(&healthy_bricks());
        // Offered 8 kop/s over 8 kop/s aggregate pair capacity.
        assert!((out.mean_throughput / 8_000.0 - 1.0).abs() < 0.02, "{}", out.mean_throughput);
        assert!(out.peak_backlog < 100.0, "backlog {}", out.peak_backlog);
    }

    #[test]
    fn gc_pauses_stall_acknowledgements_and_grow_backlog() {
        let mut bricks = healthy_bricks();
        bricks[2] = Component::new(2_000.0).with_profile(gc_profile(1));
        let out = run_dds(&bricks);
        // During each 2 s pause the paused replica accumulates ~2 s of its
        // pair's load.
        assert!(out.peak_backlog > 2_000.0, "backlog {}", out.peak_backlog);
        // Mean throughput drops below offered load.
        assert!(out.mean_throughput < 7_800.0, "{}", out.mean_throughput);
        // The time series shows stalls (samples well below offered rate).
        let min_rate = out.throughput.min();
        assert!(min_rate < 6_500.0, "min sampled rate {min_rate}");
    }

    #[test]
    fn recovery_oversaturates_after_the_pause() {
        // After GC ends, the node drains backlog at full rate while new
        // load keeps arriving: sampled pair throughput spikes above the
        // offered per-pair load.
        let mut bricks = healthy_bricks();
        // Give the GC'd brick headroom so over-saturation is visible.
        bricks[2] = Component::new(3_000.0).with_profile(gc_profile(2));
        let out = run_dds(&bricks);
        let max_rate = out.throughput.max();
        assert!(max_rate > 8_100.0, "max sampled rate {max_rate}");
    }

    #[test]
    fn one_pair_gates_only_its_own_share() {
        // Unlike the transpose, a partitioned hash table localises the
        // stutter: other pairs keep serving their shares.
        let mut bricks = healthy_bricks();
        bricks[0] = Component::new(2_000.0).with_profile(
            Injector::StaticSlowdown { factor: 0.25 }
                .timeline(SimDuration::from_secs(120), &mut Stream::from_seed(3)),
        );
        let out = run_dds(&bricks);
        // Pair 0 delivers 25% of its 2 kop/s share; others full: ~6.5 kop/s.
        assert!((out.mean_throughput / 6_500.0 - 1.0).abs() < 0.05, "{}", out.mean_throughput);
    }

    #[test]
    #[should_panic]
    fn odd_brick_count_rejected() {
        let bricks = vec![Component::new(1.0); 3];
        let _ = run_dds(&bricks);
    }
}
