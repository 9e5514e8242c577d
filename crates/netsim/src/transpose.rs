//! All-to-all transpose with flow control — the CM-5 collapse.
//!
//! Paper §2.1.3 (Flow Control), citing Brewer and Kuszmaul: "once a
//! receiver falls behind the others, messages accumulate in the network and
//! cause excessive network contention, reducing transpose performance by
//! almost a factor of three."
//!
//! [`run_transpose`] is a fluid model of `n` senders performing an all-to-all
//! transpose into `n` receivers through a shared fabric with finite buffer
//! capacity. Senders spray destinations round-robin; a receiver that drains
//! slowly lets its packets pile up in the shared buffer; once they dominate
//! the buffer, head-of-line blocking throttles delivery to *every*
//! receiver — the global collapse is much worse than the slow receiver's
//! own deficit.
//!
//! A barrier-synchronised variant ([`barrier_transpose_time`]) provides the
//! static-parallelism comparison used by the experiments.

use simcore::time::SimDuration;

/// Number of nodes (senders = receivers).
pub const NODES: usize = 16;
/// Bytes each sender must deliver to each receiver.
pub const BYTES_PER_PAIR: u64 = 1 << 20;
/// Per-node injection rate, bytes/second.
const INJECT_RATE: f64 = 20e6;
/// Per-node drain (receive) rate at nominal speed, bytes/second.
const DRAIN_RATE: f64 = 20e6;
/// Shared fabric buffer capacity in bytes.
pub const FABRIC_BUFFER: u64 = 4 << 20;
/// Simulation time step.
const DT: SimDuration = SimDuration::from_millis(1);

/// The result of one transpose run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransposeResult {
    /// Wall-clock (simulated) completion time of the whole transpose.
    pub elapsed: SimDuration,
    /// Aggregate goodput in bytes/second.
    pub goodput: f64,
    /// Peak fabric occupancy observed, in bytes.
    pub peak_occupancy: u64,
}

/// Fluid simulation of an all-to-all transpose through a shared buffer.
///
/// `drain_multipliers[r]` scales receiver `r`'s drain rate (1.0 = nominal);
/// use e.g. `1/3` to reproduce the CM-5 slow-receiver experiment.
pub fn run_transpose(drain_multipliers: &[f64]) -> TransposeResult {
    assert_eq!(drain_multipliers.len(), NODES, "one multiplier per node");
    let n = NODES;
    let dt = DT.as_secs_f64();
    let total_per_receiver = BYTES_PER_PAIR as f64 * n as f64;

    // Remaining bytes to inject for, and in-fabric backlog of, each receiver.
    let mut to_send = vec![total_per_receiver; n];
    let mut backlog = vec![0.0f64; n];
    let mut received = vec![0.0f64; n];
    let mut peak = 0.0f64;
    let mut t = 0.0f64;
    let total_bytes = total_per_receiver * n as f64;
    // Hard stop so a zero-drain receiver cannot loop forever.
    let max_time = 1000.0 * total_bytes / (DRAIN_RATE * n as f64);

    while received.iter().sum::<f64>() < total_bytes - 0.5 && t < max_time {
        t += dt;
        let occupancy: f64 = backlog.iter().sum();
        peak = peak.max(occupancy);
        let free = (FABRIC_BUFFER as f64 - occupancy).max(0.0);

        // Injection: every sender sprays all receivers equally, so the
        // aggregate offered injection to receiver r is `INJECT_RATE` (n
        // senders × rate/n each), limited by remaining data and by free
        // buffer shared proportionally to demand.
        let mut demand = vec![0.0f64; n];
        let mut total_demand = 0.0;
        for r in 0..n {
            let want = (INJECT_RATE * dt).min(to_send[r]);
            demand[r] = want;
            total_demand += want;
        }
        let admit_scale = if total_demand > 0.0 { (free / total_demand).min(1.0) } else { 0.0 };
        for r in 0..n {
            let injected = demand[r] * admit_scale;
            to_send[r] -= injected;
            backlog[r] += injected;
        }

        // Drain with head-of-line blocking. While the fabric is lightly
        // loaded packets flow freely; past a congestion knee, a receiver's
        // pull rate is throttled by the fraction of the buffer occupied by
        // *other* receivers' stuck packets (its own arrive in order and
        // drain fine). One lagging receiver thereby slows everyone —
        // the CM-5 observation.
        let occupancy_after: f64 = backlog.iter().sum();
        let congestion = occupancy_after / FABRIC_BUFFER as f64;
        const KNEE: f64 = 0.7;
        let pressure = ((congestion - KNEE) / (1.0 - KNEE)).clamp(0.0, 1.0);
        for r in 0..n {
            let foreign_frac = if occupancy_after > 0.0 {
                (occupancy_after - backlog[r]) / occupancy_after
            } else {
                0.0
            };
            let hol = (1.0 - pressure * foreign_frac).clamp(0.35, 1.0);
            let rate = DRAIN_RATE * drain_multipliers[r] * hol;
            let pulled = (rate * dt).min(backlog[r]);
            backlog[r] -= pulled;
            received[r] += pulled;
        }
    }

    let elapsed = SimDuration::from_secs_f64(t);
    TransposeResult { elapsed, goodput: total_bytes / t, peak_occupancy: peak.round() as u64 }
}

/// Completion time of a barrier-synchronised transpose: `n` phases, each
/// gated by its slowest receiver — the static-parallelism reference model.
pub fn barrier_transpose_time(drain_multipliers: &[f64]) -> SimDuration {
    assert_eq!(drain_multipliers.len(), NODES, "one multiplier per node");
    let slowest = drain_multipliers.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::INFINITY);
    assert!(slowest > 0.0, "a zero-rate receiver never finishes");
    let phase = BYTES_PER_PAIR as f64 / (DRAIN_RATE * slowest).min(INJECT_RATE);
    SimDuration::from_secs_f64(phase * NODES as f64)
}

/// Convenience: elapsed time of a fully healthy transpose.
pub fn healthy_baseline() -> TransposeResult {
    run_transpose(&[1.0; NODES])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_transpose_hits_wire_speed() {
        let r = healthy_baseline();
        // 16 nodes × 16 MB at an aggregate 320 MB/s ≈ 0.8 s.
        let ideal =
            (BYTES_PER_PAIR * NODES as u64 * NODES as u64) as f64 / (DRAIN_RATE * NODES as f64);
        let ratio = r.elapsed.as_secs_f64() / ideal;
        assert!((1.0..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn one_slow_receiver_collapses_global_throughput() {
        // The headline CM-5 result: a receiver at 1/3 speed costs the whole
        // transpose close to 3x.
        let healthy = healthy_baseline();
        let mut mult = vec![1.0; NODES];
        mult[5] = 1.0 / 3.0;
        let degraded = run_transpose(&mult);
        let slowdown = degraded.elapsed.as_secs_f64() / healthy.elapsed.as_secs_f64();
        assert!(slowdown > 2.0, "slowdown {slowdown}");
        assert!(slowdown < 4.5, "slowdown {slowdown}");
    }

    #[test]
    fn slow_receiver_fills_the_fabric() {
        let mut mult = vec![1.0; NODES];
        mult[0] = 0.2;
        let r = run_transpose(&mult);
        assert!(
            r.peak_occupancy > FABRIC_BUFFER / 2,
            "peak {} of {}",
            r.peak_occupancy,
            FABRIC_BUFFER
        );
    }

    #[test]
    fn barrier_model_tracks_slowest() {
        let healthy = barrier_transpose_time(&[1.0; NODES]);
        let mut mult = vec![1.0; NODES];
        mult[0] = 0.5;
        let degraded = barrier_transpose_time(&mult);
        let ratio = degraded.as_secs_f64() / healthy.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn goodput_is_consistent_with_elapsed() {
        let r = healthy_baseline();
        let total = (BYTES_PER_PAIR * (NODES * NODES) as u64) as f64;
        let recomputed = total / r.elapsed.as_secs_f64();
        assert!((recomputed / r.goodput - 1.0).abs() < 1e-9);
    }
}
