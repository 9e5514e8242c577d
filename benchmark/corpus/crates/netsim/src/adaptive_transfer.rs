//! A global adaptive data transfer over an unfair switch.
//!
//! Paper §2.1.3 (Unfairness): "the nodes behind disfavored links appear
//! 'slower' to a sender, even though they are fully capable of receiving
//! data at link rate. In that work, the unfairness resulted in a 50%
//! slowdown to a global adaptive data transfer."
//!
//! The mechanism is subtle: an *adaptive* sender probes each route with
//! AIMD-style control and backs off where it observes congestion. A
//! priority arbiter starves the disfavoured route, so the controller
//! (correctly!) collapses that route's rate — and when the favoured route
//! finishes, the starved route must ramp back up additively from its
//! floor, wasting capacity the whole time. Work-conserving arbitration
//! with non-adaptive senders would not lose a byte; the combination of
//! unfairness and adaptation does.

use simcore::time::SimDuration;

/// How the shared output port divides its capacity among offered loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortArbitration {
    /// Max-min fair sharing.
    Fair,
    /// Strict priority: route 0 first, then route 1, etc.
    Priority,
}

/// Configuration of the adaptive transfer.
#[derive(Clone, Copy, Debug)]
pub struct TransferConfig {
    /// Number of routes (destinations) the transfer spans.
    pub routes: usize,
    /// Bytes that must be delivered on each route.
    pub bytes_per_route: f64,
    /// Shared port capacity, bytes/second.
    pub capacity: f64,
    /// Controller epoch length.
    pub epoch: SimDuration,
    /// Additive increase per epoch, bytes/second.
    pub increase: f64,
    /// Multiplicative decrease on congestion.
    pub decrease: f64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            routes: 2,
            bytes_per_route: 1e9,
            capacity: 100e6,
            epoch: SimDuration::from_millis(100),
            increase: 1e6,
            decrease: 0.5,
        }
    }
}

/// Result of one transfer run.
#[derive(Clone, Debug, PartialEq)]
pub struct TransferOutcome {
    /// End-to-end completion time.
    pub elapsed: SimDuration,
    /// Mean goodput over the transfer, bytes/second.
    pub goodput: f64,
    /// When each route finished.
    pub route_finish: Vec<SimDuration>,
}

/// Runs the adaptive transfer to completion (bounded at 10⁶ epochs).
pub fn run_adaptive_transfer(config: &TransferConfig, arb: PortArbitration) -> TransferOutcome {
    assert!(config.routes >= 1, "need at least one route");
    let dt = config.epoch.as_secs_f64();
    let floor = config.increase; // rates never fall below one increment
    let mut rate = vec![floor; config.routes];
    let mut remaining = vec![config.bytes_per_route; config.routes];
    // Per-route port queue: congestion is signalled by standing backlog,
    // which keeps the port busy through AIMD sawteeth (as real buffers do).
    let mut queue = vec![0.0f64; config.routes];
    let queue_threshold = config.capacity * dt; // one epoch of data
    let mut finish = vec![None::<u64>; config.routes];
    // Retransmission-timeout state: a starved route backs off
    // exponentially before probing again (capped at 32 epochs).
    let mut backoff_exp = vec![0u32; config.routes];
    let mut backoff_until = vec![0u64; config.routes];
    let mut epoch = 0u64;

    while remaining.iter().any(|&r| r > 0.0) || queue.iter().any(|&q| q > 0.0) {
        epoch += 1;
        assert!(epoch < 1_000_000, "transfer failed to converge");
        // Enqueue this epoch's offered load (routes in timeout stay quiet).
        for i in 0..config.routes {
            if epoch < backoff_until[i] {
                continue;
            }
            let offer = (rate[i] * dt).min(remaining[i]);
            queue[i] += offer;
            remaining[i] -= offer;
        }
        // Arbitrate the shared port over the queues.
        let budget = config.capacity * dt;
        let served: Vec<f64> = match arb {
            PortArbitration::Fair => max_min_share(&queue, budget),
            PortArbitration::Priority => {
                let mut left = budget;
                queue
                    .iter()
                    .map(|&q| {
                        let s = q.min(left);
                        left -= s;
                        s
                    })
                    .collect()
            }
        };
        // Deliver and adapt.
        for i in 0..config.routes {
            queue[i] -= served[i];
            if remaining[i] <= 0.0 && queue[i] <= 1e-9 && finish[i].is_none() {
                finish[i] = Some(epoch);
            }
            if remaining[i] <= 0.0 && queue[i] <= 1e-9 {
                continue;
            }
            if epoch < backoff_until[i] {
                continue;
            }
            if served[i] <= 1e-9 && queue[i] > 1e-9 {
                // Completely starved: a retransmission timeout. Reset to
                // the floor and back off exponentially before probing.
                rate[i] = floor;
                backoff_exp[i] = (backoff_exp[i] + 1).min(5);
                backoff_until[i] = epoch + (1u64 << backoff_exp[i]);
            } else if queue[i] > queue_threshold {
                // Standing backlog: this route is congested — back off.
                backoff_exp[i] = 0;
                rate[i] = (rate[i] * config.decrease).max(floor);
            } else {
                backoff_exp[i] = 0;
                rate[i] = (rate[i] + config.increase).min(config.capacity);
            }
        }
    }

    let route_finish: Vec<SimDuration> =
        finish.iter().map(|f| config.epoch * f.expect("all routes finished")).collect();
    let elapsed = route_finish.iter().copied().max().expect("non-empty");
    let total = config.bytes_per_route * config.routes as f64;
    TransferOutcome { elapsed, goodput: total / elapsed.as_secs_f64(), route_finish }
}

/// Max-min fair allocation of `budget` among `demands`.
fn max_min_share(demands: &[f64], budget: f64) -> Vec<f64> {
    let mut alloc = vec![0.0; demands.len()];
    let mut left = budget;
    let mut active: Vec<usize> = (0..demands.len()).filter(|&i| demands[i] > 0.0).collect();
    while !active.is_empty() && left > 1e-12 {
        let share = left / active.len() as f64;
        let mut satisfied = Vec::new();
        for &i in &active {
            let want = demands[i] - alloc[i];
            if want <= share {
                alloc[i] = demands[i];
                left -= want;
                satisfied.push(i);
            }
        }
        if satisfied.is_empty() {
            for &i in &active {
                alloc[i] += share;
            }
            left = 0.0;
        } else {
            active.retain(|i| !satisfied.contains(i));
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_min_respects_demands_and_budget() {
        let a = max_min_share(&[10.0, 50.0, 100.0], 90.0);
        assert!((a.iter().sum::<f64>() - 90.0).abs() < 1e-9);
        assert!((a[0] - 10.0).abs() < 1e-9);
        assert!((a[1] - 40.0).abs() < 1e-9);
        assert!((a[2] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_underload_serves_everything() {
        let a = max_min_share(&[10.0, 20.0], 100.0);
        assert_eq!(a, vec![10.0, 20.0]);
    }

    #[test]
    fn fair_arbitration_reaches_near_capacity() {
        let cfg = TransferConfig::default();
        let out = run_adaptive_transfer(&cfg, PortArbitration::Fair);
        // 2 GB at up to 100 MB/s: ideal 20 s; AIMD sawtooth costs some.
        let ideal = 2e9 / 100e6;
        let ratio = out.elapsed.as_secs_f64() / ideal;
        assert!((1.0..1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn priority_arbitration_slows_the_adaptive_transfer() {
        // The headline shape: the *same* adaptive transfer is materially
        // slower when the switch arbitrates unfairly — the controller
        // collapses the disfavoured route's rate and pays timeouts plus a
        // cold ramp after the favoured route drains. (The 1999 system
        // measured 50%; our AIMD recovers from starvation faster than its
        // transport did, so the penalty lands lower but on the same
        // mechanism.)
        let cfg = TransferConfig::default();
        let fair = run_adaptive_transfer(&cfg, PortArbitration::Fair);
        let unfair = run_adaptive_transfer(&cfg, PortArbitration::Priority);
        let slowdown = unfair.elapsed.as_secs_f64() / fair.elapsed.as_secs_f64();
        assert!((1.15..2.0).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn disfavoured_route_finishes_last_under_priority() {
        let cfg = TransferConfig::default();
        let out = run_adaptive_transfer(&cfg, PortArbitration::Priority);
        assert!(out.route_finish[1] > out.route_finish[0]);
    }

    #[test]
    fn fair_routes_finish_together() {
        let cfg = TransferConfig::default();
        let out = run_adaptive_transfer(&cfg, PortArbitration::Fair);
        let diff = (out.route_finish[0].as_secs_f64() - out.route_finish[1].as_secs_f64()).abs();
        assert!(diff < 1.0, "finish gap {diff}");
    }

    #[test]
    fn goodput_consistent_with_elapsed() {
        let cfg = TransferConfig::default();
        let out = run_adaptive_transfer(&cfg, PortArbitration::Fair);
        let recomputed = 2e9 / out.elapsed.as_secs_f64();
        assert!((recomputed / out.goodput - 1.0).abs() < 1e-9);
    }
}
