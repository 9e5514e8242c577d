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

/// Number of routes (destinations) the transfer spans.
const ROUTES: usize = 2;
/// Bytes that must be delivered on each route.
const BYTES_PER_ROUTE: f64 = 1e9;
/// Shared port capacity, bytes/second.
const CAPACITY: f64 = 100e6;
/// Controller epoch length.
const EPOCH: SimDuration = SimDuration::from_millis(100);
/// Additive increase per epoch, bytes/second.
const INCREASE: f64 = 1e6;
/// Multiplicative decrease on congestion.
const DECREASE: f64 = 0.5;

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
pub fn run_adaptive_transfer(arb: PortArbitration) -> TransferOutcome {
    let dt = EPOCH.as_secs_f64();
    let floor = INCREASE; // rates never fall below one increment
    let mut rate = [floor; ROUTES];
    let mut remaining = [BYTES_PER_ROUTE; ROUTES];
    // Per-route port queue: congestion is signalled by standing backlog,
    // which keeps the port busy through AIMD sawteeth (as real buffers do).
    let mut queue = [0.0f64; ROUTES];
    let queue_threshold = CAPACITY * dt; // one epoch of data
    let mut finish = [None::<u64>; ROUTES];
    // Retransmission-timeout state: a starved route backs off
    // exponentially before probing again (capped at 32 epochs).
    let mut backoff_exp = [0u32; ROUTES];
    let mut backoff_until = [0u64; ROUTES];
    let mut epoch = 0u64;

    while remaining.iter().any(|&r| r > 0.0) || queue.iter().any(|&q| q > 0.0) {
        epoch += 1;
        assert!(epoch < 1_000_000, "transfer failed to converge");
        // Enqueue this epoch's offered load (routes in timeout stay quiet).
        for i in 0..ROUTES {
            if epoch < backoff_until[i] {
                continue;
            }
            let offer = (rate[i] * dt).min(remaining[i]);
            queue[i] += offer;
            remaining[i] -= offer;
        }
        // Arbitrate the shared port over the queues.
        let budget = CAPACITY * dt;
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
        for i in 0..ROUTES {
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
                rate[i] = (rate[i] * DECREASE).max(floor);
            } else {
                backoff_exp[i] = 0;
                rate[i] = (rate[i] + INCREASE).min(CAPACITY);
            }
        }
    }

    let route_finish: Vec<SimDuration> =
        finish.iter().map(|f| EPOCH * f.expect("all routes finished")).collect();
    let elapsed = route_finish.iter().copied().max().expect("non-empty");
    let total = BYTES_PER_ROUTE * ROUTES as f64;
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
        let out = run_adaptive_transfer(PortArbitration::Fair);
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
        let fair = run_adaptive_transfer(PortArbitration::Fair);
        let unfair = run_adaptive_transfer(PortArbitration::Priority);
        let slowdown = unfair.elapsed.as_secs_f64() / fair.elapsed.as_secs_f64();
        assert!((1.15..2.0).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn disfavoured_route_finishes_last_under_priority() {
        let out = run_adaptive_transfer(PortArbitration::Priority);
        assert!(out.route_finish[1] > out.route_finish[0]);
    }

    #[test]
    fn fair_routes_finish_together() {
        let out = run_adaptive_transfer(PortArbitration::Fair);
        let diff = (out.route_finish[0].as_secs_f64() - out.route_finish[1].as_secs_f64()).abs();
        assert!(diff < 1.0, "finish gap {diff}");
    }

    #[test]
    fn goodput_consistent_with_elapsed() {
        let out = run_adaptive_transfer(PortArbitration::Fair);
        let recomputed = 2e9 / out.elapsed.as_secs_f64();
        assert!((recomputed / out.goodput - 1.0).abs() < 1e-9);
    }
}
