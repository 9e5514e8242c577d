//! Model oracles for the performance-state plane.
//!
//! Each check takes a finished [`PlaneRun`] and returns the violations it
//! found (empty = pass), mirroring the three-valued oracle style of the
//! campaign harness:
//!
//! * [`check_convergence`] — with faults quiescent and the carrier alive,
//!   every node's view of every component settles on the origin's final
//!   class within an `O(log n)`-rounds allowance (eventual convergence of
//!   anti-entropy gossip).
//! * [`check_no_false_failstop`] — bounded stutter is never promoted to
//!   fail-stop: no tombstone exists anywhere for a component that did not
//!   truly exceed the paper's threshold `T`.
//! * [`check_monotone`] — per-node histories only move forward: arrival
//!   times non-decreasing, sequence numbers strictly increasing,
//!   tombstones terminal, and confidence decay monotone in age.
//! * [`check_plane_degraded`] — metamorphic: slowing the plane's own
//!   carrier must never *improve* a consumer's throughput.

use simcore::time::{SimDuration, SimTime};
use stutter::fault::HealthState;
use stutter::injector::SlowdownProfile;

use crate::gossip::{PlaneRun, PERSISTENCE, REFRESH_INTERVAL};
use crate::view::confidence_at;

pub use stutter::oracle::Violation;

fn same_class(a: HealthState, b: HealthState) -> bool {
    matches!(
        (a, b),
        (HealthState::Healthy, HealthState::Healthy)
            | (HealthState::PerfFaulty { .. }, HealthState::PerfFaulty { .. })
            | (HealthState::Failed, HealthState::Failed)
    )
}

fn class_name(s: HealthState) -> &'static str {
    match s {
        HealthState::Healthy => "Healthy",
        HealthState::PerfFaulty { .. } => "PerfFaulty",
        HealthState::Failed => "Failed",
    }
}

/// The longest continuous zero-rate interval of a profile within the
/// horizon. A profile with an absolute failure inside the horizon outages
/// forever, reported as [`SimDuration::MAX`].
pub fn longest_outage(profile: &SlowdownProfile, horizon: SimDuration) -> SimDuration {
    let end = SimTime::ZERO + horizon;
    if profile.fail_at().is_some_and(|f| f <= end) {
        return SimDuration::MAX;
    }
    let segs = profile.segments();
    let mut longest = SimDuration::ZERO;
    let mut zero_start: Option<SimTime> = None;
    for (idx, &(start, m)) in segs.iter().enumerate() {
        if start >= end {
            break;
        }
        let seg_end = segs.get(idx + 1).map_or(end, |&(s, _)| s.min(end));
        if m <= 0.0 {
            let since = *zero_start.get_or_insert(start);
            longest = longest.max(seg_end.saturating_since(since));
        } else {
            zero_start = None;
        }
    }
    longest
}

/// Ceil(log2 n) for n ≥ 1.
fn log2_ceil(n: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    (usize::BITS - (n - 1).leading_zeros()) as u64
}

/// How long after quiescence the convergence oracle allows views to still
/// disagree: `2 · (ceil(log2 n) + 3)` gossip rounds (push-pull epidemic
/// dissemination plus generous slack for fanout collisions), one heartbeat
/// period, the registry persistence window, and any carrier outage the
/// caller knows about (`link_slack`, e.g. from [`longest_outage`] over the
/// link profiles).
pub fn convergence_allowance(run: &PlaneRun, link_slack: SimDuration) -> SimDuration {
    let rounds = 2 * (log2_ceil(run.nodes()) + 3);
    run.config.gossip_interval * rounds + REFRESH_INTERVAL + PERSISTENCE + link_slack
}

/// The largest [`longest_outage`] across a spec's link timelines, or
/// `None` if some link is permanently dead within the horizon (in which
/// case convergence cannot be promised and the oracle should be skipped).
pub fn link_slack(
    profiles: &[Option<SlowdownProfile>],
    horizon: SimDuration,
) -> Option<SimDuration> {
    let mut slack = SimDuration::ZERO;
    for p in profiles.iter().flatten() {
        let outage = longest_outage(p, horizon);
        if outage == SimDuration::MAX {
            return None;
        }
        slack = slack.max(outage);
    }
    Some(slack)
}

/// Eventual convergence: for every component whose origin's exported class
/// was quiescent for at least `allowance` before the horizon, every node
/// must (a) hold an entry of that final class and (b) hold it at age at
/// most one heartbeat period ([`REFRESH_INTERVAL`]) plus `allowance`.
///
/// Callers must gate this on a carrier with no permanent link failures
/// (see [`link_slack`]); a partitioned plane legitimately diverges.
pub fn check_convergence(run: &PlaneRun, allowance: SimDuration) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (c, origin_view) in run.views.iter().enumerate() {
        let component = stutter::fault::ComponentId(c as u32);
        let publishes = origin_view.history(component);
        let Some(&(_, last)) = publishes.last() else { continue };
        // Quiescence check: when did the origin last *change class*?
        let settled_at = publishes
            .iter()
            .rev()
            .take_while(|(_, e)| same_class(e.state, last.state))
            .map(|&(at, _)| at)
            .last()
            .unwrap_or(SimTime::ZERO);
        if run.end.saturating_since(settled_at) < allowance {
            continue; // still in the grey zone — no promise yet
        }
        for (i, view) in run.views.iter().enumerate() {
            match view.entry_at(component, run.end) {
                None => violations.push(Violation {
                    oracle: "plane/convergence",
                    detail: format!("node {i} never heard of component {c}"),
                }),
                Some(e) => {
                    if !same_class(e.state, last.state) {
                        violations.push(Violation {
                            oracle: "plane/convergence",
                            detail: format!(
                                "node {i} sees component {c} as {} but origin settled on {}",
                                class_name(e.state),
                                class_name(last.state)
                            ),
                        });
                    }
                    let age = run.end.saturating_since(e.observed_at);
                    let bound = REFRESH_INTERVAL + allowance;
                    if !e.is_tombstone() && age > bound {
                        violations.push(Violation {
                            oracle: "plane/convergence",
                            detail: format!(
                                "node {i}'s entry for component {c} is {:.1}s old (bound {:.1}s)",
                                age.as_secs_f64(),
                                bound.as_secs_f64()
                            ),
                        });
                    }
                }
            }
        }
    }
    violations
}

/// No false fail-stop: a component that never truly exceeded the threshold
/// `T` must have no tombstone anywhere in the plane — regardless of how
/// badly the carrier stuttered. Holds unconditionally because only the
/// origin's own zero-run clock can mint a tombstone.
pub fn check_no_false_failstop(run: &PlaneRun) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (i, view) in run.views.iter().enumerate() {
        for component in view.components() {
            if run.truly_failed.get(component.0 as usize).copied().unwrap_or(false) {
                continue;
            }
            if view.history(component).iter().any(|(_, e)| e.is_tombstone()) {
                violations.push(Violation {
                    oracle: "plane/no-false-fail-stop",
                    detail: format!(
                        "node {i} holds a tombstone for component {component} that never failed"
                    ),
                });
            }
        }
    }
    violations
}

/// Monotone staleness: accepted histories only move forward (arrival times
/// non-decreasing, sequence numbers strictly increasing, nothing after a
/// tombstone), and the staleness confidence function is monotone
/// non-increasing in age.
pub fn check_monotone(run: &PlaneRun) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (i, view) in run.views.iter().enumerate() {
        for component in view.components() {
            let h = view.history(component);
            for w in h.windows(2) {
                let (at_a, a) = w[0];
                let (at_b, b) = w[1];
                if at_b < at_a {
                    violations.push(Violation {
                        oracle: "plane/monotone-staleness",
                        detail: format!(
                            "node {i} history for {component} goes backwards in arrival time"
                        ),
                    });
                }
                if b.seq <= a.seq {
                    violations.push(Violation {
                        oracle: "plane/monotone-staleness",
                        detail: format!(
                            "node {i} accepted seq {} after {} for {component}",
                            b.seq, a.seq
                        ),
                    });
                }
                if a.is_tombstone() {
                    violations.push(Violation {
                        oracle: "plane/monotone-staleness",
                        detail: format!(
                            "node {i} accepted an entry after a tombstone for {component}"
                        ),
                    });
                }
            }
        }
    }
    violations.extend(check_confidence_decay());
    violations
}

fn check_confidence_decay() -> Vec<Violation> {
    let ages: Vec<SimDuration> = (0..=8).map(|k| SimDuration::from_secs(k * 15)).collect();
    let mut violations = Vec::new();
    for w in ages.windows(2) {
        let (c0, c1) = (confidence_at(w[0]), confidence_at(w[1]));
        if c1 > c0 || !c0.is_finite() || !(0.0..=1.0).contains(&c0) {
            violations.push(Violation {
                oracle: "plane/monotone-staleness",
                detail: format!(
                    "confidence not monotone in [0,1]: {:.3} at {:?} vs {:.3} at {:?}",
                    c0, w[0], c1, w[1]
                ),
            });
        }
    }
    violations
}

/// Metamorphic plane-degraded check: a consumer driven by a *slower*
/// plane must not do better than the same consumer on the fresh plane
/// (beyond `tolerance`, a small fraction allowing for benign tie-breaks).
pub fn check_plane_degraded(
    fresh_throughput: f64,
    degraded_throughput: f64,
    tolerance: f64,
) -> Vec<Violation> {
    if degraded_throughput <= fresh_throughput * (1.0 + tolerance) {
        return Vec::new();
    }
    vec![Violation {
        oracle: "plane/degraded-never-helps",
        detail: format!(
            "degraded plane got {degraded_throughput:.0} u/s vs {fresh_throughput:.0} fresh"
        ),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::{run_plane, PlaneConfig, PlaneSpec};
    use simcore::rng::Stream;

    fn drifting_spec(n: usize) -> PlaneSpec {
        let mut spec = PlaneSpec::homogeneous(PlaneConfig::default(), n, 10e6);
        spec.components[0].profile = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(60), 0.4),
        ]);
        spec
    }

    #[test]
    fn longest_outage_walks_segments() {
        let p = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(10), 0.0),
            (SimTime::from_secs(13), 0.0),
            (SimTime::from_secs(25), 1.0),
            (SimTime::from_secs(40), 0.0),
            (SimTime::from_secs(45), 1.0),
        ]);
        assert_eq!(longest_outage(&p, SimDuration::from_secs(600)), SimDuration::from_secs(15));
        // Truncated by the horizon.
        assert_eq!(longest_outage(&p, SimDuration::from_secs(20)), SimDuration::from_secs(10));
        // Absolute failure dominates everything.
        let dead = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(5));
        assert_eq!(longest_outage(&dead, SimDuration::from_secs(600)), SimDuration::MAX);
        assert_eq!(
            longest_outage(&SlowdownProfile::nominal(), SimDuration::from_secs(600)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn quiescent_drift_converges_within_allowance() {
        for n in [3usize, 6, 10] {
            let spec = drifting_spec(n);
            let run = run_plane(&spec, &mut Stream::from_seed(n as u64));
            let slack = link_slack(&spec.link_profiles, spec.config.horizon).unwrap();
            let allowance = convergence_allowance(&run, slack);
            let v = check_convergence(&run, allowance);
            assert!(v.is_empty(), "n={n}: {:?}", v);
            assert!(check_no_false_failstop(&run).is_empty());
            assert!(check_monotone(&run).is_empty());
        }
    }

    #[test]
    fn convergence_oracle_fires_on_a_cooked_divergence() {
        let spec = drifting_spec(4);
        let mut run = run_plane(&spec, &mut Stream::from_seed(3));
        // Forge a node that never heard about component 0.
        run.views[2] = crate::view::StalenessView::new(Default::default(), spec.config.stale_after);
        let allowance = convergence_allowance(&run, SimDuration::ZERO);
        let v = check_convergence(&run, allowance);
        assert!(v.iter().any(|v| v.detail.contains("never heard")), "{v:?}");
    }

    #[test]
    fn link_slack_reports_outages_and_refuses_dead_links() {
        let horizon = SimDuration::from_secs(600);
        let flaky = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(100), 0.0),
            (SimTime::from_secs(120), 1.0),
        ]);
        let profiles = vec![None, Some(flaky)];
        assert_eq!(link_slack(&profiles, horizon), Some(SimDuration::from_secs(20)));
        let dead = vec![Some(SlowdownProfile::nominal().with_failure_at(SimTime::ZERO))];
        assert_eq!(link_slack(&dead, horizon), None);
    }

    #[test]
    fn degraded_check_only_fires_when_slower_plane_wins() {
        assert!(check_plane_degraded(100.0, 90.0, 0.05).is_empty());
        assert!(check_plane_degraded(100.0, 104.0, 0.05).is_empty());
        assert!(!check_plane_degraded(100.0, 120.0, 0.05).is_empty());
    }
}
