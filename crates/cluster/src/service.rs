//! A partitioned network service: harvest vs yield under stutter.
//!
//! The paper's introduction names search engines among the systems built
//! on parallel-performance assumptions (Fox et al.'s cluster-based
//! scalable network services — Inktomi). A query fans out to every index
//! partition and, naively, completes when the *slowest* partition answers
//! — so one stuttering worker inflates every query's tail latency.
//!
//! The fail-stutter-tolerant design is Fox et al.'s harvest/yield
//! trade-off: answer by a deadline with whatever partitions have
//! responded. Yield (queries answered acceptably) stays high; harvest
//! (fraction of the index consulted) degrades only while the stutter
//! lasts.

use simcore::resource::FcfsServer;
use simcore::stats::Histogram;
use simcore::time::{SimDuration, SimTime};
use stutter::component::Component;
use stutter::injector::{Cursor, SlowdownProfile};

/// One index partition server.
#[derive(Clone, Debug)]
pub struct Partition {
    component: Component,
    cursor: Cursor,
    server: FcfsServer,
}

impl Partition {
    /// A partition serving `rate` queries/second when healthy.
    pub fn new(rate: f64) -> Self {
        Partition {
            component: Component::new(rate),
            cursor: Cursor::default(),
            server: FcfsServer::new(),
        }
    }

    /// Attaches a stutter timeline.
    pub fn with_profile(mut self, profile: SlowdownProfile) -> Self {
        self.component.profile = profile;
        self
    }

    /// Serves one query arriving at `now`; returns the completion time, or
    /// `None` if the partition has fail-stopped.
    fn serve(&mut self, now: SimTime) -> Option<SimTime> {
        let rate = self.component.nominal;
        let grant = self.component.profile.serve(&mut self.cursor, &mut self.server, now, |m| {
            SimDuration::from_secs_f64(1.0 / (rate * m))
        });
        grant.map(|g| g.finish)
    }
}

/// Response policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ResponsePolicy {
    /// Wait for every partition (full harvest, unbounded tail).
    Full,
    /// Answer at the deadline with the partitions that made it.
    PartialHarvest {
        /// Per-query response deadline.
        deadline: SimDuration,
    },
}

/// Aggregate metrics of a service run.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// Latency distribution (milliseconds).
    pub latency_ms: Histogram,
    /// Mean harvest: fraction of partitions included per response.
    pub mean_harvest: f64,
    /// Yield: fraction of queries answered within `acceptable`.
    pub yield_fraction: f64,
}

/// Runs `queries` queries arriving every `interarrival` against the
/// partitions, with acceptability threshold `acceptable`.
pub fn run_service(
    partitions: &mut [Partition],
    queries: u64,
    interarrival: SimDuration,
    policy: ResponsePolicy,
    acceptable: SimDuration,
) -> ServiceOutcome {
    assert!(!partitions.is_empty(), "a service needs partitions");
    assert!(queries > 0, "no queries offered");
    let n = partitions.len() as f64;
    let mut latency_ms = Histogram::new();
    let mut harvest_sum = 0.0;
    let mut acceptable_count = 0u64;
    let mut t = SimTime::ZERO;

    for _ in 0..queries {
        t += interarrival;
        let mut answered = 0u64;
        let mut slowest = t;
        let mut slowest_within_deadline = t;
        let deadline = match policy {
            ResponsePolicy::Full => None,
            ResponsePolicy::PartialHarvest { deadline } => Some(t + deadline),
        };
        for p in partitions.iter_mut() {
            match p.serve(t) {
                Some(done) => match deadline {
                    Some(d) if done > d => {
                        // Response misses the cut: excluded from harvest.
                    }
                    _ => {
                        answered += 1;
                        slowest = slowest.max(done);
                        slowest_within_deadline = slowest_within_deadline.max(done);
                    }
                },
                None => {
                    // Fail-stopped partition: under Full the query can
                    // never be complete; treat as an unbounded straggler.
                    if deadline.is_none() {
                        slowest = SimTime::MAX;
                    }
                }
            }
        }
        let (latency, harvest) = match policy {
            ResponsePolicy::Full => {
                let lat = if slowest == SimTime::MAX {
                    // Never completes: record a 100 s timeout disaster.
                    SimDuration::from_secs(100)
                } else {
                    slowest - t
                };
                (lat, 1.0)
            }
            ResponsePolicy::PartialHarvest { deadline } => {
                let lat = (slowest_within_deadline - t).min(deadline);
                (lat, answered as f64 / n)
            }
        };
        latency_ms.record(latency.as_secs_f64() * 1e3);
        harvest_sum += harvest;
        if latency <= acceptable {
            acceptable_count += 1;
        }
    }

    ServiceOutcome {
        latency_ms,
        mean_harvest: harvest_sum / queries as f64,
        yield_fraction: acceptable_count as f64 / queries as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;
    use stutter::injector::{DurationDist, Injector};

    const ACCEPTABLE: SimDuration = SimDuration::from_millis(200);

    fn healthy(n: usize) -> Vec<Partition> {
        (0..n).map(|_| Partition::new(100.0)).collect()
    }

    fn with_stutterer(n: usize, seed: u64) -> Vec<Partition> {
        let gc = Injector::Episodes {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(10) },
            duration: DurationDist::Const(SimDuration::from_secs(2)),
            factor: 0.02,
        };
        let mut parts = healthy(n);
        parts[3] = Partition::new(100.0)
            .with_profile(gc.timeline(SimDuration::from_secs(600), &mut Stream::from_seed(seed)));
        parts
    }

    #[test]
    fn healthy_service_fast_and_complete() {
        for policy in [
            ResponsePolicy::Full,
            ResponsePolicy::PartialHarvest { deadline: SimDuration::from_millis(100) },
        ] {
            let mut parts = healthy(8);
            let out =
                run_service(&mut parts, 2_000, SimDuration::from_millis(20), policy, ACCEPTABLE);
            assert_eq!(out.yield_fraction, 1.0, "{policy:?}");
            assert!((out.mean_harvest - 1.0).abs() < 1e-9, "{policy:?}");
            assert!(out.latency_ms.quantile(0.99) < 50.0, "{policy:?}");
        }
    }

    #[test]
    fn full_policy_tail_tracks_the_stutterer() {
        let mut parts = with_stutterer(8, 1);
        let out = run_service(
            &mut parts,
            5_000,
            SimDuration::from_millis(20),
            ResponsePolicy::Full,
            ACCEPTABLE,
        );
        // Episodes at 2% speed stretch a 10 ms query to ~500 ms and queue
        // behind each other: the tail explodes and yield collapses.
        assert!(out.latency_ms.quantile(0.99) > 400.0, "p99 {}", out.latency_ms.quantile(0.99));
        assert!(out.yield_fraction < 0.9, "yield {}", out.yield_fraction);
        assert!((out.mean_harvest - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_harvest_trades_completeness_for_yield() {
        let mut parts = with_stutterer(8, 1);
        let out = run_service(
            &mut parts,
            5_000,
            SimDuration::from_millis(20),
            ResponsePolicy::PartialHarvest { deadline: SimDuration::from_millis(100) },
            ACCEPTABLE,
        );
        assert_eq!(out.yield_fraction, 1.0, "every query answered on time");
        // Harvest dips only during the episodes: one of eight partitions,
        // a fraction of the time.
        assert!(out.mean_harvest > 0.9, "harvest {}", out.mean_harvest);
        assert!(out.mean_harvest < 1.0, "harvest must show the stutter");
    }

    #[test]
    fn failed_partition_kills_full_but_not_partial() {
        let mut parts = healthy(4);
        parts[2] = Partition::new(100.0)
            .with_profile(SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(1)));
        let mut full_parts = parts.clone();
        let full = run_service(
            &mut full_parts,
            500,
            SimDuration::from_millis(20),
            ResponsePolicy::Full,
            ACCEPTABLE,
        );
        assert!(full.yield_fraction < 0.2, "{}", full.yield_fraction);

        let partial = run_service(
            &mut parts,
            500,
            SimDuration::from_millis(20),
            ResponsePolicy::PartialHarvest { deadline: SimDuration::from_millis(100) },
            ACCEPTABLE,
        );
        assert_eq!(partial.yield_fraction, 1.0);
        // Harvest settles at 3/4 once the partition dies.
        assert!(partial.mean_harvest < 0.85, "{}", partial.mean_harvest);
        assert!(partial.mean_harvest > 0.70, "{}", partial.mean_harvest);
    }
}
