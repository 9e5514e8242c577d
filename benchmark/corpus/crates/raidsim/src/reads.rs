//! RAID-1 read scheduling under fail-stutter.
//!
//! Writes must hit both replicas, but a read needs only one — so the read
//! path is where replica selection policy shows the fail-stop/fail-stutter
//! divide most cleanly:
//!
//! * [`ReadPolicy::Primary`] — always read replica A unless it has
//!   *failed* (fail-stop thinking: a slow primary is "working", so it
//!   keeps taking reads).
//! * [`ReadPolicy::Alternate`] — round-robin across live replicas
//!   (oblivious load spreading).
//! * [`ReadPolicy::FastestReplica`] — route each read to the replica with
//!   the better current rate (fail-stutter thinking).
//!
//! The same trichotomy as §3.2's write scenarios, on the read side.

use simcore::time::{SimDuration, SimTime};

use crate::controller::RaidError;
use crate::vdisk::MirrorPair;

/// How reads pick a replica within a mirror pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Always the first replica while it has not absolutely failed.
    Primary,
    /// Round-robin over replicas that have not absolutely failed.
    Alternate,
    /// The replica with the higher current delivered rate.
    FastestReplica,
}

/// Outcome of a read batch against one pair.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadOutcome {
    /// When the batch finished.
    pub elapsed: SimDuration,
    /// Aggregate read throughput, bytes/second.
    pub throughput: f64,
    /// Bytes served by each replica `(a, b)`.
    pub per_replica: (u64, u64),
}

/// Reads `requests` requests of `request_bytes` each from `pair`,
/// back-to-back starting at `start`, selecting replicas per `policy`.
///
/// Each replica serves its queue serially at its own (time-varying) rate;
/// the two replicas serve concurrently, so alternating policies can
/// overlap service.
pub fn read_workload(
    pair: &MirrorPair,
    policy: ReadPolicy,
    requests: u64,
    request_bytes: u64,
    start: SimTime,
    horizon: SimDuration,
) -> Result<ReadOutcome, RaidError> {
    assert!(requests > 0 && request_bytes > 0, "degenerate read batch");
    let profiles = [
        pair.a.profile().to_rate_profile(pair.a.nominal()),
        pair.b.profile().to_rate_profile(pair.b.nominal()),
    ];
    let mut next_free = [start, start];
    let mut served = [0u64, 0u64];
    let mut finish = start;
    let mut rr = 0usize;

    for _ in 0..requests {
        let a_dead = pair.a.failed_at(next_free[0]);
        let b_dead = pair.b.failed_at(next_free[1]);
        if a_dead && b_dead {
            return Err(RaidError::NoUsablePairs);
        }
        let replica = match policy {
            ReadPolicy::Primary => usize::from(a_dead),
            ReadPolicy::Alternate => {
                let pick = if a_dead {
                    1
                } else if b_dead {
                    0
                } else {
                    rr
                };
                rr = (pick + 1) % 2;
                pick
            }
            ReadPolicy::FastestReplica => {
                // Judge by projected completion on each live replica.
                let mut best = None;
                for (i, dead) in [(0, a_dead), (1, b_dead)] {
                    if dead {
                        continue;
                    }
                    if let Some(dt) =
                        profiles[i].time_to_transfer(next_free[i], request_bytes as f64)
                    {
                        let done = next_free[i] + dt;
                        if best.is_none_or(|(b, _)| done < b) {
                            best = Some((done, i));
                        }
                    }
                }
                match best {
                    Some((_, i)) => i,
                    None => return Err(RaidError::NoUsablePairs),
                }
            }
        };
        // If the chosen replica can never complete (it fail-stops before
        // finishing), fail over to the other one.
        let dt = match profiles[replica].time_to_transfer(next_free[replica], request_bytes as f64)
        {
            Some(dt) => dt,
            None => {
                let other = 1 - replica;
                match profiles[other].time_to_transfer(next_free[other], request_bytes as f64) {
                    Some(dt) => {
                        let replica = other;
                        next_free[replica] += dt;
                        served[replica] += request_bytes;
                        finish = finish.max(next_free[replica]);
                        continue;
                    }
                    None => return Err(RaidError::NoUsablePairs),
                }
            }
        };
        next_free[replica] += dt;
        served[replica] += request_bytes;
        finish = finish.max(next_free[replica]);
        if finish > start + horizon {
            return Err(RaidError::NoUsablePairs);
        }
    }

    let elapsed = finish - start;
    let total = (requests * request_bytes) as f64;
    Ok(ReadOutcome {
        elapsed,
        throughput: total / elapsed.as_secs_f64().max(1e-12),
        per_replica: (served[0], served[1]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vdisk::VDisk;
    use simcore::rng::Stream;
    use stutter::injector::{Injector, SlowdownProfile};

    const MB: f64 = 1e6;
    const HOUR: SimDuration = SimDuration::from_secs(3600);

    fn slow_primary_pair(factor: f64) -> MirrorPair {
        let slow = Injector::StaticSlowdown { factor }.timeline(HOUR, &mut Stream::from_seed(1));
        MirrorPair::new(VDisk::new(10.0 * MB).with_profile(slow), VDisk::new(10.0 * MB))
    }

    #[test]
    fn healthy_pair_alternate_doubles_read_bandwidth() {
        let pair = MirrorPair::healthy(10.0 * MB);
        let primary = read_workload(&pair, ReadPolicy::Primary, 100, 1 << 20, SimTime::ZERO, HOUR)
            .expect("alive");
        let alternate =
            read_workload(&pair, ReadPolicy::Alternate, 100, 1 << 20, SimTime::ZERO, HOUR)
                .expect("alive");
        assert!((primary.throughput / (10.0 * MB) - 1.0).abs() < 0.05);
        assert!((alternate.throughput / (20.0 * MB) - 1.0).abs() < 0.05);
        assert_eq!(alternate.per_replica.0, alternate.per_replica.1);
    }

    #[test]
    fn slow_primary_gates_primary_policy_only() {
        let pair = slow_primary_pair(0.2);
        let primary = read_workload(&pair, ReadPolicy::Primary, 50, 1 << 20, SimTime::ZERO, HOUR)
            .expect("alive");
        let fastest =
            read_workload(&pair, ReadPolicy::FastestReplica, 50, 1 << 20, SimTime::ZERO, HOUR)
                .expect("alive");
        // Primary reads at 2 MB/s; fastest-replica approaches 12 MB/s
        // (10 from the healthy replica + 2 from the slow one in parallel).
        assert!((primary.throughput / (2.0 * MB) - 1.0).abs() < 0.05, "{}", primary.throughput);
        assert!(fastest.throughput > 10.0 * MB, "{}", fastest.throughput);
        // The slow replica served some, but much less.
        assert!(fastest.per_replica.0 < fastest.per_replica.1 / 2);
    }

    #[test]
    fn alternate_policy_tracks_the_slow_replica() {
        // Oblivious round-robin: each replica gets half the requests, so
        // the batch finishes when the slow replica finishes its half.
        let pair = slow_primary_pair(0.2);
        let alt = read_workload(&pair, ReadPolicy::Alternate, 100, 1 << 20, SimTime::ZERO, HOUR)
            .expect("alive");
        // 50 MB on a 2 MB/s replica = 26.2 s; total 104.9 MB → ~4 MB/s.
        assert!(alt.throughput < 5.0 * MB, "{}", alt.throughput);
        let fastest =
            read_workload(&pair, ReadPolicy::FastestReplica, 100, 1 << 20, SimTime::ZERO, HOUR)
                .expect("alive");
        assert!(fastest.throughput > 2.0 * alt.throughput);
    }

    #[test]
    fn primary_fails_over_on_absolute_failure() {
        let dying = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(2));
        let pair =
            MirrorPair::new(VDisk::new(10.0 * MB).with_profile(dying), VDisk::new(10.0 * MB));
        let out = read_workload(&pair, ReadPolicy::Primary, 100, 1 << 20, SimTime::ZERO, HOUR)
            .expect("survivor carries reads");
        assert!(out.per_replica.0 > 0, "primary served before dying");
        assert!(out.per_replica.1 > out.per_replica.0, "survivor served the rest");
    }

    #[test]
    fn double_failure_errors() {
        let dead = SlowdownProfile::nominal().with_failure_at(SimTime::ZERO);
        let pair = MirrorPair::new(
            VDisk::new(10.0 * MB).with_profile(dead.clone()),
            VDisk::new(10.0 * MB).with_profile(dead),
        );
        for policy in [ReadPolicy::Primary, ReadPolicy::Alternate, ReadPolicy::FastestReplica] {
            let r = read_workload(&pair, policy, 10, 4_096, SimTime::ZERO, HOUR);
            assert_eq!(r, Err(RaidError::NoUsablePairs), "{policy:?}");
        }
    }

    #[test]
    fn fastest_replica_adapts_to_a_mid_batch_stutter() {
        // Replica A collapses to 10% at t = 5 s.
        let drift = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(5), 0.1),
        ]);
        let pair =
            MirrorPair::new(VDisk::new(10.0 * MB).with_profile(drift), VDisk::new(10.0 * MB));
        let out =
            read_workload(&pair, ReadPolicy::FastestReplica, 200, 1 << 20, SimTime::ZERO, HOUR)
                .expect("alive");
        // Most bytes end up on the healthy replica.
        assert!(out.per_replica.1 > out.per_replica.0);
        // Throughput stays above the healthy replica's solo rate.
        assert!(out.throughput > 9.5 * MB, "{}", out.throughput);
    }
}
