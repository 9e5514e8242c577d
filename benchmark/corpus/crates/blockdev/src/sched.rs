//! Disk request scheduling: throughput vs fairness.
//!
//! Schedulers are themselves a source of fail-stutter behaviour: a
//! seek-optimising policy (SSTF) improves mean latency but can starve
//! requests far from the head — from the starved client's point of view
//! the disk is performance-faulty, while global counters look great. This
//! is exactly the §3.1 point that "a performance failure from the
//! perspective of one component may not manifest itself to others".

use simcore::time::{SimDuration, SimTime};

use crate::disk::{Disk, DiskError};

/// Dispatch policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// First come, first served.
    Fcfs,
    /// Shortest seek time first (greedy by cylinder distance).
    Sstf,
}

/// A request handed to the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Arrival time.
    pub at: SimTime,
    /// First block.
    pub lba: u64,
    /// Length in blocks.
    pub nblocks: u64,
}

/// A completed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The request.
    pub request: Request,
    /// When it finished.
    pub finish: SimTime,
}

impl Completion {
    /// Queueing plus service latency.
    pub fn latency(&self) -> SimDuration {
        self.finish - self.request.at
    }
}

/// Runs a batch of requests through `disk` under `policy`, dispatching one
/// request at a time (the next is chosen when the previous completes).
///
/// Returns completions in dispatch order.
pub fn run_schedule(
    disk: &mut Disk,
    policy: SchedPolicy,
    requests: &[Request],
) -> Result<Vec<Completion>, DiskError> {
    // FCFS ties are broken by submission order on purpose: "first come"
    // among simultaneous arrivals *means* position in the caller's slice.
    let mut pending: Vec<(usize, Request)> = requests.iter().copied().enumerate().collect();
    pending.sort_by_key(|&(i, r)| (r.at, i));
    let mut done = Vec::with_capacity(pending.len());
    let mut now = SimTime::ZERO;
    let mut head_lba = 0u64;

    while !pending.is_empty() {
        // Requests that have arrived by `now`; if none, jump to the next
        // arrival.
        let arrived_end = pending.partition_point(|&(_, r)| r.at <= now);
        let pick = if arrived_end == 0 {
            now = pending[0].1.at;
            0
        } else {
            match policy {
                SchedPolicy::Fcfs => 0,
                SchedPolicy::Sstf => {
                    let geom = disk.geometry().clone();
                    let head_cyl = geom.cylinder_of(head_lba.min(geom.blocks - 1));
                    // Equal seek distance is a real tie (one request inward,
                    // one outward of the head): break it by arrival, then
                    // request content, so the pick is a function of the
                    // request set and never of queue order.
                    (0..arrived_end)
                        .min_by_key(|&i| {
                            let r = pending[i].1;
                            (geom.cylinder_of(r.lba).abs_diff(head_cyl), r.at, r.lba, r.nblocks)
                        })
                        .expect("non-empty arrived set")
                }
            }
        };
        let (_, r) = pending.remove(pick);
        let grant = disk.read(now, r.lba, r.nblocks)?;
        now = grant.finish;
        head_lba = r.lba + r.nblocks;
        done.push(Completion { request: r, finish: grant.finish });
    }
    Ok(done)
}

/// Summary statistics of a completed schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleStats {
    /// Mean latency in seconds.
    pub mean_latency: f64,
    /// Worst latency in seconds.
    pub max_latency: f64,
    /// Completion time of the whole batch.
    pub makespan: SimTime,
}

/// Computes summary statistics.
pub fn schedule_stats(completions: &[Completion]) -> ScheduleStats {
    assert!(!completions.is_empty(), "no completions");
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut makespan = SimTime::ZERO;
    for c in completions {
        let l = c.latency().as_secs_f64();
        sum += l;
        max = max.max(l);
        makespan = makespan.max(c.finish);
    }
    ScheduleStats { mean_latency: sum / completions.len() as f64, max_latency: max, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use simcore::rng::Stream;

    fn disk(seed: u64) -> Disk {
        Disk::new(Geometry::hawk_5400(), Stream::from_seed(seed))
    }

    /// A batch of random requests all arriving at t = 0.
    fn random_batch(n: usize, seed: u64) -> Vec<Request> {
        let mut rng = Stream::from_seed(seed);
        (0..n)
            .map(|_| Request { at: SimTime::ZERO, lba: rng.next_below(3_900_000), nblocks: 64 })
            .collect()
    }

    #[test]
    fn sstf_beats_fcfs_on_makespan() {
        let batch = random_batch(100, 5);
        let fcfs = run_schedule(&mut disk(1), SchedPolicy::Fcfs, &batch).expect("ok");
        let sstf = run_schedule(&mut disk(1), SchedPolicy::Sstf, &batch).expect("ok");
        let f = schedule_stats(&fcfs);
        let s = schedule_stats(&sstf);
        assert!(
            s.makespan.as_secs_f64() < 0.8 * f.makespan.as_secs_f64(),
            "sstf {} vs fcfs {}",
            s.makespan,
            f.makespan
        );
    }

    #[test]
    fn sstf_starves_the_far_request() {
        // A stream of requests near cylinder 0 plus one lone request at the
        // far edge: SSTF keeps choosing the near ones.
        const NEAR_STRIDE_BLOCKS: u64 = 1_000;
        let mut batch: Vec<Request> = (0..200)
            .map(|i| Request {
                at: SimTime::from_millis(i * 5),
                lba: (i % 50) * NEAR_STRIDE_BLOCKS,
                nblocks: 64,
            })
            .collect();
        let far = Request { at: SimTime::ZERO, lba: 3_900_000, nblocks: 64 };
        batch.push(far);

        let fcfs = run_schedule(&mut disk(2), SchedPolicy::Fcfs, &batch).expect("ok");
        let sstf = run_schedule(&mut disk(2), SchedPolicy::Sstf, &batch).expect("ok");
        let far_latency = |cs: &[Completion]| {
            cs.iter().find(|c| c.request == far).expect("present").latency().as_secs_f64()
        };
        let f = far_latency(&fcfs);
        let s = far_latency(&sstf);
        assert!(s > 3.0 * f, "sstf far-request latency {s} vs fcfs {f}");
    }

    #[test]
    fn fcfs_respects_arrival_order() {
        let batch = vec![
            Request { at: SimTime::from_millis(10), lba: 100, nblocks: 8 },
            Request { at: SimTime::ZERO, lba: 2_000_000, nblocks: 8 },
        ];
        let done = run_schedule(&mut disk(3), SchedPolicy::Fcfs, &batch).expect("ok");
        assert_eq!(done[0].request.lba, 2_000_000);
        assert_eq!(done[1].request.lba, 100);
    }

    #[test]
    fn idle_gaps_are_skipped() {
        let batch = vec![Request { at: SimTime::from_secs(10), lba: 0, nblocks: 8 }];
        let done = run_schedule(&mut disk(4), SchedPolicy::Fcfs, &batch).expect("ok");
        assert!(done[0].finish > SimTime::from_secs(10));
        assert!(done[0].latency() < SimDuration::from_millis(50));
    }

    #[test]
    fn all_requests_complete_exactly_once() {
        let batch = random_batch(64, 9);
        for policy in [SchedPolicy::Fcfs, SchedPolicy::Sstf] {
            let done = run_schedule(&mut disk(5), policy, &batch).expect("ok");
            assert_eq!(done.len(), batch.len(), "{policy:?}");
            let mut seen: Vec<u64> = done.iter().map(|c| c.request.lba).collect();
            let mut expect: Vec<u64> = batch.iter().map(|r| r.lba).collect();
            seen.sort_unstable();
            expect.sort_unstable();
            assert_eq!(seen, expect, "{policy:?}");
        }
    }
}
