//! Graduated declustering — River's mechanism for robust mirrored reads.
//!
//! Paper §4: River "provides mechanisms to enable consistent and high
//! performance in spite of erratic performance in underlying components,
//! focusing mainly on disks." Its central storage trick is *graduated
//! declustering*: every data partition is mirrored on two producers, and
//! consumers shift load between the mirrors in proportion to observed
//! rates, so a slow producer sheds half of each of its partitions to its
//! mirror-neighbours and a single stutter is absorbed smoothly by the
//! whole ring instead of gating one consumer.

use simcore::time::SimDuration;

/// How mirrored partitions are read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeclusterPolicy {
    /// Each partition is read entirely from its primary copy.
    PrimaryOnly,
    /// Graduated declustering: the two copies of each partition serve it
    /// in proportion to their producers' available rates, rebalanced
    /// continuously (modelled as an optimal fluid split).
    Graduated,
}

/// The outcome of streaming all partitions.
#[derive(Clone, Debug, PartialEq)]
pub struct DeclusterOutcome {
    /// Time until every partition is fully delivered.
    pub makespan: SimDuration,
    /// Bytes served by each producer.
    pub per_producer: Vec<f64>,
}

/// Streams `n` partitions of `partition_bytes` each over `n` producers in
/// a mirrored ring: partition `i` lives on producers `i` and `(i+1) % n`.
/// `speeds[p]` is producer `p`'s rate in bytes/second.
pub fn run_decluster(
    speeds: &[f64],
    partition_bytes: f64,
    policy: DeclusterPolicy,
) -> DeclusterOutcome {
    let n = speeds.len();
    assert!(n >= 2, "a mirrored ring needs at least two producers");
    assert!(partition_bytes > 0.0, "empty partitions");
    for &s in speeds {
        assert!(s > 0.0, "producer rates must be positive");
    }

    match policy {
        DeclusterPolicy::PrimaryOnly => {
            // Producer p serves its own partition alone.
            let mut per_producer = vec![0.0; n];
            let mut makespan = 0.0f64;
            for p in 0..n {
                per_producer[p] = partition_bytes;
                makespan = makespan.max(partition_bytes / speeds[p]);
            }
            DeclusterOutcome { makespan: SimDuration::from_secs_f64(makespan), per_producer }
        }
        DeclusterPolicy::Graduated => {
            // Fluid-optimal split: find the smallest T such that the
            // bipartite demand (each partition needs `partition_bytes`,
            // each producer supplies `speeds[p]·T`, partition i may draw
            // only from producers i and i+1) is feasible. Binary search on
            // T with a max-flow check specialised to the ring.
            let total: f64 = speeds.iter().sum();
            let lo = partition_bytes * n as f64 / total;
            let hi = partition_bytes
                / speeds.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::INFINITY);
            let feasible = |t: f64| ring_feasible(speeds, partition_bytes, t);
            let mut lo = lo * 0.999;
            let mut hi = hi * 1.001;
            for _ in 0..64 {
                let mid = 0.5 * (lo + hi);
                if feasible(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            let t = hi;
            let per_producer = ring_assignment(speeds, partition_bytes, t);
            DeclusterOutcome { makespan: SimDuration::from_secs_f64(t), per_producer }
        }
    }
}

/// Greedy feasibility check for the ring at horizon `t`: walk partitions
/// in order, drawing as much as possible from the primary (producer i),
/// spilling the rest to the mirror (producer i+1).
///
/// The greedy walk is not exact for all ring instances (capacity freed by
/// wrap-around), so run it from every starting rotation and accept if any
/// succeeds — n² but n is small.
fn ring_feasible(speeds: &[f64], partition_bytes: f64, t: f64) -> bool {
    let n = speeds.len();
    'rot: for rot in 0..n {
        let mut cap: Vec<f64> = (0..n).map(|p| speeds[p] * t).collect();
        for k in 0..n {
            let i = (rot + k) % n;
            let primary = i;
            let mirror = (i + 1) % n;
            let from_primary = cap[primary].min(partition_bytes);
            let rest = partition_bytes - from_primary;
            if rest > cap[mirror] + 1e-9 {
                continue 'rot;
            }
            cap[primary] -= from_primary;
            cap[mirror] -= rest;
        }
        return true;
    }
    false
}

/// Reconstructs a feasible per-producer byte assignment at horizon `t`.
fn ring_assignment(speeds: &[f64], partition_bytes: f64, t: f64) -> Vec<f64> {
    let n = speeds.len();
    for rot in 0..n {
        let mut cap: Vec<f64> = (0..n).map(|p| speeds[p] * t).collect();
        let mut served = vec![0.0; n];
        let mut ok = true;
        for k in 0..n {
            let i = (rot + k) % n;
            let mirror = (i + 1) % n;
            let from_primary = cap[i].min(partition_bytes);
            let rest = partition_bytes - from_primary;
            if rest > cap[mirror] + 1e-9 {
                ok = false;
                break;
            }
            cap[i] -= from_primary;
            served[i] += from_primary;
            cap[mirror] -= rest;
            served[mirror] += rest;
        }
        if ok {
            return served;
        }
    }
    // The caller only asks at a feasible horizon.
    panic!("no feasible assignment at the given horizon");
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    #[test]
    fn healthy_ring_ties_both_policies() {
        let speeds = vec![10e6; 4];
        let primary = run_decluster(&speeds, GB, DeclusterPolicy::PrimaryOnly);
        let graduated = run_decluster(&speeds, GB, DeclusterPolicy::Graduated);
        let p = primary.makespan.as_secs_f64();
        let g = graduated.makespan.as_secs_f64();
        assert!((p - 100.0).abs() < 0.1, "{p}");
        assert!((g - 100.0).abs() < 0.5, "{g}");
    }

    #[test]
    fn one_slow_producer_gates_primary_only() {
        let mut speeds = vec![10e6; 4];
        speeds[2] = 5e6;
        let out = run_decluster(&speeds, GB, DeclusterPolicy::PrimaryOnly);
        assert!((out.makespan.as_secs_f64() - 200.0).abs() < 0.1, "{}", out.makespan);
    }

    #[test]
    fn graduated_declustering_absorbs_the_stutter() {
        // Aggregate 35 MB/s over 4 GB → the fluid optimum is ~114.3 s;
        // the ring constraint (a partition only has two homes) keeps it
        // close to that, far below the 200 s of primary-only.
        let mut speeds = vec![10e6; 4];
        speeds[2] = 5e6;
        let out = run_decluster(&speeds, GB, DeclusterPolicy::Graduated);
        let t = out.makespan.as_secs_f64();
        assert!(t < 140.0, "makespan {t}");
        // The slow producer served materially less than its healthy peers.
        assert!(out.per_producer[2] < 0.75 * out.per_producer[0], "{:?}", out.per_producer);
    }

    #[test]
    fn served_bytes_are_conserved() {
        let mut speeds = vec![10e6, 8e6, 12e6, 6e6, 10e6];
        speeds[1] = 3e6;
        for policy in [DeclusterPolicy::PrimaryOnly, DeclusterPolicy::Graduated] {
            let out = run_decluster(&speeds, GB, policy);
            let total: f64 = out.per_producer.iter().sum();
            assert!((total - 5.0 * GB).abs() < 1e6, "{policy:?}: served {total}");
        }
    }

    #[test]
    fn graduated_never_loses_to_primary_only() {
        let cases = vec![vec![10e6, 10e6], vec![10e6, 2e6, 10e6], vec![4e6, 10e6, 10e6, 10e6, 1e6]];
        for speeds in cases {
            let p = run_decluster(&speeds, GB, DeclusterPolicy::PrimaryOnly);
            let g = run_decluster(&speeds, GB, DeclusterPolicy::Graduated);
            assert!(
                g.makespan.as_secs_f64() <= p.makespan.as_secs_f64() + 0.5,
                "{speeds:?}: graduated {} vs primary {}",
                g.makespan,
                p.makespan
            );
        }
    }

    #[test]
    fn two_producer_ring_is_a_full_mirror() {
        // With n = 2 every partition lives on both producers: the split
        // reaches the aggregate-bandwidth optimum exactly.
        let speeds = vec![10e6, 2e6];
        let g = run_decluster(&speeds, GB, DeclusterPolicy::Graduated);
        let ideal = 2.0 * GB / 12e6;
        assert!((g.makespan.as_secs_f64() / ideal - 1.0).abs() < 0.01, "{}", g.makespan);
    }
}
