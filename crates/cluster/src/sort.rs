//! A parallel external sort in the NOW-Sort mould.
//!
//! Paper §2.2.2 (CPU Hogs), quoting the NOW-Sort experience: "The
//! performance of NOW-Sort is quite sensitive to various disturbances and
//! requires a dedicated system to achieve 'peak' results. A node with
//! excess CPU load reduces global sorting performance by a factor of two."
//!
//! [`run_sort`] models the classic one-pass parallel sort: a read/partition
//! phase (disk-bound), an in-memory sort phase (CPU-bound) and a write
//! phase (disk-bound), with a global barrier between phases — every node
//! holds the keys destined for it, so nobody can proceed until everybody
//! is done. Under [`Placement::Static`], records are split evenly; under
//! [`Placement::Adaptive`], record counts are proportional to measured node
//! speed (the fail-stutter-tolerant variant).

use simcore::resource::{apportion, barrier, equal_shares, RateProfile};
use simcore::time::{SimDuration, SimTime};

use crate::node::Node;

/// How records are apportioned across nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Equal shares — assumes identical nodes (fail-stop thinking).
    Static,
    /// Shares proportional to each node's measured end-to-end rate at
    /// sort-start (one level of fail-stutter awareness).
    Adaptive,
}

/// A sort workload.
#[derive(Clone, Copy, Debug)]
pub struct SortJob {
    /// Total records to sort.
    pub records: u64,
    /// Record size in bytes.
    pub record_bytes: u64,
}

impl SortJob {
    /// The canonical one-pass benchmark input: N million 100-byte records.
    pub fn minute_sort(records: u64) -> Self {
        SortJob { records, record_bytes: 100 }
    }
}

/// Per-phase and total timing of a sort run.
#[derive(Clone, Debug, PartialEq)]
pub struct SortOutcome {
    /// Read + partition phase (disk-bound).
    pub read_phase: SimDuration,
    /// In-memory sort phase (CPU-bound).
    pub sort_phase: SimDuration,
    /// Write phase (disk-bound).
    pub write_phase: SimDuration,
    /// End-to-end time.
    pub total: SimDuration,
    /// Records assigned to each node.
    pub per_node: Vec<u64>,
}

/// Runs the sort over `nodes` starting at `start`.
///
/// Phase time for a node integrates its (possibly stuttering) rate, and
/// every phase ends at the *slowest* node's finish — the barrier that makes
/// parallel sorts so sensitive to one perturbed machine.
pub fn run_sort(nodes: &[Node], job: SortJob, placement: Placement, start: SimTime) -> SortOutcome {
    assert!(!nodes.is_empty(), "need at least one node");
    let per_node: Vec<u64> = match placement {
        Placement::Static => equal_shares(job.records, nodes.len()),
        Placement::Adaptive => {
            // Gauge each node's end-to-end records/second at sort start:
            // the harmonic composition of disk (2 passes) and CPU (1 pass).
            let speeds: Vec<f64> = nodes
                .iter()
                .map(|node| {
                    let disk = node.disk.rate_at(start) / job.record_bytes as f64;
                    let cpu = node.cpu.rate_at(start);
                    if disk <= 0.0 || cpu <= 0.0 {
                        0.0
                    } else {
                        1.0 / (2.0 / disk + 1.0 / cpu)
                    }
                })
                .collect();
            apportion(job.records, &speeds)
        }
    };
    run_phases(nodes, job, per_node, start)
}

/// The three barrier-separated phases over a fixed record assignment. A
/// node that never finishes its share holds its phase for 2^20 s.
fn run_phases(nodes: &[Node], job: SortJob, per_node: Vec<u64>, start: SimTime) -> SortOutcome {
    let horizon = SimDuration::from_secs(1 << 20);
    let disks: Vec<RateProfile> = nodes.iter().map(|node| node.disk.rate_profile()).collect();
    let cpus: Vec<RateProfile> = nodes.iter().map(|node| node.cpu.rate_profile()).collect();
    let phase = |profiles: &[RateProfile], unit: f64, at: SimTime| {
        barrier(profiles, &per_node, unit, at).unwrap_or(horizon)
    };
    let record_bytes = job.record_bytes as f64;
    // Read + partition (disk), sort (CPU), write (disk).
    let t_read = phase(&disks, record_bytes, start);
    let t_sort = phase(&cpus, 1.0, start + t_read);
    let t_write = phase(&disks, record_bytes, start + t_read + t_sort);

    SortOutcome {
        read_phase: t_read,
        sort_phase: t_sort,
        write_phase: t_write,
        total: t_read + t_sort + t_write,
        per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;
    use stutter::injector::Injector;

    /// Eight nodes: 1 M records/s CPU, 10 MB/s disk.
    fn cluster() -> Vec<Node> {
        (0..8).map(|_| Node::new(1e6, 10e6)).collect()
    }

    fn job() -> SortJob {
        SortJob::minute_sort(8_000_000) // 0.8 GB across 8 nodes
    }

    #[test]
    fn dedicated_cluster_balances_perfectly() {
        let out = run_sort(&cluster(), job(), Placement::Static, SimTime::ZERO);
        // Per node: 1 M records = 100 MB → read 10 s, sort 1 s, write 10 s.
        assert_eq!(out.read_phase, SimDuration::from_secs(10));
        assert_eq!(out.sort_phase, SimDuration::from_secs(1));
        assert_eq!(out.write_phase, SimDuration::from_secs(10));
        assert_eq!(out.total, SimDuration::from_secs(21));
    }

    #[test]
    fn cpu_hog_on_one_node_halves_global_performance() {
        // The NOW-Sort observation: one node at 50% CPU... the sort phase
        // doubles; with a disk hog too, the whole pipeline doubles.
        let hog = Injector::StaticSlowdown { factor: 0.5 };
        let mut nodes = cluster();
        let profile = hog.timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(1));
        nodes[3] =
            Node::new(1e6, 10e6).with_cpu_profile(profile.clone()).with_disk_profile(profile);
        let clean = run_sort(&cluster(), job(), Placement::Static, SimTime::ZERO);
        let dirty = run_sort(&nodes, job(), Placement::Static, SimTime::ZERO);
        let slowdown = dirty.total.as_secs_f64() / clean.total.as_secs_f64();
        assert!((slowdown - 2.0).abs() < 0.05, "slowdown {slowdown}");
    }

    #[test]
    fn adaptive_placement_absorbs_the_hog() {
        let hog = Injector::StaticSlowdown { factor: 0.5 };
        let mut nodes = cluster();
        let profile = hog.timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(1));
        nodes[3] =
            Node::new(1e6, 10e6).with_cpu_profile(profile.clone()).with_disk_profile(profile);
        let static_out = run_sort(&nodes, job(), Placement::Static, SimTime::ZERO);
        let adaptive_out = run_sort(&nodes, job(), Placement::Adaptive, SimTime::ZERO);
        assert!(
            adaptive_out.total.as_secs_f64() < 0.6 * static_out.total.as_secs_f64(),
            "adaptive {} vs static {}",
            adaptive_out.total,
            static_out.total
        );
        // The hogged node received roughly half the records of the others.
        let hogged = adaptive_out.per_node[3] as f64;
        let healthy = adaptive_out.per_node[0] as f64;
        assert!((hogged / healthy - 0.5).abs() < 0.05, "{hogged} vs {healthy}");
    }

    #[test]
    fn records_are_conserved() {
        for placement in [Placement::Static, Placement::Adaptive] {
            let out =
                run_sort(&cluster(), SortJob::minute_sort(1_000_003), placement, SimTime::ZERO);
            assert_eq!(out.per_node.iter().sum::<u64>(), 1_000_003, "{placement:?}");
        }
    }

    #[test]
    fn single_node_sort_works() {
        let nodes = vec![Node::new(1e6, 10e6)];
        let out =
            run_sort(&nodes, SortJob::minute_sort(1_000_000), Placement::Static, SimTime::ZERO);
        assert_eq!(out.total, SimDuration::from_secs(21));
    }
}
