//! # Deterministic scenario campaigns
//!
//! A campaign enumerates the cross-product of every §2 phenomenon class,
//! every mechanism under test (the §3.2 RAID controllers, push/pull work
//! queues, duplicate-issue hedging, the gossiped performance plane, and
//! the metastable closed-loop client population), and a range of
//! replicate seeds; runs
//! each cell under model and metamorphic oracles; and folds the results
//! into a single digest suitable for golden pinning.
//!
//! Three properties make campaigns usable as regression tests:
//!
//! 1. **Determinism.** Each scenario's RNG stream is derived from the
//!    master seed by the scenario's *label*, so results are independent of
//!    thread count, execution order, and which other scenarios ran. Two
//!    runs with the same config produce byte-identical digests.
//! 2. **Oracles, not goldens, for semantics.** Every run is checked
//!    against the paper's closed forms (where they apply) and metamorphic
//!    invariants (everywhere), so a perturbed model constant or a broken
//!    controller fails with a named oracle and an expected-vs-measured
//!    message — the digest only pins *exact* reproduction on top.
//! 3. **Reproducibility of failures.** A failing cell is re-runnable in
//!    isolation from its label: `fs-campaign --scenario <label>`.

pub mod digest;
pub mod runner;
pub mod scenario;

use std::fmt::Write as _;

use crate::report::json_string;
use digest::Fnv64;
pub use scenario::{enumerate, run_scenario, Kind, Scenario, ScenarioResult};
use scenario::{CheckResult, Metric};
use simcore::time::SimDuration;

/// Everything a campaign's results are a function of.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Root of the seed tree; every scenario derives from it by label.
    pub master_seed: u64,
    /// Worker threads to shard across (does not affect results).
    pub threads: usize,
    /// Replicate seeds per (kind, injector) cell.
    pub replicates: u64,
    /// Mirrored pairs in the RAID scenarios; also consumer/worker count.
    pub pairs: usize,
    /// Nominal component bandwidth `B` in bytes/second.
    pub nominal: f64,
    /// Blocks per RAID write workload.
    pub blocks: u64,
    /// Bytes per block.
    pub block_bytes: u64,
    /// Chunk size (blocks) for the adaptive controller.
    pub chunk_blocks: u64,
    /// Items per queue scenario.
    pub items: u64,
    /// Work units per queue item.
    pub item_units: f64,
    /// Tasks per hedge scenario.
    pub tasks: u64,
    /// Work units per hedge task.
    pub task_units: f64,
    /// Duplicate-issue threshold for the hedged run.
    pub hedge_after: SimDuration,
    /// Injector timeline horizon (must exceed every completion time).
    pub horizon: SimDuration,
    /// How long the detector/registry pipeline watches the faulty pair.
    pub monitor_window: SimDuration,
}

impl CampaignConfig {
    /// The full campaign: 12 injectors × 5 mechanisms × 6 replicates = 360
    /// scenarios, the paper's §3.2 parameters (N = 4 pairs at 10 MB/s).
    pub fn standard(master_seed: u64) -> Self {
        CampaignConfig {
            master_seed,
            threads: 4,
            replicates: 6,
            pairs: 4,
            nominal: 10e6,
            blocks: 16_384,
            block_bytes: 65_536,
            chunk_blocks: 64,
            items: 400,
            item_units: 1e6,
            tasks: 64,
            task_units: 10e6,
            hedge_after: SimDuration::from_secs(3),
            horizon: SimDuration::from_secs(100_000),
            monitor_window: SimDuration::from_secs(2_400),
        }
    }

    /// A reduced campaign for tier-1 CI: 2 replicates (120 scenarios) and a
    /// smaller write workload, identical in structure to [`standard`].
    ///
    /// [`standard`]: CampaignConfig::standard
    pub fn smoke(master_seed: u64) -> Self {
        CampaignConfig {
            replicates: 2,
            blocks: 4_096,
            // Keep blocks/chunk at 256 so adaptive granularity stays well
            // inside the closed-form tolerance bands.
            chunk_blocks: 16,
            items: 200,
            tasks: 32,
            ..CampaignConfig::standard(master_seed)
        }
    }
}

/// The aggregated outcome of one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The config's master seed, echoed for the artifact.
    pub master_seed: u64,
    /// Worker threads used (informational; never affects the digest).
    pub threads: usize,
    /// Per-scenario results in enumeration order.
    pub results: Vec<ScenarioResult>,
    /// FNV-1a fold of every scenario digest, in order.
    pub digest: u64,
    /// Total oracle checks that passed.
    pub checks_passed: usize,
    /// Rendered `label: oracle: detail` lines for every failed check.
    pub violations: Vec<String>,
}

impl CampaignReport {
    /// Renders the machine-readable JSON artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"campaign\": \"fs-campaign\",");
        let _ = writeln!(out, "  \"master_seed\": {},", self.master_seed);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"scenario_count\": {},", self.results.len());
        let _ = writeln!(out, "  \"checks_passed\": {},", self.checks_passed);
        let _ = writeln!(out, "  \"checks_failed\": {},", self.violations.len());
        let _ = writeln!(out, "  \"campaign_digest\": \"{:016x}\",", self.digest);
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, v);
        }
        out.push_str(if self.violations.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"scenarios\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(out, "\"id\": {}, \"label\": ", r.id);
            json_string(&mut out, &r.label);
            let _ = write!(
                out,
                ", \"digest\": \"{:016x}\", \"checks_passed\": {}, \"checks_failed\": {}, \"metrics\": {{",
                r.digest,
                r.checks_passed(),
                r.checks.len() - r.checks_passed()
            );
            for (j, (name, m)) in r.metrics.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json_string(&mut out, name);
                out.push_str(": ");
                match *m {
                    Metric::U64(v) => {
                        let _ = write!(out, "{v}");
                    }
                    Metric::F64(v) => {
                        let _ = write!(out, "{v:?}");
                    }
                }
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.results.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Enumerates, shards, checks, and digests one campaign.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let scenarios = scenario::enumerate(cfg);
    run_selected(&scenarios, cfg)
}

/// Runs a pre-filtered scenario list (the `--scenario` CLI path). The
/// campaign digest then covers only the selected cells.
pub fn run_selected(scenarios: &[Scenario], cfg: &CampaignConfig) -> CampaignReport {
    let results = runner::run_all(scenarios, cfg);

    let mut h = Fnv64::new();
    h.write_u64(cfg.master_seed);
    h.write_u64(results.len() as u64);
    for r in &results {
        h.write_u64(r.digest);
    }

    let checks_passed = results.iter().map(ScenarioResult::checks_passed).sum();
    let violations = results
        .iter()
        .flat_map(|r| {
            r.violations()
                .map(|c: &CheckResult| format!("{}: {}: {}", r.label, c.oracle, c.detail))
                .collect::<Vec<_>>()
        })
        .collect();

    CampaignReport {
        master_seed: cfg.master_seed,
        threads: cfg.threads,
        results,
        digest: h.finish(),
        checks_passed,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(master_seed: u64, threads: usize) -> CampaignConfig {
        CampaignConfig {
            threads,
            replicates: 1,
            blocks: 1_024,
            chunk_blocks: 4,
            items: 80,
            tasks: 16,
            monitor_window: SimDuration::from_secs(2_400),
            ..CampaignConfig::standard(master_seed)
        }
    }

    #[test]
    fn digest_is_independent_of_thread_count() {
        let a = run_campaign(&tiny(7, 1));
        let b = run_campaign(&tiny(7, 5));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.results.len(), b.results.len());
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.digest, rb.digest, "scenario {} differs", ra.label);
        }
    }

    #[test]
    fn different_master_seed_changes_the_digest() {
        let a = run_campaign(&tiny(7, 2));
        let b = run_campaign(&tiny(8, 2));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn tiny_campaign_is_violation_free() {
        let report = run_campaign(&tiny(7, 4));
        assert!(report.violations.is_empty(), "violations: {:#?}", report.violations);
        assert_eq!(report.results.len(), 60); // 12 injectors × 5 kinds × 1 replicate
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let report = run_campaign(&tiny(7, 2));
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"label\"").count(), report.results.len());
        assert!(json.contains(&format!("\"campaign_digest\": \"{:016x}\"", report.digest)));
    }
}
