//! Smoke tests for the experiment harness: a representative subset of the
//! reproduction suite must pass from `cargo test`, so a regression in any
//! substrate is caught without running the full (slower) suite.

use fs_bench::experiments;

fn run(id: &str) {
    let e = experiments::by_id(id).unwrap_or_else(|| panic!("unknown experiment {id}"));
    let report = (e.run)();
    for f in &report.findings {
        assert!(
            f.pass,
            "{id} finding failed: {} (paper: {}, measured: {})",
            f.metric, f.paper, f.measured
        );
    }
    assert!(!report.tables.is_empty(), "{id} produced no tables");
}

#[test]
fn e01_scenario_one() {
    run("e01");
}

#[test]
fn e02_scenario_two() {
    run("e02");
}

#[test]
fn e03_scenario_three() {
    run("e03");
}

#[test]
fn e07_zones() {
    run("e07");
}

#[test]
fn e09_deadlock() {
    run("e09");
}

#[test]
fn e11_transpose() {
    run("e11");
}

#[test]
fn e17_cache_mask() {
    run("e17");
}

#[test]
fn e20_threshold() {
    run("e20");
}

#[test]
fn e21_spec_fidelity() {
    run("e21");
}

#[test]
fn e25_hedging() {
    run("e25");
}

#[test]
fn e29_river() {
    run("e29");
}

#[test]
fn registry_ids_are_unique_and_ordered() {
    let all = experiments::all();
    assert!(all.len() >= 33);
    for w in all.windows(2) {
        assert!(w[0].id < w[1].id, "{} !< {}", w[0].id, w[1].id);
    }
    for e in &all {
        assert!(experiments::by_id(e.id).is_some());
    }
    assert!(experiments::by_id("nope").is_none());
}

#[test]
fn e32_chunk_ablation() {
    run("e32");
}

#[test]
fn e33_persistence_ablation() {
    run("e33");
}

#[test]
fn e36_metastable() {
    run("e36");
}
