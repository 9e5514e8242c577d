//! End-to-end effect analysis: each fixture tree under
//! `tests/fixtures/effects/` is linted as one set, proving the three
//! effect rules fire on real trees — a cross-crate write chain behind
//! an oracle verdict, an injector escaping its surface, a policy
//! mutating the server — and that the disciplined counterparts stay
//! silent.

use fslint::{collect_workspace_files, lint_paths, Config, Finding};
use std::path::Path;

/// Lints one fixture tree (everything under `tests/fixtures/effects/<case>`)
/// as a single scanned set, the way the engine sees a workspace.
fn lint_tree(case: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/effects").join(case);
    let files = collect_workspace_files(&root);
    assert!(!files.is_empty(), "no fixture files under {case}");
    lint_paths(&root, &files, &Config::default()).findings
}

/// The effect findings only — fixture code may trip lexical rules too,
/// and those are not what these tests assert on.
fn effect_findings(case: &str) -> Vec<Finding> {
    lint_tree(case)
        .into_iter()
        .filter(|f| matches!(f.rule, "oracle-pure" | "injection-scoped" | "mitigation-effect"))
        .collect()
}

#[test]
fn impure_oracle_is_flagged_across_a_two_hop_cross_crate_chain() {
    let findings = effect_findings("oracle_pure_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "oracle-pure");
    assert!(f.path.ends_with("crates/camp/src/oracle.rs"), "{f:?}");
    // The full write chain, hop by hop: the verdict path in `camp`
    // reaches the `Server.depth` write two calls down in `simcore`.
    for hop in ["check", "poke", "raw_set"] {
        assert!(f.message.contains(&format!("`{hop}`")), "missing {hop} in: {}", f.message);
    }
    assert!(f.message.contains("Server.depth"), "{}", f.message);
    assert!(f.message.matches(" -> ").count() >= 2, "two hops: {}", f.message);
}

#[test]
fn read_only_oracle_drawing_its_own_stream_is_clean() {
    let findings = effect_findings("oracle_pure_neg");
    assert!(findings.is_empty(), "reads + RNG draws are not probe effects: {findings:?}");
}

#[test]
fn injector_writing_past_its_surface_is_flagged() {
    let findings = effect_findings("injection_scoped_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "injection-scoped");
    assert!(f.message.contains("FaultInjector"), "{}", f.message);
    assert!(f.message.contains("Server.queue_depth"), "{}", f.message);
}

#[test]
fn injector_writing_its_declared_surface_is_clean() {
    let findings = effect_findings("injection_scoped_neg");
    assert!(findings.is_empty(), "own fields + declared Profile + Stream: {findings:?}");
}

#[test]
fn policy_mutating_the_server_is_flagged() {
    let findings = effect_findings("mitigation_effect_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "mitigation-effect");
    assert!(f.path.ends_with("crates/meta/src/policy.rs"), "{f:?}");
    assert!(f.message.contains("Server.inflight"), "{}", f.message);
}

#[test]
fn policy_acting_through_returned_decisions_is_clean() {
    let findings = effect_findings("mitigation_effect_neg");
    assert!(findings.is_empty(), "own counters + reads + stream draws: {findings:?}");
}

#[test]
fn a_fresh_temporary_passed_by_mut_keeps_the_callee_write_in_the_caller() {
    // `rate_at` hands `rate_from` a `&mut Cursor::default()` next to its
    // own by-value parameter: neither carries a mutable borrow in from
    // outside, so the cursor write stays in `rate_at`'s frame.
    let findings = effect_findings("mut_temp_arg_neg");
    assert!(findings.is_empty(), "a by-value parameter beside a temporary: {findings:?}");
    // Passing the oracle's own `&mut` parameter on does carry the write.
    let findings = effect_findings("mut_temp_arg_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "oracle-pure");
    assert!(f.message.contains("`rate_from`") && f.message.contains("Cursor.segment"), "{f:?}");
}

#[test]
fn graph_export_carries_effect_summaries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/effects")
        .join("oracle_pure_pos");
    let files = collect_workspace_files(&root);
    let cfg = Config { graph_json: true, ..Config::default() };
    let report = lint_paths(&root, &files, &cfg);
    let graph = report.graph_json.expect("graph export requested");
    assert!(graph.contains("\"effects\": [{\"kind\": \"write\""), "{graph}");
    // Propagated hops carry their via link into the export.
    assert!(graph.contains("\"via\": "), "{graph}");
}

#[test]
fn effect_analysis_is_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/effects")
        .join("oracle_pure_pos");
    let files = collect_workspace_files(&root);
    let a = fslint::engine::render_json(&lint_paths(&root, &files, &Config::default()));
    let b = fslint::engine::render_json(&lint_paths(&root, &files, &Config::default()));
    assert_eq!(a, b, "effect inference must be deterministic");
}
