//! End-to-end dimensional analysis: each fixture tree under
//! `tests/fixtures/units/` is linted as one set, proving the unit rules
//! fire on real trees — cross-crate inference chains, struct-field
//! laundering, rate shapes, detector thresholds — and that the clean
//! counterparts stay silent.

use fslint::{collect_workspace_files, lint_paths, Config, Finding};
use std::path::Path;

/// Lints one fixture tree (everything under `tests/fixtures/units/<case>`)
/// as a single scanned set, the way the engine sees a workspace.
fn lint_tree(case: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/units").join(case);
    let files = collect_workspace_files(&root);
    assert!(!files.is_empty(), "no fixture files under {case}");
    lint_paths(&root, &files, &Config::default()).findings
}

/// The unit findings only — fixture code may trip lexical rules too,
/// and those are not what these tests assert on.
fn unit_findings(case: &str) -> Vec<Finding> {
    lint_tree(case)
        .into_iter()
        .filter(|f| {
            matches!(
                f.rule,
                "unit-mismatch" | "raw-unit-conversion" | "rate-confusion" | "threshold-unit"
            )
        })
        .collect()
}

#[test]
fn cross_crate_mismatch_prints_both_inference_chains() {
    let findings = unit_findings("mismatch_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "unit-mismatch");
    assert!(f.path.ends_with("crates/beta/src/lib.rs"), "{f:?}");
    // Both operands' units, spelled out.
    assert!(f.message.contains("nanos"), "{}", f.message);
    assert!(f.message.contains("millis"), "{}", f.message);
    // The full interprocedural chain behind the nanos operand: the
    // summary walked `window` → `sample_nanos` across the crate boundary.
    for hop in ["window", "sample_nanos"] {
        assert!(f.message.contains(hop), "missing {hop} in: {}", f.message);
    }
    // ≥ 2 hops means ≥ 2 chain arrows.
    assert!(f.message.matches(" -> ").count() >= 2, "{}", f.message);
    // The root hop, inferred from `window`'s body, cites its call once.
    let root = "(crates/alpha/src/lib.rs:14)";
    assert_eq!(f.message.matches(root).count(), 1, "{}", f.message);
}

#[test]
fn a_closure_return_is_not_its_fns_return() {
    // `retries` returns a count; the millis its closure returns stay in
    // the closure, so the count meets `limit_secs` unit-free.
    let findings = unit_findings("closure_return_neg");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn a_fns_own_return_carries_its_unit_past_a_closure() {
    // `backoff` returns millis; its closure's secs do not conflict with
    // them, so the millis meet `limit_secs`.
    let findings = unit_findings("closure_return_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "unit-mismatch");
    assert!(f.message.contains("`backoff ( xs , base_ms )` is millis"), "{}", f.message);
}

#[test]
fn consistent_units_across_crates_are_clean() {
    let findings = unit_findings("mismatch_neg");
    assert!(findings.is_empty(), "nanos meeting nanos must pass: {findings:?}");
}

#[test]
fn magic_conversion_literal_fires() {
    let findings = unit_findings("raw_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "raw-unit-conversion");
    assert!(findings[0].message.contains("1_000"), "{}", findings[0].message);
}

#[test]
fn simcore_time_is_the_blessed_home_of_conversions() {
    let findings = unit_findings("raw_neg");
    assert!(findings.is_empty(), "simcore::time itself is exempt: {findings:?}");
}

#[test]
fn per_tick_meets_per_sec_without_dt_fires() {
    let findings = unit_findings("rate_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "rate-confusion");
    assert!(f.message.contains("1/ticks"), "{}", f.message);
    assert!(f.message.contains("1/secs"), "{}", f.message);
}

#[test]
fn rate_rescaled_through_the_tick_duration_is_clean() {
    let findings = unit_findings("rate_neg");
    assert!(findings.is_empty(), "1/secs * secs/ticks composes to 1/ticks: {findings:?}");
}

#[test]
fn threshold_in_the_wrong_unit_fires_in_reachable_code() {
    let findings = unit_findings("threshold_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "threshold-unit");
    assert!(f.message.contains("ticks"), "{}", f.message);
    assert!(f.message.contains("nanos"), "{}", f.message);
}

#[test]
fn threshold_in_the_matching_unit_is_clean() {
    let findings = unit_findings("threshold_neg");
    assert!(findings.is_empty(), "matching threshold unit must pass: {findings:?}");
}

#[test]
fn struct_field_laundering_is_tracked_across_functions() {
    let findings = unit_findings("field");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "unit-mismatch");
    assert!(f.message.contains("`.span`"), "{}", f.message);
}

#[test]
fn one_token_field_assignment_teaches_the_field() {
    // `w.span = t_nanos;`: the whole right-hand side is its last token.
    let findings = unit_findings("field_ident");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.line), ("unit-mismatch", 19));
    assert!(f.message.contains("`.span`") && f.message.contains("t_nanos"), "{}", f.message);
}

#[test]
fn a_one_token_return_carries_its_unit() {
    // `return a_ms;`: the returned expression is its last token too, so
    // `pick` returns millis and its comparison with seconds fires.
    let findings = unit_findings("return_ident");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.line), ("unit-mismatch", 17));
    assert!(f.message.contains("a_ms") && f.message.contains("deadline_secs"), "{}", f.message);
}

#[test]
fn a_shadowing_let_ends_the_old_unit() {
    // `d` is rebound to a value of unknown unit: the nanos binding ends
    // there, so the sum compares nothing.
    let findings = unit_findings("shadow_neg");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn nanos_into_a_millis_parameter_fires_across_crates() {
    let findings = unit_findings("param_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "unit-mismatch");
    assert!(f.path.ends_with("crates/beta/src/lib.rs"), "{f:?}");
    assert!(f.message.contains("timeout_ms"), "{}", f.message);
    assert!(f.message.contains("millis"), "{}", f.message);
    assert!(f.message.contains("nanos"), "{}", f.message);
}

#[test]
fn a_type_qualified_method_call_passes_its_receiver_first() {
    // `S::wait(s, d_secs)`: `s` is the receiver, so `d_secs` meets the
    // first named parameter `t_ms`, for `&self` and `self: Box<Self>`.
    let findings = unit_findings("ufcs_arg_pos");
    let mut callees: Vec<&str> = findings
        .iter()
        .map(|f| {
            assert_eq!((f.rule, f.line), ("unit-mismatch", 24), "{f:?}");
            assert!(f.message.contains("`t_ms`") && f.message.contains("`d_secs`"), "{f:?}");
            if f.message.contains("`wait_boxed`") {
                "wait_boxed"
            } else {
                "wait"
            }
        })
        .collect();
    callees.sort_unstable();
    assert_eq!(callees, ["wait", "wait_boxed"], "{findings:?}");
}

#[test]
fn a_type_qualified_receiver_is_no_parameter() {
    // `S::wait(budget_secs, d_ms)`: the seconds-named receiver is not
    // paired with `t_ms`; the millis argument after it agrees.
    let findings = unit_findings("ufcs_arg_neg");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn an_imported_helper_carries_its_return_unit() {
    // `use crate::util::deadline;` then `deadline(3)`: the import names
    // the callee, whose millis return meets a limit in seconds.
    let findings = unit_findings("imported_helper_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.line), ("unit-mismatch", 12));
    assert!(f.message.contains("`deadline`") && f.message.contains("wait_ms"), "{}", f.message);
}

#[test]
fn same_unit_division_is_a_sanitised_ratio() {
    let findings = unit_findings("ratio_neg");
    assert!(findings.is_empty(), "nanos/nanos is dimensionless: {findings:?}");
}

#[test]
fn graph_export_carries_unit_summaries() {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/units").join("mismatch_pos");
    let files = collect_workspace_files(&root);
    let cfg = Config { graph_json: true, ..Config::default() };
    let report = lint_paths(&root, &files, &cfg);
    let graph = report.graph_json.expect("graph export requested");
    assert!(graph.contains("\"unit\": {\"dim\": \"nanos\""), "{graph}");
}

#[test]
fn double_lint_of_the_same_tree_is_byte_identical() {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/units").join("mismatch_pos");
    let files = collect_workspace_files(&root);
    let a = fslint::engine::render_json(&lint_paths(&root, &files, &Config::default()));
    let b = fslint::engine::render_json(&lint_paths(&root, &files, &Config::default()));
    assert_eq!(a, b, "unit inference must be deterministic");
}
