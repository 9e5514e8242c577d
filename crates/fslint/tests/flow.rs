//! End-to-end taint analysis: each fixture tree under
//! `tests/fixtures/flow/` is linted as one set, proving the
//! interprocedural flow rules fire on real trees — cross-crate call
//! paths, struct-field laundering, sort sanitisation — and that the
//! `--graph-out` export carries the computed summaries.

use fslint::{collect_workspace_files, lint_paths, Config, Finding};
use std::path::Path;

/// Lints one fixture tree (everything under `tests/fixtures/flow/<case>`)
/// as a single scanned set, the way the engine sees a workspace.
fn lint_tree(case: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow").join(case);
    let files = collect_workspace_files(&root);
    assert!(!files.is_empty(), "no fixture files under {case}");
    lint_paths(&root, &files, &Config::default()).findings
}

/// The flow findings only — fixture code necessarily trips the lexical
/// rules too (`Instant` is both a `no-wall-clock` finding and the taint
/// root), and those are not what these tests assert on.
fn flow_findings(case: &str) -> Vec<Finding> {
    lint_tree(case)
        .into_iter()
        .filter(|f| matches!(f.rule, "digest-taint" | "oracle-taint" | "rng-lineage"))
        .collect()
}

#[test]
fn direct_flow_fires_in_one_function() {
    let findings = flow_findings("direct");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "digest-taint");
    assert!(findings[0].message.contains("wall-clock"), "{}", findings[0].message);
    assert!(findings[0].message.contains("local `t`"), "{}", findings[0].message);
}

#[test]
fn cross_crate_helper_flow_reports_the_full_path() {
    let findings = flow_findings("helper");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "digest-taint");
    assert!(f.path.ends_with("crates/beta/src/lib.rs"), "{f:?}");
    // The full interprocedural chain: source fn, wrapper fn, sink local.
    for hop in ["now_nanos", "stamp", "local `s`"] {
        assert!(f.message.contains(hop), "missing {hop} in: {}", f.message);
    }
    // ≥ 2 interprocedural hops means ≥ 3 path arrows.
    assert!(f.message.matches(" -> ").count() >= 3, "{}", f.message);
}

#[test]
fn an_imported_helper_carries_its_taint() {
    // `use alpha::stamp;` then `stamp()`: the import names the callee.
    let findings = flow_findings("imported_helper_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "digest-taint");
    assert!(f.path.ends_with("crates/beta/src/lib.rs"), "{f:?}");
    for hop in ["`now_nanos`", "`stamp`", "local `s`"] {
        assert!(f.message.contains(hop), "missing {hop} in: {}", f.message);
    }
}

#[test]
fn a_namesake_module_in_another_crate_lends_no_taint() {
    // beta's own `clock::now_nanos(t)` is pure; alpha's `clock` module
    // shares only the names.
    let findings = flow_findings("namesake_module_neg");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn struct_field_laundering_is_tracked_across_functions() {
    let findings = flow_findings("field");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "digest-taint");
    assert!(findings[0].message.contains("field `.stamp`"), "{}", findings[0].message);
}

#[test]
fn label_rooted_rng_is_clean() {
    let findings = flow_findings("rng_neg");
    assert!(findings.is_empty(), "label-rooted streams must pass: {findings:?}");
}

#[test]
fn a_string_spelled_as_a_bracket_hides_no_test_attribute() {
    // `#[test] #[doc = "["] fn sweep()`: the attribute scan pairs only
    // punctuation, so the string neither ends it nor hides the `#[test]`.
    let findings = flow_findings("rng_test_attr_neg");
    assert!(findings.is_empty(), "test code may seed from a loop index: {findings:?}");
}

#[test]
fn loop_index_seed_fires_rng_lineage() {
    let findings = flow_findings("rng_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "rng-lineage");
    assert!(findings[0].message.contains("from_seed(i)"), "{}", findings[0].message);
}

#[test]
fn sorted_collection_is_sanitized() {
    let findings = flow_findings("sort_neg");
    assert!(findings.is_empty(), "a sorted collection is deterministic: {findings:?}");
}

#[test]
fn unsorted_collection_reaches_the_digest() {
    let findings = flow_findings("sort_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "digest-taint");
    assert!(findings[0].message.contains("`HashMap`-typed parameter"), "{}", findings[0].message);
}

#[test]
fn unordered_parameters_taint_after_a_fn_pointer_parameter() {
    // The same fold with and without a `fn(u64) -> u64` parameter before
    // the `HashMap` one: the signature is read from the item's own `fn`
    // token, so the pointer type's `fn` hides nothing.
    for case in ["sort_pos", "fn_param_pos"] {
        let findings = flow_findings(case);
        assert_eq!(findings.len(), 1, "{case}: {findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "digest-taint");
        assert!(f.message.contains("`HashMap`-typed parameter `m`"), "{case}: {}", f.message);
    }
}

#[test]
fn a_let_rebinding_ends_the_old_taint() {
    // `let t = 7;` binds a new `t`; its pattern is not a read of the
    // tainted one it shadows.
    let findings = flow_findings("let_rebind_neg");
    assert!(findings.is_empty(), "the rebound `t` is a constant: {findings:?}");
    let findings = flow_findings("let_rebind_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("local `t`"), "{}", findings[0].message);
}

#[test]
fn an_if_let_binds_its_names_inside_its_block_only() {
    // A statement after the block used to make the `if let` read as a
    // `let` ending at that statement's `;`, rebinding `t` from there on.
    let findings = flow_findings("if_let_shadow_neg");
    assert!(findings.is_empty(), "the folded `t` is the outer constant: {findings:?}");
    let findings = flow_findings("if_let_shadow_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "digest-taint");
    assert!(findings[0].message.contains("local `t`"), "{}", findings[0].message);
}

#[test]
fn an_if_let_name_hides_the_outer_local_even_without_taint() {
    // The `if let` binds `t` to an untainted constant: inside its block
    // the name is that constant, though it carries no taint to record.
    let findings = flow_findings("if_let_untainted_shadow_neg");
    assert!(findings.is_empty(), "the folded `t` is the `if let`'s constant: {findings:?}");
    let findings = flow_findings("if_let_untainted_shadow_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "digest-taint");
    assert!(findings[0].message.contains("local `t`"), "{}", findings[0].message);
}

#[test]
fn a_for_binding_hides_the_outer_local_in_its_body_only() {
    // Inside the loop `t` is the loop's counter, and a tainted loop `t`
    // ends at the loop's `}`; neither fold reads the clock.
    let findings = flow_findings("for_shadow_neg");
    assert!(findings.is_empty(), "each folded `t` is untainted: {findings:?}");
    // After the loop the outer clock reading is back in scope.
    let findings = flow_findings("for_shadow_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "digest-taint");
    assert!(findings[0].message.contains("local `t`"), "{}", findings[0].message);
}

#[test]
fn a_path_pattern_binds_its_names() {
    // `let Wrap::A(t) = …` binds `t`: the `::` of the path is no type
    // ascription, so the local carries its value's taint.
    let findings = flow_findings("path_pattern_neg");
    assert!(findings.is_empty(), "the folded `t` is a constant: {findings:?}");
    let findings = flow_findings("path_pattern_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "digest-taint");
    assert!(findings[0].message.contains("local `t`"), "{}", findings[0].message);
}

#[test]
fn method_taint_resolves_only_through_a_named_owner() {
    let findings = flow_findings("gate_neg");
    assert!(findings.is_empty(), "a std `load` is not `Vm::load`: {findings:?}");
    let findings = flow_findings("gate_pos");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("`load`"), "{}", findings[0].message);
}

#[test]
fn oracle_taint_fires_only_for_the_tainted_verdict() {
    let findings = flow_findings("oracle");
    // `run_checked` is flagged; `run_clean` calls the same oracle with a
    // pure value and must not be.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "oracle-taint");
    assert!(findings[0].message.contains("verdict"), "{}", findings[0].message);
}

#[test]
fn graph_export_carries_taint_summaries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow/helper");
    let files = collect_workspace_files(&root);
    let cfg = Config { graph_json: true, ..Config::default() };
    let report = lint_paths(&root, &files, &cfg);
    let doc = report.graph_json.expect("graph JSON requested");
    // Tainted nodes carry a summary object; the wrapper records the hop
    // it arrived through (`via` is a node id, `what` names the callee).
    assert!(doc.contains("\"taint\": {\"kind\": \"wall-clock\""), "{doc}");
    assert!(doc.contains("now_nanos"), "{doc}");
    assert!(doc.contains("\"via\": null"), "root summaries have no via: {doc}");
    let via_some = doc.lines().any(|l| {
        l.contains("\"taint\": {") && l.contains("\"via\": 0")
            || l.contains("\"via\": 1") && l.contains("\"kind\": \"wall-clock\"")
    });
    assert!(via_some, "a propagated summary records its callee hop: {doc}");
    // Clean nodes stay null.
    assert!(doc.contains("\"taint\": null"), "{doc}");
}

#[test]
fn double_lint_of_the_same_tree_is_byte_identical() {
    // The scan shards phase one over worker threads; the report must not
    // depend on the interleaving. Render both runs to JSON and compare
    // bytes (findings, counts, and graph export included).
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow/helper");
    let files = collect_workspace_files(&root);
    let cfg = Config { graph_json: true, ..Config::default() };
    let a = lint_paths(&root, &files, &cfg);
    let b = lint_paths(&root, &files, &cfg);
    assert_eq!(fslint::engine::render_json(&a), fslint::engine::render_json(&b));
    assert_eq!(a.graph_json, b.graph_json);
}
