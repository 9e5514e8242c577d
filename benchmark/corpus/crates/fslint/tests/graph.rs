//! End-to-end graph scoping: each fixture tree under
//! `tests/fixtures/graph/` is linted as one set, proving the call-graph
//! reachability analysis — not path lists — decides what the semantic and
//! whole-program rules flag.

use fslint::{collect_workspace_files, lint_paths, Config, Finding};
use std::path::Path;

/// Lints one fixture tree (everything under `tests/fixtures/graph/<case>`)
/// as a single scanned set, the way the engine sees a workspace.
fn lint_tree(case: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph").join(case);
    let files = collect_workspace_files(&root);
    assert!(!files.is_empty(), "no fixture files under {case}");
    lint_paths(&root, &files, &Config::default()).findings
}

#[test]
fn panic_behind_pub_use_reexport_is_reachable() {
    let findings = lint_tree("reexport");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "panic-path");
    assert!(findings[0].path.ends_with("engine.rs"), "{findings:?}");
    assert!(findings[0].message.contains("unwrap"), "{findings:?}");
}

#[test]
fn method_dispatch_covers_inherent_and_trait_impls_but_not_uncalled_code() {
    let findings = lint_tree("dispatch");
    // Two findings: the inherent `Worker::step` target's `unwrap` and the
    // trait `<Clock as Tick>::step` target's `expect`. The `panic!` in
    // `never_hit` — behind the uncalled `idle` — must stay silent.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "panic-path"), "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("`unwrap`")), "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("`expect`")), "{findings:?}");
    assert!(
        !findings.iter().any(|f| f.message.contains("panic!")),
        "unreachable `panic!` leaked into the findings: {findings:?}"
    );
}

#[test]
fn cross_crate_call_drags_the_callee_crate_into_scope() {
    let findings = lint_tree("cross_crate");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "panic-path");
    assert!(findings[0].path.contains("crates/beta/"), "{findings:?}");
}

#[test]
fn unreachable_panic_is_not_a_finding_in_graph_mode() {
    let findings = lint_tree("unreachable_neg");
    assert!(findings.is_empty(), "graph mode must clear unreachable panics: {findings:?}");
}

#[test]
fn no_entry_subset_is_unscoped() {
    // Scanning only the library half of the re-export fixture — without
    // the file that declares the `Injector` entry point — leaves nothing
    // to seed the reachability fixpoints: `R` is empty and the very same
    // `unwrap` that graph mode flags across the whole tree goes dark.
    // This is the contract that replaced the deleted v2 path lists.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph/reexport");
    let files: Vec<_> = collect_workspace_files(&root)
        .into_iter()
        .filter(|p| p.to_string_lossy().ends_with("engine.rs"))
        .collect();
    assert_eq!(files.len(), 1, "expected just the entry-free half: {files:?}");
    let findings = lint_paths(&root, &files, &Config::default()).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn whole_program_rules_flag_unchecked_and_dead_campaign_cells() {
    let findings = lint_tree("campaign");
    assert_eq!(findings.len(), 3, "{findings:?}");

    let oracle: Vec<&Finding> = findings.iter().filter(|f| f.rule == "oracle-coverage").collect();
    assert_eq!(oracle.len(), 2, "{findings:?}");
    assert!(
        oracle.iter().any(|f| f.message.contains("`run_unchecked`")),
        "the oracle-free dispatcher must be flagged: {findings:?}"
    );
    assert!(
        oracle.iter().any(|f| f.message.contains("`orphan`")),
        "the unregistered catalog constructor must be flagged: {findings:?}"
    );

    let dead: Vec<&Finding> = findings.iter().filter(|f| f.rule == "dead-scenario").collect();
    assert_eq!(dead.len(), 1, "{findings:?}");
    assert!(dead[0].message.contains("`dead_cell`"), "{findings:?}");

    // The covered dispatcher and the wired constructor stay silent.
    let text = format!("{findings:?}");
    assert!(!text.contains("`run_checked`") && !text.contains("`wired`"), "{text}");
}
