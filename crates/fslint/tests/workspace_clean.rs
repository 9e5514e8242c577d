//! The gate, as a test: the workspace itself must lint clean, and any
//! suppression in it must carry a written reason (a reason-less one is a
//! `malformed-suppression` finding, which would fail this test too).

use fslint::{lint_workspace, Config};
use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &Config::default());
    assert!(report.files_scanned > 100, "walker found only {} files", report.files_scanned);
    assert!(
        report.is_clean(),
        "fs-lint findings in the workspace:\n{}",
        fslint::engine::render_text(&report)
    );
}

#[test]
fn semantic_rules_are_registered() {
    // The clean run above is only meaningful if the semantic pass actually
    // ran: a refactor that dropped a rule from the registry would keep the
    // workspace "clean" silently.
    for id in [
        fslint::rules::id::STABLE_TIEBREAK,
        fslint::rules::id::FLOAT_TOTAL_ORDER,
        fslint::rules::id::PANIC_PATH,
        fslint::rules::id::DIGEST_TAINT,
        fslint::rules::id::RNG_LINEAGE,
        fslint::rules::id::ORACLE_TAINT,
        fslint::rules::id::UNIT_MISMATCH,
        fslint::rules::id::RAW_UNIT_CONVERSION,
        fslint::rules::id::RATE_CONFUSION,
        fslint::rules::id::THRESHOLD_UNIT,
        fslint::rules::id::ORACLE_PURE,
        fslint::rules::id::INJECTION_SCOPED,
        fslint::rules::id::MITIGATION_EFFECT,
    ] {
        assert!(
            fslint::RULES.iter().any(|r| r.id == id),
            "semantic rule {id} missing from the registry"
        );
    }
}

#[test]
fn flow_rules_actually_ran_on_the_workspace() {
    // `workspace_lints_clean` proves there are no findings; this proves
    // the taint analysis produced *summaries*, so a clean report cannot
    // come from the flow pass silently short-circuiting. The workspace
    // itself has no unsuppressed wall-clock read to seed taint from, so
    // the cross-crate `flow/helper` fixture rides along in the same
    // `lint_paths` call and its `now_nanos` root must be summarised.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = fslint::collect_workspace_files(&root);
    files.extend(fslint::collect_workspace_files(
        &root.join("crates/fslint/tests/fixtures/flow/helper"),
    ));
    let cfg = Config { graph_json: true, ..Config::default() };
    let report = fslint::lint_paths(&root, &files, &cfg);
    let graph = report.graph_json.expect("graph requested");
    assert!(
        graph.lines().any(|l| l.contains("fixtures/flow/helper/")
            && l.contains("\"name\": \"now_nanos\"")
            && l.contains("\"taint\": {\"kind\": \"wall-clock\"")),
        "no wall-clock summary for the helper fixture's `now_nanos` — did flow::analyze run?"
    );
    // Same proof for the dimensional pass: the real tree is full of
    // `_nanos`/`SimTime` returns, so unit summaries must be present.
    assert!(
        graph.contains("\"unit\": {\"dim\": "),
        "no unit summaries in the workspace graph — did units::analyze run?"
    );
    // And for the effect pass: scheduler handlers and `&mut self` methods
    // saturate the real tree with write effects, so summaries must be
    // present (and with them the via links of propagated hops).
    assert!(
        graph.contains("\"effects\": [{\"kind\": "),
        "no effect summaries in the workspace graph — did effects::analyze run?"
    );
    assert!(
        graph.contains("\"kind\": \"rng-draw\""),
        "no RNG-draw effects in the workspace graph — the Stream gate broke?"
    );
}
