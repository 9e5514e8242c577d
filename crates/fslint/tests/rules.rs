//! Fixture-based coverage: one positive and one negative fixture per rule.

use fslint::rules::id;
use fslint::{lint_paths, Config};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint(names: &[&str]) -> Vec<fslint::Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let files: Vec<PathBuf> = names.iter().map(|n| fixture(n)).collect();
    lint_paths(&root, &files, &Config::default()).findings
}

fn rules_of(findings: &[fslint::Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn no_wall_clock_positive_and_negative() {
    let pos = lint(&["wall_clock_pos.rs"]);
    assert!(!pos.is_empty());
    assert_eq!(rules_of(&pos), vec![id::NO_WALL_CLOCK]);
    // Instant (use + call site), thread::sleep, SystemTime.
    assert!(pos.len() >= 3, "{pos:?}");
    assert!(lint(&["wall_clock_neg.rs"]).is_empty());
}

#[test]
fn no_unordered_collections_positive_and_negative() {
    let pos = lint(&["unordered_pos.rs"]);
    assert_eq!(rules_of(&pos), vec![id::NO_UNORDERED_COLLECTIONS]);
    assert!(pos.iter().any(|f| f.message.contains("BTreeMap")));
    assert!(lint(&["unordered_neg.rs"]).is_empty());
}

#[test]
fn no_ambient_rng_positive_and_negative() {
    let pos = lint(&["ambient_rng_pos.rs"]);
    assert_eq!(rules_of(&pos), vec![id::NO_AMBIENT_RNG]);
    // thread_rng, rand::random, from_entropy.
    assert!(pos.len() >= 3, "{pos:?}");
    assert!(lint(&["ambient_rng_neg.rs"]).is_empty());
}

#[test]
fn unique_stream_labels_positive_and_negative() {
    let pos = lint(&["labels_pos_a.rs", "labels_pos_b.rs"]);
    assert_eq!(rules_of(&pos), vec![id::UNIQUE_STREAM_LABELS]);
    // Both colliding sites are reported, each naming the other file.
    assert_eq!(pos.len(), 2, "{pos:?}");
    assert!(pos[0].message.contains("dup-disk"));
    assert!(pos[0].message.contains("labels_pos_b.rs"));

    // Distinct labels across files, reuse within one file, dynamic labels,
    // and #[derive(...)] attributes are all fine.
    assert!(lint(&["labels_neg_a.rs", "labels_neg_b.rs"]).is_empty());
}

#[test]
fn forbid_unsafe_positive_and_negative() {
    let pos = lint(&["root_pos/src/lib.rs"]);
    assert_eq!(rules_of(&pos), vec![id::FORBID_UNSAFE_EVERYWHERE]);
    // Missing forbid(unsafe_code), missing warn(missing_docs), one `unsafe`.
    assert_eq!(pos.len(), 3, "{pos:?}");
    assert!(lint(&["root_neg/src/lib.rs"]).is_empty());
}

#[test]
fn regen_note_positive_and_negative() {
    let pos = lint(&["golden_pos.rs"]);
    assert_eq!(rules_of(&pos), vec![id::GOLDEN_REGEN_NOTE]);
    assert_eq!(pos.len(), 1);
    assert!(pos[0].message.contains("GOLDEN_DIGEST"));
    assert!(lint(&["golden_neg.rs"]).is_empty());
}

#[test]
fn stable_tiebreak_positive_and_negative() {
    let pos = lint(&["sem/crates/simcore/src/tiebreak_pos.rs"]);
    assert_eq!(rules_of(&pos), vec![id::STABLE_TIEBREAK]);
    // Single-key sort, single-key selection, bare-time Ord impl, bare-time
    // heap, float tuple key, float comparator.
    assert_eq!(pos.len(), 6, "{pos:?}");
    assert!(lint(&["sem/crates/simcore/src/tiebreak_neg.rs"]).is_empty());
}

#[test]
fn float_total_order_positive_and_negative() {
    let pos = lint(&["sem/float_order_pos.rs"]);
    assert_eq!(rules_of(&pos), vec![id::FLOAT_TOTAL_ORDER]);
    // unwrap sort, expect sort, unwrap_or rank, min fold, max reduce.
    assert_eq!(pos.len(), 5, "{pos:?}");
    assert!(lint(&["sem/float_order_neg.rs"]).is_empty());
}

#[test]
fn panic_path_positive_and_negative() {
    let pos = lint(&["sem/crates/stutter/src/panic_pos.rs"]);
    assert_eq!(rules_of(&pos), vec![id::PANIC_PATH]);
    // unwrap, expect, panic!, unreachable!, computed and field subscripts.
    assert_eq!(pos.len(), 6, "{pos:?}");
    assert!(lint(&["sem/crates/stutter/src/panic_neg.rs"]).is_empty());
}

#[test]
fn only_test_attributes_make_test_code() {
    // `#[cfg(not(test))]` and `#[cfg_attr(test, …)]` fns are built into
    // the real binary: their fail-stops are findings.
    let pos = lint(&["sem/cfg_not_test_pos.rs"]);
    assert_eq!(rules_of(&pos), vec![id::PANIC_PATH]);
    assert_eq!(pos.len(), 2, "{pos:?}");
    // `#[test]`, `#[runtime::test]` and `#[cfg(test)]` fns are exempt, and
    // the reasoned suppression under `#[cfg(not(test))]` silences a real
    // finding instead of going stale.
    assert!(lint(&["sem/cfg_not_test_neg.rs"]).is_empty());
}

#[test]
fn no_entry_scan_runs_only_everywhere_rules() {
    // A scanned set with no entry points has empty S and R sets: the
    // scoped semantic rules stay silent even on scheduling-flavoured
    // source, while the everywhere rules (float-total-order) still fire.
    let dir = std::env::temp_dir().join("fslint-unscoped-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lonely.rs");
    std::fs::write(
        &path,
        "pub fn order(q: &mut Vec<Ev>) { q.sort_by_key(|e| e.at); }\n\
         pub fn grab(x: Option<u64>) -> u64 { x.unwrap() }\n\
         pub fn rank(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
    )
    .unwrap();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let findings = lint_paths(&root, &[path], &Config::default()).findings;
    assert_eq!(rules_of(&findings), vec![id::FLOAT_TOTAL_ORDER], "{findings:?}");
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn suppression_requires_a_reason() {
    // Without a reason: the directive is flagged AND silences nothing.
    let pos = lint(&["suppress_no_reason.rs"]);
    assert!(pos.iter().any(|f| f.rule == id::MALFORMED_SUPPRESSION));
    assert!(pos.iter().any(|f| f.rule == id::NO_UNORDERED_COLLECTIONS));

    // With a reason: both the line-above and trailing forms silence.
    assert!(lint(&["suppress_with_reason.rs"]).is_empty());
}

#[test]
fn all_negative_fixtures_are_clean_together() {
    // Linting all negatives as one set exercises the cross-file label rule
    // over realistic variety.
    let all = lint(&[
        "wall_clock_neg.rs",
        "unordered_neg.rs",
        "ambient_rng_neg.rs",
        "labels_neg_a.rs",
        "labels_neg_b.rs",
        "root_neg/src/lib.rs",
        "golden_neg.rs",
        "suppress_with_reason.rs",
        "edge_cases_neg.rs",
        "sem/crates/simcore/src/tiebreak_neg.rs",
        "sem/crates/stutter/src/panic_neg.rs",
        "sem/float_order_neg.rs",
        "sem/cfg_not_test_neg.rs",
    ]);
    assert!(all.is_empty(), "{all:?}");
}
