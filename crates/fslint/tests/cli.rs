//! End-to-end binary behaviour: exit codes, `--json`, `--out`, and the
//! acceptance requirement that every positive fixture fails the gate.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fs-lint")).args(args).output().expect("spawn fs-lint")
}

#[test]
fn every_positive_fixture_exits_nonzero() {
    let positives: &[&[&str]] = &[
        &["wall_clock_pos.rs"],
        &["unordered_pos.rs"],
        &["ambient_rng_pos.rs"],
        &["labels_pos_a.rs", "labels_pos_b.rs"],
        &["root_pos/src/lib.rs"],
        &["golden_pos.rs"],
        &["suppress_no_reason.rs"],
        &["edge_cases_pos.rs"],
        &["sem/crates/simcore/src/tiebreak_pos.rs"],
        &["sem/float_order_pos.rs"],
        &["sem/crates/stutter/src/panic_pos.rs"],
        &[
            "effects/oracle_pure_pos/crates/camp/src/oracle.rs",
            "effects/oracle_pure_pos/crates/simcore/src/lib.rs",
        ],
        &[
            "effects/injection_scoped_pos/crates/stutter/src/lib.rs",
            "effects/injection_scoped_pos/crates/sim/src/lib.rs",
        ],
        &[
            "effects/mitigation_effect_pos/crates/meta/src/policy.rs",
            "effects/mitigation_effect_pos/crates/meta/src/lib.rs",
        ],
    ];
    for set in positives {
        let files: Vec<String> =
            set.iter().map(|n| fixture(n).to_string_lossy().into_owned()).collect();
        let args: Vec<&str> = files.iter().map(String::as_str).collect();
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{set:?} should fail the gate; stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn negative_fixtures_exit_zero() {
    let out = run(&[
        fixture("wall_clock_neg.rs").to_str().unwrap(),
        fixture("golden_neg.rs").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn json_report_is_emitted_and_parseable_shape() {
    let out = run(&["--json", fixture("unordered_pos.rs").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"findings\": ["), "{text}");
    assert!(text.contains("\"rule\": \"no-unordered-collections\""), "{text}");
    assert!(text.trim_start().starts_with('{') && text.trim_end().ends_with('}'));
}

#[test]
fn out_flag_writes_the_artifact_even_on_failure() {
    let dir = std::env::temp_dir().join("fslint-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("report.json");
    let _ = std::fs::remove_file(&artifact);
    let out =
        run(&["--out", artifact.to_str().unwrap(), fixture("unordered_pos.rs").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let written = std::fs::read_to_string(&artifact).expect("artifact written");
    assert!(written.contains("no-unordered-collections"));
}

#[test]
fn suppression_that_silences_nothing_is_stale() {
    let out = run(&[fixture("suppress_stale.rs").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    let findings: Vec<&str> = text.lines().filter(|l| l.contains(": [")).collect();
    assert_eq!(findings.len(), 1, "{text}");
    // Reported on the comment's own line.
    assert!(findings[0].contains("suppress_stale.rs:5: [suppression-stale]"), "{text}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    for args in [["--format", "sarif"], ["--baseline", "x"], ["--allow", "no-wall-clock"]] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
}

#[test]
fn graph_out_writes_the_call_graph_even_when_the_gate_fails() {
    let dir = std::env::temp_dir().join("fslint-graph-out-test");
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("graph.json");
    let _ = std::fs::remove_file(&artifact);
    let tree = fixture("graph/campaign");
    let files: Vec<String> = [
        "crates/bench/src/bin/fs-campaign.rs",
        "crates/bench/src/lib.rs",
        "crates/bench/src/campaign.rs",
        "crates/bench/src/oracle.rs",
        "crates/stutter/src/lib.rs",
        "crates/stutter/src/catalog.rs",
    ]
    .iter()
    .map(|f| tree.join(f).to_string_lossy().into_owned())
    .collect();
    let mut args = vec!["--graph-out", artifact.to_str().unwrap()];
    args.extend(files.iter().map(String::as_str));
    let out = run(&args);
    // The campaign fixture carries deliberate oracle-coverage and
    // dead-scenario findings, so the gate fails — but the artifact that
    // explains them is still written.
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("oracle-coverage"), "{text}");
    assert!(text.contains("dead-scenario"), "{text}");
    let written = std::fs::read_to_string(&artifact).expect("graph artifact written");
    assert!(written.contains("\"nodes\""), "{written}");
    assert!(written.contains("\"run_scenario\""), "{written}");
    assert!(written.contains("\"edges\""), "{written}");
}

#[test]
fn list_rules_names_all_rules() {
    let out = run(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in fslint::RULES {
        assert!(text.contains(rule.id), "missing {} in:\n{text}", rule.id);
    }
    // The v5 dimensional and v6 effect rules, by name — registry-driven
    // iteration above cannot catch a rule dropped from the registry itself.
    for rule in [
        "unit-mismatch",
        "raw-unit-conversion",
        "rate-confusion",
        "threshold-unit",
        "oracle-pure",
        "injection-scoped",
        "mitigation-effect",
    ] {
        assert!(text.contains(rule), "missing {rule} in:\n{text}");
    }
}

#[test]
fn timings_flag_reports_every_phase() {
    let out = run(&["--timings", "--json", fixture("wall_clock_neg.rs").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let err = String::from_utf8_lossy(&out.stderr);
    for phase in ["lex+parse", "graph", "flow", "units", "effects", "rules", "total"] {
        assert!(err.contains(phase), "missing {phase} in stderr:\n{err}");
    }
    // The JSON report carries the same breakdown for CI artifacts.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"timings_ms\""), "{text}");
    for key in ["\"lex_parse\"", "\"units\"", "\"effects\"", "\"total\""] {
        assert!(text.contains(key), "missing {key} in:\n{text}");
    }

    // Without the flag the report is timing-free, keeping double-lint
    // output byte-identical.
    let out = run(&["--json", fixture("wall_clock_neg.rs").to_str().unwrap()]);
    assert!(!String::from_utf8_lossy(&out.stdout).contains("timings_ms"));
}

#[test]
fn jobs_flag_caps_threads_without_changing_output() {
    // A multi-file set exercises the sharded scan; sharding must only
    // decide which thread lexes which file, never the output.
    let tree = fixture("effects/oracle_pure_pos");
    let files: Vec<String> =
        ["crates/camp/src/oracle.rs", "crates/simcore/src/lib.rs", "crates/camp/src/extra.rs"]
            .iter()
            .filter(|f| tree.join(f).exists())
            .map(|f| tree.join(f).to_string_lossy().into_owned())
            .collect();
    let mut serial = vec!["--json", "--jobs", "1"];
    serial.extend(files.iter().map(String::as_str));
    let mut parallel = vec!["--json"];
    parallel.extend(files.iter().map(String::as_str));
    let a = run(&serial);
    let b = run(&parallel);
    assert_eq!(a.status.code(), b.status.code());
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "--jobs 1 and default parallelism must be byte-identical"
    );

    // A non-numeric or zero thread count is a usage error.
    let out = run(&["--jobs", "zero"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--jobs"]);
    assert_eq!(out.status.code(), Some(2));
}
