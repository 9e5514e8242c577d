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
fn unknown_rule_in_allow_is_a_usage_error() {
    let out = run(&["--allow", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn baseline_workflow_records_then_gates_only_new_findings() {
    let dir = std::env::temp_dir().join("fslint-baseline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let float_pos = fixture("sem/float_order_pos.rs");
    let panic_pos = fixture("sem/crates/stutter/src/panic_pos.rs");

    // Record the float findings as accepted debt; the write itself succeeds
    // even though the tree is dirty.
    let out = run(&["--write-baseline", baseline.to_str().unwrap(), float_pos.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(std::fs::read_to_string(&baseline).unwrap().contains("float-total-order"));

    // Same tree against the baseline: everything is covered, gate passes.
    let out = run(&["--baseline", baseline.to_str().unwrap(), float_pos.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));

    // A file with findings NOT in the baseline fails, and only the new
    // findings are reported (add semantics).
    let out = run(&[
        "--baseline",
        baseline.to_str().unwrap(),
        float_pos.to_str().unwrap(),
        panic_pos.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("panic-path"), "{text}");
    assert!(!text.contains("float-total-order"), "baselined findings leaked:\n{text}");
}

#[test]
fn fixed_baseline_entries_are_reported_stale_without_failing() {
    let dir = std::env::temp_dir().join("fslint-baseline-stale-test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let float_pos = fixture("sem/float_order_pos.rs");
    let panic_pos = fixture("sem/crates/stutter/src/panic_pos.rs");

    let out = run(&[
        "--write-baseline",
        baseline.to_str().unwrap(),
        float_pos.to_str().unwrap(),
        panic_pos.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));

    // "Fix" the panic findings by dropping that file from the run: the gate
    // stays green (remove semantics) but the stale entry is surfaced.
    let out = run(&["--baseline", baseline.to_str().unwrap(), float_pos.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stale baseline entry"), "{err}");
    assert!(err.contains("panic_pos.rs"), "{err}");
}

#[test]
fn prune_baseline_drops_stale_entries_and_reopens_the_gate() {
    let dir = std::env::temp_dir().join("fslint-baseline-prune-test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let float_pos = fixture("sem/float_order_pos.rs");
    let panic_pos = fixture("sem/crates/stutter/src/panic_pos.rs");

    // Record both files' findings as accepted debt.
    let out = run(&[
        "--write-baseline",
        baseline.to_str().unwrap(),
        float_pos.to_str().unwrap(),
        panic_pos.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));

    // "Fix" the panic findings by dropping that file, pruning as we go:
    // the gate stays green and the baseline is rewritten in place.
    let out = run(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--prune-baseline",
        float_pos.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("pruned"), "{err}");
    let rewritten = std::fs::read_to_string(&baseline).unwrap();
    assert!(!rewritten.contains("panic_pos.rs"), "stale key survived the prune:\n{rewritten}");
    assert!(rewritten.contains("float_order_pos.rs"), "live key was lost:\n{rewritten}");

    // A second baselined run is quiet: nothing stale remains to report.
    let out = run(&["--baseline", baseline.to_str().unwrap(), float_pos.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("stale"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Reintroducing the file now fails the gate: the debt was truly
    // dropped, not hidden.
    let out = run(&[
        "--baseline",
        baseline.to_str().unwrap(),
        float_pos.to_str().unwrap(),
        panic_pos.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("panic-path"));
}

#[test]
fn prune_baseline_without_baseline_is_a_usage_error() {
    let out = run(&["--prune-baseline", fixture("wall_clock_neg.rs").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
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
fn bad_baseline_usage_is_a_usage_error() {
    let dir = std::env::temp_dir().join("fslint-baseline-bad-test");
    std::fs::create_dir_all(&dir).unwrap();
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{\"not\": \"a baseline\"}").unwrap();
    let neg = fixture("wall_clock_neg.rs");

    let out = run(&["--baseline", garbled.to_str().unwrap(), neg.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    let missing = dir.join("no-such-file.json");
    let out = run(&["--baseline", missing.to_str().unwrap(), neg.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    let out = run(&["--baseline", garbled.to_str().unwrap(), "--write-baseline", "x"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn format_sarif_emits_a_sarif_document() {
    let out = run(&["--format", "sarif", fixture("unordered_pos.rs").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "findings still fail the gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"version\": \"2.1.0\""), "{text}");
    assert!(text.contains("\"ruleId\": \"no-unordered-collections\""), "{text}");
    assert!(text.contains("\"physicalLocation\""), "{text}");
    // Every driver rule links to its TESTING.md table section and declares
    // its default level, so GitHub annotations carry doc links.
    assert!(text.contains("\"helpUri\": \"https://github.com/"), "{text}");
    assert!(text.contains("docs/TESTING.md#"), "{text}");
    assert!(text.contains("\"defaultConfiguration\": {\"level\": \"error\"}"), "{text}");
    assert!(text.contains("\"defaultConfiguration\": {\"level\": \"warning\"}"), "{text}");
    assert!(text.contains("#effect-scoping"), "v6 rules link their section: {text}");

    // A clean run emits an empty results array and exits 0.
    let out = run(&["--format", "sarif", fixture("wall_clock_neg.rs").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"results\": []"));

    let out = run(&["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2), "unknown format is a usage error");
}

#[test]
fn suppression_that_only_silences_baselined_findings_is_stale() {
    // Lifecycle: a suppression and a baseline entry covering the SAME
    // finding cannot both be load-bearing. The engine flags the
    // suppression as stale; `--allow` + `--prune-baseline` then resolve
    // the overlap in favour of the inline reason.
    let dir = std::env::temp_dir().join("fslint-suppress-baseline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("clocky.rs");
    std::fs::write(
        &file,
        "//! Test input: one suppressed wall-clock read.\n\
         fn measure() {\n\
             // fslint: allow(no-wall-clock) — calibrates against the host clock\n\
             let t = std::time::Instant::now();\n\
             drop(t);\n\
         }\n",
    )
    .unwrap();
    let baseline = dir.join("baseline.json");
    let root_arg = dir.to_string_lossy().into_owned();
    let file_arg = file.to_string_lossy().into_owned();

    // Alone, the suppression silences a live finding: used, gate green.
    let out = run(&["--root", &root_arg, &file_arg]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));

    // Record the same finding as baseline debt (hand-written: with the
    // suppression in place, --write-baseline would see nothing).
    std::fs::write(
        &baseline,
        "{\"baseline\": [{\"rule\": \"no-wall-clock\", \"path\": \"clocky.rs\", \"count\": 1}]}",
    )
    .unwrap();

    // Now the suppression only re-silences recorded debt: stale, and the
    // stale finding itself is new relative to the baseline — gate fails.
    let out = run(&["--root", &root_arg, "--baseline", baseline.to_str().unwrap(), &file_arg]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("suppression-stale"), "{text}");
    assert!(text.contains("baseline already records"), "{text}");

    // Resolution: keep the inline reason, drop the baseline entry. The
    // suppressed finding never reaches the baseline, so its entry is
    // stale debt and --prune-baseline removes it.
    let out = run(&[
        "--root",
        &root_arg,
        "--baseline",
        baseline.to_str().unwrap(),
        "--prune-baseline",
        "--allow",
        "suppression-stale",
        &file_arg,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let rewritten = std::fs::read_to_string(&baseline).unwrap();
    assert!(!rewritten.contains("clocky.rs"), "overlapping entry survived:\n{rewritten}");

    // Against the pruned baseline the suppression is load-bearing again.
    let out = run(&["--root", &root_arg, "--baseline", baseline.to_str().unwrap(), &file_arg]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
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
