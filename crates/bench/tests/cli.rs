//! Command-line contracts of `fs-campaign` and `fs-experiments`: bad
//! input exits 2 with a one-line error before anything runs or is
//! written, and `fs-campaign --list` prints every label of the standard
//! campaign.

use std::process::{Command, Output};

const FS_CAMPAIGN: &str = env!("CARGO_BIN_EXE_fs-campaign");
const FS_EXPERIMENTS: &str = env!("CARGO_BIN_EXE_fs-experiments");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("the binary should start")
}

/// Runs `bin` with `args` and requires exit status 2 with a one-line
/// error containing `needle`, and nothing run.
fn rejected(bin: &str, args: &[&str], needle: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2; stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?} should print one error line: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr:?} should mention {needle:?}");
    assert!(out.stdout.is_empty(), "{args:?} should run nothing");
}

#[test]
fn zero_threads_is_rejected() {
    rejected(FS_CAMPAIGN, &["--threads", "0"], "--threads must be a positive integer");
}

#[test]
fn zero_replicates_is_rejected() {
    rejected(FS_CAMPAIGN, &["--replicates", "0"], "--replicates must be a positive integer");
}

#[test]
fn seed_without_a_value_is_rejected() {
    rejected(FS_CAMPAIGN, &["--seed"], "--seed requires a value");
}

#[test]
fn unknown_flag_is_rejected() {
    rejected(FS_CAMPAIGN, &["--bogus"], "unknown argument --bogus");
}

#[test]
fn unmatched_scenario_filter_is_rejected() {
    rejected(FS_CAMPAIGN, &["--scenario", "no-such-label"], "no scenario label contains");
}

#[test]
fn list_prints_every_standard_label() {
    let out = run(FS_CAMPAIGN, &["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 360, "12 injectors x 5 kinds x 6 replicates");
}

#[test]
fn unknown_experiment_id_is_rejected() {
    rejected(FS_EXPERIMENTS, &["e99"], "unknown experiment id e99");
}

#[test]
fn unknown_experiments_flag_is_rejected() {
    rejected(FS_EXPERIMENTS, &["--jsn", "out"], "unknown flag --jsn");
}

#[test]
fn json_without_a_directory_is_rejected() {
    rejected(FS_EXPERIMENTS, &["e34", "--json"], "--json needs a directory argument");
}

#[test]
fn a_bad_id_writes_no_artifact() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-bad-id-artifacts");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("the target directory is UTF-8");
    rejected(FS_EXPERIMENTS, &["e34", "e99", "--json", dir_arg], "unknown experiment id e99");
    assert!(!dir.exists(), "{} should not be created", dir.display());
}
