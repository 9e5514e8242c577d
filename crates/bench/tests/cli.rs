//! Command-line contract of `fs-campaign`: bad input exits 2 with a
//! one-line error before any scenario runs, and `--list` prints every
//! label of the standard campaign.

use std::process::{Command, Output};

fn fs_campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fs-campaign"))
        .args(args)
        .output()
        .expect("fs-campaign should start")
}

/// Runs `args` and requires exit status 2 with a one-line error
/// containing `needle`, and nothing run.
fn rejected(args: &[&str], needle: &str) {
    let out = fs_campaign(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2; stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?} should print one error line: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr:?} should mention {needle:?}");
    assert!(out.stdout.is_empty(), "{args:?} should run nothing");
}

#[test]
fn zero_threads_is_rejected() {
    rejected(&["--threads", "0"], "--threads must be a positive integer");
}

#[test]
fn zero_replicates_is_rejected() {
    rejected(&["--replicates", "0"], "--replicates must be a positive integer");
}

#[test]
fn seed_without_a_value_is_rejected() {
    rejected(&["--seed"], "--seed requires a value");
}

#[test]
fn unknown_flag_is_rejected() {
    rejected(&["--bogus"], "unknown argument --bogus");
}

#[test]
fn unmatched_scenario_filter_is_rejected() {
    rejected(&["--scenario", "no-such-label"], "no scenario label contains");
}

#[test]
fn list_prints_every_standard_label() {
    let out = fs_campaign(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 360, "12 injectors x 5 kinds x 6 replicates");
}
