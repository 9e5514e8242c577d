//! `fs-lint` — the tier-0 determinism gate (see the `fslint` crate docs).
//!
//! ```text
//! fs-lint [--root DIR] [--json] [--out FILE] [--graph-out FILE]
//!         [--timings] [--jobs N] [--list-rules] [FILE...]
//! ```
//!
//! With no `FILE` arguments the whole workspace under `--root` (default:
//! the current directory) is scanned; a `FILE` that is not a file (a
//! directory, a missing path) is a usage error. Stdout carries the line-oriented
//! text report, or the JSON report with `--json`. `--out` always writes
//! the JSON report to the given file (for CI artifacts) as well;
//! `--graph-out` writes the workspace call graph the scoping was derived
//! from, including the per-function taint, unit, and effect summaries.
//! `--timings` measures per-phase wall time (lex+parse, graph, flow,
//! units, effects, rules), prints it to stderr, and carries it in the
//! JSON report. `--jobs N` sets the workers, the calling thread among
//! them (default: `available_parallelism`, capped at 8), that run the
//! file scan, the call graph's file tasks, and the taint, unit and
//! effect passes and the per-file rules; with more than one worker the
//! pass and rule times overlap. Which worker runs which task never
//! changes output, so any `N` produces byte-identical reports. Exit
//! status: 0 clean, 1 findings, 2 usage error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fslint::{engine, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: fs-lint [--root DIR] [--json] [--out FILE] [--graph-out FILE] \
                     [--timings] [--jobs N] [--list-rules] [FILE...]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut out_file: Option<PathBuf> = None;
    let mut cfg = Config::default();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut graph_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(v) = args.next() else { return usage("--root needs a value") };
                root = PathBuf::from(v);
            }
            "--json" => json = true,
            "--out" => {
                let Some(v) = args.next() else { return usage("--out needs a value") };
                out_file = Some(PathBuf::from(v));
            }
            "--timings" => cfg.timings = true,
            "--jobs" => {
                let Some(v) = args.next() else { return usage("--jobs needs a thread count") };
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => cfg.jobs = Some(n),
                    _ => return usage(&format!("--jobs needs a positive integer, got `{v}`")),
                }
            }
            "--graph-out" => {
                let Some(v) = args.next() else { return usage("--graph-out needs a value") };
                cfg.graph_json = true;
                graph_out = Some(PathBuf::from(v));
            }
            "--list-rules" => {
                for r in fslint::RULES {
                    println!("{:<26} {}", r.id, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!("fs-lint: workspace determinism auditor\n\n{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage(&format!("unknown flag `{arg}`")),
            _ => files.push(PathBuf::from(arg)),
        }
    }

    // A FILE argument names one file; a directory or a missing path is a
    // usage error, never a finding.
    if let Some(bad) = files.iter().find(|f| !f.is_file()) {
        return usage(&format!(
            "`{}` is not a file; to lint a directory tree use --root DIR",
            bad.display()
        ));
    }

    let report = if files.is_empty() {
        engine::lint_workspace(&root, &cfg)
    } else {
        engine::lint_paths(&root, &files, &cfg)
    };

    if let Some(t) = &report.timings {
        eprintln!(
            "fs-lint: timings: lex+parse {}ms, graph {}ms, flow {}ms, units {}ms, \
             effects {}ms, rules {}ms, total {}ms",
            t.lex_parse_ms, t.graph_ms, t.flow_ms, t.units_ms, t.effects_ms, t.rules_ms, t.total_ms
        );
    }

    if let (Some(path), Some(doc)) = (&graph_out, &report.graph_json) {
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("fs-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if let Some(path) = out_file {
        if let Err(e) = std::fs::write(&path, engine::render_json(&report)) {
            eprintln!("fs-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", engine::render_json(&report));
    } else {
        print!("{}", engine::render_text(&report));
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fs-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
