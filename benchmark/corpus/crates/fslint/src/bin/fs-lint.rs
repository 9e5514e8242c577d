//! `fs-lint` — the tier-0 determinism gate (see the `fslint` crate docs).
//!
//! ```text
//! fs-lint [--root DIR] [--format text|json|sarif] [--json] [--out FILE]
//!         [--graph-out FILE] [--timings] [--jobs N] [--allow RULE]...
//!         [--baseline FILE [--prune-baseline] | --write-baseline FILE]
//!         [--list-rules] [FILE...]
//! ```
//!
//! With no `FILE` arguments the whole workspace under `--root` (default:
//! the current directory) is scanned. `--format` picks the stdout
//! rendering: line-oriented `text` (default), the `json` report (`--json`
//! is a shorthand), or a SARIF 2.1.0 document (`sarif`) GitHub code
//! scanning can annotate PRs from. `--out` always writes the JSON report
//! to the given file (for CI artifacts) in addition to the chosen stdout
//! format; `--graph-out` writes the workspace call graph the scoping was
//! derived from, including the per-function taint, unit, and effect
//! summaries. `--timings` measures per-phase wall time (lex+parse, graph,
//! flow, units, effects, rules), prints it to stderr, and carries it in
//! the JSON report. `--jobs N` caps the scan shard threads (default:
//! `available_parallelism`, capped at 8); sharding never changes output,
//! so any `N` produces byte-identical reports.
//! `--write-baseline` records the findings of this run as accepted debt
//! and exits 0; `--baseline` fails only on findings beyond that recorded
//! debt and reports fixed-but-still-listed entries as stale, and
//! `--prune-baseline` rewrites the baseline file with those stale entries
//! dropped (see the crate's `baseline` module docs). The baseline is read
//! *before* linting so the engine can flag suppressions that only silence
//! baselined findings as `suppression-stale`. Exit status: 0 clean, 1
//! findings, 2 usage error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fslint::baseline::Baseline;
use fslint::{engine, sarif, Config};
use std::path::PathBuf;
use std::process::ExitCode;

/// Stdout rendering selected by `--format`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut out_file: Option<PathBuf> = None;
    let mut cfg = Config::default();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut baseline_file: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut prune_baseline = false;
    let mut graph_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(v) = args.next() else { return usage("--root needs a value") };
                root = PathBuf::from(v);
            }
            "--json" => format = Format::Json,
            "--format" => {
                let Some(v) = args.next() else {
                    return usage("--format needs one of text, json, sarif");
                };
                format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return usage(&format!("unknown format `{other}`")),
                };
            }
            "--out" => {
                let Some(v) = args.next() else { return usage("--out needs a value") };
                out_file = Some(PathBuf::from(v));
            }
            "--allow" => {
                let Some(v) = args.next() else { return usage("--allow needs a rule id") };
                if !fslint::rules::is_known_rule(&v) {
                    return usage(&format!("unknown rule `{v}` (try --list-rules)"));
                }
                cfg.allow.insert(v);
            }
            "--baseline" => {
                let Some(v) = args.next() else { return usage("--baseline needs a file") };
                baseline_file = Some(PathBuf::from(v));
            }
            "--write-baseline" => {
                let Some(v) = args.next() else {
                    return usage("--write-baseline needs a file");
                };
                write_baseline = Some(PathBuf::from(v));
            }
            "--prune-baseline" => prune_baseline = true,
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
                println!(
                    "fs-lint: workspace determinism auditor\n\n\
                     usage: fs-lint [--root DIR] [--format text|json|sarif] [--json] \
                     [--out FILE] [--graph-out FILE] [--timings] [--jobs N] \
                     [--allow RULE]... \
                     [--baseline FILE [--prune-baseline] | --write-baseline FILE] \
                     [--list-rules] [FILE...]"
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage(&format!("unknown flag `{arg}`")),
            _ => files.push(PathBuf::from(arg)),
        }
    }

    if baseline_file.is_some() && write_baseline.is_some() {
        return usage("--baseline and --write-baseline are mutually exclusive");
    }
    if prune_baseline && baseline_file.is_none() {
        return usage("--prune-baseline needs --baseline FILE");
    }

    // The baseline is parsed up front: the engine needs its (rule, path)
    // keys while linting to tell a load-bearing suppression from one that
    // only re-silences recorded debt.
    let baseline = match &baseline_file {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("fs-lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match Baseline::parse(&text) {
                Ok(b) => {
                    cfg.baselined = b.keys().cloned().collect();
                    Some(b)
                }
                Err(e) => {
                    eprintln!("fs-lint: bad baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let mut report = if files.is_empty() {
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

    if let Some(path) = write_baseline {
        let b = Baseline::from_findings(&report.findings);
        if let Err(e) = std::fs::write(&path, b.render()) {
            eprintln!("fs-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "fs-lint: wrote baseline {} ({} finding(s) across {} rule/path key(s))",
            path.display(),
            report.findings.len(),
            b.len()
        );
        // Recording debt is the acknowledgement step: always succeeds.
        return ExitCode::SUCCESS;
    }

    if let (Some(b), Some(path)) = (&baseline, &baseline_file) {
        let diff = b.apply(std::mem::take(&mut report.findings));
        if prune_baseline && !diff.stale.is_empty() {
            let pruned = b.pruned(&diff.stale);
            if let Err(e) = std::fs::write(path, pruned.render()) {
                eprintln!("fs-lint: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!(
                "fs-lint: pruned {} stale entr{} from {} ({} key(s) remain)",
                diff.stale.len(),
                if diff.stale.len() == 1 { "y" } else { "ies" },
                path.display(),
                pruned.len()
            );
        } else {
            for (rule, path, unused) in &diff.stale {
                eprintln!(
                    "fs-lint: note: stale baseline entry {rule} at {path} \
                     ({unused} finding(s) fixed) — re-run with --prune-baseline to drop it"
                );
            }
        }
        report.findings = diff.new;
    }

    if let Some(path) = out_file {
        if let Err(e) = std::fs::write(&path, engine::render_json(&report)) {
            eprintln!("fs-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    match format {
        Format::Json => print!("{}", engine::render_json(&report)),
        Format::Sarif => print!("{}", sarif::render(&report)),
        Format::Text => print!("{}", engine::render_text(&report)),
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fs-lint: {msg}");
    eprintln!(
        "usage: fs-lint [--root DIR] [--format text|json|sarif] [--json] [--out FILE] \
         [--graph-out FILE] [--timings] [--jobs N] [--allow RULE]... \
         [--baseline FILE [--prune-baseline] | --write-baseline FILE] [FILE...]"
    );
    ExitCode::from(2)
}
