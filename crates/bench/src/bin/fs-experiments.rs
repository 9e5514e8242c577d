//! Regenerates the paper's claims as tables and shape findings.
//!
//! Usage:
//!
//! ```text
//! fs-experiments                 # run everything
//! fs-experiments e01 e11        # a subset by id
//! fs-experiments --list         # list experiment ids and titles
//! fs-experiments --markdown     # tables as Markdown
//! fs-experiments --json DIR     # additionally write BENCH_<slug>.json
//! ```
//!
//! Every id and flag is resolved before anything runs or is written: bad
//! input exits 2 with a one-line error. Exit status is 1 when a finding
//! fails.

use std::process::ExitCode;

use fs_bench::experiments::{self, Experiment};
use fs_bench::report::Report;

struct Args {
    list: bool,
    markdown: bool,
    json_dir: Option<String>,
    selected: Vec<Experiment>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { list: false, markdown: false, json_dir: None, selected: Vec::new() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => args.list = true,
            "--markdown" => args.markdown = true,
            "--json" => args.json_dir = Some(it.next().ok_or("--json needs a directory argument")?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id => args
                .selected
                .push(experiments::by_id(id).ok_or_else(|| format!("unknown experiment id {id}"))?),
        }
    }
    if args.selected.is_empty() {
        args.selected = experiments::all();
    }
    Ok(args)
}

/// Writes `BENCH_<slug>.json` into `dir` for each experiment run.
fn write_json(dir: &str, runs: &[(Experiment, Report)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for (e, report) in runs {
        let path = format!("{dir}/BENCH_{}.json", e.slug);
        std::fs::write(&path, report.render_json(e.id, e.slug, e.title, e.source))
            .map_err(|err| format!("cannot write {path}: {err}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fs-experiments: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for e in experiments::all() {
            println!("{}  {}  ({})", e.id, e.title, e.source);
        }
        return ExitCode::SUCCESS;
    }
    // Each experiment runs once; the JSON and the text render its report.
    let runs: Vec<(Experiment, Report)> = args.selected.iter().map(|&e| (e, (e.run)())).collect();
    if let Some(dir) = &args.json_dir {
        if let Err(e) = write_json(dir, &runs) {
            eprintln!("fs-experiments: {e}");
            return ExitCode::FAILURE;
        }
    }

    let (text, all_pass) = fs_bench::render(&runs, args.markdown);
    println!("{text}");
    if !all_pass {
        eprintln!("some findings FAILED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
