//! The `lint-corpus` workload: `fslint::lint_paths` over the frozen
//! corpus in `corpus/`, untraced and traced.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fslint::graph::{FileScope, FileUnit, Graph};
use fslint::rules::{self, FileCtx, Finding};
use fslint::{effects, flow, lint_paths, sem, suppress, Config};

use crate::stats::{measure, Outcome};
use crate::trace::Tracer;

/// The `.rs` files fs-lint scanned in the repository when the benchmark
/// was defined, with their workspace-relative paths.
const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
const CORPUS_FILES: usize = 151;
const CORPUS_LINES: usize = 39_705;

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Set-up: the default config and the sorted corpus file list.
fn setup() -> (Config, Vec<PathBuf>) {
    let mut files = Vec::new();
    walk(Path::new(CORPUS), &mut files);
    files.sort();
    (Config::default(), files)
}

/// Counts the corpus's lines; `None` when it is not the frozen corpus.
fn check_corpus(files: &[PathBuf]) -> Option<usize> {
    let lines: usize =
        files.iter().map(|f| fs::read_to_string(f).map_or(0, |s| s.lines().count())).sum();
    println!("lint corpus: {} files, {lines} lines", files.len());
    (files.len() == CORPUS_FILES && lines == CORPUS_LINES).then_some(lines)
}

/// The report's bytes: findings and scanned-file count.
fn report_bytes(report: &fslint::Report) -> String {
    format!("{} {:?}", report.files_scanned, report.findings)
}

/// The untraced run: see [`measure`]. A pass fails if it reports
/// findings or if its report differs from the first pass's.
pub fn run(seconds: u64, nproc: usize) -> Outcome {
    let (base, files) = setup();
    if check_corpus(&files).is_none() {
        return Outcome::broken();
    }
    let root = Path::new(CORPUS);
    let mut first: Option<String> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let metrics = measure(seconds, nproc, setup, |workers| {
        // The default config scans on one thread per core.
        let jobs = (workers == 1).then_some(1);
        let report = lint_paths(root, &files, &Config { jobs, ..base.clone() });
        let bytes = report_bytes(&report);
        attempted += 1;
        if !report.is_clean() || *first.get_or_insert_with(|| bytes.clone()) != bytes {
            failed += 1;
        }
        1
    });
    Outcome { attempted, failed, metrics }
}

/// Replays `lint_paths` phase by phase, in its order, with a span around
/// each public call; returns the findings left after suppressions.
fn replay(root: &Path, files: &[PathBuf], t: &Tracer) -> Vec<Finding> {
    let mut units: Vec<FileUnit> = Vec::with_capacity(files.len());
    for file in files {
        let source = fs::read_to_string(file).unwrap_or_default();
        let path = file.strip_prefix(root).unwrap_or(file).to_string_lossy().replace('\\', "/");
        units.push(t.span("fslint.lex_parse", || FileUnit::new(path, &source)));
    }
    let graph = t.span("fslint.graph", || Graph::build(&units));
    let graph_mode = graph.has_entries();
    let (flow_findings, _) = t.span("fslint.flow", || flow::analyze(&units, &graph));
    let (unit_findings, _) = t.span("fslint.units", || fslint::units::analyze(&units, &graph));
    let (effect_findings, _) = t.span("fslint.effects", || effects::analyze(&units, &graph));
    let mut program = if graph_mode {
        t.span("fslint.rules", || graph.whole_program_findings(&units))
    } else {
        Vec::new()
    };
    program.extend(flow_findings);
    program.extend(unit_findings);
    program.extend(effect_findings);

    let mut sites = Vec::new();
    let mut per_file = Vec::new();
    for (i, u) in units.iter().enumerate() {
        let ctx = FileCtx { path: u.path.clone(), lexed: &u.lexed };
        let mut found = Vec::new();
        t.span("fslint.rules", || rules::check_file(&ctx, &mut found));
        let scope = if graph_mode { graph.scope_for(i) } else { FileScope::unscoped() };
        t.span("fslint.rules", || sem::check_file(&ctx, &u.model, &scope, &mut found));
        sites.extend(rules::label_sites(&ctx));
        per_file.push((u.path.as_str(), suppress::scan(&u.lexed.comments), found));
    }
    let mut label_findings = Vec::new();
    rules::check_unique_stream_labels(&sites, &mut label_findings);
    let mut kept = Vec::new();
    for (path, scan, mut found) in per_file {
        found.extend(label_findings.iter().filter(|f| f.path == path).cloned());
        found.extend(program.iter().filter(|f| f.path == path).cloned());
        kept.extend(suppress::apply(path, &scan, found).0);
    }
    kept.sort();
    kept.dedup();
    kept
}

/// The traced run. Each round lints the corpus untraced with one scan
/// thread, then replays the phases twice, with the recorder off and on,
/// and checks that each replay leaves the same findings as `lint_paths`.
pub fn traced(seconds: u64) -> (Outcome, Tracer) {
    let (base, files) = setup();
    let tracer = Tracer::new();
    let Some(lines) = check_corpus(&files) else { return (Outcome::broken(), tracer) };
    let root = Path::new(CORPUS);
    let cfg = Config { jobs: Some(1), ..base };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut wall_untraced, mut wall_traced) = (0.0, 0.0);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rounds = 0u64;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        let report = lint_paths(root, &files, &cfg);
        failed += u64::from(!report.is_clean());
        attempted += 1;
        let expected: Vec<&Finding> =
            report.findings.iter().filter(|f| f.rule != rules::id::SUPPRESSION_STALE).collect();
        let mut replay_timed = |t: &Tracer| {
            let t0 = Instant::now();
            t.begin_cell(format!("lint/pass{rounds}"));
            let kept = t.span("fslint.lint", || replay(root, &files, t));
            attempted += 1;
            if kept.iter().collect::<Vec<_>>() != expected {
                eprintln!(
                    "lint replay left {} finding(s), lint_paths {}",
                    kept.len(),
                    expected.len()
                );
                failed += 1;
            }
            t0.elapsed().as_secs_f64()
        };
        // Alternate which replay goes first, so that warm-up effects
        // cancel out of `trace.overhead`.
        let (off, on) = if rounds % 2 == 1 {
            let off = replay_timed(&Tracer::off());
            (off, replay_timed(&tracer))
        } else {
            let on = replay_timed(&tracer);
            (replay_timed(&Tracer::off()), on)
        };
        eprintln!("round {rounds}: replay {off:.6} s untraced, {on:.6} s traced");
        wall_untraced += off;
        wall_traced += on;
    }

    let agg = tracer.aggregate();
    let per_pass = |name: &str| agg.get(name).map_or(0.0, |a| a.self_ms() / rounds as f64);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("fslint.lex_parse_ms", per_pass("fslint.lex_parse"));
    m.insert("fslint.graph_ms", per_pass("fslint.graph"));
    m.insert("fslint.flow_ms", per_pass("fslint.flow"));
    m.insert("fslint.units_ms", per_pass("fslint.units"));
    m.insert("fslint.effects_ms", per_pass("fslint.effects"));
    m.insert("fslint.rules_ms", per_pass("fslint.rules"));
    m.insert("fslint.files", files.len() as f64);
    m.insert("fslint.lines", lines as f64);
    m.insert("trace.overhead", wall_traced / wall_untraced - 1.0);
    println!("traced {rounds} lint pass(es) over {} files", files.len());
    (Outcome { attempted, failed, metrics: m }, tracer)
}
