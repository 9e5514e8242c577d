//! File discovery, orchestration, and report formatting.
//!
//! The engine runs in two phases. Phase one walks `crates/`, `src/`,
//! `tests/`, and `examples/` under the workspace root (skipping `vendor/`,
//! build `target/`s, and lint-test `fixtures/` trees) and lexes + parses
//! every `.rs` file — sharded over worker threads, with each file's result
//! landing in its own pre-assigned slot so the unit order (and therefore
//! every downstream id and finding) is identical to a sequential scan.
//! Phase two builds the workspace call graph ([`crate::graph`]) over the
//! whole set, then runs the per-file rules with graph-derived scopes, the
//! whole-program rules (`oracle-coverage`, `dead-scenario`), the taint,
//! unit and effect passes ([`crate::flow`], [`crate::units`],
//! [`crate::effects`]), and inline suppressions — reporting any
//! suppression that no longer silences a finding as `suppression-stale`.
//! Output is deterministic regardless of sharding: units keep the sorted
//! file order and findings are sorted by (path, line, rule) before emit.

use crate::flow;
use crate::graph::{FileScope, FileUnit, Graph};
use crate::rules::{self, FileCtx, Finding, LabelSite};
use crate::sem;
use crate::suppress;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target", "fixtures", ".git"];

/// Top-level entry points of the scan, relative to the root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Engine configuration.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Export the call graph in the report (`--graph-out`).
    pub graph_json: bool,
    /// Measure per-phase wall time and carry it in the report
    /// (`--timings`). Off by default so repeated runs stay byte-identical.
    pub timings: bool,
    /// Cap on scan shard threads (`--jobs N`). `None` uses
    /// `available_parallelism`. Sharding only changes which thread lexes
    /// which file — output is byte-identical at any setting.
    pub jobs: Option<usize>,
}

/// A completed lint run.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files lexed and checked.
    pub files_scanned: usize,
    /// The call-graph JSON document, when [`Config::graph_json`] is set.
    pub graph_json: Option<String>,
    /// Per-phase wall times, when [`Config::timings`] is set.
    pub timings: Option<PhaseTimings>,
}

/// Wall time spent in each engine phase, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Phase one: read + lex + parse, across all shards.
    pub lex_parse_ms: u64,
    /// Call-graph construction and reachability fixpoints.
    pub graph_ms: u64,
    /// Interprocedural taint analysis.
    pub flow_ms: u64,
    /// Interprocedural unit inference.
    pub units_ms: u64,
    /// Interprocedural effect analysis.
    pub effects_ms: u64,
    /// Per-file rules, whole-program rules, and suppression routing.
    pub rules_ms: u64,
    /// End-to-end lint time.
    pub total_ms: u64,
}

// Timings are diagnostics about the lint run itself, not part of any
// simulated artifact, so this is the one sanctioned wall-clock read in
// the workspace outside `crates/bench`.
// fslint: allow(no-wall-clock) — measures the linter's own phases, never sim state
type PhaseClock = std::time::Instant;

/// A per-phase stopwatch; inert (and cost-free) unless enabled.
struct Timer {
    t0: Option<PhaseClock>,
    last: Option<PhaseClock>,
}

impl Timer {
    fn start(on: bool) -> Timer {
        let now = on.then(PhaseClock::now);
        Timer { t0: now, last: now }
    }

    /// Milliseconds since the previous lap (0 when disabled).
    fn lap(&mut self) -> u64 {
        let Some(prev) = self.last else { return 0 };
        let now = PhaseClock::now();
        self.last = Some(now);
        now.duration_since(prev).as_millis() as u64
    }

    /// Milliseconds since the timer started (0 when disabled).
    fn total(&self) -> u64 {
        self.t0.map_or(0, |t0| PhaseClock::now().duration_since(t0).as_millis() as u64)
    }
}

impl Report {
    /// True when the run found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Collects every `.rs` file under the scan roots, sorted.
pub fn collect_workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        walk(&root.join(sub), &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints the whole workspace under `root`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Report {
    lint_paths(root, &collect_workspace_files(root), cfg)
}

/// Lints exactly `files` (cross-file and whole-program rules run across
/// this set), reporting paths relative to `root` where possible.
pub fn lint_paths(root: &Path, files: &[PathBuf], cfg: &Config) -> Report {
    let mut findings = Vec::new();
    let mut timer = Timer::start(cfg.timings);
    let mut phases = PhaseTimings::default();

    // Phase one: read, lex, and parse every file, sharded over worker
    // threads. Each file's result lands in the slot matching its position
    // in the (sorted) input list, so the assembled `units` vector — and
    // with it every node id, scope, and finding downstream — is identical
    // to what a sequential scan would produce, whatever the interleaving.
    type ScanSlot = Option<Result<FileUnit, (String, String)>>;
    let workers = match cfg.jobs {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
    };
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<ScanSlot>> = Mutex::new(files.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(files.len().max(1)) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(file) = files.get(i) else { break };
                let rel = file.strip_prefix(root).unwrap_or(file);
                let path = rel.to_string_lossy().replace('\\', "/");
                let slot = match fs::read_to_string(file) {
                    Ok(source) => Ok(FileUnit::new(path, &source)),
                    Err(e) => Err((path, format!("could not read file: {e}"))),
                };
                slots.lock().unwrap_or_else(|p| p.into_inner())[i] = Some(slot);
            });
        }
    });
    let mut units: Vec<FileUnit> = Vec::with_capacity(files.len());
    // Every slot is filled: a worker that panics mid-file takes the run
    // down with it, because the scope re-raises the panic on join.
    for slot in slots.into_inner().unwrap_or_else(|p| p.into_inner()).into_iter().flatten() {
        match slot {
            Ok(unit) => units.push(unit),
            Err((path, message)) => findings.push(Finding {
                path,
                line: 0,
                rule: rules::id::MALFORMED_SUPPRESSION,
                message,
            }),
        }
    }

    phases.lex_parse_ms = timer.lap();

    // Phase two: the call graph over the whole set. A set with no entry
    // points (single-file runs, fixture subsets) has nothing to seed the
    // reachability fixpoints from: those runs get the empty scope, and
    // only the everywhere rules apply.
    let graph = Graph::build(&units);
    let graph_mode = graph.has_entries();
    phases.graph_ms = timer.lap();
    // The taint analysis needs edges, not entry roots — it runs on every
    // set, so single-file and fixture runs still prove their flows.
    let (flow_findings, taint) = flow::analyze(&units, &graph);
    phases.flow_ms = timer.lap();
    // Same for the unit inference: summaries propagate over edges alone.
    let (unit_findings, usum) = crate::units::analyze(&units, &graph);
    phases.units_ms = timer.lap();
    // And the effect pass: write/interior/static/RNG/sched summaries to a
    // fixpoint, then `oracle-pure`, `injection-scoped`, `mitigation-effect`.
    let (effect_findings, esum) = crate::effects::analyze(&units, &graph);
    phases.effects_ms = timer.lap();
    let graph_json = cfg.graph_json.then(|| graph.render_json(&units, &taint, &usum, &esum));
    let mut program_findings =
        if graph_mode { graph.whole_program_findings(&units) } else { Vec::new() };
    program_findings.extend(flow_findings);
    program_findings.extend(unit_findings);
    program_findings.extend(effect_findings);

    let mut sites: Vec<LabelSite> = Vec::new();
    let mut per_file: Vec<(usize, suppress::Scan, Vec<Finding>)> = Vec::new();
    for (i, u) in units.iter().enumerate() {
        let ctx = FileCtx { path: u.path.clone(), lexed: &u.lexed };
        let mut file_findings = Vec::new();
        rules::check_file(&ctx, &mut file_findings);
        let scope = if graph_mode { graph.scope_for(i) } else { FileScope::unscoped() };
        sem::check_file(&ctx, &u.model, &scope, &mut file_findings);
        sites.extend(rules::label_sites(&ctx));
        per_file.push((i, suppress::scan(&u.lexed.comments), file_findings));
    }

    // Cross-file and whole-program findings are pooled over the full set,
    // then routed back through their own file's suppressions.
    let mut label_findings = Vec::new();
    rules::check_unique_stream_labels(&sites, &mut label_findings);
    for (i, scan, file_findings) in &mut per_file {
        let path = units[*i].path.as_str();
        file_findings.extend(label_findings.iter().filter(|f| f.path == path).cloned());
        file_findings.extend(program_findings.iter().filter(|f| f.path == path).cloned());
        let (kept, silenced) = suppress::apply(path, scan, std::mem::take(file_findings));
        findings.extend(kept);
        for (s, _) in scan.suppressions.iter().zip(silenced).filter(|&(_, silenced)| !silenced) {
            findings.push(Finding {
                path: path.to_string(),
                line: s.end_line,
                rule: rules::id::SUPPRESSION_STALE,
                message: format!(
                    "suppression of `{}` no longer silences any finding — the invariant \
                     it documented is machine-checked or gone; delete the comment",
                    s.rules.join(", ")
                ),
            });
        }
    }

    findings.sort();
    findings.dedup();
    phases.rules_ms = timer.lap();
    phases.total_ms = timer.total();
    let timings = cfg.timings.then_some(phases);
    Report { findings, files_scanned: files.len(), graph_json, timings }
}

/// Renders the report as line-oriented human output.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!("{}:{}: [{}] {}\n", f.path, f.line, f.rule, f.message));
    }
    out.push_str(&format!(
        "fs-lint: {} file(s) scanned, {} finding(s)\n",
        report.files_scanned,
        report.findings.len()
    ));
    out
}

/// Renders the report as a JSON document (for CI artifacts).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"finding_count\": {},\n", report.findings.len()));
    if let Some(t) = &report.timings {
        out.push_str(&format!(
            "  \"timings_ms\": {{\"lex_parse\": {}, \"graph\": {}, \"flow\": {}, \
             \"units\": {}, \"effects\": {}, \"rules\": {}, \"total\": {}}},\n",
            t.lex_parse_ms, t.graph_ms, t.flow_ms, t.units_ms, t.effects_ms, t.rules_ms, t.total_ms
        ));
    }
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            json_str(&f.message)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escapes a string for JSON output.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn empty_report_renders_empty_array() {
        let r = Report { findings: Vec::new(), files_scanned: 3, graph_json: None, timings: None };
        let json = render_json(&r);
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"finding_count\": 0"));
    }
}
