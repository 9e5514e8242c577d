//! File discovery, orchestration, and report formatting.
//!
//! The engine runs in two phases, each a set of tasks that the calling
//! thread and `jobs - 1` scoped ones pull from one atomic cursor (one
//! work loop, `run_tasks`). Each task writes its own slot, so results
//! come back in task order whichever thread ran which task, and one job
//! starts no thread at all: a one-thread run allocates and frees in the
//! caller's heap alone. Phase one walks `crates/`, `src/`, `tests/`, and
//! `examples/` under the workspace root (skipping `vendor/`, build
//! `target/`s, and lint-test `fixtures/` trees) and reads, lexes and
//! parses every `.rs` file, one task per file; a file's read buffer
//! moves into its [`FileUnit`] uncopied. Between the phases the
//! workspace call graph ([`crate::graph`]) is built over the whole set,
//! on the same loop: the calling thread builds the tables every file
//! reads, one task per file resolves that file's call sites and marks
//! its scheduling code, and the calling thread merges the results in
//! file order. Phase two reads only the units and the graph:
//! its tasks are the taint, unit and effect passes ([`crate::flow`],
//! [`crate::units`], [`crate::effects`]), in that order, then one task
//! per file for the per-file rules with graph-derived scopes, the label
//! sites and the inline suppressions. After the join the whole-program
//! rules (`oracle-coverage`, `dead-scenario`) run, every finding is
//! routed through its own file's suppressions, and any suppression that
//! no longer silences a finding is reported as `suppression-stale`.
//! Output is deterministic at any job count: units keep the sorted file
//! order, results merge in task order, and findings are sorted by (path,
//! line, rule) before emit.

use crate::effects::{self, EffectSummary};
use crate::flow::{self, TaintSummary};
use crate::graph::{FileScope, FileUnit, Graph};
use crate::rules::{self, FileCtx, Finding, LabelSite};
use crate::sem;
use crate::suppress;
use crate::units::{self, UnitSummary};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

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
    /// Worker threads, the calling thread among them (`--jobs N`), for
    /// every task: the file scan, the call graph's file tasks, and the
    /// passes and per-file rules after it. `Some(1)` runs every task on
    /// the caller alone, in order. `None` uses `available_parallelism`,
    /// capped at 8. The job count only changes which thread runs which
    /// task — output is byte-identical at any setting.
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

/// Wall time spent in each engine phase, in milliseconds. The flow,
/// units, effects and rules times are each their own tasks' time: with
/// more than one worker those tasks overlap, so the phase times can sum
/// to more than `total_ms`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Phase one: read + lex + parse, across all workers.
    pub lex_parse_ms: u64,
    /// Call-graph construction and reachability fixpoints, across all
    /// workers: the tables, the file tasks and the merge.
    pub graph_ms: u64,
    /// Interprocedural taint analysis.
    pub flow_ms: u64,
    /// Interprocedural unit inference.
    pub units_ms: u64,
    /// Interprocedural effect analysis.
    pub effects_ms: u64,
    /// Per-file rules summed over the file tasks, then whole-program
    /// rules and suppression routing.
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

    /// Runs `f`; returns its result and its wall time (zero when disabled).
    fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = self.t0.map(|_| PhaseClock::now());
        let out = f();
        (out, start.map_or(Duration::ZERO, |s| PhaseClock::now().duration_since(s)))
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

/// Runs `task(0)` … `task(tasks - 1)` on the calling thread and `workers -
/// 1` scoped ones, each pulling the next index from one atomic cursor, and
/// returns the results in index order: each task writes its own slot, so
/// the result is the same whichever thread ran which task. One worker
/// starts no thread and runs the tasks in index order. A task that panics
/// takes the run down: the scope re-raises the panic once it has joined
/// every thread, so `fs-lint` exits 101.
pub(crate) fn run_tasks<T: Send>(
    workers: usize,
    tasks: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..tasks).map(|_| None).collect());
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            break;
        }
        let done = task(i);
        slots.lock().unwrap_or_else(|p| p.into_inner())[i] = Some(done);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(tasks) {
            scope.spawn(work);
        }
        work();
    });
    // Every slot is filled: a panicking task never returns here.
    slots.into_inner().unwrap_or_else(|p| p.into_inner()).into_iter().flatten().collect()
}

/// What one phase-two task leaves in its slot.
enum Done<'a> {
    Flow((Vec<Finding>, Vec<Option<TaintSummary>>)),
    Units((Vec<Finding>, Vec<Option<UnitSummary>>)),
    Effects((Vec<Finding>, Vec<Option<EffectSummary<'a>>>)),
    /// A file's own rule findings, its label sites and its suppressions.
    File(Vec<Finding>, Vec<LabelSite>, suppress::Scan),
}

/// Phase two's tasks ahead of the file tasks: the three passes.
const PASSES: usize = 3;

/// Lints exactly `files` (cross-file and whole-program rules run across
/// this set), reporting paths relative to `root` where possible.
pub fn lint_paths(root: &Path, files: &[PathBuf], cfg: &Config) -> Report {
    let mut findings = Vec::new();
    let mut timer = Timer::start(cfg.timings);
    let mut phases = PhaseTimings::default();
    let workers = match cfg.jobs {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
    };

    // Phase one: read, lex, and parse every file, one task per file. Each
    // result comes back at its file's position in the (sorted) input list,
    // so the assembled `units` vector — and with it every node id, scope,
    // and finding downstream — is what a sequential scan would produce.
    let scanned = run_tasks(workers, files.len(), |i| {
        let file = &files[i];
        let rel = file.strip_prefix(root).unwrap_or(file);
        let path = rel.to_string_lossy().replace('\\', "/");
        match fs::read_to_string(file) {
            Ok(source) => Ok(FileUnit::new(path, source)),
            Err(e) => Err((path, format!("could not read file: {e}"))),
        }
    });
    let mut units: Vec<FileUnit> = Vec::with_capacity(files.len());
    for slot in scanned {
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

    // The call graph over the whole set, its file tasks on the same
    // workers. A set with no entry points (single-file runs, fixture
    // subsets) has nothing to seed the reachability fixpoints from: those
    // runs get the empty scope, and only the everywhere rules apply.
    let graph = Graph::build_on(&units, workers);
    let graph_mode = graph.has_entries();
    phases.graph_ms = timer.lap();

    // Phase two reads only `units` and `graph`. Its tasks are the three
    // passes, in the order a one-thread lint has always run them, then
    // one task per file, so the file tasks fill in behind the passes.
    // Longest first (units, effects, flow) ends no sooner on two workers,
    // and on the benchmark corpus (2-vCPU host) its peak RSS per pass read
    // about 0.7 MiB higher at one worker and at two. The passes need
    // edges, not entry roots — they run on every set, so single-file and
    // fixture runs still prove their flows, units and effects.
    let done = run_tasks(workers, PASSES + units.len(), |t| {
        timer.time(|| match t {
            0 => Done::Flow(flow::analyze(&units, &graph)),
            1 => Done::Units(units::analyze(&units, &graph)),
            2 => Done::Effects(effects::analyze(&units, &graph)),
            t => {
                let (i, u) = (t - PASSES, &units[t - PASSES]);
                let ctx = FileCtx { path: u.path.clone(), lexed: &u.lexed };
                let mut found = Vec::new();
                rules::check_file(&ctx, &mut found);
                let scope = if graph_mode { graph.scope_for(i) } else { FileScope::unscoped() };
                sem::check_file(&ctx, &u.model, &scope, &mut found);
                Done::File(found, rules::label_sites(&ctx), suppress::scan(&u.lexed.comments))
            }
        })
    });
    // The tasks timed themselves; the merge below is timed from here.
    timer.lap();
    let ms = |d: Duration| d.as_millis() as u64;
    let mut done = done.into_iter();
    let (
        Some((Done::Flow((flow_findings, taint)), flow_t)),
        Some((Done::Units((unit_findings, usum)), units_t)),
        Some((Done::Effects((effect_findings, esum)), effects_t)),
    ) = (done.next(), done.next(), done.next())
    else {
        unreachable!("phase two's first tasks are the three passes")
    };
    (phases.flow_ms, phases.units_ms, phases.effects_ms) = (ms(flow_t), ms(units_t), ms(effects_t));

    let graph_json = cfg.graph_json.then(|| graph.render_json(&units, &taint, &usum, &esum));
    let mut program_findings =
        if graph_mode { graph.whole_program_findings(&units) } else { Vec::new() };
    program_findings.extend(flow_findings);
    program_findings.extend(unit_findings);
    program_findings.extend(effect_findings);

    let mut sites: Vec<LabelSite> = Vec::new();
    let mut per_file: Vec<(suppress::Scan, Vec<Finding>)> = Vec::with_capacity(units.len());
    let mut files_t = Duration::ZERO;
    for (done, took) in done {
        let Done::File(file_findings, file_sites, scan) = done else {
            unreachable!("phase two's tasks after the passes are files")
        };
        sites.extend(file_sites);
        per_file.push((scan, file_findings));
        files_t += took;
    }

    // Cross-file and whole-program findings are pooled over the full set,
    // then routed back through their own file's suppressions.
    let mut label_findings = Vec::new();
    rules::check_unique_stream_labels(&sites, &mut label_findings);
    for (u, (scan, file_findings)) in units.iter().zip(&mut per_file) {
        let path = u.path.as_str();
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
    phases.rules_ms = ms(files_t) + timer.lap();
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
    fn every_task_runs_once_at_any_worker_count() {
        for (workers, tasks) in [(1, 40), (2, 40), (8, 40), (8, 3), (3, 1), (2, 0)] {
            let runs: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            let out = run_tasks(workers, tasks, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                i * 10
            });
            let want: Vec<usize> = (0..tasks).map(|i| i * 10).collect();
            assert_eq!(out, want, "{workers} worker(s), {tasks} task(s)");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{workers}, {tasks}");
        }
    }

    #[test]
    fn results_come_back_in_index_order_whatever_finishes_first() {
        // Whichever of the two workers takes task 0 holds it until the
        // other has finished task 1 and reached task 2, so task 1 is
        // done first: its result must still come back second.
        let meet = std::sync::Barrier::new(2);
        let out = run_tasks(2, 3, |i| {
            if i != 1 {
                meet.wait();
            }
            i
        });
        assert_eq!(out, [0, 1, 2]);
    }

    #[test]
    fn one_worker_runs_the_tasks_in_order_on_the_caller() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        run_tasks(1, 20, |i| seen.lock().unwrap().push((i, std::thread::current().id())));
        let want: Vec<_> = (0..20).map(|i| (i, caller)).collect();
        assert_eq!(seen.into_inner().unwrap(), want);
    }

    #[test]
    fn a_panicking_task_is_reraised_after_the_join() {
        for workers in [1, 2, 8] {
            let ran = AtomicUsize::new(0);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_tasks(workers, 30, |i| {
                    assert_ne!(i, 12, "task 12 fails");
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }));
            assert!(out.is_err(), "{workers} worker(s): the panic was swallowed");
            // The panic surfaces only once every thread has joined: with a
            // second worker the others finish every task but the failed
            // one; alone, the caller stops at it.
            let want = if workers == 1 { 12 } else { 29 };
            assert_eq!(ran.load(Ordering::Relaxed), want, "{workers} worker(s)");
        }
    }

    #[test]
    fn empty_report_renders_empty_array() {
        let r = Report { findings: Vec::new(), files_scanned: 3, graph_json: None, timings: None };
        let json = render_json(&r);
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"finding_count\": 0"));
    }
}
