//! Pins over the frozen benchmark corpus (`benchmark/corpus`, read only)
//! and over the lint fixtures (`tests/fixtures`).
//!
//! * The lex pin digests every token `(kind, line, text)` and every
//!   comment `(line, end_line, text)` the lexer produces, file by file in
//!   sorted order.
//! * The model pins digest the `{:?}` rendering of the parser's
//!   [`FileModel`](fslint::parse::FileModel) for every corpus file, and
//!   for every `.rs` fixture file, in sorted order: every recorded item
//!   with its positions and lines, so a parser change that records one
//!   item differently moves them even when no analysis reads that item.
//!   The model keeps each name as the index of the token that spells it,
//!   so these pins digest positions; the names' texts are the tokens'
//!   texts, which the lex pin digests. The fixture model pin sees shapes
//!   the corpus lacks, such as `impl Ord` blocks.
//! * The graph pin digests the `--graph-out` export of the whole corpus,
//!   scanned by the calling thread alone, by it and one or two spawned
//!   threads, and at the default. The export carries every
//!   node's edges and its taint, unit and effect summary with the `via`
//!   hop it arrived through, so a reordered field learning round or
//!   fixpoint round moves it even when no finding changes.
//! * The fixture pin digests the text report, the JSON report and the
//!   `--graph-out` export of every fixture file linted alone (from the
//!   workspace root, as `fs-lint FILE` does) and of every fixture
//!   directory that scans a file when linted as a root (as `fs-lint
//!   --root DIR` does). A directory with no `crates/`, `src/`, `tests/`
//!   or `examples/` under it scans nothing, and every such one reports
//!   the same empty scan, so the pin skips them. The fixture tests assert
//!   chosen findings; this pin sees every byte.
//!
//! All five are FNV-1a 64. The graph pin equals the digest of the file
//! that `fs-lint --root benchmark/corpus --graph-out FILE` writes. To
//! regenerate after an intentional change to the lexer, to the parser,
//! to an analysis or to a fixture, run `cargo test -p fslint --test
//! corpus_pin` and copy each `got` value from the failure message into
//! its constant.

use fslint::engine::{render_json, render_text};
use fslint::lexer::lex;
use fslint::parse::parse;
use fslint::{collect_workspace_files, lint_paths, lint_workspace, Config};
use std::path::{Path, PathBuf};

/// Digest of every token and comment of the corpus.
const GOLDEN_CORPUS_LEX: u64 = 0x27b1_02d5_b750_2f3e;
/// Digest of the `{:?}` rendering of every corpus file's parsed model.
const GOLDEN_CORPUS_MODEL: u64 = 0xae31_edb6_e138_987e;
/// Digest of the corpus's `--graph-out` export.
const GOLDEN_CORPUS_GRAPH: u64 = 0xbaac_6df2_1144_61de;
/// Files the corpus holds.
const CORPUS_FILES: usize = 151;
/// Digest of the `{:?}` rendering of every `.rs` fixture file's parsed
/// model.
const GOLDEN_FIXTURE_MODEL: u64 = 0x923e_5322_2e44_6096;
/// Digest of every fixture file's and fixture directory's lint outputs.
const GOLDEN_FIXTURE_OUTPUTS: u64 = 0x6837_520d_3524_6331;
/// Fixture files and fixture directories (the fixtures root included).
const FIXTURE_TREE: (usize, usize) = (114, 278);
/// Fixture directories that scan at least one file as a root.
const FIXTURE_ROOTS_SCANNING: usize = 136;

fn corpus() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmark/corpus")
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The FNV-1a 64 offset basis.
const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over the `{:?}` rendering of each file's parsed model, in
/// the order given.
fn model_digest(files: &[PathBuf]) -> u64 {
    files.iter().fold(FNV_START, |h, file| {
        let source = std::fs::read_to_string(file).expect("input file is readable");
        let h = fnv1a(h, format!("{:?}", parse(&lex(&source))).as_bytes());
        fnv1a(h, &[0x1d])
    })
}

#[test]
fn corpus_tokens_and_comments_are_pinned() {
    let files = collect_workspace_files(&corpus());
    assert_eq!(files.len(), CORPUS_FILES);
    let mut h = FNV_START;
    for file in &files {
        let source = std::fs::read_to_string(file).expect("corpus file is readable");
        let lexed = lex(source);
        for (i, t) in lexed.tokens.iter().enumerate() {
            h = fnv1a(h, format!("{:?}", t.kind).as_bytes());
            h = fnv1a(h, &t.line.to_le_bytes());
            h = fnv1a(h, lexed.text(i).as_bytes());
            h = fnv1a(h, &[0x1e]);
        }
        for c in &lexed.comments {
            h = fnv1a(h, &c.line.to_le_bytes());
            h = fnv1a(h, &c.end_line.to_le_bytes());
            h = fnv1a(h, c.text.as_bytes());
            h = fnv1a(h, &[0x1e]);
        }
        h = fnv1a(h, &[0x1d]);
    }
    assert_eq!(h, GOLDEN_CORPUS_LEX, "got {h:#018x}");
}

#[test]
fn corpus_parse_models_are_pinned() {
    let files = collect_workspace_files(&corpus());
    assert_eq!(files.len(), CORPUS_FILES);
    let h = model_digest(&files);
    assert_eq!(h, GOLDEN_CORPUS_MODEL, "got {h:#018x}");
}

#[test]
fn corpus_graph_export_is_pinned_at_any_job_count() {
    for jobs in [Some(1), Some(2), Some(3), None] {
        let cfg = Config { graph_json: true, jobs, ..Config::default() };
        let report = lint_workspace(&corpus(), &cfg);
        assert_eq!(report.files_scanned, CORPUS_FILES);
        assert!(report.is_clean(), "{:?}", report.findings);
        let doc = report.graph_json.expect("the export was requested");
        let h = fnv1a(FNV_START, doc.as_bytes());
        assert_eq!(h, GOLDEN_CORPUS_GRAPH, "jobs {jobs:?}: got {h:#018x} ({} bytes)", doc.len());
    }
}

/// Collects the files and directories under `dir` in sorted order, `dir`
/// itself first.
fn tree(dir: &Path, files: &mut Vec<PathBuf>, dirs: &mut Vec<PathBuf>) {
    dirs.push(dir.to_path_buf());
    let entries = std::fs::read_dir(dir).expect("fixture directory is readable");
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("fixture entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            tree(&path, files, dirs);
        } else {
            files.push(path);
        }
    }
}

#[test]
fn fixture_parse_models_are_pinned() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let (mut files, mut dirs) = (Vec::new(), Vec::new());
    tree(&fixtures, &mut files, &mut dirs);
    files.retain(|f| f.extension().is_some_and(|e| e == "rs"));
    assert_eq!(files.len(), FIXTURE_TREE.0);
    let h = model_digest(&files);
    assert_eq!(h, GOLDEN_FIXTURE_MODEL, "got {h:#018x}");
}

#[test]
fn fixture_outputs_are_pinned() {
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let fixtures = workspace.join("crates/fslint/tests/fixtures");
    let (mut files, mut dirs) = (Vec::new(), Vec::new());
    tree(&fixtures, &mut files, &mut dirs);
    assert_eq!((files.len(), dirs.len()), FIXTURE_TREE);
    let cfg = Config { graph_json: true, jobs: Some(1), ..Config::default() };
    let alone = files.iter().map(|f| (f, lint_paths(&workspace, std::slice::from_ref(f), &cfg)));
    let as_root: Vec<_> = dirs
        .iter()
        .map(|d| (d, lint_workspace(d, &cfg)))
        .filter(|(_, report)| report.files_scanned > 0)
        .collect();
    assert_eq!(as_root.len(), FIXTURE_ROOTS_SCANNING);
    let mut h = FNV_START;
    for (input, report) in alone.chain(as_root) {
        let name = input.strip_prefix(&fixtures).expect("a fixture path").to_string_lossy();
        let graph = report.graph_json.as_deref().expect("the export was requested");
        for part in [&*name, &render_text(&report), &render_json(&report), graph] {
            h = fnv1a(h, part.as_bytes());
            h = fnv1a(h, &[0x1e]);
        }
    }
    assert_eq!(h, GOLDEN_FIXTURE_OUTPUTS, "got {h:#018x}");
}
