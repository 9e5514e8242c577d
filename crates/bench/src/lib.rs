//! # fs-bench — the experiment harness
//!
//! Regenerates every reproduced claim of *"Fail-Stutter Fault Tolerance"*
//! as a table plus shape findings. The paper is a position paper with no
//! numbered tables or figures, so the reproduction targets are its
//! quantified claims (see `DESIGN.md` for the index E01–E34, E36).
//!
//! Run everything:
//!
//! ```text
//! cargo run -p fs-bench --release --bin fs-experiments
//! cargo run -p fs-bench --release --bin fs-experiments -- e01 e11   # subset
//! cargo run -p fs-bench --release --bin fs-experiments -- --markdown
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod report;

use std::fmt::Write as _;

/// Renders the reports of a run, in order, as a full text report;
/// returns the rendered text and whether every finding passed.
pub fn render(
    runs: &[(experiments::Experiment, report::Report)],
    markdown: bool,
) -> (String, bool) {
    let mut out = String::new();
    let mut all_pass = true;
    for (e, report) in runs {
        let status = if report.all_pass() { "PASS" } else { "FAIL" };
        all_pass &= report.all_pass();
        let _ =
            writeln!(out, "\n=== {} [{}] {} ({})", e.id.to_uppercase(), status, e.title, e.source);
        for t in &report.tables {
            let _ = writeln!(out, "{}", if markdown { t.render_markdown() } else { t.render() });
        }
        for f in &report.findings {
            let mark = if f.pass { "ok " } else { "FAIL" };
            let _ = writeln!(out, "  [{mark}] {}", f.metric);
            let _ = writeln!(out, "         paper:    {}", f.paper);
            let _ = writeln!(out, "         measured: {}", f.measured);
        }
    }
    (out, all_pass)
}
