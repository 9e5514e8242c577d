//! The determinism rules `fs-lint` enforces, and the matching that backs
//! them.
//!
//! Every rule has a stable kebab-case id that suppression comments refer
//! to. Rules match on lexed identifier tokens ([`crate::lexer`]), so
//! forbidden names inside strings, comments, and doc examples never fire.

use crate::flow::{self, K_RNG, K_WALL};
use crate::lexer::{Lexed, TokKind};
use std::collections::BTreeMap;

/// Stable rule identifiers.
pub mod id {
    /// Wall-clock reads and sleeps (`Instant`, `SystemTime`,
    /// `thread::sleep`) outside `crates/bench`.
    pub const NO_WALL_CLOCK: &str = "no-wall-clock";
    /// `HashMap`/`HashSet`: iteration order is not deterministic.
    pub const NO_UNORDERED_COLLECTIONS: &str = "no-unordered-collections";
    /// Ambient randomness (`thread_rng`, `from_entropy`, `rand::random`).
    pub const NO_AMBIENT_RNG: &str = "no-ambient-rng";
    /// Duplicate `derive("…")` stream labels across distinct files.
    pub const UNIQUE_STREAM_LABELS: &str = "unique-stream-labels";
    /// Crate roots must `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]`,
    /// and no scanned file may use `unsafe` at all.
    pub const FORBID_UNSAFE_EVERYWHERE: &str = "forbid-unsafe-everywhere";
    /// Files pinning golden constants must carry a regeneration comment.
    pub const GOLDEN_REGEN_NOTE: &str = "golden-regen-note";
    /// Scheduling-path comparators keyed on one expression (or a float):
    /// ties fall back to container order.
    pub const STABLE_TIEBREAK: &str = "stable-tiebreak";
    /// `partial_cmp(..).unwrap()`-style forced total orders and
    /// NaN-absorbing float `min`/`max` reductions.
    pub const FLOAT_TOTAL_ORDER: &str = "float-total-order";
    /// `unwrap`/`expect`/panicking macros/unbounded subscripts in
    /// injector-reachable library code.
    pub const PANIC_PATH: &str = "panic-path";
    /// A registered injector/scenario class that reaches no oracle module
    /// from the campaign dispatch (whole-program, call-graph based).
    pub const ORACLE_COVERAGE: &str = "oracle-coverage";
    /// Campaign code not reachable from the `fs-campaign` binary
    /// (whole-program, call-graph based).
    pub const DEAD_SCENARIO: &str = "dead-scenario";
    /// A nondeterministic source value flows into a digest fold, golden
    /// assertion, or `BENCH_*.json` metric emission (interprocedural,
    /// taint-summary based; reported with the source→sink call path).
    pub const DIGEST_TAINT: &str = "digest-taint";
    /// An RNG stream rooted on a loop index or shard id instead of a
    /// literal/master seed and a label-rooted `derive(…)` chain.
    pub const RNG_LINEAGE: &str = "rng-lineage";
    /// A nondeterministic source value flows into an oracle verdict.
    pub const ORACLE_TAINT: &str = "oracle-taint";
    /// An add/sub/compare/accumulate site whose two operands carry
    /// conflicting inferred units (interprocedural, unit-summary based;
    /// reported with both inference chains).
    pub const UNIT_MISMATCH: &str = "unit-mismatch";
    /// A magic `* 1_000` / `* 1_000_000` / `* 1_000_000_000` conversion
    /// literal outside `simcore::time` — named constructors/consts only.
    pub const RAW_UNIT_CONVERSION: &str = "raw-unit-conversion";
    /// A per-second rate combined with a per-tick quantity without an
    /// explicit `dt` factor.
    pub const RATE_CONFUSION: &str = "rate-confusion";
    /// A configured threshold compared against an observation of a
    /// different inferred unit in injector/detector-reachable code.
    pub const THRESHOLD_UNIT: &str = "threshold-unit";
    /// An oracle/detector verdict path reachable from the campaign
    /// runner that writes simulation state (interprocedural,
    /// effect-summary based; reported with the write chain).
    pub const ORACLE_PURE: &str = "oracle-pure";
    /// An injector writing state outside its declared injection surface.
    pub const INJECTION_SCOPED: &str = "injection-scoped";
    /// A metastable policy hook writing non-policy-owned state.
    pub const MITIGATION_EFFECT: &str = "mitigation-effect";
    /// A valid `fslint: allow(...)` suppression that no longer silences
    /// any finding and should be deleted.
    pub const SUPPRESSION_STALE: &str = "suppression-stale";
    /// An inline `allow(...)` suppression comment that is unparsable,
    /// names an unknown rule, or lacks the mandatory reason. Not allowable.
    pub const MALFORMED_SUPPRESSION: &str = "malformed-suppression";
}

/// One rule's id and one-line description (for `--list-rules`).
pub struct RuleInfo {
    /// Stable kebab-case id used in suppressions.
    pub id: &'static str,
    /// One-line description of what the rule enforces.
    pub summary: &'static str,
}

/// Every rule the pass knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: id::NO_WALL_CLOCK,
        summary: "std::time::Instant / SystemTime / thread::sleep are forbidden outside \
                  crates/bench — simulated time only",
    },
    RuleInfo {
        id: id::NO_UNORDERED_COLLECTIONS,
        summary: "HashMap/HashSet are forbidden — BTreeMap/BTreeSet keep iteration \
                  deterministic",
    },
    RuleInfo {
        id: id::NO_AMBIENT_RNG,
        summary: "thread_rng / from_entropy / rand::random are forbidden — randomness must \
                  flow through simcore::rng::Stream::derive",
    },
    RuleInfo {
        id: id::UNIQUE_STREAM_LABELS,
        summary: "a derive(\"label\") string may not recur in a second file — label \
                  collisions correlate supposedly-independent streams",
    },
    RuleInfo {
        id: id::FORBID_UNSAFE_EVERYWHERE,
        summary: "crate roots carry #![forbid(unsafe_code)] + #![warn(missing_docs)]; no \
                  scanned file uses `unsafe`",
    },
    RuleInfo {
        id: id::GOLDEN_REGEN_NOTE,
        summary: "files pinning golden constants carry a regeneration note (how to re-pin, \
                  see docs/TESTING.md)",
    },
    RuleInfo {
        id: id::STABLE_TIEBREAK,
        summary: "scheduling-set comparators (sort/min/max/Ord impls/BinaryHeap) must carry \
                  a stable tiebreak key and never key on floats; scope is call-graph derived",
    },
    RuleInfo {
        id: id::FLOAT_TOTAL_ORDER,
        summary: "no partial_cmp(..).unwrap()/expect()/unwrap_or() and no NaN-absorbing \
                  f64::min/max reductions — use total_cmp or an integer key",
    },
    RuleInfo {
        id: id::PANIC_PATH,
        summary: "no unwrap/expect/panic!-family/unbounded subscripts in code reachable from \
                  an injector/detector/scheduler entry point (call-graph fixpoint)",
    },
    RuleInfo {
        id: id::ORACLE_COVERAGE,
        summary: "every scenario class registered with the campaign dispatch must reach an \
                  oracle module, and every catalog constructor must be wired into the \
                  campaign binary",
    },
    RuleInfo {
        id: id::DEAD_SCENARIO,
        summary: "campaign code must be reachable from the fs-campaign binary — a dead \
                  scenario cell looks covered but never runs",
    },
    RuleInfo {
        id: id::DIGEST_TAINT,
        summary: "no wall-clock / ambient-RNG / unordered-iteration / pointer-format / \
                  thread-id / env-read / NaN-fold value may flow (interprocedurally) into a \
                  digest fold, golden assertion, or bench metric emission",
    },
    RuleInfo {
        id: id::RNG_LINEAGE,
        summary: "RNG streams must be rooted on a literal or master seed and derived through \
                  label-rooted derive()/derive_index() chains, never seeded from loop indices \
                  or shard ids",
    },
    RuleInfo {
        id: id::ORACLE_TAINT,
        summary: "no nondeterministic source value may flow into an oracle verdict — a \
                  verdict that depends on the host is not an invariant check",
    },
    RuleInfo {
        id: id::UNIT_MISMATCH,
        summary: "quantities added, subtracted, or compared must carry the same inferred \
                  unit (nanos/millis/secs/ticks/blocks/bytes — interprocedural inference \
                  over signatures and naming discipline)",
    },
    RuleInfo {
        id: id::RAW_UNIT_CONVERSION,
        summary: "no magic *1_000/*1_000_000/*1_000_000_000 conversion literals outside \
                  simcore::time — use the named from_* constructors or NANOS_PER_* consts, \
                  which also carry the dimension for inference",
    },
    RuleInfo {
        id: id::RATE_CONFUSION,
        summary: "a per-second rate and a per-tick quantity only combine through an \
                  explicit dt factor (rate * dt_secs or a ticks_per_sec scaling)",
    },
    RuleInfo {
        id: id::THRESHOLD_UNIT,
        summary: "a configured threshold in injector/detector-reachable code must be \
                  compared in the unit of the observation it gates",
    },
    RuleInfo {
        id: id::ORACLE_PURE,
        summary: "oracle/detector verdict paths reachable from the campaign runner must be \
                  write-free on simulation state (interprocedural effect summaries; the \
                  probe effect, made a lint)",
    },
    RuleInfo {
        id: id::INJECTION_SCOPED,
        summary: "injectors write only through their declared injection surface (their own \
                  fields and the types their struct names), never arbitrary sim state",
    },
    RuleInfo {
        id: id::MITIGATION_EFFECT,
        summary: "metastable policy hooks (shed/breaker) write policy-owned state only — a \
                  mitigation that mutates server internals is the sustaining effect itself",
    },
    RuleInfo {
        id: id::SUPPRESSION_STALE,
        summary: "a suppression comment that silences no finding any more must be deleted \
                  (the invariant it documented is now machine-checked or gone)",
    },
    RuleInfo {
        id: id::MALFORMED_SUPPRESSION,
        summary: "fslint suppression comments must parse, name known rules, and give a \
                  reason (never allowable)",
    },
];

/// True if `rule` is a known rule id.
pub fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|r| r.id == rule)
}

/// One unsuppressed violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token (or comment).
    pub line: u32,
    /// The violated rule's id.
    pub rule: &'static str,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

/// One lexed file plus the path facts rules key on.
pub struct FileCtx<'a> {
    /// Workspace-relative path, with `/` separators.
    pub path: String,
    /// Lexed tokens and comments.
    pub lexed: &'a Lexed,
}

impl FileCtx<'_> {
    /// True for files under `crates/bench/` — the one place allowed to
    /// wall-time real executions.
    fn is_bench(&self) -> bool {
        self.path.starts_with("crates/bench/")
    }

    /// True for crate roots: `src/lib.rs` at any depth.
    fn is_crate_root(&self) -> bool {
        self.path == "src/lib.rs" || self.path.ends_with("/src/lib.rs")
    }
}

/// Runs all single-file rules over one file.
pub fn check_file(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    named_sources(ctx, findings);
    forbid_unsafe_everywhere(ctx, findings);
    golden_regen_note(ctx, findings);
}

/// Records a finding of `rule` at `line` of `ctx`'s file.
pub(crate) fn push(
    findings: &mut Vec<Finding>,
    ctx: &FileCtx<'_>,
    line: u32,
    rule: &'static str,
    msg: String,
) {
    findings.push(Finding { path: ctx.path.clone(), line, rule, message: msg });
}

/// `no-wall-clock`, `no-ambient-rng` and `no-unordered-collections`: one
/// finding per source name the taint pass roots on
/// ([`flow::named_source`]), wall-clock names outside `crates/bench` only.
fn named_sources(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some((kind, name)) = flow::named_source(toks, i) else { continue };
        let (rule, message) = match kind {
            // crates/bench may wall-time real executions (Criterion-style);
            // everything it *simulates* still runs on SimTime.
            K_WALL if ctx.is_bench() => continue,
            K_WALL => (
                id::NO_WALL_CLOCK,
                format!(
                    "`{name}` reads or waits on the wall clock; the simulation is \
                     integer-SimTime only (wall timing is allowed only under crates/bench)"
                ),
            ),
            K_RNG => (
                id::NO_AMBIENT_RNG,
                format!(
                    "`{name}` draws ambient entropy; all randomness must be a labelled \
                     child of the master seed via simcore::rng::Stream::derive"
                ),
            ),
            _ => (
                id::NO_UNORDERED_COLLECTIONS,
                format!(
                    "`{name}` iterates in randomized order, which leaks into digests and \
                     goldens; use `{}`",
                    name.replace("Hash", "BTree")
                ),
            ),
        };
        push(findings, ctx, t.line, rule, message);
    }
}

fn forbid_unsafe_everywhere(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.lexed.tokens.iter().enumerate() {
        if t.is_ident("unsafe") {
            // Attribute mentions like `forbid(unsafe_code)` lex as the
            // distinct ident `unsafe_code`, so this is a real usage.
            let _ = i;
            push(
                findings,
                ctx,
                t.line,
                id::FORBID_UNSAFE_EVERYWHERE,
                "`unsafe` is forbidden everywhere in this workspace".to_string(),
            );
        }
    }
    if ctx.is_crate_root() {
        for (attr, arg) in [("forbid", "unsafe_code"), ("warn", "missing_docs")] {
            let present = ctx.lexed.tokens.windows(4).any(|w| {
                w[0].is_ident(attr)
                    && w[1].is_punct('(')
                    && w[2].is_ident(arg)
                    && w[3].is_punct(')')
            });
            if !present {
                push(
                    findings,
                    ctx,
                    1,
                    id::FORBID_UNSAFE_EVERYWHERE,
                    format!("crate root is missing `#![{attr}({arg})]`"),
                );
            }
        }
    }
}

fn golden_regen_note(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    // Only *declarations* pin a golden: `const GOLDEN_…`, `fn golden_…`.
    // A mere use of an imported golden name is some other file's problem.
    let toks = &ctx.lexed.tokens;
    let Some(first_golden) = toks.iter().enumerate().find_map(|(i, t)| {
        let declares = i > 0
            && matches!(&*toks[i - 1].text, "const" | "static" | "fn")
            && toks[i - 1].kind == TokKind::Ident;
        (declares && t.kind == TokKind::Ident && t.text.to_ascii_lowercase().starts_with("golden"))
            .then_some(t)
    }) else {
        return;
    };
    let has_note =
        ctx.lexed.comments.iter().any(|c| c.text.to_ascii_lowercase().contains("regenerat"));
    if !has_note {
        push(
            findings,
            ctx,
            first_golden.line,
            id::GOLDEN_REGEN_NOTE,
            format!(
                "`{}` pins a golden but the file has no regeneration note; add a comment \
                 saying how to regenerate the constants (see docs/TESTING.md)",
                first_golden.text
            ),
        );
    }
}

/// One `derive("label")` call site.
#[derive(Clone, Debug)]
pub struct LabelSite {
    /// Workspace-relative path of the file containing the call.
    pub path: String,
    /// 1-based line of the label literal.
    pub line: u32,
    /// The label string, as written.
    pub label: String,
}

/// Extracts every literal-label `derive("…")` call site from one file.
///
/// Only *direct string literals* count: `derive(&format!(…))` and
/// `derive_index(i)` build labels dynamically and are out of scope. The
/// attribute form `#[derive(Clone)]` never matches because its argument is
/// an identifier, not a string literal.
pub fn label_sites(ctx: &FileCtx<'_>) -> Vec<LabelSite> {
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("derive")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Str)
        {
            let lit = &toks[i + 2];
            let label = lit.text.to_string();
            out.push(LabelSite { path: ctx.path.clone(), line: lit.line, label });
        }
    }
    out
}

/// The cross-file rule: a label string may not recur in a second file.
///
/// Reuse *within* one file is allowed — it is visible locally and is how
/// deliberate stream sharing (e.g. a metamorphic fresh/degraded pair) is
/// written. Reuse across files silently correlates streams that every
/// reader assumes are independent, so each colliding site gets a finding.
pub fn check_unique_stream_labels(sites: &[LabelSite], findings: &mut Vec<Finding>) {
    let mut by_label: BTreeMap<&str, Vec<&LabelSite>> = BTreeMap::new();
    for s in sites {
        by_label.entry(&s.label).or_default().push(s);
    }
    for (label, sites) in by_label {
        let mut files: Vec<&str> = sites.iter().map(|s| s.path.as_str()).collect();
        files.sort_unstable();
        files.dedup();
        if files.len() < 2 {
            continue;
        }
        for site in sites {
            let others: Vec<String> =
                files.iter().filter(|f| **f != site.path).map(|f| (*f).to_string()).collect();
            findings.push(Finding {
                path: site.path.clone(),
                line: site.line,
                rule: id::UNIQUE_STREAM_LABELS,
                message: format!(
                    "stream label \"{label}\" is also derived in {}; identical labels \
                     correlate supposedly-independent RNG streams — use a component-scoped \
                     label",
                    others.join(", ")
                ),
            });
        }
    }
}
