//! Interprocedural taint analysis: prove the digest is deterministic.
//!
//! The token and semantic rules flag nondeterminism *sources* wherever
//! they appear; this module answers the stronger question the golden
//! pyramid actually rests on: does a nondeterministic value **flow into**
//! a digest fold, a golden assertion, a bench metric, or an oracle
//! verdict? It is a summary-based taint analysis over the existing
//! workspace call graph ([`crate::graph`]):
//!
//! * **Sources** — wall-clock reads (`Instant`, `SystemTime`,
//!   `thread::sleep`), ambient RNG (`thread_rng`, `from_entropy`,
//!   `OsRng`, `getrandom`, `rand::random`), unordered-collection
//!   iteration (`HashMap`/`HashSet`), pointer/address formatting
//!   (`{:p}`, `ptr::addr_of`), thread identity (`thread::current`),
//!   environment reads (`env::var`/`var_os`/`vars`), and NaN-sensitive
//!   float folds (`fold`/`reduce` over `f64::min`/`max`).
//! * **Per-function summaries** — a function is *tainted* when its body
//!   reads a source directly, calls a tainted function, or reads a
//!   struct field a tainted value was assigned into (the
//!   field-laundering case). Summaries are computed to a fixpoint over
//!   the call-graph edges; each records the hop it arrived through, so a
//!   finding can print the full source→sink path.
//! * **Per-sink local tracking** — inside the function containing a
//!   sink, `let` and `for` bindings whose initialiser is tainted carry
//!   the taint forward by name; an explicit `sort*()` on an
//!   unordered-iteration local *sanitises* it (a sorted collection has a
//!   deterministic order again).
//! * **Sinks** — digest folds (`write`/`write_u64`/`write_f64`/
//!   `write_str` in files that name `Fnv64`), golden assertions
//!   (`assert*!` whose arguments name a `GOLDEN_*` constant or whose
//!   enclosing fn is `golden*`), bench metric emission (`Finding::new`,
//!   `.row(..)` in files that name `Table`), and oracle verdicts (calls
//!   into functions defined in `oracle` modules). Sinks apply in test
//!   code too — that is where goldens live.
//!
//! Three rules come out of this: `digest-taint` (source reaches a
//! digest/golden/bench sink, with the interprocedural path in the
//! message), `oracle-taint` (source reaches an oracle verdict), and
//! `rng-lineage` (`from_seed` must be rooted on a literal or a
//! `*seed*`-named value, never a loop index or shard id — a stream keyed
//! on iteration order silently changes when the loop does).
//!
//! Like the rest of fs-lint the analysis is conservative: a call carries
//! the taint of the callees the call graph resolved for that call site
//! (module resolution, imports and re-exports for free calls; the
//! owner-or-trait mention gate for methods), and an oracle verdict is a
//! call that reaches a free fn of an `oracle` module. Known
//! under-approximations: closure-parameter calls are invisible (a
//! workload closure passed *into* a helper taints the call site's
//! argument span, not the helper), struct-literal field initialisers do
//! not taint fields (only `.field = value` assignments do), and bare
//! function references contribute no value taint.

use crate::graph::{FileUnit, Graph};
use crate::lexer::{Lexed, TokKind};
use crate::rules::{id, Finding};
use crate::summary::{self, call_args, field_read_shape, Locals};
use std::collections::BTreeMap;

/// Root source kind: a wall-clock read (`Instant::now`, `SystemTime`).
pub const K_WALL: &str = "wall-clock";
/// Root source kind: ambient RNG (`thread_rng`, `from_entropy`, OS entropy).
pub const K_RNG: &str = "ambient-rng";
/// Root source kind: iteration order of an unordered collection.
pub const K_UNORD: &str = "unordered-iter";
/// Root source kind: pointer/address formatting (`{:p}`, `addr_of`).
pub const K_PTR: &str = "ptr-format";
/// Root source kind: the host thread's identity (`thread::current().id()`).
pub const K_TID: &str = "thread-id";
/// Root source kind: an environment read (`env::var` and friends).
pub const K_ENV: &str = "env-read";
/// Root source kind: a NaN-sensitive float fold (`fold(f64::min)`-shape).
pub const K_NAN: &str = "nan-fold";

/// One function's taint summary: how nondeterminism enters its body.
/// `None` in the per-node vector means the function is clean.
#[derive(Debug, Clone)]
pub struct TaintSummary {
    /// Root source kind ([`K_WALL`], [`K_RNG`], …), propagated unchanged
    /// along call chains.
    pub kind: &'static str,
    /// 1-based line of the source read, or of the call/field-read that
    /// imported the taint.
    pub line: u32,
    /// The callee node id the taint arrived through, `None` at the root.
    pub via: Option<usize>,
    /// Human description of this hop.
    pub what: String,
}

/// One directly-read source occurrence.
#[derive(Debug, Clone)]
struct Src {
    kind: &'static str,
    tok: usize,
    line: u32,
    desc: String,
}

/// Why an expression is tainted.
#[derive(Debug, Clone)]
enum Cause<'a> {
    /// A source token inside the expression itself.
    Direct(Src),
    /// A call to a tainted function.
    Call { node: usize },
    /// A read of a struct field a tainted value was assigned into.
    Field { name: &'a str },
}

/// An expression's taint: the cause plus the locals it flowed through.
#[derive(Debug, Clone)]
struct Taint<'a> {
    cause: Cause<'a>,
    via_locals: Vec<&'a str>,
}

/// What a tainted struct field carries.
#[derive(Debug, Clone)]
struct FieldTaint {
    kind: &'static str,
    desc: String,
}

/// Digest-fold method names (gated on the file naming `Fnv64`).
const DIGEST_METHODS: &[&str] = &["write", "write_u64", "write_f64", "write_str"];

/// One sink site: the token it starts at, its line, its argument span
/// (brackets included), its rule, and its name in the message.
type Sink = (usize, u32, (usize, usize), &'static str, String);

/// Runs the flow analysis: the `digest-taint` / `oracle-taint` /
/// `rng-lineage` findings plus the per-node taint summaries, aligned
/// with `graph.nodes` for the `--graph-out` export. Works with or
/// without graph entry points — taint needs edges, not roots.
pub fn analyze(units: &[FileUnit], graph: &Graph) -> (Vec<Finding>, Vec<Option<TaintSummary>>) {
    let mut flow = Flow::new(units, graph);
    summary::fixpoint(&mut flow, |f| &mut f.summaries, Flow::learn, Flow::infer);
    let mut findings = flow.sink_findings();
    findings.extend(flow.rng_lineage());
    (findings, flow.summaries)
}

/// The analysis state: summaries and tainted fields grow monotonically
/// to a fixpoint.
struct Flow<'a> {
    units: &'a [FileUnit],
    graph: &'a Graph<'a>,
    /// Precomputed NaN-fold sources per file.
    nan_srcs: Vec<Vec<Src>>,
    /// Per-node taint summaries, aligned with `graph.nodes`.
    summaries: Vec<Option<TaintSummary>>,
    /// Tainted struct fields by field name (global, name-based).
    fields: BTreeMap<&'a str, FieldTaint>,
}

impl<'a> Flow<'a> {
    fn new(units: &'a [FileUnit], graph: &'a Graph<'a>) -> Flow<'a> {
        let nan_srcs = units.iter().map(nan_fold_sources).collect();
        let mut flow = Flow {
            units,
            graph,
            nan_srcs,
            summaries: vec![None; graph.nodes.len()],
            fields: BTreeMap::new(),
        };
        for n in 0..graph.nodes.len() {
            if let Some(src) = flow.direct_source(n) {
                flow.summaries[n] = Some(TaintSummary {
                    kind: src.kind,
                    line: src.line,
                    via: None,
                    what: src.desc,
                });
            }
        }
        flow
    }

    /// The earliest source token inside node `n`'s body, if any.
    fn direct_source(&self, n: usize) -> Option<Src> {
        let node = &self.graph.nodes[n];
        let lexed = &self.units[node.file].lexed;
        let (b0, b1) = node.body;
        let mut best: Option<Src> = None;
        for i in b0..=b1.min(lexed.tokens.len().saturating_sub(1)) {
            if let Some(s) = lexical_source(lexed, i) {
                best = Some(s);
                break;
            }
        }
        for s in &self.nan_srcs[node.file] {
            if s.tok >= b0 && s.tok <= b1 && best.as_ref().is_none_or(|b| s.tok < b.tok) {
                best = Some(s.clone());
            }
        }
        best
    }

    /// Node `n`'s summary from earlier rounds': through a tainted
    /// callee, else through a tainted field its body reads.
    fn infer(&self, n: usize) -> Option<TaintSummary> {
        let tainted = |&&m: &&usize| m != n && self.summaries[m].is_some();
        if let Some(&m) = self.graph.edges[n].iter().find(tainted) {
            return Some(TaintSummary {
                kind: self.summaries[m].as_ref().map_or(K_WALL, |s| s.kind),
                line: self.graph.call_line(n, m),
                via: Some(m),
                what: format!("calls `{}`", self.graph.nodes[m].name),
            });
        }
        let (fname, line) = self.body_field_read(n)?;
        let ft = &self.fields[fname];
        let what = format!("reads tainted field `.{fname}` ({})", ft.desc);
        Some(TaintSummary { kind: ft.kind, line, via: None, what })
    }

    /// A read of a tainted field inside node `n`'s body (`.f` not
    /// followed by `(` or `=`), if any.
    fn body_field_read(&self, n: usize) -> Option<(&'a str, u32)> {
        if self.fields.is_empty() {
            return None;
        }
        let node = &self.graph.nodes[n];
        let lexed = &self.units[node.file].lexed;
        let toks = &lexed.tokens;
        let (b0, b1) = node.body;
        for i in b0..=b1.min(toks.len().saturating_sub(2)) {
            if !toks[i].is_punct('.') || toks[i + 1].kind != TokKind::Ident {
                continue;
            }
            let name = lexed.text(i + 1);
            if self.fields.contains_key(name) && field_read_shape(toks, i) {
                return Some((name, toks[i + 1].line));
            }
        }
        None
    }

    /// Starts a fixpoint round: one round of `.field = RHS` discovery —
    /// any assignment whose RHS is tainted marks the field (by name,
    /// workspace-global). Returns true when a new field was learned.
    fn learn(&mut self) -> bool {
        let learned = summary::learn_fields(
            self.units,
            |f| self.fields.contains_key(f),
            |file, fk| self.locals_for(file, fk),
            |file, (lo, hi), locals| {
                let t = self.taint_in(file, lo, hi, locals)?;
                Some(FieldTaint { kind: self.root_kind(&t.cause), desc: self.describe(file, &t) })
            },
        );
        let changed = !learned.is_empty();
        self.fields.extend(learned);
        changed
    }

    /// The root source kind behind a cause.
    fn root_kind(&self, c: &Cause<'a>) -> &'static str {
        match c {
            Cause::Direct(s) => s.kind,
            Cause::Call { node } => {
                self.summaries[*node].as_ref().map(|s| s.kind).unwrap_or(K_WALL)
            }
            Cause::Field { name } => self.fields.get(*name).map(|f| f.kind).unwrap_or(K_WALL),
        }
    }

    /// Tainted parameters and `let`/`for` bindings of `fns[fk]` in
    /// `file`, with `sort*()` sanitisation applied in textual order.
    fn locals_for(&self, file: usize, fk: usize) -> Locals<'a, Taint<'a>> {
        let u = &self.units[file];
        let (lexed, toks) = (&u.lexed, &u.lexed.tokens);
        let f = &u.model.fns[fk];
        let (b0, b1) = f.body;
        let mut locals = Locals::new();
        // Parameters typed on an unordered collection (`fn fold(m:
        // &HashMap<..>)`) are tainted across the whole body. Only container
        // types make sense here — a `HashMap` parameter's *iteration* is
        // what the caller cannot pin, whereas an `Instant` parameter was
        // already flagged at the caller's read site.
        for p in &f.sig.params {
            let (t0, t1) = p.ty;
            let Some(j) =
                (t0..=t1).find(|&j| lexed.is_ident(j, "HashMap") || lexed.is_ident(j, "HashSet"))
            else {
                continue;
            };
            let desc = format!("`{}`-typed parameter `{}`", lexed.text(j), p.name);
            let src = Src { kind: K_UNORD, tok: j, line: toks[j].line, desc };
            locals.bind(&p.name, b0, Taint { cause: Cause::Direct(src), via_locals: Vec::new() });
        }
        // `recv.sort*()` sites re-establish a deterministic order on an
        // unordered-iteration local, killing its taint from that point;
        // a binding sees the sorts before it.
        let sorts: Vec<(usize, &str)> = u
            .model
            .calls_in(b0 + 1, b1.saturating_sub(1))
            .iter()
            .filter(|c| c.name.starts_with("sort"))
            .filter_map(|c| {
                let r = c.dot.checked_sub(1)?;
                (toks[r].kind == TokKind::Ident).then(|| (c.dot, lexed.text(r)))
            })
            .collect();
        let mut sorted = 0usize;
        let mut sort_before = |locals: &mut Locals<Taint>, at: usize| {
            for &(dot, recv) in sorts[sorted..].iter().take_while(|(dot, _)| *dot < at) {
                locals.end(recv, dot, |t| self.root_kind(&t.cause) != K_UNORD);
                sorted += 1;
            }
        };
        summary::walk_bindings(&u.lexed, f.body, &mut locals, |locals, b, vals| {
            sort_before(locals, b.at);
            // The scan starts at a type ascription (`: HashMap<..>` taints
            // too), never at the names a `let` binds: `let t = 7;` does
            // not re-read an older `t`.
            let lo = b.ty.unwrap_or(b.rhs.0);
            if let Some(t) = self.taint_in(file, lo, b.rhs.1, locals) {
                vals.extend(b.names.iter().map(|&n| (n, t.clone())));
            }
        });
        sort_before(&mut locals, usize::MAX);
        locals
    }

    /// The earliest taint inside the token span `[lo, hi]`: a direct
    /// source, a tainted local mention, a tainted field read, or a call
    /// to a tainted function.
    fn taint_in(
        &self,
        file: usize,
        lo: usize,
        hi: usize,
        locals: &Locals<'a, Taint<'a>>,
    ) -> Option<Taint<'a>> {
        let u = &self.units[file];
        let (lexed, toks) = (&u.lexed, &u.lexed.tokens);
        if toks.is_empty() || lo > hi {
            return None;
        }
        let hi = hi.min(toks.len() - 1);
        let mut best: Option<(usize, Taint)> = None;
        let consider = |tok: usize, t: Taint<'a>, best: &mut Option<(usize, Taint<'a>)>| {
            if best.as_ref().is_none_or(|(b, _)| tok < *b) {
                *best = Some((tok, t));
            }
        };
        for i in lo..=hi {
            let t = &toks[i];
            if let Some(src) = lexical_source(lexed, i) {
                consider(i, Taint { cause: Cause::Direct(src), via_locals: Vec::new() }, &mut best);
                continue;
            }
            if t.kind == TokKind::Ident {
                // Skip method names and path interiors (`a::b`); a single
                // `:` (struct-literal init) still counts as a mention.
                let after_dot = i > 0 && toks[i - 1].is_punct('.');
                let in_path = i > 1 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
                if !after_dot && !in_path {
                    if let Some(l) = locals.find(lexed.text(i), i) {
                        let mut via = l.val.via_locals.clone();
                        if via.last() != Some(&l.name) {
                            via.push(l.name);
                        }
                        consider(
                            i,
                            Taint { cause: l.val.cause.clone(), via_locals: via },
                            &mut best,
                        );
                    }
                }
            }
            if t.is_punct('.')
                && !self.fields.is_empty()
                && toks.get(i + 1).is_some_and(|nt| nt.kind == TokKind::Ident)
            {
                let name = lexed.text(i + 1);
                if self.fields.contains_key(name) && field_read_shape(toks, i) {
                    let cause = Cause::Field { name };
                    consider(i, Taint { cause, via_locals: Vec::new() }, &mut best);
                }
            }
        }
        let methods = u.model.calls_in(lo, hi).iter().map(|c| c.dot);
        let free = u.model.free_calls_in(lo, hi).iter().filter(|c| c.called).map(|c| c.tok);
        for tok in methods.chain(free) {
            if let Some((node, _)) = summary::summarized(self.graph, &self.summaries, file, tok) {
                let t = Taint { cause: Cause::Call { node }, via_locals: Vec::new() };
                consider(tok, t, &mut best);
            }
        }
        best.map(|(_, t)| t)
    }

    /// The human-readable source→here path for a taint.
    fn describe(&self, file: usize, t: &Taint<'a>) -> String {
        let mut parts: Vec<String> = Vec::new();
        match &t.cause {
            Cause::Direct(s) => {
                parts.push(format!("{} ({}:{})", s.desc, self.units[file].path, s.line));
            }
            Cause::Field { name } => {
                let desc = self.fields.get(*name).map(|f| f.desc.as_str()).unwrap_or("?");
                parts.push(format!("{desc} -> field `.{name}`"));
            }
            Cause::Call { node } => {
                let hop = |n: usize| self.summaries[n].as_ref().map(|s| (s.via, &*s.what, s.line));
                parts.extend(summary::chain(self.graph, self.units, *node, hop))
            }
        }
        for l in &t.via_locals {
            parts.push(format!("local `{l}`"));
        }
        parts.join(" -> ")
    }

    /// The sink pass: `digest-taint` and `oracle-taint` findings. Each
    /// file's sites are gathered into one list, in the order the kinds
    /// are listed here, then checked by one loop: a tainted argument
    /// span is a finding.
    ///
    /// * digest folds (`write*` in files that name `Fnv64`);
    /// * golden assertions (`assert*!` naming a `GOLDEN_*` constant, or in
    ///   a `golden*` fn);
    /// * bench metric emission (`Finding::new`, and `.row(..)` in files
    ///   that name `Table`);
    /// * oracle verdicts (calls that reach a free function of an `oracle`
    ///   module).
    fn sink_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        let oracle_fn = |&n: &usize| {
            let node = &self.graph.nodes[n];
            node.owner.is_none() && node.in_module("oracle")
        };
        let mut sinks: Vec<Sink> = Vec::new();
        for (file, u) in self.units.iter().enumerate() {
            let toks = &u.lexed.tokens;
            if self.graph.mentions(file, "Fnv64") {
                let folds = u.model.calls.iter().filter(|mc| DIGEST_METHODS.contains(&&*mc.name));
                sinks.extend(folds.map(|mc| {
                    let name = format!("digest fold `{}`", mc.name);
                    (mc.dot, mc.line, mc.args, id::DIGEST_TAINT, name)
                }));
            }
            for mac in &u.model.macros {
                if !matches!(mac.name.as_str(), "assert" | "assert_eq" | "assert_ne") {
                    continue;
                }
                let open = mac.tok + 2;
                if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
                    continue;
                }
                let close = u.lexed.close_of(open);
                let named_golden = u.lexed.idents((open, close)).any(|t| t.starts_with("GOLDEN"));
                let in_golden_fn =
                    u.model.enclosing_fn(mac.tok).is_some_and(|f| f.name.starts_with("golden"));
                if named_golden || in_golden_fn {
                    let name = format!("golden assertion `{}!`", mac.name);
                    sinks.push((mac.tok, mac.line, (open, close), id::DIGEST_TAINT, name));
                }
            }
            for fc in &u.model.free_calls {
                if fc.name == "new"
                    && fc.called
                    && fc.qual.last().map(String::as_str) == Some("Finding")
                {
                    if let Some(args) = call_args(&u.lexed, fc.tok) {
                        let name = "bench metric `Finding::new`".to_string();
                        sinks.push((fc.tok, fc.line, args, id::DIGEST_TAINT, name));
                    }
                }
            }
            if self.graph.mentions(file, "Table") {
                sinks.extend(u.model.calls.iter().filter(|mc| mc.name == "row").map(|mc| {
                    let name = "bench table `row`".to_string();
                    (mc.dot, mc.line, mc.args, id::DIGEST_TAINT, name)
                }));
            }
            for fc in &u.model.free_calls {
                if !fc.called || !self.graph.callees(file, fc.tok).iter().any(oracle_fn) {
                    continue;
                }
                if let Some(args) = call_args(&u.lexed, fc.tok) {
                    let name = format!("oracle check `{}`", fc.name);
                    sinks.push((fc.tok, fc.line, args, id::ORACLE_TAINT, name));
                }
            }
            let mut locals: BTreeMap<Option<usize>, Locals<Taint<'a>>> = BTreeMap::new();
            for (tok, line, (a0, a1), rule, sink) in sinks.drain(..) {
                if a1 <= a0 {
                    continue;
                }
                let fk = u.model.enclosing_fn_idx(tok);
                let locals = locals
                    .entry(fk)
                    .or_insert_with(|| fk.map_or_else(Locals::new, |k| self.locals_for(file, k)));
                let Some(t) = self.taint_in(file, a0 + 1, a1 - 1, locals) else { continue };
                let path = self.describe(file, &t);
                let why = if rule == id::DIGEST_TAINT {
                    "every byte reaching a digest, golden, or bench artifact must be a pure \
                     function of the scenario labels — derive it from simulated time or a \
                     labeled Stream (or suppress citing the invariant that pins it)"
                } else {
                    "a verdict that depends on the host machine verifies nothing"
                };
                let message =
                    format!("nondeterministic value flows into {sink}: {path} -> {sink}; {why}");
                out.push(Finding { path: u.path.clone(), line, rule, message });
            }
        }
        out
    }

    /// The `rng-lineage` pass: every `from_seed(..)` argument must be a
    /// literal or a `*seed*`-named value. Test code (and files under
    /// `tests/` trees, where proptest-generated fns carry no `#[test]`
    /// marker) is exempt — a test may explore seeds freely.
    fn rng_lineage(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for u in self.units.iter() {
            if u.path.starts_with("tests/") || u.path.contains("/tests/") {
                continue;
            }
            let (lexed, toks) = (&u.lexed, &u.lexed.tokens);
            for fc in u.model.free_calls.iter().filter(|c| c.name == "from_seed" && c.called) {
                if u.model.in_test_span(fc.tok)
                    || u.model.enclosing_fn(fc.tok).is_some_and(|f| f.in_test)
                {
                    continue;
                }
                let Some((open, close)) = call_args(&u.lexed, fc.tok) else { continue };
                let rooted = (open + 1..close).any(|k| {
                    toks[k].kind == TokKind::Num
                        || (toks[k].kind == TokKind::Ident
                            && lexed.text(k).to_ascii_lowercase().contains("seed"))
                });
                if !rooted {
                    let arg: Vec<&str> = (open + 1..close).take(8).map(|k| lexed.text(k)).collect();
                    out.push(Finding {
                        path: u.path.clone(),
                        line: fc.line,
                        rule: id::RNG_LINEAGE,
                        message: format!(
                            "`from_seed({})` is not rooted on a literal or master seed — RNG \
                             streams must be label-rooted \
                             (`Stream::from_seed(SEED).derive(\"component.use\")` or \
                             `.derive_index(i)` under a labeled parent), never seeded from loop \
                             indices or shard ids: a stream keyed on iteration order silently \
                             changes when the loop does",
                            arg.join(" ")
                        ),
                    });
                }
            }
        }
        out
    }
}

/// True when the identifier at `i` is the last segment of `head::name`.
fn prefixed(lexed: &Lexed, i: usize, head: &str) -> bool {
    let toks = &lexed.tokens;
    i >= 3 && lexed.is_ident(i - 3, head) && toks[i - 2].is_punct(':') && toks[i - 1].is_punct(':')
}

/// The wall-clock, ambient-RNG or unordered-collection source the
/// identifier at `i` names, if any: its kind ([`K_WALL`], [`K_RNG`] or
/// [`K_UNORD`]) and the name a message quotes (`thread::sleep` for
/// `thread::sleep_ms` too). The taint pass roots on these names, and the
/// `no-wall-clock`, `no-ambient-rng` and `no-unordered-collections` rules
/// flag every one.
pub(crate) fn named_source(lexed: &Lexed, i: usize) -> Option<(&'static str, &str)> {
    if lexed.tokens[i].kind != TokKind::Ident {
        return None;
    }
    let name = lexed.text(i);
    let kind = match name {
        "Instant" | "SystemTime" => K_WALL,
        "sleep" | "sleep_ms" if prefixed(lexed, i, "thread") => {
            return Some((K_WALL, "thread::sleep"))
        }
        "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => K_RNG,
        "random" if prefixed(lexed, i, "rand") => return Some((K_RNG, "rand::random")),
        "HashMap" | "HashSet" => K_UNORD,
        _ => return None,
    };
    Some((kind, name))
}

/// A direct nondeterminism source at token `i`, if one starts here.
fn lexical_source(lexed: &Lexed, i: usize) -> Option<Src> {
    let t = &lexed.tokens[i];
    let (kind, desc) = match (named_source(lexed, i), t.kind) {
        (Some((K_WALL, "thread::sleep")), _) => {
            (K_WALL, "`thread::sleep` wall-clock wait".to_string())
        }
        (Some((K_WALL, name)), _) => (K_WALL, format!("`{name}` wall-clock read")),
        (Some((K_RNG, name)), _) => (K_RNG, format!("ambient RNG `{name}`")),
        (Some((kind, name)), _) => (kind, format!("`{name}` unordered iteration order")),
        (None, TokKind::Ident) => match lexed.text(i) {
            name @ ("addr_of" | "addr_of_mut") => (K_PTR, format!("raw address `ptr::{name}`")),
            "current" if prefixed(lexed, i, "thread") => {
                (K_TID, "`thread::current()` identity".to_string())
            }
            name @ ("var" | "var_os" | "vars") if prefixed(lexed, i, "env") => {
                (K_ENV, format!("environment read `env::{name}`"))
            }
            _ => return None,
        },
        // The needle is assembled with `concat!` so this file's own string
        // literal does not register as a pointer-format source when
        // fs-lint lints itself; the description dodges the same way.
        (None, TokKind::Str) if lexed.text(i).contains(concat!(":", "p}")) => {
            (K_PTR, concat!("`{", ":", "p}` pointer formatting").to_string())
        }
        _ => return None,
    };
    Some(Src { kind, tok: i, line: t.line, desc })
}

/// NaN-sensitive float folds in one file: `fold`/`reduce` whose argument
/// span mentions `f64::min`/`f64::max` (or `f32`). The fold's value
/// depends on NaN placement, which depends on evaluation order.
fn nan_fold_sources(u: &FileUnit) -> Vec<Src> {
    let folds = u.model.calls.iter().filter(|mc| mc.nan_absorbing(&u.lexed).is_some());
    folds
        .map(|mc| Src {
            kind: K_NAN,
            tok: mc.dot,
            line: mc.line,
            desc: format!("NaN-sensitive `{}` over float min/max", mc.name),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FileUnit, Graph};

    fn unit(path: &str, src: &str) -> FileUnit {
        FileUnit::new(path.to_string(), src)
    }

    fn run(units: &[FileUnit]) -> (Vec<Finding>, Vec<Option<TaintSummary>>) {
        let graph = Graph::build(units);
        analyze(units, &graph)
    }

    #[test]
    fn direct_wall_clock_into_digest_fold_fires() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub struct Fnv64(u64); impl Fnv64 { pub fn write_u64(&mut self, v: u64) {} } \
             pub fn fold() { let mut h = Fnv64(0); \
             let t = std::time::Instant::now().elapsed().as_nanos() as u64; h.write_u64(t); }",
        )];
        let (findings, _) = run(&units);
        let f = findings.iter().find(|f| f.rule == id::DIGEST_TAINT).expect("digest-taint");
        assert!(f.message.contains("wall-clock"), "{}", f.message);
        assert!(f.message.contains("local `t`"), "{}", f.message);
    }

    #[test]
    fn two_hop_flow_reports_the_call_path() {
        let units = [
            unit(
                "crates/alpha/src/lib.rs",
                "pub fn now_nanos() -> u64 { \
                 std::time::Instant::now().elapsed().as_nanos() as u64 }\n\
                 pub fn stamp() -> u64 { now_nanos() ^ 1 }",
            ),
            unit(
                "crates/beta/src/lib.rs",
                "use alpha::stamp; pub struct Fnv64(u64); \
                 impl Fnv64 { pub fn write_u64(&mut self, v: u64) {} } \
                 pub fn fold() { let mut h = Fnv64(0); let s = alpha::stamp(); h.write_u64(s); }",
            ),
        ];
        let (findings, summaries) = run(&units);
        let f = findings.iter().find(|f| f.rule == id::DIGEST_TAINT).expect("digest-taint");
        for hop in ["now_nanos", "stamp", "local `s`", "->"] {
            assert!(f.message.contains(hop), "missing {hop} in: {}", f.message);
        }
        // `stamp` carries an interprocedural summary via `now_nanos`.
        let stamped = summaries
            .iter()
            .flatten()
            .any(|s| s.kind == K_WALL && s.via.is_some() && s.what.contains("now_nanos"));
        assert!(stamped, "{summaries:?}");
    }

    #[test]
    fn sorted_unordered_local_is_sanitized() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub struct Fnv64(u64); impl Fnv64 { pub fn write_u64(&mut self, v: u64) {} } \
             pub fn fold(m: &std::collections::HashMap<u64, u64>) { let mut h = Fnv64(0); \
             let mut keys: Vec<u64> = m.keys().copied().collect(); keys.sort_unstable(); \
             for k in keys { h.write_u64(k); } }",
        )];
        let (findings, _) = run(&units);
        assert!(
            findings.iter().all(|f| f.rule != id::DIGEST_TAINT),
            "sorted keys are deterministic: {findings:?}"
        );
    }

    #[test]
    fn unsorted_unordered_local_fires() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub struct Fnv64(u64); impl Fnv64 { pub fn write_u64(&mut self, v: u64) {} } \
             pub fn fold(m: &std::collections::HashMap<u64, u64>) { let mut h = Fnv64(0); \
             let keys: Vec<u64> = m.keys().copied().collect(); \
             for k in keys { h.write_u64(k); } }",
        )];
        let (findings, _) = run(&units);
        assert!(findings.iter().any(|f| f.rule == id::DIGEST_TAINT), "{findings:?}");
    }

    #[test]
    fn let_type_ascription_taints() {
        // Only the ascription names the unordered type; the scan that
        // skips a `let`'s own names must still read it.
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub struct Fnv64(u64); impl Fnv64 { pub fn write_u64(&mut self, v: u64) {} } \
             pub fn fold(v: Vec<(u64, u64)>) { let mut h = Fnv64(0); \
             let m: std::collections::HashMap<u64, u64> = v.into_iter().collect(); \
             for (k, _) in m { h.write_u64(k); } }",
        )];
        let (findings, _) = run(&units);
        assert!(findings.iter().any(|f| f.rule == id::DIGEST_TAINT), "{findings:?}");
    }

    #[test]
    fn field_laundering_is_tracked() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub struct Fnv64(u64); impl Fnv64 { pub fn write_u64(&mut self, v: u64) {} } \
             pub struct Cache { pub stamp: u64 } \
             impl Cache { pub fn refresh(&mut self) { \
             let t = std::time::Instant::now().elapsed().as_nanos() as u64; self.stamp = t; } } \
             pub fn fold(c: &Cache) { let mut h = Fnv64(0); h.write_u64(c.stamp); }",
        )];
        let (findings, _) = run(&units);
        let f = findings.iter().find(|f| f.rule == id::DIGEST_TAINT).expect("laundered taint");
        assert!(f.message.contains("field `.stamp`"), "{}", f.message);
    }

    #[test]
    fn rng_lineage_flags_loop_index_seeds_only() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub fn seeds(master_seed: u64) { for i in 0..4u64 { \
             let bad = Stream::from_seed(i); \
             let good = Stream::from_seed(master_seed); \
             let lit = Stream::from_seed(42); } }\n\
             #[cfg(test)] mod tests { #[test] fn t() { let x = Stream::from_seed(7 + 1); } }",
        )];
        let (findings, _) = run(&units);
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == id::RNG_LINEAGE).collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("from_seed(i)"), "{}", hits[0].message);
    }

    #[test]
    // Not named `golden_*`: a fn declared with that prefix would itself
    // trip `golden-regen-note` (and the flow golden-sink gate) when
    // fs-lint lints this file.
    fn assertions_on_goldens_and_bench_rows_are_sinks() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "const GOLDEN_X: u64 = 7; \
             pub fn golden_check() { \
             let t = std::time::Instant::now().elapsed().as_nanos() as u64; \
             assert_eq!(t, GOLDEN_X); } \
             pub fn bench() { \
             let t = std::time::Instant::now().elapsed().as_nanos() as u64; \
             let f = Finding::new(t); }",
        )];
        let (findings, _) = run(&units);
        let digest: Vec<_> = findings.iter().filter(|f| f.rule == id::DIGEST_TAINT).collect();
        assert!(digest.iter().any(|f| f.message.contains("golden assertion")), "{digest:?}");
        assert!(digest.iter().any(|f| f.message.contains("Finding::new")), "{digest:?}");

        // A `.row(..)` is a bench sink only in a file that names `Table`.
        let emit = |path: &str, ty: &str| {
            let src = format!(
                "pub fn emit(t: &mut {ty}) {{ \
                 let v = std::time::Instant::now().elapsed().as_nanos() as u64; t.row(v); }}"
            );
            unit(path, &src)
        };
        let units = [
            emit("crates/alpha/src/table.rs", "Table"),
            emit("crates/alpha/src/sheet.rs", "Sheet"),
        ];
        let (findings, _) = run(&units);
        let rows: Vec<_> =
            findings.iter().filter(|f| f.message.contains("bench table `row`")).collect();
        assert_eq!(rows.len(), 1, "{findings:?}");
        assert!(rows[0].path.ends_with("table.rs") && rows[0].rule == id::DIGEST_TAINT, "{rows:?}");
    }

    #[test]
    fn oracle_taint_fires_only_through_oracle_references() {
        let units = [
            unit(
                "crates/alpha/src/oracle.rs",
                "pub fn check_conserved(total: u64) -> bool { total == 0 }",
            ),
            unit(
                "crates/alpha/src/run.rs",
                "use crate::oracle; pub fn verdict() { \
                 let t = std::time::Instant::now().elapsed().as_nanos() as u64; \
                 let ok = oracle::check_conserved(t); }",
            ),
            unit(
                "crates/beta/src/lib.rs",
                "pub fn check_conserved(total: u64) -> bool { total == 0 } \
                 pub fn local_use() { \
                 let t = std::time::Instant::now().elapsed().as_nanos() as u64; \
                 let ok = check_conserved(t); }",
            ),
        ];
        let (findings, _) = run(&units);
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == id::ORACLE_TAINT).collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].path.ends_with("run.rs"), "{hits:?}");
    }

    #[test]
    fn clean_code_has_no_summaries_or_findings() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub struct Fnv64(u64); impl Fnv64 { pub fn write_u64(&mut self, v: u64) {} } \
             pub fn fold(vals: &[u64]) { let mut h = Fnv64(0); \
             for v in vals { h.write_u64(*v); } }",
        )];
        let (findings, summaries) = run(&units);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(summaries.iter().all(Option::is_none));
    }
}
