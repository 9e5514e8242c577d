//! The semantic rules: event-ordering tiebreaks, float total-order, and
//! panic-path determinism.
//!
//! These three rules run on the parsed shape of each file
//! ([`crate::parse`]) rather than on raw tokens, because what they check is
//! contextual: the same `sort_by_key` is fine in a report formatter and a
//! determinism hazard in the event queue; the same `unwrap` is fine in a
//! test and an unscheduled fail-stop in injector-reachable code.
//!
//! ## Scopes
//!
//! Where each rule applies is decided by a [`crate::graph::FileScope`],
//! which the engine derives from the workspace call graph
//! ([`crate::graph`]):
//!
//! * **Scheduling set `S`** (`stable-tiebreak`, full battery): functions
//!   that own or drive an event queue, per the call graph. In the rest of
//!   the injector-reachable set only the *weak* check runs — a key closure
//!   that is literally a bare time field (`|e| e.at`) — because a
//!   single-key selection in ordinary model code is not a scheduling
//!   hazard. `Ord` impls are in scope when their type is a `BinaryHeap`
//!   element anywhere in the workspace; heap declarations are always in
//!   scope (every `BinaryHeap` is scheduling infrastructure).
//! * **Injector-reachable set `R`** (`panic-path`): the fixpoint from the
//!   injector/detector/scheduler entry points. Test modules are exempt: a
//!   test that panics is a test that fails, which is the point.
//! * **Digest-feeding code** (`float-total-order`): everywhere. Every float
//!   in this workspace is either model state or a measurement, and both
//!   end up in goldens or the campaign digest.
//!
//! When the scanned set has no entry points (single-file runs, fixture
//! subsets) the engine passes the empty scope
//! ([`crate::graph::FileScope::unscoped`]): `S` and `R` are empty and
//! only the everywhere rules apply.
//!
//! ## Documented exemptions
//!
//! `panic-path` deliberately does not flag `assert!`/`debug_assert!`
//! (asserted contracts are *specified* fail-stops, documented under
//! `# Panics`, and the suite leans on them), literal subscripts like
//! `w[0]` (fixed-shape data: `windows(2)` pairs, parity pairs, statically
//! sized tables), or subscripts that are a bare identifier bound in the
//! enclosing function — a parameter, `let` binding, `for`-loop variable,
//! or closure parameter — because a bare bound index was established one
//! hop away in scope and re-litigating it at every use is noise. What
//! remains — `unwrap`, `expect`, `panic!`-family macros, and *computed*
//! subscripts (`v[i - 1]`, `v[self.cursor]`, `v[idx % n]`) — each encodes
//! an arithmetic or state claim an injected fault can falsify, and must be
//! handled or carry a written `fslint: allow(panic-path)` reason.

use crate::graph::FileScope;
use crate::lexer::{Lexed, TokKind};
use crate::parse::{is_float_token, past_turbofish, FileModel, MethodCall};
use crate::rules::{id, push, FileCtx, Finding};

/// Identifier names a comparator key may end with that mark it as "the
/// event's time": ordering on one of these alone leaves ties to container
/// order.
const TIME_KEYS: &[&str] = &["at", "time", "when", "deadline", "arrival", "start", "finish", "t"];

/// Runs the three semantic rules over one parsed file under `scope`.
pub fn check_file(
    ctx: &FileCtx<'_>,
    model: &FileModel,
    scope: &FileScope,
    findings: &mut Vec<Finding>,
) {
    float_total_order(ctx, model, findings);
    stable_tiebreak(ctx, model, scope, findings);
    panic_path(ctx, model, scope, findings);
}

// ---------------------------------------------------------------------------
// stable-tiebreak
// ---------------------------------------------------------------------------

/// Sort/selection methods whose first argument is a *key* closure.
const KEYED: &[&str] = &["sort_by_key", "sort_unstable_by_key", "min_by_key", "max_by_key"];
/// Sort/selection methods whose first argument is a *comparator* closure.
const COMPARED: &[&str] = &["sort_by", "sort_unstable_by", "min_by", "max_by"];

fn stable_tiebreak(
    ctx: &FileCtx<'_>,
    model: &FileModel,
    scope: &FileScope,
    findings: &mut Vec<Finding>,
) {
    let (lexed, toks) = (ctx.lexed, &ctx.lexed.tokens);
    for call in &model.calls {
        let name = lexed.text(call.name);
        if KEYED.contains(&name) {
            let Some(body) = closure_body(lexed, call) else { continue };
            if scope.in_sched(call.dot) {
                if !is_tuple_expr(lexed, body) {
                    push(
                        findings,
                        ctx,
                        call.line,
                        id::STABLE_TIEBREAK,
                        format!(
                            "`{name}` keys scheduling order on a single expression; equal keys \
                             fall back to container/iterator order, which is insertion-order \
                             dependence the campaign digest cannot localise — key on a tuple with \
                             a stable secondary (sequence number, index, or label)"
                        ),
                    );
                } else if span_mentions_float(lexed, body, model, call.dot) {
                    push_float_key(findings, ctx, call.line, name);
                }
            } else if scope.weak_tiebreak(call.dot) && bare_time_key(lexed, body) {
                push(
                    findings,
                    ctx,
                    call.line,
                    id::STABLE_TIEBREAK,
                    format!(
                        "`{name}` in injector-reachable code keys on a bare time field; equal \
                         times fall back to container order, which an injected stutter can \
                         reorder — key on a (time, stable-secondary) tuple"
                    ),
                );
            }
        } else if COMPARED.contains(&name) {
            if !scope.in_sched(call.dot) {
                continue;
            }
            let Some(body) = closure_body(lexed, call) else { continue };
            check_comparator_body(ctx, model, body, call.line, name, findings);
        }
    }
    // `impl Ord`/`impl PartialOrd` for heap-element types: the `cmp` body
    // must not order on a bare time field.
    for im in &model.impls {
        let (tr, ty) = (im.trait_name.map_or("", |k| lexed.text(k)), lexed.text(im.type_name));
        if !matches!(tr, "Ord" | "PartialOrd") || !scope.ord_in_scope(ty) {
            continue;
        }
        let what = format!("impl {tr} for {ty}");
        check_comparator_body(ctx, model, im.body, im.line, &what, findings);
    }
    // A heap keyed on bare SimTime pops equal-time entries in heap order.
    for heap in &model.heaps {
        if !scope.heap_in_scope() {
            continue;
        }
        let (open, close) = heap.angles;
        let mentions_time = (open..=close).any(|k| lexed.is_ident(k, "SimTime"));
        // Any comma in the element type means the time is paired with
        // something — `Reverse<(SimTime, u64)>` nests the tuple arbitrarily
        // deep, so depth is not checked here.
        let has_comma = toks[open..=close].iter().any(|t| t.is_punct(','));
        if mentions_time && !has_comma {
            push(
                findings,
                ctx,
                heap.line,
                id::STABLE_TIEBREAK,
                "`BinaryHeap` keyed on `SimTime` alone pops equal-time entries in arbitrary \
                 heap order; pair the time with a sequence number (`(SimTime, u64)`)"
                    .to_string(),
            );
        }
    }
}

/// Flags a comparator body (closure or `cmp` impl) that orders on a bare
/// time field or on floats.
fn check_comparator_body(
    ctx: &FileCtx<'_>,
    model: &FileModel,
    body: (usize, usize),
    line: u32,
    what: &str,
    findings: &mut Vec<Finding>,
) {
    let lexed = ctx.lexed;
    let has_then = (body.0..=body.1).any(|k| {
        lexed.is_ident(k, "then") || lexed.is_ident(k, "then_with") || lexed.is_ident(k, "then_cmp")
    });
    let calls = model.calls_in(body.0, body.1);
    // Any float comparison inside a scheduling comparator is a finding,
    // tiebreak or not: float keys belong outside the scheduler.
    let float_cmp = calls.iter().any(|c| matches!(lexed.text(c.name), "partial_cmp" | "total_cmp"))
        || span_mentions_float(lexed, body, model, body.0);
    if float_cmp {
        push_float_key(findings, ctx, line, what);
        return;
    }
    if has_then {
        return;
    }
    // `X.cmp(&Y)` where X is a non-tuple chain ending in a time name.
    for c in calls.iter().filter(|c| lexed.is_ident(c.name, "cmp")) {
        if receiver_is_tuple(lexed, c.dot) {
            continue;
        }
        if let Some(last) = receiver_tail_ident(lexed, c.dot) {
            if TIME_KEYS.contains(&last) {
                push(
                    findings,
                    ctx,
                    c.line,
                    id::STABLE_TIEBREAK,
                    format!(
                        "{what} orders on `{last}` alone; same-`{last}` ties are broken by \
                         insertion order — compare a (time, sequence) tuple, or chain \
                         `.then(...)` on a stable key"
                    ),
                );
            }
        }
    }
}

/// True when a key-closure body is a bare chain ending in a time name
/// (`|e| e.at`, `|e| *e.start`) — the weak-scope tiebreak check.
fn bare_time_key(lexed: &Lexed, (start, end): (usize, usize)) -> bool {
    let toks = &lexed.tokens;
    let plain_chain = toks[start..=end].iter().all(|t| match t.kind {
        TokKind::Ident => true,
        TokKind::Punct => matches!(t.first, b'.' | b'&' | b'*'),
        _ => false,
    });
    plain_chain && toks[end].kind == TokKind::Ident && TIME_KEYS.contains(&lexed.text(end))
}

fn push_float_key(findings: &mut Vec<Finding>, ctx: &FileCtx<'_>, line: u32, what: &str) {
    push(
        findings,
        ctx,
        line,
        id::STABLE_TIEBREAK,
        format!(
            "{what} keys scheduling order on a float; rounding and NaN make float order a \
             determinism hazard in a scheduler — use an integer key (e.g. SimTime nanos) \
             with a stable tiebreak"
        ),
    );
}

// ---------------------------------------------------------------------------
// float-total-order
// ---------------------------------------------------------------------------

fn float_total_order(ctx: &FileCtx<'_>, model: &FileModel, findings: &mut Vec<Finding>) {
    let lexed = ctx.lexed;
    for call in &model.calls {
        if lexed.is_ident(call.name, "partial_cmp") {
            let how = match call.chained.map(|k| lexed.text(k)) {
                Some(m @ ("unwrap" | "expect")) => format!(
                    "`partial_cmp(..).{m}(..)` panics on NaN — the one input a stuttering \
                     component is most likely to produce"
                ),
                Some(m @ ("unwrap_or" | "unwrap_or_else")) => format!(
                    "`partial_cmp(..).{m}(..)` silently gives NaN an arbitrary rank, \
                     reordering the digest with no diagnostic"
                ),
                _ => "`partial_cmp` at a comparator site imposes only a partial order".to_string(),
            };
            push(
                findings,
                ctx,
                call.line,
                id::FLOAT_TOTAL_ORDER,
                format!(
                    "{how}; use `total_cmp` (or an integer key), or say why NaN is \
                         impossible with `fslint: allow(float-total-order)`"
                ),
            );
        } else if let Some(k) = call.nan_absorbing(lexed) {
            push(
                findings,
                ctx,
                call.line,
                id::FLOAT_TOTAL_ORDER,
                format!(
                    "`{}::{}` inside a `{}` silently absorbs NaN (IEEE minNum/maxNum), so a \
                     poisoned measurement vanishes from the digest; reduce with \
                     `min_by`/`max_by` + `total_cmp`, or give a written reason",
                    lexed.text(k),
                    lexed.text(k + 3),
                    lexed.text(call.name)
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------------

/// Macros that are unconditional panics (the `assert!` family is exempt —
/// see module docs).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn panic_path(
    ctx: &FileCtx<'_>,
    model: &FileModel,
    scope: &FileScope,
    findings: &mut Vec<Finding>,
) {
    let (lexed, toks) = (ctx.lexed, &ctx.lexed.tokens);
    let live = |i: usize| scope.in_reach(i) && !model.in_test(i);
    for call in &model.calls {
        let name = lexed.text(call.name);
        if matches!(name, "unwrap" | "expect") && live(call.dot) {
            push(
                findings,
                ctx,
                call.line,
                id::PANIC_PATH,
                format!(
                    "`{name}` can panic in injector-reachable code; a panic under an injected \
                     fault is a fail-stop the model never scheduled — handle the `None`/`Err` \
                     arm, or document the invariant with `fslint: allow(panic-path)`"
                ),
            );
        }
    }
    for mac in &model.macros {
        let name = lexed.text(mac.name);
        if PANIC_MACROS.contains(&name) && live(mac.name) {
            push(
                findings,
                ctx,
                mac.line,
                id::PANIC_PATH,
                format!(
                    "`{name}!` is an unconditional panic in injector-reachable code — return an \
                     error instead, or document why it is unreachable with \
                     `fslint: allow(panic-path)`"
                ),
            );
        }
    }
    for ix in &model.indexings {
        let (open, close) = ix.brackets;
        if close <= open + 1 || !live(open) {
            continue;
        }
        let inner = &toks[open + 1..close];
        // Literal subscripts into fixed-shape data are exempt.
        if inner.len() == 1 && inner[0].kind == TokKind::Num {
            continue;
        }
        // Range slicing is out of scope for this rule.
        if inner.windows(2).any(|w| w[0].is_punct('.') && w[1].is_punct('.')) {
            continue;
        }
        // A bare locally-bound identifier (param, let, loop var, closure
        // param) was established in scope; only computed subscripts carry
        // a claim of their own.
        if inner.len() == 1 && inner[0].kind == TokKind::Ident {
            let bound = model.enclosing_fn(open).is_some_and(|f| {
                f.bound_vars.iter().any(|&k| lexed.text(k) == lexed.text(open + 1))
            });
            if bound {
                continue;
            }
        }
        push(
            findings,
            ctx,
            ix.line,
            id::PANIC_PATH,
            "subscript can panic out-of-bounds in injector-reachable code; under an \
             injected fault that is an unscheduled fail-stop — use `.get(..)` with explicit \
             handling, or document the bound with `fslint: allow(panic-path)`"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// Shared token-shape helpers
// ---------------------------------------------------------------------------

/// The body span of a call's closure argument: tokens between the closing
/// `|` of the parameter list and the end of the argument list. `None` when
/// the argument is not a closure literal (e.g. a named comparator fn, which
/// carries its ordering contract in its own definition).
fn closure_body(lexed: &Lexed, call: &MethodCall) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    let (open, close) = call.args;
    if close <= open + 1 {
        return None;
    }
    let mut i = open + 1;
    if lexed.is_ident(i, "move") {
        i += 1;
    }
    if !toks[i].is_punct('|') {
        return None;
    }
    let mut j = i + 1;
    while j < close && !toks[j].is_punct('|') {
        j += 1;
    }
    (j + 1 < close).then_some((j + 1, close - 1))
}

/// True when a span is a parenthesised tuple: `( … , … )` with the comma at
/// depth 1. A block body `{ …; (a, b) }` counts through its trailing tuple
/// expression — the value the block evaluates to.
fn is_tuple_expr(lexed: &Lexed, (start, end): (usize, usize)) -> bool {
    let toks = &lexed.tokens;
    if toks[start].is_punct('(') && lexed.close_of(start) == end {
        return has_toplevel_comma(lexed, start, end);
    }
    if toks[start].is_punct('{')
        && lexed.close_of(start) == end
        && end >= 2
        && toks[end - 1].is_punct(')')
    {
        // The `(` matching the block's last token must open an expression
        // statement, not a call's argument list.
        let Some(i) = lexed.partner(end - 1) else { return false };
        let opens_expr = i == start + 1 || toks[i - 1].is_punct(';') || toks[i - 1].is_punct('{');
        return opens_expr && has_toplevel_comma(lexed, i, end - 1);
    }
    false
}

/// True if the group the bracket at `open` opens, up to its closer at
/// `close`, holds a comma at its own bracket level. A turbofish `::<…>`
/// is stepped over, since its commas separate type arguments; any other
/// `<` or `>` is an operator (`(e.at < cutoff, e.seq)` is a tuple).
fn has_toplevel_comma(lexed: &Lexed, open: usize, close: usize) -> bool {
    let toks = &lexed.tokens;
    let mut i = open + 1;
    while i < close {
        if toks[i].is_punct(',') {
            return true;
        }
        i = match past_turbofish(toks, i) {
            Some(past) if past > i => past,
            _ => lexed.step(i),
        };
    }
    false
}

/// True when the receiver of the `.` at `dot` is a parenthesised tuple.
fn receiver_is_tuple(lexed: &Lexed, dot: usize) -> bool {
    let toks = &lexed.tokens;
    let close = dot.checked_sub(1).filter(|&c| toks[c].is_punct(')'));
    let open = close.and_then(|c| lexed.partner(c));
    open.is_some_and(|open| has_toplevel_comma(lexed, open, dot - 1))
}

/// The last identifier of the receiver chain ending just before `dot`
/// (`other.entry.at.cmp(..)` → `Some("at")`).
fn receiver_tail_ident(lexed: &Lexed, dot: usize) -> Option<&str> {
    let prev = dot.checked_sub(1)?;
    (lexed.tokens[prev].kind == TokKind::Ident).then(|| lexed.text(prev))
}

/// True if the span references a float literal or an identifier the
/// enclosing function knows to be float-typed.
fn span_mentions_float(
    lexed: &Lexed,
    (start, end): (usize, usize),
    model: &FileModel,
    at: usize,
) -> bool {
    let floats = model.enclosing_fn(at).map_or(&[][..], |f| &f.float_vars);
    (start..=end).any(|k| {
        is_float_token(lexed, k)
            || (lexed.tokens[k].kind == TokKind::Ident
                && floats.iter().any(|&f| lexed.text(f) == lexed.text(k)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let ctx = FileCtx { path: path.to_string(), lexed: &lexed };
        let model = crate::parse::parse(&lexed);
        let mut findings = Vec::new();
        // These unit tests exercise the rule bodies, not the graph (that
        // is tests/graph.rs territory), so the path picks a whole-file
        // scope standing in for what the graph derives in the real tree:
        // simcore is scheduling code, the injector-driven model crates
        // are reachable, everything else gets only the everywhere rules.
        let scope = if path.contains("crates/simcore/src/") {
            FileScope::whole_file(true, true)
        } else if ["raidsim", "perfplane", "adapt", "stutter"]
            .iter()
            .any(|c| path.contains(&format!("crates/{c}/src/")))
        {
            FileScope::whole_file(false, true)
        } else {
            FileScope::unscoped()
        };
        check_file(&ctx, &model, &scope, &mut findings);
        findings
    }

    const SCHED: &str = "crates/simcore/src/sim.rs";

    #[test]
    fn single_key_sort_in_scheduler_is_flagged() {
        let f = run(SCHED, "fn f() { q.sort_by_key(|e| e.at); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, id::STABLE_TIEBREAK);
    }

    #[test]
    fn tuple_key_sort_in_scheduler_is_clean() {
        assert!(run(SCHED, "fn f() { q.sort_by_key(|e| (e.at, e.seq)); }").is_empty());
    }

    #[test]
    fn tuple_keys_are_read_at_the_groups_own_level() {
        for (src, tuple) in [
            ("(e.at < cutoff, e.seq)", true),
            ("(e.at << 1, e.seq)", true),
            ("(f::<A, B>(e))", false),
            ("e.at", false),
        ] {
            let l = lex(src);
            assert_eq!(is_tuple_expr(&l, (0, l.tokens.len() - 1)), tuple, "{src}");
        }
        for key in ["(e.at < cutoff, e.seq)", "(e.0.1, e.1)"] {
            let src = format!("fn f() {{ q.sort_by_key(|e| {key}); }}");
            assert!(run(SCHED, &src).is_empty(), "{key}: {:?}", run(SCHED, &src));
        }
    }

    #[test]
    fn min_by_key_selection_tie_is_flagged() {
        let f = run(SCHED, "fn f() { let p = (0..n).min_by_key(|&i| dist(i)); }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn block_bodied_tuple_key_is_clean() {
        let src = "fn f() { let p = (0..n).min_by_key(|&i| { let r = q[i]; (d(r.lba), r.at) }); }";
        assert!(run(SCHED, src).is_empty(), "{:?}", run(SCHED, src));
    }

    #[test]
    fn same_code_outside_scheduling_paths_is_clean() {
        assert!(run("crates/bench/src/report.rs", "fn f() { q.sort_by_key(|e| e.at); }").is_empty());
    }

    #[test]
    fn ord_impl_on_bare_time_is_flagged_and_tuple_ok() {
        let bad = "impl Ord for E { fn cmp(&self, o: &Self) -> O { self.at.cmp(&o.at) } }";
        let good =
            "impl Ord for E { fn cmp(&self, o: &Self) -> O { (o.at, o.seq).cmp(&(self.at, self.seq)) } }";
        assert_eq!(run(SCHED, bad).len(), 1);
        assert!(run(SCHED, good).is_empty());
    }

    #[test]
    fn heap_on_bare_simtime_is_flagged() {
        let f = run(SCHED, "fn f() { let h: BinaryHeap<Reverse<SimTime>> = BinaryHeap::new(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(run(
            SCHED,
            "fn f() { let h: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new(); }"
        )
        .is_empty());
    }

    #[test]
    fn float_keyed_scheduling_sort_is_flagged() {
        let f = run(SCHED, "fn f(w: f64) { q.sort_by_key(|e| (w * e.x, e.seq)); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("float"));
    }

    #[test]
    fn partial_cmp_unwrap_is_flagged_everywhere() {
        let f = run(
            "crates/bench/src/report.rs",
            "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
        );
        assert_eq!(f.iter().filter(|f| f.rule == id::FLOAT_TOTAL_ORDER).count(), 1, "{f:?}");
    }

    #[test]
    fn total_cmp_sort_is_clean() {
        assert!(
            run("crates/bench/src/report.rs", "fn f() { v.sort_by(f64::total_cmp); }").is_empty()
        );
    }

    #[test]
    fn nan_absorbing_fold_is_flagged() {
        let f = run(
            "crates/bench/src/report.rs",
            "fn f() { let m = v.iter().fold(f64::INFINITY, f64::min); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("NaN"));
    }

    #[test]
    fn unwrap_in_injector_reachable_lib_code_is_flagged() {
        let f = run("crates/raidsim/src/reads.rs", "fn f() { x.unwrap(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, id::PANIC_PATH);
    }

    #[test]
    fn unwrap_in_test_mod_is_exempt() {
        assert!(run(
            "crates/raidsim/src/reads.rs",
            "#[cfg(test)] mod tests { #[test] fn t() { x.unwrap(); } }"
        )
        .is_empty());
    }

    #[test]
    fn bound_ident_subscripts_are_exempt_but_computed_are_not() {
        let loop_var = "fn f(v: &[u64]) { for i in 0..v.len() { let x = v[i]; } }";
        let param = "fn f(v: &[u64], k: usize) { let x = v[k]; }";
        let let_bound = "fn f(v: &[u64], k: usize) { let j = k % v.len(); let x = v[j]; }";
        let computed = "fn f(v: &[u64], k: usize) { let x = v[k - 1]; }";
        let field = "struct S { c: usize } fn f(v: &[u64], s: &S) { let x = v[s.c]; }";
        assert!(run("crates/adapt/src/txn.rs", loop_var).is_empty());
        assert!(run("crates/adapt/src/txn.rs", param).is_empty());
        assert!(run("crates/adapt/src/txn.rs", let_bound).is_empty());
        assert_eq!(run("crates/adapt/src/txn.rs", computed).len(), 1);
        assert_eq!(run("crates/adapt/src/txn.rs", field).len(), 1);
    }

    #[test]
    fn computed_subscript_is_flagged_and_literal_exempt() {
        let bad = "fn f(v: &[u64]) { let m = v[v.len() / 2]; }";
        let ok = "fn f(w: &[u64]) { let a = w[0] + w[1]; }";
        assert_eq!(run("crates/stutter/src/detect.rs", bad).len(), 1);
        assert!(run("crates/stutter/src/detect.rs", ok).is_empty());
    }

    #[test]
    fn panic_macro_is_flagged_but_assert_is_not() {
        let f = run("crates/simcore/src/sim.rs", "fn f() { assert!(x > 0); panic!(\"boom\"); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("panic"));
    }
}
