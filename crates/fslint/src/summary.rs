//! The machinery the three summary passes share.
//!
//! [`crate::flow`], [`crate::units`] and [`crate::effects`] each compute
//! per-function summaries over the call graph, and each needs the same
//! plumbing around its own transfer function. None of them resolves a
//! call: a call site's callees are the ones [`Graph::callees`] recorded
//! when the graph was built, and [`summarized`] picks the first a pass
//! has summarized. The plumbing:
//!
//! * the round-based fixpoint driver (flow and units; effects grows
//!   effect sets under its own precision filters);
//! * the hop-by-hop chain printer that turns `via` links into a
//!   root-first path;
//! * the `let`/`for` binding walker over a [`Locals`] range table, with
//!   shadowing;
//! * the `.field = RHS` learner that teaches struct fields by name, over
//!   the assignment sites [`parse`] records once per file;
//! * the token helpers those scans are built from. They find a
//!   statement's `=`/`;`, a pattern's `:` or a loop's `{` by walking one
//!   bracket level of the lexer's pair table ([`Lexed::level`]), and a
//!   call's argument parens by one lookup; none counts bracket depth.
//!
//! Each pass keeps only its seeds, its transfer function and its rules.

use crate::graph::{FileUnit, Graph};
use crate::lexer::{Lexed, TokKind, Token};
use crate::parse;
use std::collections::BTreeMap;

/// The first callee of the call site at token `tok` of `units[file]`
/// that has a summary, with the summary: the graph resolved the site, the
/// pass's summaries pick among its callees.
pub(crate) fn summarized<'s, S>(
    graph: &Graph,
    summaries: &'s [Option<S>],
    file: usize,
    tok: usize,
) -> Option<(usize, &'s S)> {
    graph.callees(file, tok).iter().find_map(|&n| Some((n, summaries[n].as_ref()?)))
}

/// Runs a summary pass to its fixpoint. Each round first calls `learn`,
/// which learns struct fields (true when it learned one), then `infer`s
/// each unsummarized node from the summaries of earlier rounds only — the
/// rule that picks which callee each `via` hop names: a round's updates
/// are applied after every `infer` of the round. Summaries and fields
/// only grow, so this terminates.
pub(crate) fn fixpoint<P, S>(
    pass: &mut P,
    summaries: fn(&mut P) -> &mut Vec<Option<S>>,
    learn: fn(&mut P) -> bool,
    infer: fn(&P, usize) -> Option<S>,
) {
    loop {
        let learned = learn(pass);
        let todo: Vec<usize> =
            (0..summaries(pass).len()).filter(|&n| summaries(pass)[n].is_none()).collect();
        let updates: Vec<(usize, S)> =
            todo.into_iter().filter_map(|n| Some((n, infer(pass, n)?))).collect();
        if !learned && updates.is_empty() {
            return;
        }
        let sums = summaries(pass);
        for (n, s) in updates {
            sums[n] = Some(s);
        }
    }
}

/// The call chain from the root evidence down to node `from`, one hop
/// per entry, root first. `hop(n)` is node `n`'s summary hop record,
/// `(via, what, line)`: the callee the fact arrived through (`None` at
/// the root), the root evidence, and its line. The root hop cites its
/// location once: a `what` rendered with it (a unit summary inferred
/// from a hop) is not cited again. `via` links never cycle (a summary's
/// provider was always assigned in an earlier round), but a depth cap
/// guards the walk anyway.
pub(crate) fn chain<'s>(
    graph: &Graph,
    units: &[FileUnit],
    from: usize,
    hop: impl Fn(usize) -> Option<(Option<usize>, &'s str, u32)>,
) -> Vec<String> {
    let mut hops: Vec<String> = Vec::new();
    let mut cur = from;
    for _ in 0..16 {
        let Some((via, what, line)) = hop(cur) else { break };
        let n = &graph.nodes[cur];
        let path = &units[n.file].path;
        hops.push(format!("`{}` ({path}:{})", n.name, n.line));
        match via {
            Some(v) if v != cur => cur = v,
            _ => {
                let at = format!(" ({path}:{line})");
                hops.push(format!("{}{at}", what.strip_suffix(&at).unwrap_or(what)));
                break;
            }
        }
    }
    hops.reverse();
    hops
}

/// One local binding, live on the token range `[from, until]`. Its name
/// borrows the token that binds it.
#[derive(Debug)]
pub(crate) struct Local<'t, T> {
    /// The bound name.
    pub name: &'t str,
    /// First token the binding is live at.
    pub from: usize,
    /// Last token the binding is live at.
    pub until: usize,
    /// What the pass knows about the bound value.
    pub val: T,
}

/// A function's local bindings as token ranges, in binding order.
#[derive(Debug)]
pub(crate) struct Locals<'t, T>(Vec<Local<'t, T>>);

impl<'t, T> Locals<'t, T> {
    /// No bindings.
    pub fn new() -> Locals<'t, T> {
        Locals(Vec::new())
    }

    /// Binds `name` to `val` from token `from` on.
    pub fn bind(&mut self, name: &'t str, from: usize, val: T) {
        self.0.push(Local { name, from, until: usize::MAX, val });
    }

    /// Ends, at token `at`, every binding of `name` live across it that
    /// `spare` does not exempt.
    pub fn end(&mut self, name: &str, at: usize, spare: impl Fn(&T) -> bool) {
        for l in self.0.iter_mut().filter(|l| l.name == name && l.from < at && at < l.until) {
            if !spare(&l.val) {
                l.until = at;
            }
        }
    }

    /// Hides every binding of `name` live across token `from` for the
    /// tokens `from..until`: the binding ends at `from`, and a copy of it
    /// resumes at `until`.
    pub fn hide(&mut self, name: &str, from: usize, until: usize)
    where
        T: Clone,
    {
        let mut resumed = Vec::new();
        for l in self.0.iter_mut().filter(|l| l.name == name && l.from < from && from < l.until) {
            if until < l.until {
                resumed.push(Local {
                    name: l.name,
                    from: until,
                    until: l.until,
                    val: l.val.clone(),
                });
            }
            l.until = from;
        }
        self.0.extend(resumed);
    }

    /// Binds each of `vals` on the token range `[from, until]`, after the
    /// pattern's `names` end every outer binding of the same name live at
    /// `from` (a `let` statement) or, for a block's binding (`block`: an
    /// `if let`, a `while let` or a `for`), hide it inside the block.
    pub fn rebind(
        &mut self,
        names: &[&'t str],
        vals: &mut Vec<(&'t str, T)>,
        (from, until): (usize, usize),
        block: bool,
    ) where
        T: Clone,
    {
        for name in names {
            if block {
                self.hide(name, from, until);
            } else {
                self.end(name, from, |_| false);
            }
        }
        self.0.extend(vals.drain(..).map(|(name, val)| Local { name, from, until, val }));
    }

    /// The latest binding of `name` live at token `at`.
    pub fn find(&self, name: &str, at: usize) -> Option<&Local<'t, T>> {
        self.0.iter().rev().find(|l| l.name == name && l.from <= at && at <= l.until)
    }
}

/// One `let` or `for` binding site.
#[derive(Debug, Default)]
pub(crate) struct Binding<'t> {
    /// Token index of the `let` / `for` keyword.
    pub at: usize,
    /// True for `let`, false for `for`.
    pub is_let: bool,
    /// The lower-case names the pattern binds.
    pub names: Vec<&'t str>,
    /// The `:` of a `let`'s type ascription, if it has one.
    pub ty: Option<usize>,
    /// The value's token span: a `let`'s right-hand side, or a `for`'s
    /// iterated expression.
    pub rhs: (usize, usize),
}

/// Walks the `let`/`for` bindings of `body` in textual order. `bind`
/// adds to its last argument the values the binding's names take; each
/// is bound from the `let`'s `;` on, and a `for`'s, an `if let`'s or a
/// `while let`'s only inside its block. A `let` rebinding ends the old
/// local's range, and the names of a `for`, an `if let` or a `while let`
/// hide it inside the block, whether or not the new binding has a value.
/// The binding and value buffers are reused from binding to binding.
pub(crate) fn walk_bindings<'t, T: Clone>(
    lexed: &'t Lexed,
    body: (usize, usize),
    locals: &mut Locals<'t, T>,
    mut bind: impl FnMut(&mut Locals<'t, T>, &Binding<'t>, &mut Vec<(&'t str, T)>),
) {
    let toks = &lexed.tokens;
    let (b0, b1) = body;
    let mut b = Binding::default();
    let mut vals = Vec::new();
    let mut i = b0;
    while i <= b1 && i < toks.len() {
        if lexed.is_ident(i, "let") {
            let scoped = i > 0 && (lexed.is_ident(i - 1, "if") || lexed.is_ident(i - 1, "while"));
            let (eq, semi) = let_bounds(lexed, i + 1, b1);
            let block = |eq: usize| {
                lexed.level(eq + 1).take_while(|&k| k <= b1).find(|&k| toks[k].is_punct('{'))
            };
            let Some(from) = (if scoped { eq.and_then(block) } else { semi }) else {
                i += 1;
                continue;
            };
            let until = if scoped { lexed.close_of(from) } else { usize::MAX };
            if let Some(eq) = eq {
                b.ty = pattern_names(lexed, i + 1, eq, &mut b.names);
                if !b.names.is_empty() {
                    (b.at, b.is_let, b.rhs) = (i, true, (eq + 1, from - 1));
                    bind(locals, &b, &mut vals);
                    locals.rebind(&b.names, &mut vals, (from, until), scoped);
                }
            }
            i = if scoped { i + 1 } else { from + 1 };
        } else if let Some((expr, brace)) =
            lexed.is_ident(i, "for").then(|| for_binding(lexed, i, b1, &mut b.names)).flatten()
        {
            (b.at, b.is_let, b.ty, b.rhs) = (i, false, None, expr);
            bind(locals, &b, &mut vals);
            locals.rebind(&b.names, &mut vals, (brace, lexed.close_of(brace)), true);
            i = brace.max(i + 1);
        } else {
            i += 1;
        }
    }
}

/// One round of `.field = RHS` discovery over every file's parse-time
/// [`field_writes`](parse::FileModel::field_writes): the value `eval`
/// infers for an assignment's right-hand side, with the enclosing fn's
/// locals from `locals_for(file, fn_idx)`, teaches the field — by name,
/// workspace-wide. Fields `known` names are skipped, and a field's first
/// valued assignment wins.
pub(crate) fn learn_fields<'a, T, V>(
    units: &'a [FileUnit],
    known: impl Fn(&str) -> bool,
    mut locals_for: impl FnMut(usize, usize) -> Locals<'a, T>,
    mut eval: impl FnMut(usize, (usize, usize), &Locals<'a, T>) -> Option<V>,
) -> Vec<(&'a str, V)> {
    let mut learned: Vec<(&str, V)> = Vec::new();
    let none = Locals::new();
    for (file, u) in units.iter().enumerate() {
        let mut cache: BTreeMap<usize, Locals<T>> = BTreeMap::new();
        for w in &u.model.field_writes {
            let fname = u.lexed.text(w.dot + 1);
            if known(fname) || learned.iter().any(|&(n, _)| n == fname) {
                continue;
            }
            let locals = match u.model.enclosing_fn_idx(w.dot) {
                Some(fk) => &*cache.entry(fk).or_insert_with(|| locals_for(file, fk)),
                None => &none,
            };
            if let Some(v) = eval(file, (w.dot + 3, w.rhs_end), locals) {
                learned.push((fname, v));
            }
        }
    }
    learned
}

/// True when the `.` at `i` reads a field: next token is an identifier
/// not followed by `(` (a method call) or a plain `=` (a write; `==`
/// still reads).
pub(crate) fn field_read_shape(toks: &[Token], i: usize) -> bool {
    if !toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
        return false;
    }
    let Some(after) = toks.get(i + 2) else { return true };
    if after.is_punct('(') {
        return false;
    }
    if after.is_punct('=') && !toks.get(i + 3).is_some_and(|t| t.is_punct('=')) {
        return false;
    }
    true
}

/// The argument parens of the call whose name token is `tok`, skipping a
/// turbofish; `None` for bare references.
pub(crate) fn call_args(lexed: &Lexed, tok: usize) -> Option<(usize, usize)> {
    let k = parse::past_turbofish(&lexed.tokens, tok + 1)?;
    lexed.tokens.get(k).is_some_and(|t| t.is_punct('(')).then(|| (k, lexed.close_of(k)))
}

/// The argument spans `[lo, hi]` of the call whose parens are `open` and
/// `close`: the call is split at the commas of its own bracket level, and
/// an empty argument (a trailing comma) yields no span.
pub(crate) fn split_args(lexed: &Lexed, open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = open + 1;
    let commas = lexed.level(open + 1).take_while(|&i| i < close);
    for i in commas.filter(|&i| lexed.tokens[i].is_punct(',')) {
        if i > start {
            out.push((start, i - 1));
        }
        start = i + 1;
    }
    if close > start {
        out.push((start, close - 1));
    }
    out
}

/// The bounds of a `let` statement starting after the `let` at `from-1`,
/// at the `let`'s bracket level: the first `=` (skipping `==`/compound
/// operators) and the `;`. A closing delimiter ends the search: a `let`
/// (an `if let`) whose block closes first has no `;`.
pub(crate) fn let_bounds(
    lexed: &Lexed,
    from: usize,
    limit: usize,
) -> (Option<usize>, Option<usize>) {
    let toks = &lexed.tokens;
    let mut eq = None;
    for i in lexed.level(from).take_while(|&i| i <= limit) {
        match toks[i].punct() {
            Some(b')' | b']' | b'}') => break,
            Some(b'=') if eq.is_none() => {
                // `>` is NOT compound here: before a let's binding `=`
                // it can only be a generic close (`let k: Vec<u64> =`) —
                // a real `>=` cannot appear in pattern/type position.
                let compound =
                    i > 0 && toks[i - 1].punct().is_some_and(|c| b"=<!+-*/%&|^".contains(&c));
                let double = toks.get(i + 1).is_some_and(|t| t.is_punct('='));
                if !compound && !double {
                    eq = Some(i);
                }
            }
            Some(b';') => return (eq, Some(i)),
            _ => {}
        }
    }
    (eq, None)
}

/// Lower-case identifiers bound by the pattern between `from` and the
/// `=` at `eq`, written into `names`, stopping at a `:` (type ascription)
/// at the pattern's bracket level, which is returned. A path's `::` lexes
/// as two colons, so the ascription is the first colon of a run of odd
/// length (`x: ::std::…` opens with one). CamelCase names are enum/struct
/// constructors, not bindings.
pub(crate) fn pattern_names<'t>(
    lexed: &'t Lexed,
    from: usize,
    eq: usize,
    names: &mut Vec<&'t str>,
) -> Option<usize> {
    let toks = &lexed.tokens;
    let end = eq.min(toks.len());
    let ascription = |j: usize| {
        let run = toks[j..end].iter().take_while(|t| t.is_punct(':')).count();
        run % 2 == 1 && !toks[j - 1].is_punct(':')
    };
    let colon = lexed.level(from).take_while(|&j| j < end).find(|&j| ascription(j));
    names.clear();
    names.extend((from..colon.unwrap_or(end)).filter_map(|k| binding_name(lexed, k)));
    colon
}

/// The name token `k` binds when it is a lower-case, non-keyword
/// identifier: a pattern binding.
fn binding_name(lexed: &Lexed, k: usize) -> Option<&str> {
    let t = &lexed.tokens[k];
    let lower = t.first.is_ascii_lowercase() || t.first == b'_';
    (t.kind == TokKind::Ident && lower).then(|| lexed.text(k)).filter(|w| !parse::is_keyword(w))
}

/// `for PAT in EXPR {` starting at the `for` at `i`: the bound names,
/// written into `names`, then EXPR's token span and the index of the
/// opening `{`.
pub(crate) fn for_binding<'t>(
    lexed: &'t Lexed,
    i: usize,
    limit: usize,
    names: &mut Vec<&'t str>,
) -> Option<((usize, usize), usize)> {
    let toks = &lexed.tokens;
    let mut j = i + 1;
    names.clear();
    while j <= limit && j < i + 24 && j < toks.len() {
        if lexed.is_ident(j, "in") {
            break;
        }
        if toks[j].is_punct('{') || toks[j].is_punct(';') {
            return None;
        }
        names.extend(binding_name(lexed, j));
        j += 1;
    }
    if !lexed.is_ident(j, "in") {
        return None;
    }
    let brace = lexed.level(j + 1).take_while(|&k| k <= limit).find(|&k| toks[k].is_punct('{'))?;
    (brace > j + 1).then_some(((j + 1, brace - 1), brace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// The first and the last index of a token spelled `text`.
    fn first_last(l: &Lexed, text: &str) -> (usize, usize) {
        let mut at = (0..l.tokens.len()).filter(|&i| l.text(i) == text);
        let first = at.next().unwrap();
        (first, at.next_back().unwrap_or(first))
    }

    #[test]
    fn binding_scans_stay_at_their_bracket_level() {
        let l = lex("{ let (a, Pair(b, c)): (u8, [u8; 2]) = f(x == y, z); }");
        let (let_at, end) = (first_last(&l, "let").0, l.tokens.len() - 1);
        let (eq, semi) = (first_last(&l, "=").0, first_last(&l, ";").1);
        assert_eq!(let_bounds(&l, let_at + 1, end), (Some(eq), Some(semi)));
        let colon = first_last(&l, ":").0;
        let mut names = Vec::new();
        assert_eq!(pattern_names(&l, let_at + 1, eq, &mut names), Some(colon));
        assert_eq!(names, ["a", "b", "c"]);

        // A path's `::` is no type ascription; the ascription is the
        // lone colon, or the first of `: ::` before a global path.
        for (src, names, colon) in [
            ("{ let Wrap::A(t) = x; }", vec!["t"], None),
            ("{ let Shape::Rect { w, h }: Shape = x; }", vec!["w", "h"], Some(2)),
            ("{ let e: ::std::string::String = x; }", vec!["e"], Some(0)),
        ] {
            let l = lex(src);
            let (let_at, eq) = (first_last(&l, "let").0, first_last(&l, "=").0);
            let colons: Vec<usize> =
                (0..l.tokens.len()).filter(|&i| l.tokens[i].is_punct(':')).collect();
            let mut got = Vec::new();
            let ascription = pattern_names(&l, let_at + 1, eq, &mut got);
            assert_eq!((got, ascription), (names, colon.map(|k| colons[k])), "{src}");
        }

        // An `if let` that ends its block has no `;` of its own, however
        // many statements a later block holds.
        let l = lex("{ if c { if let Some(x) = y { a } } if d { b; } }");
        let let_at = first_last(&l, "let").0;
        let eq = first_last(&l, "=").0;
        assert_eq!(let_bounds(&l, let_at + 1, l.tokens.len() - 1), (Some(eq), None));

        // An `if let`, a `while let` or a `for` binds its names inside
        // its block only, though a `let` statement follows the block.
        for src in [
            "{ let t = 1; if let Some(t) = x { a; } let z = 2; f(t); }",
            "{ let t = 1; while let Some(t) = x { a; } let z = 2; f(t); }",
            "{ let t = 1; for t in x { a; } let z = 2; f(t); }",
        ] {
            let l = lex(src);
            let (block, close) = (first_last(&l, "{").1, first_last(&l, "}").0);
            let mut locals = Locals::new();
            walk_bindings(&l, (0, l.tokens.len() - 1), &mut locals, |_, b, vals| {
                vals.extend(b.names.iter().map(|&n| (n, b.at)));
            });
            let at = |text| first_last(&l, text).1;
            let outer = first_last(&l, "let").0;
            assert_eq!(locals.find("t", at("f") + 2).map(|t| t.val), Some(outer), "{src}");
            assert_eq!(locals.find("t", at("a")).map(|t| (t.from, t.until)), Some((block, close)));
        }

        // The loop body is the first `{` at the `for`'s level: the
        // closure's block sits inside the call's parens.
        let l = lex("{ for (i, v) in xs.iter().map(|p| { p }).enumerate() { s += v; } }");
        let body = first_last(&l, "s").0 - 1;
        let expr = first_last(&l, "in").0 + 1;
        let mut names = Vec::new();
        let got = for_binding(&l, first_last(&l, "for").0, l.tokens.len() - 1, &mut names);
        assert_eq!((names, got), (vec!["i", "v"], Some(((expr, body - 1), body))));
    }
}
