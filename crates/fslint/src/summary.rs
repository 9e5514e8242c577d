//! The machinery the three summary passes share.
//!
//! [`crate::flow`], [`crate::units`] and [`crate::effects`] each compute
//! per-function summaries over the call graph, and each needs the same
//! plumbing around its own transfer function:
//!
//! * a by-name index of the summarized nodes and a resolver that maps a
//!   call site to one of them through the graph's gates (owner/trait
//!   mention for methods, same module or matching qualifier for free
//!   calls);
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

/// Node ids by function name.
pub(crate) type ByName<'a> = BTreeMap<&'a str, Vec<usize>>;

/// Indexes the nodes for which `keep` holds by function name.
pub(crate) fn by_name<'a>(graph: &'a Graph, keep: impl Fn(usize) -> bool) -> ByName<'a> {
    let mut index: ByName = BTreeMap::new();
    for (n, node) in graph.nodes.iter().enumerate().filter(|&(n, _)| keep(n)) {
        index.entry(node.name.as_str()).or_default().push(n);
    }
    index
}

/// Resolves a `.name(..)` call in `file` to the first indexed method
/// whose owner type or trait the file mentions.
pub(crate) fn resolve_method(
    graph: &Graph,
    index: &ByName,
    file: usize,
    name: &str,
) -> Option<usize> {
    index.get(name)?.iter().copied().find(|&n| {
        let node = &graph.nodes[n];
        node.owner.is_some()
            && [&node.owner, &node.trait_name]
                .into_iter()
                .any(|t| t.as_deref().is_some_and(|t| graph.mentions(file, t)))
    })
}

/// Resolves a free call in `file` to the first indexed node it can name:
/// an unqualified call only a free fn of the caller's own module (so
/// `catalog::all()` never matches an unrelated `all()`), a qualified one
/// a free fn of a module or a method of a type named by the last
/// qualifier segment.
pub(crate) fn resolve_free(
    graph: &Graph,
    units: &[FileUnit],
    index: &ByName,
    file: usize,
    qual: &[String],
    name: &str,
) -> Option<usize> {
    let mp = &units[file].mp;
    index.get(name)?.iter().copied().find(|&n| {
        let node = &graph.nodes[n];
        match qual.last() {
            None => {
                node.owner.is_none()
                    && node.abs_module.split_first() == Some((&mp.krate, &mp.modules[..]))
            }
            Some(q) => {
                (node.owner.is_none() && node.abs_module.last() == Some(q))
                    || node.owner.as_ref() == Some(q)
            }
        }
    })
}

/// Runs a summary pass to its fixpoint. Each round first calls `learn`,
/// which re-indexes the summarized nodes and learns struct fields (true
/// when it learned one), then `infer`s each unsummarized node from the
/// summaries of earlier rounds only — the rule that picks which callee
/// each `via` hop names. Summaries and fields only grow, so this
/// terminates.
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
/// the root), the root evidence, and its line. `via` links never cycle
/// (a summary's provider was always assigned in an earlier round), but
/// a depth cap guards the walk anyway.
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
                hops.push(format!("{what} ({path}:{line})"));
                break;
            }
        }
    }
    hops.reverse();
    hops
}

/// One local binding, live on the token range `[from, until]`.
#[derive(Debug)]
pub(crate) struct Local<T> {
    /// The bound name.
    pub name: String,
    /// First token the binding is live at.
    pub from: usize,
    /// Last token the binding is live at.
    pub until: usize,
    /// What the pass knows about the bound value.
    pub val: T,
}

/// A function's local bindings as token ranges, in binding order.
#[derive(Debug)]
pub(crate) struct Locals<T>(Vec<Local<T>>);

impl<T> Locals<T> {
    /// No bindings.
    pub fn new() -> Locals<T> {
        Locals(Vec::new())
    }

    /// Binds `name` to `val` from token `from` on.
    pub fn bind(&mut self, name: String, from: usize, val: T) {
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
                let (name, val) = (l.name.clone(), l.val.clone());
                resumed.push(Local { name, from: until, until: l.until, val });
            }
            l.until = from;
        }
        self.0.extend(resumed);
    }

    /// The latest binding of `name` live at token `at`.
    pub fn find(&self, name: &str, at: usize) -> Option<&Local<T>> {
        self.0.iter().rev().find(|l| l.name == name && l.from <= at && at <= l.until)
    }
}

/// One `let` or `for` binding site.
#[derive(Debug)]
pub(crate) struct Binding {
    /// Token index of the `let` / `for` keyword.
    pub at: usize,
    /// True for `let`, false for `for`.
    pub is_let: bool,
    /// The lower-case names the pattern binds.
    pub names: Vec<String>,
    /// The `:` of a `let`'s type ascription, if it has one.
    pub ty: Option<usize>,
    /// The value's token span: a `let`'s right-hand side, or a `for`'s
    /// pattern and iterated expression.
    pub rhs: (usize, usize),
}

/// Walks the `let`/`for` bindings of `body` in textual order. `bind`
/// returns the values the binding's names take; each is bound from the
/// `let`'s `;` (or the loop body's `{`) on, and an `if let`'s or `while
/// let`'s only inside its block. A `let` rebinding ends the old local's
/// range, and an `if let`'s or `while let`'s names hide it inside the
/// block, whether or not the new binding has a value.
pub(crate) fn walk_bindings<T: Clone>(
    lexed: &Lexed,
    body: (usize, usize),
    locals: &mut Locals<T>,
    mut bind: impl FnMut(&mut Locals<T>, &Binding) -> Vec<(String, T)>,
) {
    let toks = &lexed.tokens;
    let (b0, b1) = body;
    let mut i = b0;
    while i <= b1 && i < toks.len() {
        if toks[i].is_ident("let") {
            let scoped = i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
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
                let (names, ty) = pattern_names(lexed, i + 1, eq);
                if !names.is_empty() {
                    let b = Binding { at: i, is_let: true, names, ty, rhs: (eq + 1, from - 1) };
                    let vals = bind(locals, &b);
                    for name in &b.names {
                        if scoped {
                            locals.hide(name, from, until);
                        } else {
                            locals.end(name, from, |_| false);
                        }
                    }
                    for (name, val) in vals {
                        locals.0.push(Local { name, from, until, val });
                    }
                }
            }
            i = if scoped { i + 1 } else { from + 1 };
        } else if let Some((names, expr_end, brace)) =
            toks[i].is_ident("for").then(|| for_binding(lexed, i, b1)).flatten()
        {
            let b = Binding { at: i, is_let: false, names, ty: None, rhs: (i + 1, expr_end) };
            for (name, val) in bind(locals, &b) {
                locals.bind(name, brace, val);
            }
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
pub(crate) fn learn_fields<T, V>(
    units: &[FileUnit],
    known: impl Fn(&str) -> bool,
    mut locals_for: impl FnMut(usize, usize) -> Locals<T>,
    mut eval: impl FnMut(usize, (usize, usize), &Locals<T>) -> Option<V>,
) -> Vec<(String, V)> {
    let mut learned: Vec<(String, V)> = Vec::new();
    let none = Locals::new();
    for (file, u) in units.iter().enumerate() {
        let mut cache: BTreeMap<usize, Locals<T>> = BTreeMap::new();
        for w in &u.model.field_writes {
            let fname = &*u.lexed.tokens[w.dot + 1].text;
            if known(fname) || learned.iter().any(|(n, _)| n == fname) {
                continue;
            }
            let locals = match u.model.enclosing_fn_idx(w.dot) {
                Some(fk) => &*cache.entry(fk).or_insert_with(|| locals_for(file, fk)),
                None => &none,
            };
            if let Some(v) = eval(file, (w.dot + 3, w.rhs_end), locals) {
                learned.push((fname.to_string(), v));
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
    let toks = &lexed.tokens;
    let mut k = tok + 1;
    if toks.get(k).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 2).is_some_and(|t| t.is_punct('<'))
    {
        let close = parse::skip_angles(toks, k + 2);
        if close == k + 2 {
            return None;
        }
        k = close + 1;
    }
    if !toks.get(k).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    Some((k, lexed.close_of(k)))
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
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match &*t.text {
                ")" | "]" | "}" => break,
                "=" if eq.is_none() => {
                    // `>` is NOT compound here: before a let's binding `=`
                    // it can only be a generic close (`let k: Vec<u64> =`) —
                    // a real `>=` cannot appear in pattern/type position.
                    let compound = i > 0
                        && toks[i - 1].kind == TokKind::Punct
                        && matches!(
                            &*toks[i - 1].text,
                            "=" | "<" | "!" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
                        );
                    let double = toks.get(i + 1).is_some_and(|t| t.is_punct('='));
                    if !compound && !double {
                        eq = Some(i);
                    }
                }
                ";" => return (eq, Some(i)),
                _ => {}
            }
        }
    }
    (eq, None)
}

/// Lower-case identifiers bound by the pattern between `from` and the
/// `=` at `eq`, stopping at a `:` (type ascription) at the pattern's
/// bracket level, which is returned too. A path's `::` lexes as two
/// colons, so the ascription is the first colon of a run of odd length
/// (`x: ::std::…` opens with one). CamelCase names are enum/struct
/// constructors, not bindings.
pub(crate) fn pattern_names(lexed: &Lexed, from: usize, eq: usize) -> (Vec<String>, Option<usize>) {
    let toks = &lexed.tokens;
    let end = eq.min(toks.len());
    let ascription = |j: usize| {
        let run = toks[j..end].iter().take_while(|t| t.is_punct(':')).count();
        run % 2 == 1 && !toks[j - 1].is_punct(':')
    };
    let colon = lexed.level(from).take_while(|&j| j < end).find(|&j| ascription(j));
    let names = toks[from..colon.unwrap_or(end)].iter().filter(|t| binding_name(t));
    (names.map(|t| t.text.to_string()).collect(), colon)
}

/// True for a lower-case, non-keyword identifier: a pattern binding.
fn binding_name(t: &Token) -> bool {
    t.kind == TokKind::Ident
        && !parse::is_keyword(&t.text)
        && t.text.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
}

/// `for PAT in EXPR {` starting at the `for` at `i`: the bound names,
/// the last token of EXPR, and the index of the opening `{`.
pub(crate) fn for_binding(
    lexed: &Lexed,
    i: usize,
    limit: usize,
) -> Option<(Vec<String>, usize, usize)> {
    let toks = &lexed.tokens;
    let mut j = i + 1;
    let mut names = Vec::new();
    while j <= limit && j < i + 24 && j < toks.len() {
        let t = &toks[j];
        if t.is_ident("in") {
            break;
        }
        if t.is_punct('{') || t.is_punct(';') {
            return None;
        }
        if binding_name(t) {
            names.push(t.text.to_string());
        }
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_ident("in")) {
        return None;
    }
    let brace = lexed.level(j + 1).take_while(|&k| k <= limit).find(|&k| toks[k].is_punct('{'))?;
    (brace > j + 1).then_some((names, brace - 1, brace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// The first and the last index of a token spelled `text`.
    fn first_last(l: &Lexed, text: &str) -> (usize, usize) {
        let at = |t: &Token| t.text == text;
        (l.tokens.iter().position(at).unwrap(), l.tokens.iter().rposition(at).unwrap())
    }

    #[test]
    fn binding_scans_stay_at_their_bracket_level() {
        let l = lex("{ let (a, Pair(b, c)): (u8, [u8; 2]) = f(x == y, z); }");
        let (let_at, end) = (first_last(&l, "let").0, l.tokens.len() - 1);
        let (eq, semi) = (first_last(&l, "=").0, first_last(&l, ";").1);
        assert_eq!(let_bounds(&l, let_at + 1, end), (Some(eq), Some(semi)));
        let colon = first_last(&l, ":").0;
        let names = ["a", "b", "c"].map(String::from).to_vec();
        assert_eq!(pattern_names(&l, let_at + 1, eq), (names, Some(colon)));

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
            let names = names.into_iter().map(String::from).collect();
            assert_eq!(
                pattern_names(&l, let_at + 1, eq),
                (names, colon.map(|k| colons[k])),
                "{src}"
            );
        }

        // An `if let` that ends its block has no `;` of its own, however
        // many statements a later block holds.
        let l = lex("{ if c { if let Some(x) = y { a } } if d { b; } }");
        let let_at = first_last(&l, "let").0;
        let eq = first_last(&l, "=").0;
        assert_eq!(let_bounds(&l, let_at + 1, l.tokens.len() - 1), (Some(eq), None));

        // An `if let` or `while let` binds its names inside its block
        // only, though a `let` statement follows the block.
        for src in [
            "{ let t = 1; if let Some(t) = x { a; } let z = 2; f(t); }",
            "{ let t = 1; while let Some(t) = x { a; } let z = 2; f(t); }",
        ] {
            let l = lex(src);
            let (block, close) = (first_last(&l, "{").1, first_last(&l, "}").0);
            let mut locals = Locals::new();
            walk_bindings(&l, (0, l.tokens.len() - 1), &mut locals, |_, b| {
                b.names.iter().map(|n| (n.clone(), b.at)).collect()
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
        let got = for_binding(&l, first_last(&l, "for").0, l.tokens.len() - 1);
        assert_eq!(got, Some((vec!["i".into(), "v".into()], body - 1, body)));
    }
}
