//! A lightweight item/expression parser over the lexed token stream.
//!
//! The semantic rules ([`crate::sem`]) need more shape than bare tokens:
//! which spans are test code, what each function's locals look like, where
//! method-call chains and comparator closures sit, and which expressions
//! index into collections. With no `syn` available offline, this module
//! recovers exactly that structure — and nothing more — from the
//! [`crate::lexer`] output:
//!
//! * `fn` items with their body spans, surrounding `#[test]`/`#[cfg(test)]`
//!   markers, their signature (receiver, named parameters with their
//!   types, return type), `for`-loop variables, closure parameters, and a
//!   per-function set of float-typed locals (`let x: f64`, float
//!   literals, `as f64`);
//! * *every* `impl` block (inherent or trait) with its type and trait
//!   names, so the call graph ([`crate::graph`]) can attach methods to
//!   their owners and `stable-tiebreak` can find `impl Ord`/`impl
//!   PartialOrd` blocks;
//! * method calls `.name(args)` — including turbofish forms
//!   `.collect::<Vec<_>>()` — with balanced argument spans and the method
//!   chained immediately after the call, if any;
//! * free-function calls and qualified path references
//!   (`helper(x)`, `beta::helper(x)`, `Fnv64::new()`, `catalog::all`) with
//!   their qualifier segments, for call-graph edges;
//! * `struct` definitions with their body spans (the graph uses these to
//!   find `BinaryHeap` fields);
//! * `use`/`pub use` declarations, flattened to one item per imported
//!   name (groups and globs included), for module resolution
//!   ([`crate::resolve`]);
//! * macro invocations `name!(…)`;
//! * index expressions `recv[idx]` (attributes, slice types, and array
//!   literals are not index expressions and never match);
//! * `BinaryHeap<…>` type mentions with their generic argument span;
//! * `.field = RHS` assignments with the end of their right-hand side,
//!   which the summary passes learn struct fields from in every fixpoint
//!   round without scanning the tokens again.
//!
//! Everything is spans of token indices into the original
//! [`Lexed::tokens`](crate::lexer::Lexed) vector, recorded in one walk
//! over the tokens ([`parse`]). An item's optional `<…>` is read by one
//! routine, and its body `{` is found at its header's bracket level by
//! another, so a bracketed type in a header (`[T; 4]`) is stepped over.
//! Names and path segments are read by token index through
//! [`Lexed::text`](crate::lexer::Lexed::text), and a token's text is
//! copied only into an item the walk records: a path that turns out not
//! to be a call costs no allocation. Method calls, free calls and
//! macros are recorded in token order, so the calls inside a token span
//! are found by binary search (`FileModel::calls_in` and its siblings)
//! rather than by filtering the whole list. Like the lexer, the parser
//! never fails: unparsable stretches are skipped, because a linter must
//! report what it *can* see.

use crate::lexer::{Lexed, TokKind, Token};
use std::collections::BTreeSet;

/// True if `word` is a Rust keyword: a word that looks like an identifier
/// but can never *be* an indexed value or a bound variable (used to reject
/// `&mut [T]` as an index expression and keyword "patterns" in `for`
/// loops).
pub(crate) fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "Self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

/// How a method takes `self`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Receiver {
    /// No `self` parameter: an associated function.
    #[default]
    None,
    /// `self` or `mut self`: the method consumes its receiver.
    Value,
    /// `&self`.
    Ref,
    /// `&mut self`.
    RefMut,
    /// A typed `self: T` (`self: Box<Self>`), whose borrow is not read.
    Typed,
}

/// One named parameter of a `fn` signature.
#[derive(Debug)]
pub struct Param {
    /// The bound name (`mut x: u64` binds `x`).
    pub name: String,
    /// Token span `[start, end]` of the type after the `:`.
    pub ty: (usize, usize),
    /// The type's name past `&`, lifetimes and `mut`, by its last path
    /// segment (`&mut simcore::Server` → `Server`); empty when the type
    /// names nothing (`()`).
    pub ty_name: String,
    /// True for a `&mut` type.
    pub mut_ref: bool,
}

/// A `fn` item's signature, read once from its own `fn` token.
#[derive(Debug, Default)]
pub struct FnSig {
    /// How the function takes `self`.
    pub receiver: Receiver,
    /// Parameters whose pattern is a single name, in declaration order
    /// (`(a, b): (u64, u64)` binds no single name and is skipped).
    pub params: Vec<Param>,
    /// Token span `[start, end]` of the return type, up to a `where`
    /// clause or the body; `None` without `->`.
    pub ret: Option<(usize, usize)>,
}

/// One parsed `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token span `[start, end]` of the body block, braces included.
    pub body: (usize, usize),
    /// The signature.
    pub sig: FnSig,
    /// True when the item is test code: it carries `#[test]` / `#[cfg(test)]`
    /// or sits inside a `#[cfg(test)] mod`.
    pub in_test: bool,
    /// Variables the function binds locally: parameters, `let` patterns,
    /// `for` patterns, and closure parameter lists. The `panic-path` rule
    /// treats a bare bound identifier as an index established in scope —
    /// only computed subscripts carry an arithmetic claim worth flagging.
    pub bound_vars: BTreeSet<String>,
    /// Locals and parameters the parser knows are float-typed: `x: f64`
    /// ascriptions, `let x = 1.25`, and `let x = … as f64` initialisers.
    pub float_vars: BTreeSet<String>,
}

/// One `.name(args)` method call.
#[derive(Debug)]
pub struct MethodCall {
    /// The method name.
    pub name: String,
    /// 1-based line of the method name token.
    pub line: u32,
    /// Token index of the `.` (the receiver ends just before it).
    pub dot: usize,
    /// Token span `(open, close)` of the argument parentheses.
    pub args: (usize, usize),
    /// The method chained directly onto this call's result, if any
    /// (`.partial_cmp(b).unwrap()` → `Some("unwrap")`).
    pub chained: Option<String>,
}

impl MethodCall {
    /// For a `fold`/`reduce` call whose arguments mention `f64::min`,
    /// `f64::max` (or `f32`), the index of that path's first token: such
    /// a fold silently absorbs NaN, so its value depends on where NaN
    /// falls.
    pub(crate) fn nan_absorbing(&self, lexed: &Lexed) -> Option<usize> {
        if self.name != "fold" && self.name != "reduce" {
            return None;
        }
        let (open, close) = self.args;
        (open..close.saturating_sub(2)).find(|&k| {
            (lexed.is_ident(k, "f64") || lexed.is_ident(k, "f32"))
                && punct_at(&lexed.tokens, k + 1, ':')
                && punct_at(&lexed.tokens, k + 2, ':')
                && (lexed.is_ident(k + 3, "min") || lexed.is_ident(k + 3, "max"))
        })
    }
}

/// One `impl` block, inherent (`impl T { … }`) or trait
/// (`impl Trait for T { … }`).
#[derive(Debug)]
pub struct ImplBlock {
    /// The implemented trait's last path segment, `None` for inherent impls.
    pub trait_name: Option<String>,
    /// The implementing type's name (last path segment).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token span `[start, end]` of the impl body, braces included.
    pub body: (usize, usize),
}

/// One free-function call (`helper(x)`, `beta::helper(x)`) or qualified
/// path reference (`catalog::all` passed as a value, `Kind::Raid`).
#[derive(Debug)]
pub struct FreeCall {
    /// Path segments before the final name (`beta::helper` → `["beta"]`).
    /// May start with `crate`, `self`, `super`, or `Self`.
    pub qual: Vec<String>,
    /// The final path segment: the called or referenced name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token index of the name token.
    pub tok: usize,
    /// True when an argument list follows (a call, not a bare reference).
    pub called: bool,
}

/// One `struct` definition with its body span (fields or tuple elements).
#[derive(Debug)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Token span `[start, end]` of the `{…}`/`(…)` body, delimiters
    /// included. Unit structs are not recorded.
    pub body: (usize, usize),
}

/// One flattened `use` item: groups (`use a::{b, c}`) and globs expand to
/// one [`UseDecl`] per imported name.
#[derive(Debug)]
pub struct UseDecl {
    /// Full path segments as written (`use a::b::C` → `["a", "b", "C"]`).
    pub segs: Vec<String>,
    /// The `as` rename, if any; otherwise the last segment is the visible
    /// name.
    pub alias: Option<String>,
    /// True for `use a::b::*`.
    pub glob: bool,
    /// True for `pub use` / `pub(crate) use` re-exports.
    pub is_pub: bool,
    /// 1-based line of the item.
    pub line: u32,
}

/// One `name!(…)` macro invocation.
#[derive(Debug)]
pub struct MacroCall {
    /// The macro's name, without the `!`.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token index of the name token.
    pub tok: usize,
}

/// One index expression `recv[idx]`.
#[derive(Debug)]
pub struct IndexExpr {
    /// 1-based line of the opening bracket.
    pub line: u32,
    /// Token span `(open, close)` of the brackets.
    pub brackets: (usize, usize),
}

/// One `BinaryHeap<…>` type mention.
#[derive(Debug)]
pub struct HeapType {
    /// 1-based line of the `BinaryHeap` token.
    pub line: u32,
    /// Token span `(open, close)` of the angle brackets.
    pub angles: (usize, usize),
}

/// One `.field = RHS` assignment (a plain `=`, not `==`) with a
/// non-empty right-hand side.
#[derive(Debug)]
pub(crate) struct FieldWrite {
    /// Token index of the `.`; the field name and the `=` follow it.
    pub dot: usize,
    /// Token index of the right-hand side's last token.
    pub rhs_end: usize,
}

/// The parsed shape of one file.
///
/// `calls`, `free_calls` and `macros` are pushed in token order (by
/// `dot`, `tok` and `tok`), so a token span's entries are one contiguous
/// run that the crate's span lookups (`calls_in`, `free_calls_in`,
/// `macros_in`) find by binary search.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Every `impl` block, inherent or trait.
    pub impls: Vec<ImplBlock>,
    /// Every free-function call and qualified path reference.
    pub free_calls: Vec<FreeCall>,
    /// Every `struct` definition with a body.
    pub structs: Vec<StructDef>,
    /// Every flattened `use` item.
    pub uses: Vec<UseDecl>,
    /// Every method call.
    pub calls: Vec<MethodCall>,
    /// Every macro invocation.
    pub macros: Vec<MacroCall>,
    /// Every index expression.
    pub indexings: Vec<IndexExpr>,
    /// Every `BinaryHeap<…>` mention.
    pub heaps: Vec<HeapType>,
    /// Token spans (inclusive) of `#[cfg(test)] mod … { … }` bodies.
    pub test_spans: Vec<(usize, usize)>,
    /// Every `.field = RHS` assignment, in token order.
    pub(crate) field_writes: Vec<FieldWrite>,
}

/// The run of `items` whose position `at` lies in `[lo, hi]`; `items`
/// must be sorted by `at`.
fn in_span<T>(items: &[T], lo: usize, hi: usize, at: impl Fn(&T) -> usize) -> &[T] {
    let start = items.partition_point(|x| at(x) < lo);
    let end = items.partition_point(|x| at(x) <= hi).max(start);
    &items[start..end]
}

impl FileModel {
    /// The method calls whose `.` lies in the token span `[lo, hi]`, in
    /// token order.
    pub(crate) fn calls_in(&self, lo: usize, hi: usize) -> &[MethodCall] {
        in_span(&self.calls, lo, hi, |c| c.dot)
    }

    /// The free calls and path references whose name token lies in
    /// `[lo, hi]`, in token order.
    pub(crate) fn free_calls_in(&self, lo: usize, hi: usize) -> &[FreeCall] {
        in_span(&self.free_calls, lo, hi, |c| c.tok)
    }

    /// The macro invocations whose name token lies in `[lo, hi]`, in
    /// token order.
    pub(crate) fn macros_in(&self, lo: usize, hi: usize) -> &[MacroCall] {
        in_span(&self.macros, lo, hi, |m| m.tok)
    }

    /// True if token index `i` falls inside a `#[cfg(test)]` module body.
    pub(crate) fn in_test_span(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// The innermost `fn` whose body contains token index `i`.
    pub(crate) fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.enclosing_fn_idx(i).map(|k| &self.fns[k])
    }

    /// Index into [`fns`](Self::fns) of the innermost `fn` whose body
    /// contains token index `i`.
    pub(crate) fn enclosing_fn_idx(&self, i: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| i >= f.body.0 && i <= f.body.1)
            .min_by_key(|(_, f)| f.body.1 - f.body.0)
            .map(|(k, _)| k)
    }

    /// Index into [`impls`](Self::impls) of the innermost impl block whose
    /// body strictly contains the fn body span `body` (the impl's braces
    /// enclose a method's, so strict containment rejects the impl itself).
    pub(crate) fn owning_impl(&self, body: (usize, usize)) -> Option<usize> {
        self.impls
            .iter()
            .enumerate()
            .filter(|(_, im)| body.0 > im.body.0 && body.1 < im.body.1)
            .min_by_key(|(_, im)| im.body.1 - im.body.0)
            .map(|(k, _)| k)
    }
}

/// Skips a generic argument list starting at the `<` at `open`, returning
/// the index of the matching `>`. Understands nested angles, the two-token
/// `->` arrow, and stops sanely on unbalanced input.
fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].punct() {
            Some(b'<') => depth += 1,
            Some(b'>') if i > 0 && toks[i - 1].is_punct('-') => {} // `->` arrow
            Some(b'>') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            // A delimiter mismatch means this `<` was a comparison.
            Some(b';' | b'{') => return open,
            _ => {}
        }
        i += 1;
    }
    open
}

/// The index just past an optional generic list at `j`: `j` itself when
/// no `<` opens there, `None` when the `<` never closes (a comparison).
fn past_generics(toks: &[Token], j: usize) -> Option<usize> {
    if !punct_at(toks, j, '<') {
        return Some(j);
    }
    let close = skip_angles(toks, j);
    (close > j).then_some(close + 1)
}

/// The index just past an optional turbofish `::<…>` at `j`: `j` itself
/// when none starts there, `None` when its `<` never closes.
pub(crate) fn past_turbofish(toks: &[Token], j: usize) -> Option<usize> {
    if punct_at(toks, j, ':') && punct_at(toks, j + 1, ':') && punct_at(toks, j + 2, '<') {
        past_generics(toks, j + 2)
    } else {
        Some(j)
    }
}

/// The body `{` of the item whose header continues at `from`: the first
/// `{` at `from`'s bracket level, `None` when a `;` (a declaration) comes
/// first. A bracketed type in the header (`[T; 4]`, `Fn(u8)`) is one step.
fn body_open(lexed: &Lexed, from: usize) -> Option<usize> {
    let toks = &lexed.tokens;
    lexed
        .level(from)
        .find(|&j| punct_at(toks, j, '{') || punct_at(toks, j, ';'))
        .filter(|&j| punct_at(toks, j, '{'))
}

/// True if the token at `i` is a punctuation character `c`.
fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// Parses the lexed file into a [`FileModel`] in one forward walk that
/// offers each token to every shape that can start there. A shape reads
/// ahead but never moves the walk on, so none hides another
/// (`std::collections::BinaryHeap::<u8>::new()` is both a path and a heap
/// mention); only free-call heads inside a `use` item are passed over. A
/// `#[cfg(test)] mod` is recorded before the fns inside it, which read its
/// span.
pub fn parse(lexed: &Lexed) -> FileModel {
    let toks = &lexed.tokens;
    let mut model = FileModel::default();
    // The last token of the latest `use` item: a path up to it is an
    // import, not a free call.
    let mut use_end = None;
    let mut segs = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.punct() {
            Some(b'#') => model.test_spans.extend(test_span(lexed, i)),
            Some(b'.') => {
                if let Some(call) = parse_method_call(lexed, i) {
                    model.calls.push(call);
                } else if let Some(rhs_end) = field_write_rhs_end(lexed, i) {
                    model.field_writes.push(FieldWrite { dot: i, rhs_end });
                }
            }
            Some(b'[') if is_index_open(lexed, i) => {
                let close = lexed.close_of(i);
                model.indexings.push(IndexExpr { line: t.line, brackets: (i, close) });
            }
            _ => {}
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        match lexed.text(i) {
            "fn" => model.fns.extend(fn_item(lexed, i, &model)),
            "impl" if at_item_position(lexed, i) => model.impls.extend(impl_block(lexed, i)),
            "struct" => model.structs.extend(struct_def(lexed, i)),
            "use" if at_item_position(lexed, i) => {
                let is_pub = use_is_pub(lexed, i);
                use_end = Some(use_tree(lexed, i + 1, &mut segs, is_pub, t.line, &mut model.uses));
            }
            "BinaryHeap" => {
                // `BinaryHeap<…>` or `BinaryHeap::<…>`.
                let j = if punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') {
                    i + 3
                } else {
                    i + 1
                };
                if let Some(past) = past_generics(toks, j).filter(|&p| p > j) {
                    model.heaps.push(HeapType { line: t.line, angles: (j, past - 1) });
                }
            }
            name if punct_at(toks, i + 1, '!') && !is_keyword(name) => {
                model.macros.push(MacroCall { name: name.to_string(), line: t.line, tok: i });
            }
            _ => {}
        }
        if use_end.is_none_or(|end| i > end) {
            free_call_at(lexed, i, &mut model.free_calls);
        }
    }
    debug_assert!(model.calls.windows(2).all(|w| w[0].dot < w[1].dot));
    debug_assert!(model.free_calls.windows(2).all(|w| w[0].tok < w[1].tok));
    debug_assert!(model.macros.windows(2).all(|w| w[0].tok < w[1].tok));
    model
}

/// The right-hand side's last token when the `.` at `dot` starts a
/// `.field = RHS` assignment (a plain `=`, not `==`) whose RHS is
/// non-empty.
fn field_write_rhs_end(lexed: &Lexed, dot: usize) -> Option<usize> {
    let toks = &lexed.tokens;
    let assigns = toks.get(dot + 1).is_some_and(|t| t.kind == TokKind::Ident)
        && punct_at(toks, dot + 2, '=')
        && !punct_at(toks, dot + 3, '=');
    if assigns {
        rhs_end(lexed, dot + 3)
    } else {
        None
    }
}

/// Token end of an assignment RHS starting at `from`: the last token
/// before the `;`, `,` or closing delimiter at `from`'s bracket level.
pub(crate) fn rhs_end(lexed: &Lexed, from: usize) -> Option<usize> {
    let ends = |t: &Token| matches!(t.punct(), Some(b';' | b',' | b')' | b']' | b'}'));
    let end = lexed.level(from).find(|&j| ends(&lexed.tokens[j]))?;
    (end > from).then(|| end - 1)
}

/// The body span of the `#[cfg(test)] mod … { … }` whose attribute starts
/// at the `#` at `i`.
fn test_span(lexed: &Lexed, i: usize) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    if !punct_at(toks, i + 1, '[') {
        return None;
    }
    let close = lexed.close_of(i + 1);
    // A `#[` that ends the file closes on its own `[`.
    let attr_is_cfg_test = (i + 2..close.saturating_sub(2)).any(|k| {
        lexed.is_ident(k, "cfg") && punct_at(toks, k + 1, '(') && lexed.is_ident(k + 2, "test")
    });
    if !attr_is_cfg_test {
        return None;
    }
    // Skip further attributes/doc markers to the item keyword.
    let mut j = close + 1;
    while punct_at(toks, j, '#') && punct_at(toks, j + 1, '[') {
        j = lexed.close_of(j + 1) + 1;
    }
    if lexed.is_ident(j, "pub") {
        j += 1;
    }
    if !lexed.is_ident(j, "mod") {
        return None;
    }
    // A `mod name;` declaration has no body.
    let open = body_open(lexed, j + 1)?;
    Some((open, lexed.close_of(open)))
}

/// The `fn` item at `i` with its local analysis; `None` without a body
/// (a trait method declaration). A fn inside a `#[cfg(test)] mod` of
/// `model` is test code.
fn fn_item(lexed: &Lexed, i: usize, model: &FileModel) -> Option<FnItem> {
    let toks = &lexed.tokens;
    let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident).map(|_| lexed.text(i + 1))?;
    let open = body_open(lexed, i + 2)?;
    let close = lexed.close_of(open);
    let sig = parse_sig(lexed, i, open);
    let bound_vars = sig.params.iter().map(|p| p.name.clone()).collect();
    let mut item = FnItem {
        name: name.to_string(),
        line: toks[i].line,
        body: (open, close),
        sig,
        in_test: has_test_attr(lexed, i) || model.in_test_span(i),
        bound_vars,
        float_vars: BTreeSet::new(),
    };
    // The signature (params) participates in float tracking.
    analyze_fn(lexed, i, close, &mut item);
    Some(item)
}

/// True if the `fn` at `at` is directly preceded by a `#[test]`-ish or
/// `#[cfg(test)]` attribute (scanning back across attributes and the
/// visibility/`const`/`async` qualifiers).
fn has_test_attr(lexed: &Lexed, at: usize) -> bool {
    let toks = &lexed.tokens;
    let mut i = at;
    // Walk back over qualifiers to the potential attribute close bracket.
    while i > 0
        && toks[i - 1].kind == TokKind::Ident
        && matches!(lexed.text(i - 1), "pub" | "const" | "async" | "unsafe" | "extern")
    {
        i -= 1;
    }
    while i >= 2 && toks[i - 1].is_punct(']') {
        let close = i - 1;
        let Some(open) = lexed.partner(close) else { return false };
        if open == 0 || !toks[open - 1].is_punct('#') {
            return false;
        }
        if (open..close).any(|k| lexed.is_ident(k, "test")) {
            return true;
        }
        i = open - 1;
    }
    false
}

/// Parses the signature of the `fn` at `at` whose body opens at `body`.
fn parse_sig(lexed: &Lexed, at: usize, body: usize) -> FnSig {
    let toks = &lexed.tokens;
    let mut sig = FnSig::default();
    let Some(j) = past_generics(toks, at + 2) else { return sig };
    if !punct_at(toks, j, '(') {
        return sig;
    }
    let close = lexed.close_of(j);
    // Split the list at the commas of its own bracket level; generic
    // angles hide theirs.
    let (mut start, mut k) = (j + 1, j + 1);
    while k < close {
        if toks[k].is_punct('<') {
            k = skip_angles(toks, k);
        } else if toks[k].is_punct(',') {
            sig_param(lexed, (start, k), &mut sig);
            start = k + 1;
        }
        k = lexed.step(k);
    }
    if start < close {
        sig_param(lexed, (start, close), &mut sig);
    }
    if punct_at(toks, close + 1, '-') && punct_at(toks, close + 2, '>') {
        let start = close + 3;
        let end = (start..body).find(|&k| lexed.is_ident(k, "where")).unwrap_or(body) - 1;
        sig.ret = (start <= end).then_some((start, end));
    }
    sig
}

/// Reads one parameter, the tokens `s..e` between two commas of a
/// signature: the receiver, or a named parameter with its type.
fn sig_param(lexed: &Lexed, (s, e): (usize, usize), sig: &mut FnSig) {
    let toks = &lexed.tokens;
    let span = &toks[s..e];
    let colon = span.iter().position(|t| t.is_punct(':'));
    if colon.is_none() && (s..e).any(|k| lexed.is_ident(k, "self")) {
        let by_ref = span.iter().any(|t| t.is_punct('&'));
        sig.receiver = match (by_ref, (s..e).any(|k| lexed.is_ident(k, "mut"))) {
            (false, _) => Receiver::Value,
            (true, false) => Receiver::Ref,
            (true, true) => Receiver::RefMut,
        };
        return;
    }
    // `name: Type`; a `::` path (a proptest `x in strategy`) is no
    // parameter type.
    let Some(colon) = colon.filter(|&c| c > 0 && !span.get(c + 1).is_some_and(|t| t.is_punct(':')))
    else {
        return;
    };
    let name = s + colon - 1;
    if lexed.is_ident(name, "self") {
        sig.receiver = Receiver::Typed;
        return;
    }
    if toks[name].kind != TokKind::Ident || is_keyword(lexed.text(name)) {
        return;
    }
    // The type: skip refs and lifetimes, note `mut`, then take the
    // first real type path by its last segment.
    let mut t = colon + 1;
    let mut saw_ref = false;
    while t < span.len() && (span[t].is_punct('&') || span[t].kind == TokKind::Lifetime) {
        saw_ref |= span[t].is_punct('&');
        t += 1;
    }
    let mut_ref = saw_ref && t < span.len() && lexed.is_ident(s + t, "mut");
    let ty_name = (s + t..e)
        .find(|&k| toks[k].kind == TokKind::Ident && !is_keyword(lexed.text(k)))
        .and_then(|k| read_path(lexed, k))
        .map(|(last, _)| lexed.text(last).to_string())
        .unwrap_or_default();
    sig.params.push(Param {
        name: lexed.text(name).to_string(),
        ty: (s + colon + 1, e - 1),
        ty_name,
        mut_ref,
    });
}

/// Fills `bound_vars` and `float_vars` for the token range `[start, end]`.
fn analyze_fn(lexed: &Lexed, start: usize, end: usize, item: &mut FnItem) {
    let toks = &lexed.tokens;
    let mut i = start;
    while i <= end && i < toks.len() {
        let t = &toks[i];
        // An identifier's text; punctuation is told by its first byte.
        let word = if t.kind == TokKind::Ident { lexed.text(i) } else { "" };
        // An identifier at `j` that is no keyword: a bindable name.
        let name_at = |j: usize| {
            (toks[j].kind == TokKind::Ident).then(|| lexed.text(j)).filter(|w| !is_keyword(w))
        };
        match word {
            // `for <pattern> in …` — every ident in the pattern is bound.
            "for" => {
                let mut j = i + 1;
                while j <= end && !lexed.is_ident(j, "in") && !punct_at(toks, j, '{') {
                    if let Some(name) = name_at(j) {
                        record(&mut item.bound_vars, name);
                    }
                    j += 1;
                }
                i = j;
            }
            // `|a, b| …` closure parameter lists.
            _ if t.is_punct('|') && closure_opens_here(lexed, i) => {
                let mut j = i + 1;
                while j <= end && !punct_at(toks, j, '|') {
                    // Skip type-ascription idents: `|x: usize|` binds `x`.
                    let ascribed = j > 0 && punct_at(toks, j - 1, ':');
                    if let Some(name) = name_at(j).filter(|_| !ascribed) {
                        record(&mut item.bound_vars, name);
                    }
                    j += 1;
                }
                i = j + 1;
            }
            // `let [mut] PATTERN …` — every ident in the pattern (up to the
            // `=` or `;` at the `let`'s bracket level) is bound; a
            // single-name binding also classifies its initialiser for float
            // tracking.
            "let" => {
                let mut j = i + 1;
                if lexed.is_ident(j, "mut") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                    && stmt_is_floaty(lexed, j + 1, end)
                {
                    record(&mut item.float_vars, lexed.text(j));
                }
                let limit = toks.len().min(end + 1);
                let k = lexed
                    .level(i + 1)
                    .take_while(|&k| k < limit)
                    .find(|&k| punct_at(toks, k, '=') || punct_at(toks, k, ';'))
                    .unwrap_or(limit);
                for name in (i + 1..k).filter_map(name_at) {
                    record(&mut item.bound_vars, name);
                }
                i = k;
            }
            // Bare ascriptions `name: f64` (params, struct literals).
            "f64" | "f32" => {
                if i >= 2 && punct_at(toks, i - 1, ':') && toks[i - 2].kind == TokKind::Ident {
                    record(&mut item.float_vars, lexed.text(i - 2));
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Adds `name` to `set`, copying it only when it is new.
fn record(set: &mut BTreeSet<String>, name: &str) {
    if !set.contains(name) {
        set.insert(name.to_string());
    }
}

/// Heuristic: does the `|` at `i` begin a closure parameter list?
/// (Distinguishes from bitwise/logical `|` by what precedes it.)
fn closure_opens_here(lexed: &Lexed, i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = &lexed.tokens[i - 1];
    match prev.kind {
        TokKind::Punct => matches!(prev.first, b'(' | b',' | b'=' | b'{' | b';' | b'&' | b':'),
        TokKind::Ident => matches!(lexed.text(i - 1), "move" | "return" | "else"),
        _ => false,
    }
}

/// True for a token `i` that names a float type or is a float literal.
pub(crate) fn is_float_token(lexed: &Lexed, i: usize) -> bool {
    let text = || lexed.text(i);
    match lexed.tokens[i].kind {
        TokKind::Ident => matches!(text(), "f64" | "f32"),
        TokKind::Num => text().contains('.') || text().ends_with("f64") || text().ends_with("f32"),
        _ => false,
    }
}

/// True when the statement tokens after a `let NAME` mark a float binding:
/// `: f64`, a float literal initialiser, or a trailing `as f64` cast. The
/// statement ends at the `;` or closing delimiter of its bracket level.
fn stmt_is_floaty(lexed: &Lexed, from: usize, end: usize) -> bool {
    let toks = &lexed.tokens;
    let limit = toks.len().min(end + 1);
    let ends = |t: &Token| matches!(t.punct(), Some(b';' | b')' | b']' | b'}'));
    let stop = lexed.level(from).take_while(|&i| i < limit).find(|&i| ends(&toks[i]));
    (from..stop.unwrap_or(limit)).any(|i| is_float_token(lexed, i))
}

/// Parses a method call whose `.` sits at `dot`, tolerating turbofish.
fn parse_method_call(lexed: &Lexed, dot: usize) -> Option<MethodCall> {
    let toks = &lexed.tokens;
    let name_tok = toks.get(dot + 1).filter(|t| t.kind == TokKind::Ident)?;
    // `.collect::<Vec<_>>()` — skip the turbofish.
    let j = past_turbofish(toks, dot + 2)?;
    if !punct_at(toks, j, '(') {
        return None;
    }
    let close = lexed.close_of(j);
    let chained = if punct_at(toks, close + 1, '.')
        && toks.get(close + 2).is_some_and(|t| t.kind == TokKind::Ident)
    {
        Some(lexed.text(close + 2).to_string())
    } else {
        None
    };
    Some(MethodCall {
        name: lexed.text(dot + 1).to_string(),
        line: name_tok.line,
        dot,
        args: (j, close),
        chained,
    })
}

/// True when the `[` at `i` opens an *index expression*: the previous token
/// must end a value (an identifier that is not a keyword, a close paren, a
/// close bracket, or a string literal). Attributes (`#[…]`), slice types
/// (`&[T]`, `&mut [T]`), and array literals never match.
fn is_index_open(lexed: &Lexed, i: usize) -> bool {
    if i == 0 {
        return false;
    }
    match lexed.tokens[i - 1].kind {
        TokKind::Ident => !is_keyword(lexed.text(i - 1)),
        TokKind::Punct => matches!(lexed.tokens[i - 1].first, b')' | b']'),
        TokKind::Str => true,
        _ => false,
    }
}

/// True if the token before `i` puts `i` at item position: start of file,
/// after `;`/`}`/`{`, after an attribute's `]` or a `pub(…)`'s `)`, or
/// after a visibility / item qualifier keyword. Rejects `-> impl Trait`
/// return types and `x: impl Fn()` argument positions.
fn at_item_position(lexed: &Lexed, i: usize) -> bool {
    let Some(k) = i.checked_sub(1) else { return true };
    let prev = &lexed.tokens[k];
    match prev.kind {
        TokKind::Punct => matches!(prev.first, b';' | b'}' | b'{' | b']' | b')'),
        TokKind::Ident => matches!(lexed.text(k), "pub" | "unsafe" | "const" | "default"),
        _ => false,
    }
}

/// Reads a type/trait path at `j` (`a::b::C`, optional trailing generics),
/// returning the final segment's token index and the index just past the
/// path.
fn read_path(lexed: &Lexed, j: usize) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    let head = toks.get(j).filter(|t| t.kind == TokKind::Ident).map(|_| lexed.text(j))?;
    if is_keyword(head) && head != "Self" {
        return None;
    }
    let (last, past) = chain_end(toks, j);
    Some((last, past_generics(toks, past).unwrap_or(past)))
}

/// The last segment of the `a::b::c` chain whose head is at `head`, and
/// the index just past it: segments sit three tokens apart.
fn chain_end(toks: &[Token], head: usize) -> (usize, usize) {
    let (mut last, mut j) = (head, head + 1);
    while punct_at(toks, j, ':')
        && punct_at(toks, j + 1, ':')
        && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
    {
        last = j + 2;
        j += 3;
    }
    (last, j)
}

/// The `impl` block (inherent or trait) at `i`, an item position.
fn impl_block(lexed: &Lexed, i: usize) -> Option<ImplBlock> {
    let toks = &lexed.tokens;
    let j = past_generics(toks, i + 1)?;
    let (first, mut j) = read_path(lexed, j)?;
    let (trait_name, type_name) = if lexed.is_ident(j, "for") {
        j += 1;
        // Skip reference/dyn sigils on the implementing type.
        while punct_at(toks, j, '&')
            || lexed.is_ident(j, "dyn")
            || lexed.is_ident(j, "mut")
            || toks.get(j).is_some_and(|t| t.kind == TokKind::Lifetime)
        {
            j += 1;
        }
        let (ty, after) = read_path(lexed, j)?;
        j = after;
        (Some(first), ty)
    } else {
        (None, first)
    };
    let open = body_open(lexed, j)?;
    let name = |k: usize| lexed.text(k).to_string();
    Some(ImplBlock {
        trait_name: trait_name.map(name),
        type_name: name(type_name),
        line: toks[i].line,
        body: (open, lexed.close_of(open)),
    })
}

/// The `struct` at `i` with its body (`{…}` or `(…)`); `None` for a unit
/// struct.
fn struct_def(lexed: &Lexed, i: usize) -> Option<StructDef> {
    let toks = &lexed.tokens;
    let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident).map(|_| lexed.text(i + 1))?;
    let j = past_generics(toks, i + 2)?;
    // A tuple struct's body comes first; a `where` clause may precede `{`.
    let open = if punct_at(toks, j, '(') { j } else { body_open(lexed, j)? };
    Some(StructDef {
        name: name.to_string(),
        line: toks[i].line,
        body: (open, lexed.close_of(open)),
    })
}

/// True when the `use` at `i` is a `pub use` / `pub(crate) use` re-export.
fn use_is_pub(lexed: &Lexed, i: usize) -> bool {
    let toks = &lexed.tokens;
    let Some(mut k) = i.checked_sub(1) else { return false };
    if toks[k].is_punct(')') {
        // Step back over the `(crate)`/`(super)` restriction.
        let Some(prev) = lexed.partner(k).and_then(|open| open.checked_sub(1)) else {
            return false;
        };
        k = prev;
    }
    lexed.is_ident(k, "pub")
}

/// Parses one use tree at `j` below the `segs` already read; emits
/// flattened [`UseDecl`]s and returns the index just past the tree.
/// `segs` borrows the token texts and is restored on return; a
/// [`UseDecl`] copies them.
fn use_tree<'t>(
    lexed: &'t Lexed,
    mut j: usize,
    segs: &mut Vec<&'t str>,
    is_pub: bool,
    line: u32,
    out: &mut Vec<UseDecl>,
) -> usize {
    let toks = &lexed.tokens;
    let prefix = segs.len();
    let owned = |segs: &[&str]| segs.iter().map(|s| s.to_string()).collect();
    let end = loop {
        match toks.get(j) {
            Some(t) if t.kind == TokKind::Ident && lexed.text(j) != "as" => {
                segs.push(lexed.text(j));
                j += 1;
                if punct_at(toks, j, ':') && punct_at(toks, j + 1, ':') {
                    j += 2;
                    continue;
                }
                let alias = if lexed.is_ident(j, "as") {
                    let a = (j + 1 < toks.len()).then(|| lexed.text(j + 1).to_string());
                    j += 2;
                    a
                } else {
                    None
                };
                out.push(UseDecl { segs: owned(segs), alias, glob: false, is_pub, line });
                break j;
            }
            Some(t) if t.is_punct('{') => {
                let close = lexed.close_of(j);
                let mut k = j + 1;
                while k < close {
                    let next = use_tree(lexed, k, segs, is_pub, line, out);
                    k = next.max(k + 1);
                    if punct_at(toks, k, ',') {
                        k += 1;
                    } else {
                        break;
                    }
                }
                break close + 1;
            }
            Some(t) if t.is_punct('*') => {
                out.push(UseDecl { segs: owned(segs), alias: None, glob: true, is_pub, line });
                break j + 1;
            }
            _ => break j,
        }
    };
    segs.truncate(prefix);
    end
}

/// Path heads that are keywords but still begin a callable path.
fn is_path_head_keyword(word: &str) -> bool {
    matches!(word, "crate" | "self" | "super" | "Self")
}

/// Records the free call or qualified path reference whose head is the
/// identifier at `i`. A chain `a::b::name(…)` is recorded once, at its
/// head, because its later segments follow a `::`; method names (after
/// `.`), definitions (after `fn` etc.) and macros (before `!`) never match.
fn free_call_at(lexed: &Lexed, i: usize, out: &mut Vec<FreeCall>) {
    let toks = &lexed.tokens;
    let head = lexed.text(i);
    if is_keyword(head) && !is_path_head_keyword(head) {
        return;
    }
    // Not a path head if preceded by `.` (method), `::` (path interior),
    // or an item-definition keyword.
    if i > 0 {
        let prev = &toks[i - 1];
        let def_kw = prev.kind == TokKind::Ident
            && matches!(
                lexed.text(i - 1),
                "fn" | "mod" | "struct" | "enum" | "trait" | "use" | "impl" | "macro" | "type"
            );
        if prev.is_punct('.')
            || def_kw
            || (prev.is_punct(':') && i > 1 && toks[i - 2].is_punct(':'))
        {
            return;
        }
    }
    let (name_tok, j) = chain_end(toks, i);
    // `name::<T>(…)` — skip the turbofish before the argument check.
    let called = punct_at(toks, past_turbofish(toks, j).unwrap_or(j), '(');
    let qualified = name_tok > i;
    // Bare `self` is a receiver, never a call.
    if qualified || (called && head != "self") {
        out.push(FreeCall {
            qual: (i..name_tok).step_by(3).map(|k| lexed.text(k).to_string()).collect(),
            name: lexed.text(name_tok).to_string(),
            line: toks[name_tok].line,
            tok: name_tok,
            called,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        parse(&lex(src))
    }

    #[test]
    fn fn_items_and_bodies_are_recovered() {
        let m = model("fn a() { 1 } fn b<T: Ord>(x: T) -> Vec<u8> { vec![] }");
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "a");
        assert_eq!(m.fns[1].name, "b");
        assert!(!m.fns[0].in_test);
    }

    #[test]
    fn cfg_test_mod_marks_fns_as_test() {
        let m = model("fn lib() {} #[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }");
        let by_name = |n: &str| m.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("lib").in_test);
        assert!(by_name("helper").in_test);
        assert!(by_name("t").in_test);
    }

    #[test]
    fn an_attribute_left_open_at_the_end_of_the_file_parses() {
        for src in ["#[", "fn a() {}\n#[", "#[cfg(test)] mod t { #["] {
            let m = model(src);
            assert!(m.test_spans.iter().all(|&(lo, hi)| lo <= hi), "{src}: {:?}", m.test_spans);
        }
    }

    #[test]
    fn test_attr_with_qualifiers_is_seen() {
        let m = model("#[test]\npub fn check() {}");
        assert!(m.fns[0].in_test);
    }

    #[test]
    fn method_calls_survive_turbofish_and_chaining() {
        let m = model(
            "fn f() { let v = it.collect::<Vec<BTree<u8, i8>>>(); a.partial_cmp(b).unwrap(); }",
        );
        let collect = m.calls.iter().find(|c| c.name == "collect").unwrap();
        assert_eq!(collect.chained, None);
        let pc = m.calls.iter().find(|c| c.name == "partial_cmp").unwrap();
        assert_eq!(pc.chained.as_deref(), Some("unwrap"));
        assert!(m.calls.iter().any(|c| c.name == "unwrap"));
    }

    #[test]
    fn closures_in_method_chains_bind_params() {
        let m = model("fn f(v: Vec<u64>) { v.iter().map(|(i, x)| i + x).filter(|y| *y > 1); }");
        let f = &m.fns[0];
        for var in ["i", "x", "y"] {
            assert!(f.bound_vars.contains(var), "{var} missing from {:?}", f.bound_vars);
        }
    }

    #[test]
    fn params_and_let_patterns_bind_vars() {
        let m = model(
            "fn f(idx: usize, mesh: &Mesh<u8>) { let primary = idx; \
             let (a, b) = pair(); let v: Vec<u64> = Vec::new(); }",
        );
        let f = &m.fns[0];
        for var in ["idx", "mesh", "primary", "a", "b", "v"] {
            assert!(f.bound_vars.contains(var), "{var} missing from {:?}", f.bound_vars);
        }
    }

    #[test]
    fn for_patterns_bind_vars() {
        let m = model("fn f() { for (a, b) in pairs { } for i in 0..n { } }");
        let f = &m.fns[0];
        for var in ["a", "b", "i"] {
            assert!(f.bound_vars.contains(var));
        }
        assert!(!f.bound_vars.contains("pairs"));
    }

    #[test]
    fn float_locals_are_classified() {
        let m = model(
            "fn f(rate: f64, n: usize) { let x = 1.5; let y: f64 = g(); \
             let z = n as f64; let k = 3; }",
        );
        let f = &m.fns[0];
        for var in ["rate", "x", "y", "z"] {
            assert!(f.float_vars.contains(var), "{var} missing from {:?}", f.float_vars);
        }
        assert!(!f.float_vars.contains("k"));
        assert!(!f.float_vars.contains("n"));
    }

    #[test]
    fn index_expressions_exclude_attrs_and_slice_types() {
        let m = model("#[derive(Clone)] fn f(xs: &mut [u8]) { let a = xs[0]; let b = [1, 2]; }");
        assert_eq!(m.indexings.len(), 1);
    }

    #[test]
    fn heap_generics_are_spanned() {
        let src = "fn f() { let h: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new(); \
                   let g = std::collections::BinaryHeap::<u8>::new(); }";
        let (l, m) = (lex(src), model(src));
        let spans: Vec<String> = m
            .heaps
            .iter()
            .map(|h| (h.angles.0..=h.angles.1).map(|k| l.text(k)).collect())
            .collect();
        assert_eq!(spans, ["<Reverse<(SimTime,usize)>>", "<u8>"]);
    }

    #[test]
    fn nested_generics_in_comparator_types_parse() {
        let m = model(
            "fn f() { let c: BTreeMap<Key<Vec<u8>>, fn(&A) -> Ordering> = BTreeMap::new(); \
             xs.sort_by_key(|e: &Entry<Wrap<u8>>| e.seq); }",
        );
        assert!(m.calls.iter().any(|c| c.name == "sort_by_key"));
    }

    #[test]
    fn macro_calls_are_recorded() {
        let m = model("fn f() { panic!(\"boom\"); assert!(true); }");
        assert!(m.macros.iter().any(|c| c.name == "panic"));
        assert!(m.macros.iter().any(|c| c.name == "assert"));
    }

    #[test]
    fn inherent_and_trait_impls_are_recorded() {
        let m = model(
            "impl Widget { fn new() -> Self { Widget } } \
             impl fmt::Display for Widget<T> { fn fmt(&self) {} } \
             impl<S: State> Simulation<S> { fn step(&mut self) {} } \
             impl Ord for Entry { fn cmp(&self, o: &Self) -> Ordering { self.seq.cmp(&o.seq) } }",
        );
        assert_eq!(m.impls.len(), 4, "{:?}", m.impls);
        assert_eq!(m.impls[0].trait_name, None);
        assert_eq!(m.impls[0].type_name, "Widget");
        assert_eq!(m.impls[1].trait_name.as_deref(), Some("Display"));
        assert_eq!(m.impls[1].type_name, "Widget");
        assert_eq!(m.impls[2].trait_name, None);
        assert_eq!(m.impls[2].type_name, "Simulation");
        assert_eq!(m.impls[3].trait_name.as_deref(), Some("Ord"));
        assert_eq!(m.impls[3].type_name, "Entry");
    }

    #[test]
    fn a_bracketed_type_in_a_header_keeps_the_item() {
        let m = model(
            "struct S<T> where [T; 4]: Sized { t: T } \
             impl<T> Tr for W<[T; 4]> { fn a(&self) {} } \
             impl<T> Tr for S<T> where [T; 2]: Copy { fn b(&self) {} }",
        );
        let structs: Vec<&str> = m.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(structs, ["S"]);
        let impls: Vec<(Option<&str>, &str)> =
            m.impls.iter().map(|im| (im.trait_name.as_deref(), im.type_name.as_str())).collect();
        assert_eq!(impls, [(Some("Tr"), "W"), (Some("Tr"), "S")]);
        let owners: Vec<(&str, Option<&str>)> = m
            .fns
            .iter()
            .map(|f| {
                (f.name.as_str(), m.owning_impl(f.body).map(|k| m.impls[k].type_name.as_str()))
            })
            .collect();
        assert_eq!(owners, [("a", Some("W")), ("b", Some("S"))]);
    }

    #[test]
    fn return_position_impl_trait_is_not_an_impl_block() {
        let m = model("fn f() -> impl Iterator<Item = u8> { it() } fn g(x: impl Fn()) { x() }");
        assert!(m.impls.is_empty(), "{:?}", m.impls);
    }

    #[test]
    fn methods_attach_to_their_impl_by_span() {
        let m = model("fn free() {} impl W { fn method(&self) {} }");
        let free = m.fns.iter().find(|f| f.name == "free").unwrap();
        let method = m.fns.iter().find(|f| f.name == "method").unwrap();
        assert_eq!(m.owning_impl(free.body), None);
        let owner = m.owning_impl(method.body).map(|k| m.impls[k].type_name.as_str());
        assert_eq!(owner, Some("W"));
    }

    #[test]
    fn struct_bodies_are_recorded() {
        let m = model("struct A { q: BinaryHeap<u8> } struct B(u8); struct C; struct D<T> where T: Ord { t: T }");
        let names: Vec<&str> = m.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "D"]);
    }

    #[test]
    fn use_items_flatten_groups_globs_and_aliases() {
        let m = model(
            "use adapt::oracle as qoracle; pub use eng::dispatch; \
             use std::collections::{BTreeMap, btree_map::Entry}; use crate::prelude::*;",
        );
        assert_eq!(m.uses.len(), 5, "{:?}", m.uses);
        assert_eq!(m.uses[0].segs, vec!["adapt", "oracle"]);
        assert_eq!(m.uses[0].alias.as_deref(), Some("qoracle"));
        assert!(!m.uses[0].is_pub);
        assert!(m.uses[1].is_pub);
        assert_eq!(m.uses[1].segs, vec!["eng", "dispatch"]);
        assert_eq!(m.uses[2].segs, vec!["std", "collections", "BTreeMap"]);
        assert_eq!(m.uses[3].segs, vec!["std", "collections", "btree_map", "Entry"]);
        assert!(m.uses[4].glob);
        assert_eq!(m.uses[4].segs, vec!["crate", "prelude"]);
    }

    #[test]
    fn free_calls_record_qualifiers_and_skip_methods_and_macros() {
        let m = model(
            "fn f() { helper(1); beta::helper(2); x.method(); vec![q::r()]; \
             Fnv64::new(); crate::util::go::<u8>(3); assert!(ok()); }",
        );
        let by_name = |n: &str| m.free_calls.iter().filter(|c| c.name == n).collect::<Vec<_>>();
        assert_eq!(by_name("helper").len(), 2);
        assert_eq!(by_name("helper")[1].qual, vec!["beta"]);
        assert!(by_name("method").is_empty(), "{:?}", m.free_calls);
        assert_eq!(by_name("new")[0].qual, vec!["Fnv64"]);
        assert_eq!(by_name("go")[0].qual, vec!["crate", "util"]);
        assert!(by_name("go")[0].called);
        assert_eq!(by_name("r")[0].qual, vec!["q"]);
        assert!(by_name("ok")[0].called);
    }

    #[test]
    fn bare_references_with_qualifiers_are_recorded_uncalled() {
        let m = model("fn f() { v.sort_by(f64::total_cmp); go(catalog::all); }");
        let r = m.free_calls.iter().find(|c| c.name == "total_cmp").unwrap();
        assert!(!r.called);
        assert_eq!(r.qual, vec!["f64"]);
        let a = m.free_calls.iter().find(|c| c.name == "all").unwrap();
        assert!(!a.called);
    }

    #[test]
    fn use_paths_are_not_free_calls() {
        let m = model("use a::b::c; use x::{y::z, w}; fn f() { b2::c2(); }");
        assert!(m.free_calls.iter().all(|c| c.name != "c" && c.name != "z"), "{:?}", m.free_calls);
        assert!(m.free_calls.iter().any(|c| c.name == "c2"));
    }

    /// Checks one span lookup whose first two entries, named `names[0]`
    /// and `names[1]`, sit at tokens `a < b`.
    fn check_span_ends(lookup: impl Fn(usize, usize) -> Vec<String>, (a, b): (usize, usize)) {
        let both = lookup(a, b);
        assert_eq!(both.len(), 2, "{both:?}");
        let (first, second) = (&both[..1], &both[1..]);
        assert_eq!(lookup(a, a + 1), first, "an entry exactly at `lo` is inside");
        assert_eq!(lookup(b - 1, b), second, "an entry exactly at `hi` is inside");
        assert_eq!(lookup(a + 1, b), second, "an entry one token below `lo` is outside");
        assert_eq!(lookup(a, b - 1), first, "an entry one token above `hi` is outside");
        assert!(lookup(b, a).is_empty(), "`lo > hi` is an empty span");
    }

    #[test]
    fn span_lookups_include_both_ends_and_nothing_past_them() {
        let m = model("fn f() { a.x(); b.y(); g(); h(); m!(); n!(); }");
        let names = |v: Vec<&str>| v.into_iter().map(String::from).collect::<Vec<_>>();
        check_span_ends(
            |lo, hi| names(m.calls_in(lo, hi).iter().map(|c| c.name.as_str()).collect()),
            (m.calls[0].dot, m.calls[1].dot),
        );
        check_span_ends(
            |lo, hi| names(m.free_calls_in(lo, hi).iter().map(|c| c.name.as_str()).collect()),
            (m.free_calls[0].tok, m.free_calls[1].tok),
        );
        check_span_ends(
            |lo, hi| names(m.macros_in(lo, hi).iter().map(|c| c.name.as_str()).collect()),
            (m.macros[0].tok, m.macros[1].tok),
        );
    }

    /// A fixture dense in method calls, free calls and macros.
    const SPAN_FIXTURE: &str =
        include_str!("../tests/fixtures/sem/crates/stutter/src/panic_neg.rs");

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// On any span, the binary-search lookups return exactly what a
        /// filter over the whole vector keeps, in the same order.
        #[test]
        fn span_lookups_match_the_whole_vector_filter(lo in 0usize..500, hi in 0usize..500) {
            let m = model(SPAN_FIXTURE);
            let inside = |at: usize| lo <= at && at <= hi;
            let calls: Vec<usize> = m.calls.iter().map(|c| c.dot).filter(|&d| inside(d)).collect();
            let free: Vec<usize> = m.free_calls.iter().map(|c| c.tok).filter(|&t| inside(t)).collect();
            let macros: Vec<usize> = m.macros.iter().map(|c| c.tok).filter(|&t| inside(t)).collect();
            proptest::prop_assert_eq!(
                m.calls_in(lo, hi).iter().map(|c| c.dot).collect::<Vec<_>>(),
                calls
            );
            proptest::prop_assert_eq!(
                m.free_calls_in(lo, hi).iter().map(|c| c.tok).collect::<Vec<_>>(),
                free
            );
            proptest::prop_assert_eq!(
                m.macros_in(lo, hi).iter().map(|c| c.tok).collect::<Vec<_>>(),
                macros
            );
        }
    }

    #[test]
    fn the_span_fixture_fills_the_proptest_range() {
        let m = model(SPAN_FIXTURE);
        let n = lex(SPAN_FIXTURE).tokens.len();
        assert!((400..500).contains(&n), "{n} tokens: resize the proptest's span range");
        assert!(m.calls.len() >= 10 && m.free_calls.len() >= 10 && m.macros.len() >= 3);
    }

    #[test]
    fn field_writes_record_the_dot_and_the_rhs_end() {
        let (src, m) = {
            let src = "fn f(s: &mut S) { s.a = g(1, 2); s.b == 3; s.c += 4; self.d = x }";
            (lex(src), model(src))
        };
        let writes: Vec<(&str, &str)> =
            m.field_writes.iter().map(|w| (src.text(w.dot + 1), src.text(w.rhs_end))).collect();
        assert_eq!(writes, [("a", ")"), ("d", "x")]);
    }
}
