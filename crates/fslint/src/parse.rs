//! A lightweight item/expression parser over the lexed token stream.
//!
//! The semantic rules ([`crate::sem`]) need more shape than bare tokens:
//! which spans are test code, what each function's locals look like, where
//! method-call chains and comparator closures sit, and which expressions
//! index into collections. With no `syn` available offline, this module
//! recovers exactly that structure — and nothing more — from the
//! [`crate::lexer`] output:
//!
//! * `fn` items with their body spans, surrounding `#[test]`,
//!   `#[…::test]` and `#[cfg(test)]` markers, their signature (receiver, named parameters with their
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
//! Everything is token indices into the original
//! [`Lexed::tokens`](crate::lexer::Lexed) vector, recorded in one walk
//! over the tokens ([`parse`]): spans, and for every name the model keeps
//! (a fn's, a parameter's and its type's, a method's, a path's segments,
//! an import's, a bound local's) the index of the token that spells it.
//! A reader takes a name's text with
//! [`Lexed::text`](crate::lexer::Lexed::text) from the file's own
//! `Lexed`, so the model holds no copy of a name and records items
//! without allocating per name. An item's optional `<…>` is read by one
//! routine, and its body `{` is found at its header's bracket level by
//! another, so a bracketed type in a header (`[T; 4]`) is stepped over.
//! Method calls, free calls and macros are recorded in token order, so
//! the calls inside a token span are found by binary search
//! (`FileModel::calls_in` and its siblings) rather than by filtering the
//! whole list. Like the lexer, the parser never fails: unparsable
//! stretches are skipped, because a linter must report what it *can*
//! see.

use crate::lexer::{Lexed, TokKind, Token};

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
    /// Token index of the bound name (`mut x: u64` binds `x`).
    pub name: usize,
    /// Token span `[start, end]` of the type after the `:`.
    pub ty: (usize, usize),
    /// Token index of the type's name past `&`, lifetimes and `mut`, by
    /// its last path segment (`&mut simcore::Server` → `Server`); `None`
    /// when the type names nothing (`()`).
    pub ty_name: Option<usize>,
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
    /// Token index of the function's name, just after the `fn` keyword.
    pub name: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token span `[start, end]` of the body block, braces included.
    pub body: (usize, usize),
    /// The signature.
    pub sig: FnSig,
    /// True when the item is test code: it carries `#[test]`, `#[…::test]`
    /// or `#[cfg(test)]`, or sits inside a `#[cfg(test)] mod`.
    pub in_test: bool,
    /// Token indices of the names the function binds locally: parameters,
    /// `let` patterns, `for` patterns, and closure parameter lists, one
    /// per binding (a name bound twice is listed twice). The `panic-path`
    /// rule treats a bare bound identifier as an index established in
    /// scope — only computed subscripts carry an arithmetic claim worth
    /// flagging.
    pub bound_vars: Vec<usize>,
    /// Token indices of the locals and parameters the parser knows are
    /// float-typed: `x: f64` ascriptions, `let x = 1.25`, and `let x = …
    /// as f64` initialisers.
    pub float_vars: Vec<usize>,
}

/// One `.name(args)` method call.
#[derive(Debug)]
pub struct MethodCall {
    /// Token index of the method name, just after the `.`.
    pub name: usize,
    /// 1-based line of the method name token.
    pub line: u32,
    /// Token index of the `.` (the receiver ends just before it).
    pub dot: usize,
    /// Token span `(open, close)` of the argument parentheses.
    pub args: (usize, usize),
    /// Token index of the method chained directly onto this call's
    /// result, if any (`.partial_cmp(b).unwrap()` → the `unwrap`).
    pub chained: Option<usize>,
}

impl MethodCall {
    /// For a `fold`/`reduce` call whose arguments mention `f64::min`,
    /// `f64::max` (or `f32`), the index of that path's first token: such
    /// a fold silently absorbs NaN, so its value depends on where NaN
    /// falls.
    pub(crate) fn nan_absorbing(&self, lexed: &Lexed) -> Option<usize> {
        if !lexed.is_ident(self.name, "fold") && !lexed.is_ident(self.name, "reduce") {
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
    /// Token index of the implemented trait's last path segment, `None`
    /// for inherent impls.
    pub trait_name: Option<usize>,
    /// Token index of the implementing type's name (last path segment).
    pub type_name: usize,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token span `[start, end]` of the impl body, braces included.
    pub body: (usize, usize),
}

/// One free-function call (`helper(x)`, `beta::helper(x)`) or qualified
/// path reference (`catalog::all` passed as a value, `Kind::Raid`).
#[derive(Debug)]
pub struct FreeCall {
    /// Token index of the path's first segment. The qualifier segments
    /// before the name are the tokens `head`, `head + 3`, … (`beta::helper`
    /// → `beta`), and may start with `crate`, `self`, `super`, or `Self`;
    /// `head` is `name` for an unqualified call.
    pub head: usize,
    /// Token index of the final path segment: the called or referenced
    /// name.
    pub name: usize,
    /// 1-based line of the name token.
    pub line: u32,
    /// True when an argument list follows (a call, not a bare reference).
    pub called: bool,
}

impl FreeCall {
    /// The token indices of the qualifier segments, `head` first.
    pub fn qual(&self) -> std::iter::StepBy<std::ops::Range<usize>> {
        (self.head..self.name).step_by(3)
    }
}

/// One `struct` definition with its body span (fields or tuple elements).
#[derive(Debug)]
pub struct StructDef {
    /// Token index of the struct's name.
    pub name: usize,
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
    /// Token indices of the path segments as written (`use a::b::C` → the
    /// tokens of `a`, `b` and `C`).
    pub segs: Vec<usize>,
    /// Token index of the `as` rename, if any; otherwise the last segment
    /// is the visible name.
    pub alias: Option<usize>,
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
    /// Token index of the macro's name, just before the `!`.
    pub name: usize,
    /// 1-based line of the name token.
    pub line: u32,
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
        in_span(&self.free_calls, lo, hi, |c| c.name)
    }

    /// The macro invocations whose name token lies in `[lo, hi]`, in
    /// token order.
    pub(crate) fn macros_in(&self, lo: usize, hi: usize) -> &[MacroCall] {
        in_span(&self.macros, lo, hi, |m| m.name)
    }

    /// True if token index `i` falls inside a `#[cfg(test)]` module body.
    pub(crate) fn in_test_span(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// True if token index `i` is test code: inside a `#[cfg(test)]`
    /// module body or a test fn.
    pub(crate) fn in_test(&self, i: usize) -> bool {
        self.in_test_span(i) || self.enclosing_fn(i).is_some_and(|f| f.in_test)
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
                model.macros.push(MacroCall { name: i, line: t.line });
            }
            _ => {}
        }
        if use_end.is_none_or(|end| i > end) {
            free_call_at(lexed, i, &mut model.free_calls);
        }
    }
    debug_assert!(model.calls.windows(2).all(|w| w[0].dot < w[1].dot));
    debug_assert!(model.free_calls.windows(2).all(|w| w[0].name < w[1].name));
    debug_assert!(model.macros.windows(2).all(|w| w[0].name < w[1].name));
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
    if test_attr(lexed, i + 1) != Some(true) {
        return None;
    }
    // Skip further attributes/doc markers to the item keyword.
    let mut j = lexed.close_of(i + 1) + 1;
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
    toks.get(i + 1).filter(|t| t.kind == TokKind::Ident)?;
    let open = body_open(lexed, i + 2)?;
    let close = lexed.close_of(open);
    let sig = parse_sig(lexed, i, open);
    let bound_vars = sig.params.iter().map(|p| p.name).collect();
    let mut item = FnItem {
        name: i + 1,
        line: toks[i].line,
        body: (open, close),
        sig,
        in_test: has_test_attr(lexed, i) || model.in_test_span(i),
        bound_vars,
        float_vars: Vec::new(),
    };
    // The signature (params) participates in float tracking.
    analyze_fn(lexed, i, close, &mut item);
    Some(item)
}

/// True if the `fn` at `at` is directly preceded by a `#[test]`,
/// `#[…::test]` or `#[cfg(test)]` attribute (scanning back across
/// attributes and the visibility/`const`/`async` qualifiers).
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
        let Some(open) = lexed.partner(i - 1) else { return false };
        if open == 0 || !toks[open - 1].is_punct('#') {
            return false;
        }
        if test_attr(lexed, open).is_some() {
            return true;
        }
        i = open - 1;
    }
    false
}

/// What the attribute whose `[` is at `open` says about test code:
/// `Some(true)` for `#[cfg(test)]`, `Some(false)` for `#[test]` or a path
/// ending in `test` (`#[tokio::test]`), `None` for any other attribute
/// (`#[cfg(not(test))]`, `#[cfg_attr(test, allow(dead_code))]`). A `#[`
/// that ends the file closes on its own `[` and is none of them.
fn test_attr(lexed: &Lexed, open: usize) -> Option<bool> {
    let close = lexed.close_of(open);
    let (last, past) = chain_end(&lexed.tokens, open + 1);
    if past == close && lexed.is_ident(last, "test") {
        return Some(false);
    }
    // `cfg ( test )`, its parentheses paired.
    let cfg = lexed.is_ident(open + 1, "cfg") && lexed.is_ident(open + 3, "test");
    (cfg && close == open + 5 && lexed.partner(open + 2) == Some(open + 4)).then_some(true)
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
        .map(|(last, _)| last);
    sig.params.push(Param { name, ty: (s + colon + 1, e - 1), ty_name, mut_ref });
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
        let name_at = |j: usize| toks[j].kind == TokKind::Ident && !is_keyword(lexed.text(j));
        match word {
            // `for <pattern> in …` — every ident in the pattern is bound.
            "for" => {
                let mut j = i + 1;
                while j <= end && !lexed.is_ident(j, "in") && !punct_at(toks, j, '{') {
                    if name_at(j) {
                        item.bound_vars.push(j);
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
                    if name_at(j) && !punct_at(toks, j - 1, ':') {
                        item.bound_vars.push(j);
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
                    item.float_vars.push(j);
                }
                let limit = toks.len().min(end + 1);
                let k = lexed
                    .level(i + 1)
                    .take_while(|&k| k < limit)
                    .find(|&k| punct_at(toks, k, '=') || punct_at(toks, k, ';'))
                    .unwrap_or(limit);
                item.bound_vars.extend((i + 1..k).filter(|&j| name_at(j)));
                i = k;
            }
            // Bare ascriptions `name: f64` (params, struct literals).
            "f64" | "f32" => {
                if i >= 2 && punct_at(toks, i - 1, ':') && toks[i - 2].kind == TokKind::Ident {
                    item.float_vars.push(i - 2);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Heuristic: does the `|` at `i` begin a closure parameter list?
/// (Distinguishes from bitwise/logical `|` by what precedes it.)
pub(crate) fn closure_opens_here(lexed: &Lexed, i: usize) -> bool {
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
    let chained = (punct_at(toks, close + 1, '.')
        && toks.get(close + 2).is_some_and(|t| t.kind == TokKind::Ident))
    .then_some(close + 2);
    Some(MethodCall { name: dot + 1, line: name_tok.line, dot, args: (j, close), chained })
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
    Some(ImplBlock {
        trait_name,
        type_name,
        line: toks[i].line,
        body: (open, lexed.close_of(open)),
    })
}

/// The `struct` at `i` with its body (`{…}` or `(…)`); `None` for a unit
/// struct.
fn struct_def(lexed: &Lexed, i: usize) -> Option<StructDef> {
    let toks = &lexed.tokens;
    toks.get(i + 1).filter(|t| t.kind == TokKind::Ident)?;
    let j = past_generics(toks, i + 2)?;
    // A tuple struct's body comes first; a `where` clause may precede `{`.
    let open = if punct_at(toks, j, '(') { j } else { body_open(lexed, j)? };
    Some(StructDef { name: i + 1, line: toks[i].line, body: (open, lexed.close_of(open)) })
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
/// `segs` is restored on return.
fn use_tree(
    lexed: &Lexed,
    mut j: usize,
    segs: &mut Vec<usize>,
    is_pub: bool,
    line: u32,
    out: &mut Vec<UseDecl>,
) -> usize {
    let toks = &lexed.tokens;
    let prefix = segs.len();
    let end = loop {
        match toks.get(j) {
            Some(t) if t.kind == TokKind::Ident && lexed.text(j) != "as" => {
                segs.push(j);
                j += 1;
                if punct_at(toks, j, ':') && punct_at(toks, j + 1, ':') {
                    j += 2;
                    continue;
                }
                let alias = if lexed.is_ident(j, "as") {
                    j += 2;
                    toks.get(j - 1).filter(|t| t.kind == TokKind::Ident).map(|_| j - 1)
                } else {
                    None
                };
                out.push(UseDecl { segs: segs.clone(), alias, glob: false, is_pub, line });
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
                out.push(UseDecl { segs: segs.clone(), alias: None, glob: true, is_pub, line });
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
        out.push(FreeCall { head: i, name: name_tok, line: toks[name_tok].line, called });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lexer::tests::SPAN_PIECES;

    fn model(src: &str) -> (Lexed, FileModel) {
        let lexed = lex(src);
        let model = parse(&lexed);
        (lexed, model)
    }

    /// The texts of the tokens at `names`.
    fn texts(l: &Lexed, names: impl IntoIterator<Item = usize>) -> Vec<&str> {
        names.into_iter().map(|k| l.text(k)).collect()
    }

    /// Each impl block's trait and type names.
    fn impls<'l>(l: &'l Lexed, m: &FileModel) -> Vec<(Option<&'l str>, &'l str)> {
        m.impls.iter().map(|im| (im.trait_name.map(|k| l.text(k)), l.text(im.type_name))).collect()
    }

    #[test]
    fn fn_items_and_bodies_are_recovered() {
        let (l, m) = model("fn a() { 1 } fn b<T: Ord>(x: T) -> Vec<u8> { vec![] }");
        assert_eq!(texts(&l, m.fns.iter().map(|f| f.name)), ["a", "b"]);
        assert!(!m.fns[0].in_test);
    }

    #[test]
    fn cfg_test_mod_marks_fns_as_test() {
        let (l, m) =
            model("fn lib() {} #[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }");
        let by_name = |n: &str| m.fns.iter().find(|f| l.is_ident(f.name, n)).unwrap();
        assert!(!by_name("lib").in_test);
        assert!(by_name("helper").in_test);
        assert!(by_name("t").in_test);
    }

    #[test]
    fn an_attribute_left_open_at_the_end_of_the_file_parses() {
        for src in ["#[", "fn a() {}\n#[", "#[cfg(test)] mod t { #["] {
            let (_, m) = model(src);
            assert!(m.test_spans.iter().all(|&(lo, hi)| lo <= hi), "{src}: {:?}", m.test_spans);
        }
    }

    #[test]
    fn only_test_attributes_mark_test_code() {
        let (l, m) = model(
            "#[cfg(not(test))] fn a() {} #[cfg_attr(test, allow(dead_code))] fn b() {} \
             #[tokio::test] async fn c() {} #[cfg(test)] fn d() {} #[inline] #[test] fn e() {} \
             #[cfg(not(test))] mod m { fn f() {} } #[cfg(test)] mod t { fn g() {} }",
        );
        let tests = m.fns.iter().filter(|f| f.in_test).map(|f| f.name);
        assert_eq!(texts(&l, tests), ["c", "d", "e", "g"]);
    }

    #[test]
    fn test_attr_with_qualifiers_is_seen() {
        let (_, m) = model("#[test]\npub fn check() {}");
        assert!(m.fns[0].in_test);
    }

    #[test]
    fn method_calls_survive_turbofish_and_chaining() {
        let (l, m) = model(
            "fn f() { let v = it.collect::<Vec<BTree<u8, i8>>>(); a.partial_cmp(b).unwrap(); }",
        );
        assert_eq!(texts(&l, m.calls.iter().map(|c| c.name)), ["collect", "partial_cmp", "unwrap"]);
        assert_eq!(m.calls[0].chained, None);
        assert_eq!(texts(&l, m.calls[1].chained), ["unwrap"]);
    }

    #[test]
    fn closures_in_method_chains_bind_params() {
        let (l, m) =
            model("fn f(v: Vec<u64>) { v.iter().map(|(i, x)| i + x).filter(|y| *y > 1); }");
        assert_eq!(texts(&l, m.fns[0].bound_vars.iter().copied()), ["v", "i", "x", "y"]);
    }

    #[test]
    fn params_and_let_patterns_bind_vars() {
        let (l, m) = model(
            "fn f(idx: usize, mesh: &Mesh<u8>) { let primary = idx; \
             let (a, b) = pair(); let v: Vec<u64> = Vec::new(); }",
        );
        let bound = texts(&l, m.fns[0].bound_vars.iter().copied());
        for var in ["idx", "mesh", "primary", "a", "b", "v"] {
            assert!(bound.contains(&var), "{var} missing from {bound:?}");
        }
    }

    #[test]
    fn for_patterns_bind_vars() {
        let (l, m) = model("fn f() { for (a, b) in pairs { } for i in 0..n { } }");
        assert_eq!(texts(&l, m.fns[0].bound_vars.iter().copied()), ["a", "b", "i"]);
    }

    #[test]
    fn float_locals_are_classified() {
        let (l, m) = model(
            "fn f(rate: f64, n: usize) { let x = 1.5; let y: f64 = g(); \
             let z = n as f64; let k = 3; }",
        );
        let floats = texts(&l, m.fns[0].float_vars.iter().copied());
        for var in ["rate", "x", "y", "z"] {
            assert!(floats.contains(&var), "{var} missing from {floats:?}");
        }
        assert!(!floats.contains(&"k") && !floats.contains(&"n"), "{floats:?}");
    }

    #[test]
    fn index_expressions_exclude_attrs_and_slice_types() {
        let (_, m) =
            model("#[derive(Clone)] fn f(xs: &mut [u8]) { let a = xs[0]; let b = [1, 2]; }");
        assert_eq!(m.indexings.len(), 1);
    }

    #[test]
    fn heap_generics_are_spanned() {
        let src = "fn f() { let h: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new(); \
                   let g = std::collections::BinaryHeap::<u8>::new(); }";
        let (l, m) = model(src);
        let spans: Vec<String> = m
            .heaps
            .iter()
            .map(|h| (h.angles.0..=h.angles.1).map(|k| l.text(k)).collect())
            .collect();
        assert_eq!(spans, ["<Reverse<(SimTime,usize)>>", "<u8>"]);
    }

    #[test]
    fn nested_generics_in_comparator_types_parse() {
        let (l, m) = model(
            "fn f() { let c: BTreeMap<Key<Vec<u8>>, fn(&A) -> Ordering> = BTreeMap::new(); \
             xs.sort_by_key(|e: &Entry<Wrap<u8>>| e.seq); }",
        );
        assert!(m.calls.iter().any(|c| l.is_ident(c.name, "sort_by_key")));
    }

    #[test]
    fn macro_calls_are_recorded() {
        let (l, m) = model("fn f() { panic!(\"boom\"); assert!(true); }");
        assert_eq!(texts(&l, m.macros.iter().map(|c| c.name)), ["panic", "assert"]);
    }

    #[test]
    fn inherent_and_trait_impls_are_recorded() {
        let (l, m) = model(
            "impl Widget { fn new() -> Self { Widget } } \
             impl fmt::Display for Widget<T> { fn fmt(&self) {} } \
             impl<S: State> Simulation<S> { fn step(&mut self) {} } \
             impl Ord for Entry { fn cmp(&self, o: &Self) -> Ordering { self.seq.cmp(&o.seq) } }",
        );
        assert_eq!(
            impls(&l, &m),
            [
                (None, "Widget"),
                (Some("Display"), "Widget"),
                (None, "Simulation"),
                (Some("Ord"), "Entry")
            ]
        );
    }

    #[test]
    fn a_bracketed_type_in_a_header_keeps_the_item() {
        let (l, m) = model(
            "struct S<T> where [T; 4]: Sized { t: T } \
             impl<T> Tr for W<[T; 4]> { fn a(&self) {} } \
             impl<T> Tr for S<T> where [T; 2]: Copy { fn b(&self) {} }",
        );
        assert_eq!(texts(&l, m.structs.iter().map(|s| s.name)), ["S"]);
        assert_eq!(impls(&l, &m), [(Some("Tr"), "W"), (Some("Tr"), "S")]);
        let owners: Vec<(&str, Option<&str>)> = m
            .fns
            .iter()
            .map(|f| (l.text(f.name), m.owning_impl(f.body).map(|k| l.text(m.impls[k].type_name))))
            .collect();
        assert_eq!(owners, [("a", Some("W")), ("b", Some("S"))]);
    }

    #[test]
    fn return_position_impl_trait_is_not_an_impl_block() {
        let (_, m) =
            model("fn f() -> impl Iterator<Item = u8> { it() } fn g(x: impl Fn()) { x() }");
        assert!(m.impls.is_empty(), "{:?}", m.impls);
    }

    #[test]
    fn methods_attach_to_their_impl_by_span() {
        let (l, m) = model("fn free() {} impl W { fn method(&self) {} }");
        let (free, method) = (&m.fns[0], &m.fns[1]);
        assert_eq!(texts(&l, [free.name, method.name]), ["free", "method"]);
        assert_eq!(m.owning_impl(free.body), None);
        let owner = m.owning_impl(method.body).map(|k| l.text(m.impls[k].type_name));
        assert_eq!(owner, Some("W"));
    }

    #[test]
    fn struct_bodies_are_recorded() {
        let (l, m) = model("struct A { q: BinaryHeap<u8> } struct B(u8); struct C; struct D<T> where T: Ord { t: T }");
        assert_eq!(texts(&l, m.structs.iter().map(|s| s.name)), ["A", "B", "D"]);
    }

    #[test]
    fn use_items_flatten_groups_globs_and_aliases() {
        let (l, m) = model(
            "use adapt::oracle as qoracle; pub use eng::dispatch; \
             use std::collections::{BTreeMap, btree_map::Entry}; use crate::prelude::*;",
        );
        assert_eq!(m.uses.len(), 5, "{:?}", m.uses);
        let segs = |k: usize| texts(&l, m.uses[k].segs.iter().copied());
        assert_eq!(segs(0), ["adapt", "oracle"]);
        assert_eq!(texts(&l, m.uses[0].alias), ["qoracle"]);
        assert!(!m.uses[0].is_pub);
        assert!(m.uses[1].is_pub);
        assert_eq!(segs(1), ["eng", "dispatch"]);
        assert_eq!(segs(2), ["std", "collections", "BTreeMap"]);
        assert_eq!(segs(3), ["std", "collections", "btree_map", "Entry"]);
        assert!(m.uses[4].glob);
        assert_eq!(segs(4), ["crate", "prelude"]);
    }

    #[test]
    fn free_calls_record_qualifiers_and_skip_methods_and_macros() {
        let (l, m) = model(
            "fn f() { helper(1); beta::helper(2); x.method(); vec![q::r()]; \
             Fnv64::new(); crate::util::go::<u8>(3); assert!(ok()); }",
        );
        let by_name =
            |n: &str| m.free_calls.iter().filter(|c| l.is_ident(c.name, n)).collect::<Vec<_>>();
        assert_eq!(by_name("helper").len(), 2);
        assert_eq!(texts(&l, by_name("helper")[1].qual()), ["beta"]);
        assert!(by_name("method").is_empty(), "{:?}", m.free_calls);
        assert_eq!(texts(&l, by_name("new")[0].qual()), ["Fnv64"]);
        assert_eq!(texts(&l, by_name("go")[0].qual()), ["crate", "util"]);
        assert!(by_name("go")[0].called);
        assert_eq!(texts(&l, by_name("r")[0].qual()), ["q"]);
        assert!(by_name("ok")[0].called);
    }

    #[test]
    fn bare_references_with_qualifiers_are_recorded_uncalled() {
        let (l, m) = model("fn f() { v.sort_by(f64::total_cmp); go(catalog::all); }");
        let r = m.free_calls.iter().find(|c| l.is_ident(c.name, "total_cmp")).unwrap();
        assert!(!r.called);
        assert_eq!(texts(&l, r.qual()), ["f64"]);
        let a = m.free_calls.iter().find(|c| l.is_ident(c.name, "all")).unwrap();
        assert!(!a.called);
    }

    #[test]
    fn use_paths_are_not_free_calls() {
        let (l, m) = model("use a::b::c; use x::{y::z, w}; fn f() { b2::c2(); }");
        assert_eq!(texts(&l, m.free_calls.iter().map(|c| c.name)), ["c2"]);
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
        let (l, m) = model("fn f() { a.x(); b.y(); g(); h(); m!(); n!(); }");
        let names = |v: Vec<usize>| v.into_iter().map(|k| l.text(k).to_string()).collect();
        check_span_ends(
            |lo, hi| names(m.calls_in(lo, hi).iter().map(|c| c.name).collect()),
            (m.calls[0].dot, m.calls[1].dot),
        );
        check_span_ends(
            |lo, hi| names(m.free_calls_in(lo, hi).iter().map(|c| c.name).collect()),
            (m.free_calls[0].name, m.free_calls[1].name),
        );
        check_span_ends(
            |lo, hi| names(m.macros_in(lo, hi).iter().map(|c| c.name).collect()),
            (m.macros[0].name, m.macros[1].name),
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
            let (_, m) = model(SPAN_FIXTURE);
            let inside = |at: usize| lo <= at && at <= hi;
            let calls: Vec<usize> = m.calls.iter().map(|c| c.dot).filter(|&d| inside(d)).collect();
            let free: Vec<usize> = m.free_calls.iter().map(|c| c.name).filter(|&t| inside(t)).collect();
            let macros: Vec<usize> = m.macros.iter().map(|c| c.name).filter(|&t| inside(t)).collect();
            proptest::prop_assert_eq!(
                m.calls_in(lo, hi).iter().map(|c| c.dot).collect::<Vec<_>>(),
                calls
            );
            proptest::prop_assert_eq!(
                m.free_calls_in(lo, hi).iter().map(|c| c.name).collect::<Vec<_>>(),
                free
            );
            proptest::prop_assert_eq!(
                m.macros_in(lo, hi).iter().map(|c| c.name).collect::<Vec<_>>(),
                macros
            );
        }
    }

    /// Item-shaped pieces that, glued among the lexer's span pieces, let
    /// random sources hold fns, calls, paths, imports and bindings.
    const PARSE_PIECES: [&str; 39] = [
        "use a::{b as c, d::*};",
        "impl<T> Tr for W<T> ",
        ").z(",
        "fn ",
        "fn x(a: &mut T, b: f64) -> u64 ",
        "let ",
        "mut ",
        "for ",
        " in ",
        "impl ",
        " for ",
        "struct ",
        "use ",
        " as ",
        "self",
        "f64",
        "crate",
        "x.y(",
        "a::b::c(",
        "m!(",
        "|a, b| ",
        "#[test]",
        "#[cfg(test)] mod t ",
        "{",
        ")",
        "[",
        "]",
        "|",
        "=",
        ";",
        ",",
        "!",
        "#",
        "&",
        "*",
        "<",
        ">",
        "-",
        "::",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// On any source, every name the model records is the index of an
        /// identifier token where the item's syntax spells it: a fn's or a
        /// struct's after its keyword, a parameter's before its `:`, a
        /// method's right after its `.`, a chained method's after the
        /// call's `)` and a `.`, a qualifier's segments three tokens apart
        /// (`a :: b`) ending before the call's name, an alias after `as`
        /// and a macro's before its `!`. Every bound or float position
        /// lies inside its fn, from the name to the body's end.
        #[test]
        fn recorded_names_are_identifier_tokens(
            choices in proptest::collection::vec(0usize..SPAN_PIECES.len() + PARSE_PIECES.len(), 0..64),
        ) {
            let pieces: Vec<&str> = SPAN_PIECES.iter().chain(&PARSE_PIECES).copied().collect();
            let src: String = choices.iter().map(|&c| pieces[c]).collect();
            let (l, m) = model(&src);
            let ident = |k: usize| l.tokens.get(k).is_some_and(|t| t.kind == TokKind::Ident);
            let punct = |k: usize, c: char| l.tokens.get(k).is_some_and(|t| t.is_punct(c));
            for f in &m.fns {
                proptest::prop_assert!(ident(f.name) && l.is_ident(f.name - 1, "fn"), "{src:?}");
                for p in &f.sig.params {
                    proptest::prop_assert!(ident(p.name) && punct(p.name + 1, ':'), "{src:?}");
                    proptest::prop_assert!(p.ty_name.is_none_or(ident), "{src:?}");
                }
                for &k in f.bound_vars.iter().chain(&f.float_vars) {
                    proptest::prop_assert!(ident(k) && f.name <= k && k <= f.body.1, "{src:?}: {k}");
                }
            }
            for c in &m.calls {
                proptest::prop_assert!(punct(c.dot, '.') && c.name == c.dot + 1 && ident(c.name));
                if let Some(k) = c.chained {
                    proptest::prop_assert!(ident(k) && k == c.args.1 + 2 && punct(k - 1, '.'));
                }
            }
            for c in &m.free_calls {
                proptest::prop_assert!(ident(c.name) && (c.name - c.head) % 3 == 0, "{src:?}");
                for q in c.qual() {
                    proptest::prop_assert!(ident(q) && punct(q + 1, ':') && punct(q + 2, ':'));
                    proptest::prop_assert!(q + 3 <= c.name, "{src:?}");
                }
            }
            for im in &m.impls {
                proptest::prop_assert!(ident(im.type_name) && im.trait_name.is_none_or(ident));
            }
            for s in &m.structs {
                proptest::prop_assert!(ident(s.name) && l.is_ident(s.name - 1, "struct"));
            }
            for u in &m.uses {
                proptest::prop_assert!(u.segs.iter().all(|&k| ident(k)), "{src:?}");
                proptest::prop_assert!(u.alias.is_none_or(|a| ident(a) && l.is_ident(a - 1, "as")));
            }
            for mac in &m.macros {
                proptest::prop_assert!(ident(mac.name) && punct(mac.name + 1, '!'), "{src:?}");
            }
        }
    }

    #[test]
    fn the_span_fixture_fills_the_proptest_range() {
        let (l, m) = model(SPAN_FIXTURE);
        let n = l.tokens.len();
        assert!((400..500).contains(&n), "{n} tokens: resize the proptest's span range");
        assert!(m.calls.len() >= 10 && m.free_calls.len() >= 10 && m.macros.len() >= 3);
    }

    #[test]
    fn field_writes_record_the_dot_and_the_rhs_end() {
        let (src, m) = model("fn f(s: &mut S) { s.a = g(1, 2); s.b == 3; s.c += 4; self.d = x }");
        let writes: Vec<(&str, &str)> =
            m.field_writes.iter().map(|w| (src.text(w.dot + 1), src.text(w.rhs_end))).collect();
        assert_eq!(writes, [("a", ")"), ("d", "x")]);
    }
}
