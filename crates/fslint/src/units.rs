//! Interprocedural unit inference: prove every quantity carries the
//! right unit.
//!
//! Fail-stutter bugs are threshold bugs: a detector comparing a
//! nanosecond observation against a threshold configured in ticks, or a
//! rate accumulated per tick but shed per second, silently reshapes the
//! performance-fault model without ever failing a test. The workspace is
//! full of implicitly-united raw `u64`/`f64` — `as_nanos()` escapes,
//! `ticks_per_sec` conversions, LBA/block arithmetic — and only naming
//! discipline keeps them apart. This pass turns that discipline into a
//! machine-checked dimension system (Kennedy-style units-of-measure
//! inference, run as abstract interpretation over the same workspace
//! call graph the taint pass uses):
//!
//! * **Seeds** — API signatures (`SimTime::from_secs(x)` means the
//!   result is sim time in nanos; `as_nanos()`/`as_millis()`/… read a
//!   concrete unit; `SimTime`/`SimDuration`/`Duration` values *are*
//!   nanos) and naming discipline (`*_nanos`/`*_ms`/`*_secs`/`*_ticks`/
//!   `lba`/`nblocks` suffixes, `dt`, and `a_per_b` rate names).
//! * **A small unit lattice** — `Unknown ⊑ Scalar ⊑ Of(dim) ⊑
//!   Conflict`, where a dimension is a signed exponent vector over the
//!   bases (nanos, micros, millis, secs, ticks, blocks, bytes). Mul and
//!   div compose dimensions; dividing same-united quantities yields a
//!   dimensionless ratio; a bare conversion literal (`* 1_000_000`)
//!   poisons the expression to `Unknown` because the target unit is no
//!   longer inferable from the text.
//! * **Per-function summaries** — a function's return unit is seeded
//!   from its own name and return type (the name is authoritative: a fn
//!   *named* `ticks_per_sec` returns ticks/sec by contract) and
//!   otherwise inferred from its `return`/trailing expressions, to a
//!   fixpoint over the call-graph so units flow through helpers across
//!   crates. Struct fields learn units from `.field = expr` assignments
//!   (the laundering case); locals from `let`/`for` bindings with
//!   flow-style shadowing.
//!
//! Four rules come out of this: `unit-mismatch` (add/sub/compare/assign
//! across conflicting inferred units — the message prints both inference
//! chains hop by hop), `raw-unit-conversion` (magic `* 1_000` /
//! `* 1_000_000` / `* 1_000_000_000` literals outside `simcore::time` —
//! named constructors and consts exist for exactly this), `rate-confusion`
//! (a per-X rate combined with a quantity of a different shape without an
//! explicit `dt` factor), and `threshold-unit` (a config threshold
//! compared against an observation of a different unit in
//! injector/detector-reachable code).
//!
//! Like [`crate::flow`] the analysis is conservative: an unresolvable
//! call, macro, or conversion literal inside an operand poisons it to
//! `Unknown`, and `Unknown` operands never fire a rule. A call's unit and
//! its parameters come from the callees the call graph resolved for that
//! call site, as in the taint pass. Known under-approximations:
//! method-call *arguments* are not checked against parameter units (only
//! free calls are), tuple patterns bind a unit only when the name itself
//! carries a suffix, and `%` keeps its left operand's unit without
//! checking the right.

use crate::graph::{FileUnit, Graph};
use crate::lexer::{Lexed, TokKind};
use crate::parse::{self, rhs_end, FreeCall, Receiver};
use crate::rules::{id, Finding};
use crate::summary::{self, call_args, field_read_shape, split_args, Locals};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// The unit bases, in the order a [`Dim`] renders them.
const BASES: [&str; 7] = ["blocks", "bytes", "micros", "millis", "nanos", "secs", "ticks"];

/// A dimension: one signed exponent per unit base (blocks, bytes,
/// micros, millis, nanos, secs, ticks), so building and combining
/// dimensions allocates nothing. `{nanos: 1, secs: -1}` renders as
/// `nanos/secs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Dim([i32; BASES.len()]);

impl Dim {
    /// The dimension of one base unit, by its name (`"nanos"`).
    pub fn base(name: &'static str) -> Dim {
        let mut exps = [0; BASES.len()];
        let k = BASES.iter().position(|&b| b == name);
        debug_assert!(k.is_some(), "`{name}` is no unit base");
        if let Some(k) = k {
            exps[k] = 1;
        }
        Dim(exps)
    }

    /// The reciprocal dimension (all exponents negated).
    pub fn inv(&self) -> Dim {
        Dim(self.0.map(|e| -e))
    }

    /// Dimension product: exponents add.
    pub fn mul(&self, other: &Dim) -> Dim {
        Dim(std::array::from_fn(|k| self.0[k] + other.0[k]))
    }

    /// Dimension quotient: same-dimension division is dimensionless.
    pub fn div(&self, other: &Dim) -> Dim {
        self.mul(&other.inv())
    }

    /// True for the dimensionless (all-zero) vector.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&e| e == 0)
    }

    /// True when any exponent is negative — the quantity is a rate.
    pub fn is_rate(&self) -> bool {
        self.0.iter().any(|&e| e < 0)
    }

    /// ASCII rendering: `nanos`, `nanos/secs`, `1/secs`, `nanos^2`.
    pub fn render(&self) -> String {
        let part = |e: i32, name: &str| {
            if e == 1 {
                name.to_string()
            } else {
                format!("{name}^{e}")
            }
        };
        let exps = || BASES.iter().zip(self.0);
        let num: Vec<String> = exps().filter(|&(_, v)| v > 0).map(|(k, v)| part(v, k)).collect();
        let den: Vec<String> = exps().filter(|&(_, v)| v < 0).map(|(k, v)| part(-v, k)).collect();
        match (num.is_empty(), den.is_empty()) {
            (true, true) => "dimensionless".to_string(),
            (false, true) => num.join("*"),
            (true, false) => format!("1/{}", den.join("*")),
            (false, false) => format!("{}/{}", num.join("*"), den.join("*")),
        }
    }
}

/// The unit lattice: `Unknown ⊑ Scalar ⊑ Of(d) ⊑ Conflict`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// No information — poisons arithmetic, never fires a rule.
    Unknown,
    /// A dimensionless number (literals, counts, ratios).
    Scalar,
    /// A concrete dimension.
    Of(Dim),
    /// Two incompatible concrete dimensions met (summary join only).
    Conflict,
}

impl Unit {
    /// Lattice join: least upper bound of two inferences.
    pub fn join(&self, other: &Unit) -> Unit {
        match (self, other) {
            (Unit::Conflict, _) | (_, Unit::Conflict) => Unit::Conflict,
            (Unit::Unknown, u) | (u, Unit::Unknown) => *u,
            (Unit::Scalar, u) | (u, Unit::Scalar) => *u,
            (Unit::Of(a), Unit::Of(b)) if a == b => Unit::Of(*a),
            _ => Unit::Conflict,
        }
    }

    /// Unit product. `Unknown`/`Conflict` poison; `Scalar` is identity;
    /// dimensions compose, collapsing to `Scalar` when they cancel.
    pub fn mul(&self, other: &Unit) -> Unit {
        match (self, other) {
            (Unit::Unknown | Unit::Conflict, _) | (_, Unit::Unknown | Unit::Conflict) => {
                Unit::Unknown
            }
            (Unit::Scalar, u) | (u, Unit::Scalar) => *u,
            (Unit::Of(a), Unit::Of(b)) => {
                let d = a.mul(b);
                if d.is_empty() {
                    Unit::Scalar
                } else {
                    Unit::Of(d)
                }
            }
        }
    }

    /// Unit quotient; same-unit division yields a dimensionless ratio.
    pub fn div(&self, other: &Unit) -> Unit {
        match other {
            Unit::Of(d) => self.mul(&Unit::Of(d.inv())),
            _ => self.mul(other),
        }
    }
}

/// One function's return-unit summary, for the `--graph-out` export and
/// hop-by-hop message chains. `None` in the per-node vector means no
/// concrete return unit was inferred.
#[derive(Debug, Clone)]
pub struct UnitSummary {
    /// The inferred return dimension.
    pub dim: Dim,
    /// 1-based line of the evidence (or of the `fn` for name seeds).
    pub line: u32,
    /// The callee node id the unit arrived through, `None` at the root.
    pub via: Option<usize>,
    /// Human description of this hop.
    pub what: String,
}

/// Types whose values are sim time, canonically counted in nanos.
const TIME_TYPES: &[&str] = &["SimTime", "SimDuration", "Duration"];

/// `Type::from_*` constructors producing a sim-time value.
const TIME_CTORS: &[(&str, &str)] = &[
    ("from_nanos", "nanos"),
    ("from_micros", "micros"),
    ("from_millis", "millis"),
    ("from_secs", "secs"),
    ("from_secs_f64", "secs"),
];

/// Methods that read a concrete unit off a time value.
fn method_dim(name: &str) -> Option<&'static str> {
    match name {
        "as_nanos" | "subsec_nanos" => Some("nanos"),
        "as_micros" => Some("micros"),
        "as_millis" | "subsec_millis" => Some("millis"),
        "as_secs" | "as_secs_f64" | "as_secs_f32" => Some("secs"),
        _ => None,
    }
}

/// Methods that pass their receiver's unit through unchanged. Anything
/// not listed (and not otherwise resolvable) poisons the operand to
/// `Unknown` — a call we cannot see through could convert.
const PRESERVE_METHODS: &[&str] = &[
    "abs",
    "ceil",
    "checked_add",
    "checked_sub",
    "clamp",
    "clone",
    "cloned",
    "copied",
    "expect",
    "floor",
    "get",
    "into",
    "iter",
    "max",
    "min",
    "rem_euclid",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "sum",
    "to_owned",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "wrapping_add",
    "wrapping_sub",
];

/// Primitive numeric type names: the only primitives a fn can return
/// one unit in, and, with `bool` and `char`, the names an `as` cast
/// mentions, which are never unit evidence and never an unresolved value.
const NUM_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Maps one name segment, in any ASCII case, to its unit base.
fn base_word(w: &str) -> Option<&'static str> {
    // No unit word is longer than `nanoseconds`: lower-case on the stack.
    let mut buf = [0u8; 11];
    let lower = buf.get_mut(..w.len())?;
    lower.copy_from_slice(w.as_bytes());
    lower.make_ascii_lowercase();
    match &*lower {
        b"nanos" | b"nano" | b"nanosecond" | b"nanoseconds" | b"ns" => Some("nanos"),
        b"micros" | b"micro" | b"us" => Some("micros"),
        b"millis" | b"milli" | b"ms" => Some("millis"),
        b"secs" | b"sec" | b"second" | b"seconds" => Some("secs"),
        b"ticks" | b"tick" => Some("ticks"),
        b"lba" | b"lbas" | b"block" | b"blocks" | b"nblocks" => Some("blocks"),
        b"bytes" | b"byte" | b"nbytes" => Some("bytes"),
        _ => None,
    }
}

/// How an identifier's *name* declares its dimension: by a `per_`
/// prefix, a `_per_` infix or a unit suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NameShape {
    PerPrefix,
    PerInfix,
    Suffix,
}

/// The dimension an identifier's *name* declares, with the facts its
/// label quotes: the shape, and the name's unit word as written.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NameDim<'n> {
    dim: Dim,
    shape: NameShape,
    word: &'n str,
}

impl NameDim<'_> {
    /// The human label: ``suffixed `*_ms` (millis)``.
    fn label(&self) -> String {
        let w = self.word.to_ascii_lowercase();
        let base = base_word(&w).unwrap_or("?");
        match self.shape {
            NameShape::PerPrefix => format!("named `per_{w}` (a per-{base} rate)"),
            NameShape::PerInfix => format!("named `*_per_{w}` (a {} rate)", self.dim.render()),
            NameShape::Suffix => format!("suffixed `*_{w}` ({base})"),
        }
    }
}

/// The dimension an identifier's *name* declares, matched in any ASCII
/// case. `dt` is the simulation step (sim time in nanos); `a_per_b` names
/// are rates (`ticks_per_sec` is ticks/secs, `open_per_sec` with an
/// unresolvable numerator is a bare per-sec count rate); otherwise the
/// last `_`-segment is tried as a unit suffix.
pub(crate) fn name_dim(name: &str) -> Option<NameDim<'_>> {
    // Note `dt` itself carries no name-declared unit: a `dt: SimDuration`
    // is nanos via its type, while `let dt = step.as_secs_f64()` is secs
    // via its binding — both idioms live in this workspace.
    fn first(s: &str) -> &str {
        s.split('_').next().unwrap_or(s)
    }
    if name.get(..4).is_some_and(|p| p.eq_ignore_ascii_case("per_")) {
        let word = first(&name[4..]);
        let dim = Dim::base(base_word(word)?).inv();
        return Some(NameDim { dim, shape: NameShape::PerPrefix, word });
    }
    // `_per_` is ASCII, so a byte match sits on char boundaries.
    if let Some(pos) = name.as_bytes().windows(5).rposition(|w| w.eq_ignore_ascii_case(b"_per_")) {
        let num_word = name[..pos].rsplit('_').next().unwrap_or(&name[..pos]);
        let word = first(&name[pos + 5..]);
        let den = base_word(word)?;
        let dim = match base_word(num_word) {
            Some(num) => Dim::base(num).div(&Dim::base(den)),
            None => Dim::base(den).inv(),
        };
        return Some(NameDim { dim, shape: NameShape::PerInfix, word });
    }
    let word = name.rsplit('_').next().unwrap_or(name);
    let dim = Dim::base(base_word(word)?);
    Some(NameDim { dim, shape: NameShape::Suffix, word })
}

/// Normalizes a numeric literal: underscores stripped, lower-cased,
/// trailing primitive type suffix removed.
fn normalized_num(text: &str) -> String {
    let mut t: String = text.chars().filter(|c| *c != '_').collect();
    t.make_ascii_lowercase();
    for s in NUM_TYPES {
        if t.len() > s.len() && t.ends_with(s) {
            t.truncate(t.len() - s.len());
            break;
        }
    }
    t
}

/// True for any literal spelling of 10^3/10^6/10^9 — inference poison:
/// a bare scale factor makes the target unit untrackable from the text.
fn conversion_literal(text: &str) -> bool {
    matches!(
        normalized_num(text).as_str(),
        "1000"
            | "1000000"
            | "1000000000"
            | "1e3"
            | "1e6"
            | "1e9"
            | "1000.0"
            | "1000000.0"
            | "1000000000.0"
    )
}

/// True for the *integer* forms the `raw-unit-conversion` rule flags
/// (float reporting math like `* 1e3` stays legal, it merely poisons
/// inference).
fn raw_conversion_int(text: &str) -> bool {
    let t = normalized_num(text);
    !text.contains('.')
        && !t.contains('e')
        && matches!(t.as_str(), "1000" | "1000000" | "1000000000")
}

/// An inferred unit with its evidence trail.
#[derive(Debug, Clone, Copy)]
struct Inferred {
    unit: Unit,
    /// The hops that led here, rendered root first by [`Units::render`].
    chain: Chain,
    /// Summarized callee node the unit arrived through, if any.
    via: Option<usize>,
    /// Token index of the decisive evidence.
    tok: usize,
    /// 1-based line of the decisive evidence.
    line: u32,
}

impl Inferred {
    fn unknown() -> Inferred {
        Inferred { unit: Unit::Unknown, chain: Chain::EMPTY, via: None, tok: 0, line: 0 }
    }

    fn scalar() -> Inferred {
        Inferred { unit: Unit::Scalar, chain: Chain::EMPTY, via: None, tok: 0, line: 0 }
    }
}

/// An inference chain: the index of its last hop in the pass's hop arena
/// ([`Units::hops`]), each hop linking back toward the root evidence.
/// Copying a chain or extending it by a hop allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chain(Option<u32>);

impl Chain {
    const EMPTY: Chain = Chain(None);
}

/// One hop of an inference chain, kept as the facts its text quotes; the
/// text is rendered only where a finding or a summary prints it.
#[derive(Debug, Clone, Copy)]
enum Hop<'a> {
    /// `.name()` reads `base` off a time value.
    Reads { name: &'a str, base: &'static str, at: Site },
    /// A call, field, value or binding whose name declares its unit.
    Named { kind: Named, name: &'a str, at: Site },
    /// A call to summarized node `n`: the hops of its summary.
    Callee(usize),
    /// `qual::name(..)` constructs sim time.
    TimeCtor { qual: &'a str, name: &'a str, at: Site },
    /// A mention of a sim-time type.
    TimeValue { name: &'a str, at: Site },
    /// A read of the field `name`, whose unit an assignment taught.
    Field { name: &'a str },
    /// A parameter whose name or type declares its unit.
    Param { name: &'a str, dim: Dim, file: usize },
    /// A binding the value so far flowed into.
    Local { is_let: bool, name: &'a str },
    /// A factor that scaled (or divided) the value: the last hop of its
    /// chain.
    Scaled { div: bool, by: Chain },
}

/// Where a hop's evidence sits.
#[derive(Debug, Clone, Copy)]
struct Site {
    file: usize,
    line: u32,
}

/// What the name of a [`Hop::Named`] belongs to.
#[derive(Debug, Clone, Copy)]
enum Named {
    Method,
    Free,
    Field,
    Value,
    Binding { is_let: bool },
}

/// Unit-carrying locals: each binding's dimension and inference chain.
type ULocals<'a> = Locals<'a, (Dim, Chain)>;

/// What a unit-carrying struct field was learned to hold.
#[derive(Debug, Clone, Copy)]
struct FieldUnit {
    dim: Dim,
    desc: Chain,
}

/// Runs the unit analysis: `unit-mismatch` / `raw-unit-conversion` /
/// `rate-confusion` / `threshold-unit` findings plus per-node return-unit
/// summaries aligned with `graph.nodes` for the `--graph-out` export.
pub fn analyze(units: &[FileUnit], graph: &Graph) -> (Vec<Finding>, Vec<Option<UnitSummary>>) {
    let mut u = Units::new(units, graph);
    summary::fixpoint(&mut u, |u| &mut u.summaries, Units::learn, Units::infer);
    let mut findings = u.site_findings();
    findings.extend(u.raw_conversions());
    (findings, u.summaries)
}

/// The analysis state: summaries and field units grow monotonically to a
/// fixpoint, then the site scan reads them.
struct Units<'a> {
    units: &'a [FileUnit],
    graph: &'a Graph<'a>,
    /// Per-node return-unit summaries, aligned with `graph.nodes`.
    summaries: Vec<Option<UnitSummary>>,
    /// Per-node parameter units, in declaration order: a name's own
    /// suffix, else a `SimTime`/`SimDuration` type.
    params: Vec<Vec<(&'a str, Option<Dim>)>>,
    /// Unit-carrying struct fields by field name (global, name-based).
    fields: BTreeMap<&'a str, FieldUnit>,
    /// The hop arena every [`Chain`] points into: each hop with the chain
    /// it extends. It only grows during the pass.
    hops: RefCell<Vec<(Chain, Hop<'a>)>>,
}

impl<'a> Units<'a> {
    fn new(units: &'a [FileUnit], graph: &'a Graph<'a>) -> Units<'a> {
        let params = graph
            .nodes
            .iter()
            .map(|node| {
                let u = &units[node.file];
                let time = |ty| u.lexed.idents(ty).any(|t| TIME_TYPES.contains(&t));
                let sig = &u.model.fns[node.fn_idx].sig;
                sig.params
                    .iter()
                    .map(|p| {
                        let name = u.lexed.text(p.name);
                        let dim = name_dim(name)
                            .map(|n| n.dim)
                            .or_else(|| time(p.ty).then(|| Dim::base("nanos")));
                        (name, dim)
                    })
                    .collect()
            })
            .collect();
        let mut u = Units {
            units,
            graph,
            summaries: vec![None; graph.nodes.len()],
            params,
            fields: BTreeMap::new(),
            hops: RefCell::new(Vec::new()),
        };
        for n in 0..graph.nodes.len() {
            u.summaries[n] = u.seed_summary(n);
        }
        u
    }

    /// The declaration-driven summary of node `n`: its own name first
    /// (authoritative — a fn *named* `ticks_per_sec` returns ticks/sec
    /// by contract), then a `SimTime`/`SimDuration` return type. Only
    /// fns returning a bare numeric or time type are ever summarized —
    /// a struct-returning fn does not hand its unit to the whole struct.
    fn seed_summary(&self, n: usize) -> Option<UnitSummary> {
        let node = &self.graph.nodes[n];
        let ret = self.unit_return(n)?;
        if let Some(named) = name_dim(node.name) {
            return Some(UnitSummary {
                dim: named.dim,
                line: node.line,
                via: None,
                what: format!("`{}` is {}", node.name, named.label()),
            });
        }
        let t = self.units[node.file].lexed.idents(ret).find(|t| TIME_TYPES.contains(t))?;
        Some(UnitSummary {
            dim: Dim::base("nanos"),
            line: node.line,
            via: None,
            what: format!("`{}` returns `{t}` (sim time in nanos)", node.name),
        })
    }

    /// Node `n`'s return-type span when it can carry ONE unit: every
    /// identifier in it is a bare numeric primitive or a time type. A
    /// struct/enum return (e.g. `-> Geometry`) aggregates many
    /// quantities, so its fn never gets a scalar unit summary, and a
    /// `bool` or `char` (a comparison's verdict, a tag) holds none.
    fn unit_return(&self, n: usize) -> Option<(usize, usize)> {
        let node = &self.graph.nodes[n];
        let u = &self.units[node.file];
        let ret = u.model.fns[node.fn_idx].sig.ret?;
        let mut idents = u.lexed.idents(ret).filter(|t| !parse::is_keyword(t)).peekable();
        let bearing = idents.peek().is_some()
            && idents.all(|t| NUM_TYPES.contains(&t) || TIME_TYPES.contains(&t));
        bearing.then_some(ret)
    }

    /// Node `n`'s return unit from earlier rounds': the join of its
    /// `return`/trailing expressions, when that is one concrete unit.
    fn infer(&self, n: usize) -> Option<UnitSummary> {
        self.unit_return(n)?;
        let node = &self.graph.nodes[n];
        let locals = self.locals_for(node.file, node.fn_idx);
        let mut joined = Unit::Unknown;
        let mut first: Option<Inferred> = None;
        for (lo, hi) in return_spans(&self.units[node.file], node.body) {
            let inf = self.eval_span(node.file, lo, hi, &locals);
            if matches!(inf.unit, Unit::Of(_)) && first.is_none() {
                first = Some(inf);
            }
            joined = joined.join(&inf.unit);
        }
        let (Unit::Of(dim), Some(inf)) = (joined, first) else { return None };
        let what = match inf.via {
            Some(v) => format!("calls `{}`", self.graph.nodes[v].name),
            None => self.render(inf.chain).into_iter().next().unwrap_or_else(|| "inferred".into()),
        };
        Some(UnitSummary { dim, line: inf.line, via: inf.via, what })
    }

    /// Starts a fixpoint round: one round of `.field = RHS` discovery —
    /// an assignment whose RHS carries a concrete unit teaches the field
    /// (by name, workspace-global). Fields whose *name* already carries a
    /// suffix are left to the suffix — the declaration wins over any one
    /// assignment. Returns true when a new field was learned.
    fn learn(&mut self) -> bool {
        let learned = summary::learn_fields(
            self.units,
            |f| name_dim(f).is_some() || self.fields.contains_key(f),
            |file, fk| self.locals_for(file, fk),
            |file, (lo, hi), locals| match self.eval_span(file, lo, hi, locals) {
                Inferred { unit: Unit::Of(dim), chain, .. } => Some(FieldUnit { dim, desc: chain }),
                _ => None,
            },
        );
        let changed = !learned.is_empty();
        self.fields.extend(learned);
        changed
    }

    /// Unit-carrying parameters and `let`/`for` bindings of `fns[fk]` in
    /// `file`. A name's own suffix is authoritative; an un-suffixed
    /// binding takes its right-hand side's inferred unit.
    fn locals_for(&self, file: usize, fk: usize) -> ULocals<'a> {
        let u = &self.units[file];
        let body = u.model.fns[fk].body;
        let mut locals = Locals::new();
        for &(name, dim) in &self.params[self.graph.node_of(file, fk)] {
            if let Some(dim) = dim {
                let chain = self.hop(Chain::EMPTY, Hop::Param { name, dim, file });
                locals.bind(name, body.0, (dim, chain));
            }
        }
        summary::walk_bindings(&u.lexed, body, &mut locals, |locals, b, vals| {
            let rhs = self.eval_span(file, b.rhs.0, b.rhs.1, locals);
            let at = Site { file, line: u.lexed.tokens[b.at].line };
            let is_let = b.is_let;
            for &name in &b.names {
                let bound = match (name_dim(name), rhs.unit) {
                    (Some(named), _) => {
                        let hop = Hop::Named { kind: Named::Binding { is_let }, name, at };
                        (named.dim, self.hop(Chain::EMPTY, hop))
                    }
                    (None, Unit::Of(d)) => (d, self.hop(rhs.chain, Hop::Local { is_let, name })),
                    _ => continue,
                };
                vals.push((name, bound));
            }
        });
        locals
    }

    /// Extends `chain` by `hop`.
    fn hop(&self, chain: Chain, hop: Hop<'a>) -> Chain {
        let mut hops = self.hops.borrow_mut();
        hops.push((chain, hop));
        Chain(Some((hops.len() - 1) as u32))
    }

    /// The chain's hops as text, root first: what a finding joins with
    /// `" -> "`.
    fn render(&self, chain: Chain) -> Vec<String> {
        let mut hops = Vec::new();
        let mut cur = chain;
        while let Chain(Some(k)) = cur {
            let (prev, hop) = self.hops.borrow()[k as usize];
            hops.push(hop);
            cur = prev;
        }
        let mut out = Vec::new();
        for hop in hops.into_iter().rev() {
            self.render_hop(hop, &mut out);
        }
        out
    }

    /// Appends one hop's text (a callee's is its summary's hops).
    fn render_hop(&self, hop: Hop<'a>, out: &mut Vec<String>) {
        let path = |at: Site| &self.units[at.file].path;
        let label = |name: &str| name_dim(name).map(|n| n.label()).unwrap_or_default();
        out.push(match hop {
            Hop::Reads { name, base, at } => {
                format!("`.{name}()` reads {base} ({}:{})", path(at), at.line)
            }
            Hop::Named { kind, name, at } => {
                let (l, p, line) = (label(name), path(at), at.line);
                match kind {
                    Named::Method => format!("`.{name}()` {l} ({p}:{line})"),
                    Named::Free => format!("`{name}(..)` {l} ({p}:{line})"),
                    Named::Field => format!("field `.{name}` {l} ({p}:{line})"),
                    Named::Value => format!("`{name}` {l} ({p}:{line})"),
                    Named::Binding { is_let } => {
                        let kind = if is_let { "local" } else { "loop" };
                        format!("{kind} `{name}` {l} ({p}:{line})")
                    }
                }
            }
            Hop::Callee(n) => {
                let hop = |m: usize| self.summaries[m].as_ref().map(|s| (s.via, &*s.what, s.line));
                out.extend(summary::chain(self.graph, self.units, n, hop));
                return;
            }
            Hop::TimeCtor { qual, name, at } => format!(
                "`{qual}::{name}(..)` constructs sim time in nanos ({}:{})",
                path(at),
                at.line
            ),
            Hop::TimeValue { name, at } => {
                format!("`{name}` value (sim time in nanos, {}:{})", path(at), at.line)
            }
            Hop::Field { name } => {
                let desc = self.fields.get(name).map(|f| self.render(f.desc).join(" -> "));
                format!("{} -> field `.{name}`", desc.unwrap_or_default())
            }
            Hop::Param { name, dim, file } => {
                format!("parameter `{name}` ({}, {})", dim.render(), self.units[file].path)
            }
            Hop::Local { is_let, name } => {
                format!("{} `{name}`", if is_let { "local" } else { "loop local" })
            }
            Hop::Scaled { div, by } => {
                let Some(last) = self.render(by).pop() else { return };
                format!("{} {last}", if div { "divided by" } else { "scaled by" })
            }
        });
    }

    /// The unit of the token span `[lo, hi]`: binary `+`/`-` at the
    /// span's bracket level split it into terms whose units are joined
    /// (mixed terms are the site scan's business, so a disagreement here
    /// degrades to `Unknown` rather than firing twice); within a term,
    /// `*`/`/` factors at that level compose through the lattice.
    /// Evaluation stops at a `%` at that level (the remainder keeps the
    /// left unit, the right side is a modulus).
    fn eval_span(&self, file: usize, lo: usize, hi: usize, locals: &ULocals<'a>) -> Inferred {
        let lexed = &self.units[file].lexed;
        let toks = &lexed.tokens;
        if toks.is_empty() || lo > hi || lo >= toks.len() {
            return Inferred::unknown();
        }
        let mut hi = hi.min(toks.len() - 1);
        // Term boundaries at binary `+` / `-` (and the `%` stop).
        let mut term_cuts: Vec<usize> = Vec::new();
        let last = hi;
        for i in lexed.level(lo).take_while(|&i| i <= last) {
            match toks[i].punct() {
                Some(op @ (b'+' | b'-')) => {
                    let arrow = op == b'-' && toks.get(i + 1).is_some_and(|n| n.is_punct('>'));
                    if i > lo && ends_value(lexed, i - 1) && !arrow {
                        term_cuts.push(i);
                    }
                }
                Some(b'%') => {
                    hi = i.saturating_sub(1);
                    break;
                }
                _ => {}
            }
        }
        term_cuts.retain(|&i| i <= hi);
        let mut joined: Option<Inferred> = None;
        let mut start = lo;
        for cut in term_cuts.into_iter().chain(std::iter::once(hi + 1)) {
            if cut > start {
                let term = self.eval_term(file, start, cut - 1, locals);
                joined = Some(match joined {
                    None => term,
                    Some(acc) => {
                        let unit = acc.unit.join(&term.unit);
                        let keep_acc = matches!(acc.unit, Unit::Of(_)) || acc.unit == unit;
                        let mut r = if keep_acc { acc } else { term };
                        if matches!(unit, Unit::Conflict) {
                            r.unit = Unit::Unknown;
                        } else {
                            r.unit = unit;
                        }
                        r
                    }
                });
            }
            start = cut + 1;
        }
        joined.unwrap_or_else(Inferred::unknown)
    }

    /// The unit of one additive term: `*`/`/` factors at the term's
    /// bracket level composed left to right.
    fn eval_term(&self, file: usize, lo: usize, hi: usize, locals: &ULocals<'a>) -> Inferred {
        let lexed = &self.units[file].lexed;
        let toks = &lexed.tokens;
        let mut cuts: Vec<(usize, char)> = Vec::new();
        for i in lexed.level(lo).take_while(|&i| i <= hi) {
            let op = toks[i].punct().filter(|&c| c == b'*' || c == b'/');
            if let Some(op) = op.filter(|_| i > lo && ends_value(lexed, i - 1)) {
                cuts.push((i, char::from(op)));
            }
        }
        let mut result = Inferred::scalar();
        let mut start = lo;
        let mut pending_op = '*';
        for (cut, op) in cuts.into_iter().chain(std::iter::once((hi + 1, '*'))) {
            if cut > start {
                let f = self.eval_factor(file, start, cut.min(hi + 1) - 1, locals);
                result = self.combine(result, f, pending_op);
            }
            start = cut + 1;
            pending_op = op;
        }
        result
    }

    /// The unit of one factor (no `*`/`/` at its own bracket level).
    /// Precedence:
    /// poison (unresolvable call, macro, conversion literal) beats
    /// everything; then call evidence — a call whose argument parens
    /// enclose the other candidate wins (the wrapping transform for
    /// prefix calls like `from_secs_f64(x.as_bytes()/r)`), otherwise the
    /// *last* call in a postfix chain; then the earliest token evidence
    /// (local, parameter, field, suffix, time-type mention); a left-over
    /// unresolved identifier means `Unknown`, a literal-only factor is
    /// `Scalar`.
    fn eval_factor(&self, file: usize, lo: usize, hi: usize, locals: &ULocals<'a>) -> Inferred {
        let u = &self.units[file];
        let (lexed, toks) = (&u.lexed, &u.lexed.tokens);
        if lo > hi || lo >= toks.len() {
            return Inferred::unknown();
        }
        let hi = hi.min(toks.len() - 1);
        let leaf = |hop: Hop<'a>| self.hop(Chain::EMPTY, hop);
        let found = |dim: Dim, chain: Chain, via: Option<usize>, tok: usize, line: u32| Inferred {
            unit: Unit::Of(dim),
            chain,
            via,
            tok,
            line,
        };
        type CallEv = Option<(Inferred, Option<(usize, usize)>)>;
        let mut call_ev: CallEv = None;
        let keep = |cand: Inferred, cover: Option<(usize, usize)>, slot: &mut CallEv| {
            let wins = match slot.as_ref() {
                None => true,
                Some((held, held_cover)) => {
                    let cand_encloses = cover.is_some_and(|(o, c)| o < held.tok && held.tok < c);
                    let held_encloses =
                        held_cover.is_some_and(|(o, c)| o < cand.tok && cand.tok < c);
                    cand_encloses || (!held_encloses && cand.tok > held.tok)
                }
            };
            if wins {
                *slot = Some((cand, cover));
            }
        };
        for mc in u.model.calls_in(lo, hi) {
            let (name, at) = (lexed.text(mc.name), Site { file, line: mc.line });
            if let Some(base) = method_dim(name) {
                let chain = leaf(Hop::Reads { name, base, at });
                keep(
                    found(Dim::base(base), chain, None, mc.dot, mc.line),
                    Some(mc.args),
                    &mut call_ev,
                );
            } else if let Some(named) = name_dim(name) {
                let chain = leaf(Hop::Named { kind: Named::Method, name, at });
                keep(found(named.dim, chain, None, mc.dot, mc.line), Some(mc.args), &mut call_ev);
            } else if PRESERVE_METHODS.contains(&name) {
                // Receiver-transparent: the receiver's own token evidence
                // carries the unit through (even when a `SimTime::max`-style
                // summary would match by name).
            } else if let Some((n, s)) =
                summary::summarized(self.graph, &self.summaries, file, mc.dot)
            {
                let chain = leaf(Hop::Callee(n));
                keep(found(s.dim, chain, Some(n), mc.dot, mc.line), Some(mc.args), &mut call_ev);
            } else {
                return Inferred::unknown();
            }
        }
        for fc in u.model.free_calls_in(lo, hi).iter().filter(|c| c.called) {
            let (name, at) = (lexed.text(fc.name), Site { file, line: fc.line });
            let args = call_args(&u.lexed, fc.name);
            if let Some((qual, ..)) = time_ctor(lexed, fc) {
                let chain = leaf(Hop::TimeCtor { qual, name, at });
                keep(found(Dim::base("nanos"), chain, None, fc.name, fc.line), args, &mut call_ev);
            } else if let Some(named) = name_dim(name) {
                let chain = leaf(Hop::Named { kind: Named::Free, name, at });
                keep(found(named.dim, chain, None, fc.name, fc.line), args, &mut call_ev);
            } else if let Some((n, s)) =
                summary::summarized(self.graph, &self.summaries, file, fc.name)
            {
                let chain = leaf(Hop::Callee(n));
                keep(found(s.dim, chain, Some(n), fc.name, fc.line), args, &mut call_ev);
            } else if name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') {
                // A lower-case call we cannot see through could convert.
                // (Upper-case names are tuple/enum constructors, which
                // pass their payload through.)
                return Inferred::unknown();
            }
        }
        if !u.model.macros_in(lo, hi).is_empty() {
            return Inferred::unknown();
        }
        if (lo..=hi).any(|k| toks[k].kind == TokKind::Num && conversion_literal(lexed.text(k))) {
            return Inferred::unknown();
        }
        if let Some((ev, _)) = call_ev {
            return ev;
        }
        // Token evidence: the earliest wins.
        let mut unresolved = false;
        for i in lo..=hi {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let name = lexed.text(i);
            if parse::is_keyword(name)
                || NUM_TYPES.contains(&name)
                || matches!(name, "bool" | "char" | "None")
            {
                continue;
            }
            let at = Site { file, line: t.line };
            let hit = |dim: Dim, hop: Hop<'a>| found(dim, leaf(hop), None, i, t.line);
            let after_dot = i > 0 && toks[i - 1].is_punct('.');
            let in_path = i > 1 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
            if after_dot {
                if field_read_shape(toks, i - 1) {
                    if let Some(fu) = self.fields.get(name) {
                        return hit(fu.dim, Hop::Field { name });
                    }
                    if let Some(named) = name_dim(name) {
                        return hit(named.dim, Hop::Named { kind: Named::Field, name, at });
                    }
                    unresolved = true;
                }
                continue;
            }
            if in_path || toks.get(i + 1).is_some_and(|n| n.is_punct(':')) {
                // Path interiors and qualifiers; calls are handled above.
                continue;
            }
            if TIME_TYPES.contains(&name) {
                return hit(Dim::base("nanos"), Hop::TimeValue { name, at });
            }
            if let Some(l) = locals.find(name, i) {
                let (dim, chain) = l.val;
                return found(dim, chain, None, i, t.line);
            }
            if let Some(named) = name_dim(name) {
                return hit(named.dim, Hop::Named { kind: Named::Value, name, at });
            }
            if t.first.is_ascii_uppercase() {
                // A type/variant mention, not a value.
                let heads_literal = toks.get(i + 1).is_some_and(|n| n.is_punct('{'));
                if !heads_literal {
                    // Upper-case consts (e.g. `QUEUE_CAP`) are values we
                    // cannot resolve — poison like any unknown ident,
                    // unless the name carried a suffix (handled above).
                    if !name.bytes().any(|c| c.is_ascii_lowercase()) {
                        unresolved = true;
                    }
                }
                continue;
            }
            unresolved = true;
        }
        if unresolved {
            Inferred::unknown()
        } else {
            Inferred::scalar()
        }
    }

    /// Composes a factor into the running span result.
    fn combine(&self, acc: Inferred, f: Inferred, op: char) -> Inferred {
        let unit = if op == '/' { acc.unit.div(&f.unit) } else { acc.unit.mul(&f.unit) };
        let mut r = Inferred { unit, ..acc };
        if matches!(f.unit, Unit::Of(_)) {
            if acc.chain == Chain::EMPTY {
                (r.chain, r.via, r.tok, r.line) = (f.chain, f.via, f.tok, f.line);
            } else {
                if f.chain != Chain::EMPTY {
                    r.chain = self.hop(acc.chain, Hop::Scaled { div: op == '/', by: f.chain });
                }
                r.via = None;
            }
        }
        r
    }

    /// The site scan: walks every fn body for binary add/sub/compare/
    /// assign sites whose operands carry conflicting concrete units, and
    /// checks time-constructor and free-call arguments against their
    /// declared parameter units.
    fn site_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        let graph_mode = self.graph.has_entries();
        for (file, u) in self.units.iter().enumerate() {
            let scope = graph_mode.then(|| self.graph.scope_for(file));
            for (fk, f) in u.model.fns.iter().enumerate() {
                let locals = self.locals_for(file, fk);
                self.scan_ops(file, f.body, &locals, scope.as_ref(), &mut out);
                self.check_call_args(file, f.body, &locals, &mut out);
            }
        }
        out
    }

    /// Binary-operator scan over one body span.
    fn scan_ops(
        &self,
        file: usize,
        body: (usize, usize),
        locals: &ULocals<'a>,
        scope: Option<&crate::graph::FileScope>,
        out: &mut Vec<Finding>,
    ) {
        let u = &self.units[file];
        let toks = &u.lexed.tokens;
        let (b0, b1) = body;
        let mut i = b0;
        while i <= b1 && i < toks.len() {
            let Some((rhs_from, op_desc)) = binary_op_at(&u.lexed, i) else {
                i += 1;
                continue;
            };
            let left = operand_back(&u.lexed, i.saturating_sub(1), b0);
            let right = operand_fwd(&u.lexed, rhs_from, b1);
            if let (Some((ll, lh)), Some((rl, rh))) = (left, right) {
                let l = self.eval_span(file, ll, lh, locals);
                let r = self.eval_span(file, rl, rh, locals);
                if let (Unit::Of(ld), Unit::Of(rd)) = (&l.unit, &r.unit) {
                    if ld != rd {
                        out.push(self.mismatch_finding(
                            file,
                            i,
                            op_desc,
                            (ll, lh, &l, ld),
                            (rl, rh, &r, rd),
                            scope,
                        ));
                    }
                }
            }
            i = rhs_from;
        }
    }

    /// Builds the classified finding for one conflicting site.
    #[allow(clippy::too_many_arguments)]
    fn mismatch_finding(
        &self,
        file: usize,
        op_tok: usize,
        op_desc: &'static str,
        left: (usize, usize, &Inferred, &Dim),
        right: (usize, usize, &Inferred, &Dim),
        scope: Option<&crate::graph::FileScope>,
    ) -> Finding {
        let u = &self.units[file];
        let (lexed, toks) = (&u.lexed, &u.lexed.tokens);
        let (ll, lh, l, ld) = left;
        let (rl, rh, r, rd) = right;
        let lt = span_text(lexed, ll, lh);
        let rt = span_text(lexed, rl, rh);
        let lc = self.render(l.chain).join(" -> ");
        let rc = self.render(r.chain).join(" -> ");
        let is_cmp = matches!(op_desc, "comparison");
        let mentions_cfg = |lo: usize, hi: usize| {
            lexed.idents((lo, hi.min(toks.len() - 1))).any(|t| {
                let low = t.to_ascii_lowercase();
                low.contains("threshold") || low.contains("cfg") || low.contains("config")
            })
        };
        let (rule, advice) = if ld.is_rate() || rd.is_rate() {
            (
                id::RATE_CONFUSION,
                "a rate and a quantity of a different shape only combine through an explicit \
                 step factor (multiply the rate by `dt`/`dt_secs`, or divide by `ticks_per_sec`)",
            )
        } else if is_cmp
            && scope.is_some_and(|s| s.in_reach(op_tok))
            && (mentions_cfg(ll, lh) || mentions_cfg(rl, rh))
        {
            (
                id::THRESHOLD_UNIT,
                "a detector threshold must be configured in the unit it is compared against — \
                 convert at the config boundary, not at the comparison site",
            )
        } else {
            (
                id::UNIT_MISMATCH,
                "convert explicitly at the boundary (simcore::time constructors or the \
                 NANOS_PER_* consts) so both operands carry one unit",
            )
        };
        Finding {
            path: u.path.clone(),
            line: toks[op_tok].line,
            rule,
            message: format!(
                "unit mismatch in {op_desc}: `{lt}` is {} ({lc}) but `{rt}` is {} ({rc}); {advice}",
                ld.render(),
                rd.render()
            ),
        }
    }

    /// Checks time-constructor arguments (`from_secs` wants secs) and
    /// free-call arguments against the callee's parameter units.
    fn check_call_args(
        &self,
        file: usize,
        body: (usize, usize),
        locals: &ULocals<'a>,
        out: &mut Vec<Finding>,
    ) {
        let u = &self.units[file];
        let (b0, b1) = body;
        for fc in u.model.free_calls_in(b0, b1).iter().filter(|c| c.called) {
            let Some((open, close)) = call_args(&u.lexed, fc.name) else { continue };
            if close <= open + 1 {
                continue;
            }
            if let Some((q, ctor, expect)) = time_ctor(&u.lexed, fc) {
                let want = Dim::base(expect);
                let a = self.eval_span(file, open + 1, close - 1, locals);
                if let Unit::Of(ad) = &a.unit {
                    if *ad != want {
                        out.push(Finding {
                            path: u.path.clone(),
                            line: fc.line,
                            rule: id::UNIT_MISMATCH,
                            message: format!(
                                "unit mismatch in constructor argument: `{q}::{ctor}` expects \
                                 {expect} but `{}` is {} ({}); pick the constructor matching the \
                                 value's unit",
                                span_text(&u.lexed, open + 1, close - 1),
                                ad.render(),
                                self.render(a.chain).join(" -> ")
                            ),
                        });
                    }
                }
                continue;
            }
            let Some(&n) = self.graph.callees(file, fc.name).first() else { continue };
            let callee_params = &self.params[n];
            if callee_params.iter().all(|(_, d)| d.is_none()) {
                continue;
            }
            // A method called through its type's path (`S::wait(s, d)`)
            // takes its receiver as the first argument; `params` holds the
            // named parameters only.
            let callee = &self.graph.nodes[n];
            let receiver = self.units[callee.file].model.fns[callee.fn_idx].sig.receiver;
            let args = split_args(&u.lexed, open, close).into_iter();
            for (k, (alo, ahi)) in args.skip(usize::from(receiver != Receiver::None)).enumerate() {
                let Some((pname, Some(pd))) = callee_params.get(k) else { continue };
                let a = self.eval_span(file, alo, ahi, locals);
                if let Unit::Of(ad) = &a.unit {
                    if ad != pd {
                        out.push(Finding {
                            path: u.path.clone(),
                            line: fc.line,
                            rule: id::UNIT_MISMATCH,
                            message: format!(
                                "unit mismatch in call argument: parameter `{pname}` of `{}` \
                                 ({}:{}) is {} (declared by its name) but `{}` is {} ({}); \
                                 convert before the call",
                                callee.name,
                                self.units[callee.file].path,
                                callee.line,
                                pd.render(),
                                span_text(&u.lexed, alo, ahi),
                                ad.render(),
                                self.render(a.chain).join(" -> ")
                            ),
                        });
                    }
                }
            }
        }
    }

    /// The `raw-unit-conversion` pass: magic 10^3/10^6/10^9 integer
    /// literals adjacent to `*` or `/`, anywhere but `simcore::time`
    /// itself (the one blessed home of the conversion consts).
    fn raw_conversions(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for u in self.units.iter() {
            if u.path.ends_with("simcore/src/time.rs") {
                continue;
            }
            let toks = &u.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Num || !raw_conversion_int(u.lexed.text(i)) {
                    continue;
                }
                let scaled = [i.checked_sub(1).map(|p| &toks[p]), toks.get(i + 1)]
                    .into_iter()
                    .flatten()
                    .any(|n| n.is_punct('*') || n.is_punct('/'));
                if scaled {
                    out.push(Finding {
                        path: u.path.clone(),
                        line: t.line,
                        rule: id::RAW_UNIT_CONVERSION,
                        message: format!(
                            "magic unit-conversion literal `{}` — scale through simcore::time's \
                             named constructors (`from_micros`/`from_millis`/`from_secs`) or the \
                             NANOS_PER_MICRO/NANOS_PER_MILLI/NANOS_PER_SEC consts so the target \
                             unit stays explicit (a named count const is fine too)",
                            u.lexed.text(i)
                        ),
                    });
                }
            }
        }
        out
    }
}

/// The time constructor a free call names, `(type, name, unit its
/// argument takes)`: a `from_*` constructor qualified by a sim-time type.
fn time_ctor<'l>(lexed: &'l Lexed, fc: &FreeCall) -> Option<(&'l str, &'static str, &'static str)> {
    let ty = lexed.text(fc.qual().next_back()?);
    let &(name, unit) = TIME_CTORS.iter().find(|(n, _)| lexed.is_ident(fc.name, n))?;
    TIME_TYPES.contains(&ty).then_some((ty, name, unit))
}

/// The `return EXPR;` spans plus the trailing expression of a body. A
/// `return` inside a closure or a nested fn leaves that, not the body's
/// fn, and is skipped.
fn return_spans(u: &FileUnit, body: (usize, usize)) -> Vec<(usize, usize)> {
    let (lexed, toks) = (&u.lexed, &u.lexed.tokens);
    let (b0, b1) = body;
    let mut spans = Vec::new();
    let last = b1.min(toks.len().saturating_sub(1));
    let closures = closure_spans(lexed, b0, last);
    let own = |i: usize| {
        u.model.enclosing_fn(i).is_some_and(|f| f.body == body)
            && !closures.iter().any(|&(lo, hi)| lo < i && i <= hi)
    };
    for i in (b0 + 1..last).filter(|&i| lexed.is_ident(i, "return") && own(i)) {
        // `rhs_end` returns the expression's last token.
        if let Some(end) = rhs_end(lexed, i + 1) {
            spans.push((i + 1, end));
        }
    }
    // Trailing expression: whatever follows the body's last `;`.
    let semis = lexed.level(b0 + 1).take_while(|&i| i < last).filter(|&i| toks[i].is_punct(';'));
    let start = semis.last().map_or(b0 + 1, |semi| semi + 1);
    if start < last && !["for", "while", "loop", "let"].iter().any(|k| lexed.is_ident(start, k)) {
        spans.push((start, last - 1));
    }
    spans
}

/// The closures among the tokens `lo..hi`, each from the `|` that opens
/// its parameter list to its body's last token: the block or expression
/// up to the `,`, `;` or closer at the body's bracket level.
fn closure_spans(lexed: &Lexed, lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let opens = (lo..hi).filter(|&i| toks[i].is_punct('|') && parse::closure_opens_here(lexed, i));
    let spans = opens.filter_map(|i| {
        let pipe = (i + 1..hi).find(|&j| toks[j].is_punct('|'))?;
        Some((i, rhs_end(lexed, pipe + 1)?))
    });
    spans.collect()
}

/// True when token `i` can end a value, so that an operator after it is
/// binary: a non-keyword identifier, a number, or a closing `)` or `]`.
fn ends_value(lexed: &Lexed, i: usize) -> bool {
    let t = &lexed.tokens[i];
    (t.kind == TokKind::Ident && !parse::is_keyword(lexed.text(i)))
        || t.kind == TokKind::Num
        || t.is_punct(')')
        || t.is_punct(']')
}

/// Identifies a binary operator starting at token `i`; returns the index
/// the right operand starts at and a description of the op class.
fn binary_op_at(lexed: &Lexed, i: usize) -> Option<(usize, &'static str)> {
    let toks = &lexed.tokens;
    let op = toks[i].punct()?;
    let prev = i.checked_sub(1).map(|p| &toks[p]);
    let next = toks.get(i + 1);
    let prev_value = i.checked_sub(1).is_some_and(|p| ends_value(lexed, p));
    let prev_is = |c: char| prev.is_some_and(|p| p.is_punct(c));
    let next_is = |c: char| next.is_some_and(|n| n.is_punct(c));
    match op {
        b'+' | b'-' if prev_value && !next_is('>') && !next_is('=') => Some((i + 1, "addition")),
        b'+' | b'-' if prev_value && next_is('=') => Some((i + 2, "compound assignment")),
        b'<' if prev_value
            && !prev_is('<')
            && !prev_is(':')
            && !next_is('<')
            && !prev.is_some_and(|p| p.kind == TokKind::Ident && p.first.is_ascii_uppercase()) =>
        {
            Some((if next_is('=') { i + 2 } else { i + 1 }, "comparison"))
        }
        b'>' if prev_value && !prev_is('-') && !prev_is('=') && !prev_is('>') && !next_is('>') => {
            Some((if next_is('=') { i + 2 } else { i + 1 }, "comparison"))
        }
        // Plain `=` assignments are bindings, not combinations — the
        // binding rules (lets, field discovery) own those; only `==`
        // compares two existing quantities.
        b'=' if next_is('=')
            && !prev_is('=')
            && !prev_is('!')
            && !prev_is('<')
            && !prev_is('>')
            && !prev_is('+')
            && !prev_is('-')
            && !prev_is('*')
            && !prev_is('/')
            && !prev_is('%')
            && !prev_is('&')
            && !prev_is('|')
            && !prev_is('^') =>
        {
            Some((i + 2, "comparison"))
        }
        b'!' if next_is('=') => Some((i + 2, "comparison")),
        _ => None,
    }
}

/// True when token `j`, met walking an operand's bracket level (`back`
/// toward its start, else toward its end), is an expression boundary:
/// the operand lies strictly on this side of it.
fn ends_operand(lexed: &Lexed, j: usize, back: bool) -> bool {
    let (toks, t) = (&lexed.tokens, &lexed.tokens[j]);
    match t.kind {
        TokKind::Punct => match t.first {
            b';' | b',' | b'=' | b'<' | b'>' | b'+' | b'-' | b'&' | b'|' | b'?' | b':' => true,
            // Behind, the enclosing group's opener (or a `!`); ahead, its
            // closer. A `{` ends either walk: behind, it opens the
            // enclosing block; ahead, a block or struct body.
            b'(' | b'[' | b'!' => back,
            b')' | b']' | b'}' => !back,
            b'{' => true,
            // A `..` range.
            b'.' => {
                toks.get(j + 1).is_some_and(|n| n.is_punct('.'))
                    || (j > 0 && toks[j - 1].is_punct('.'))
            }
            _ => false,
        },
        TokKind::Ident => matches!(
            lexed.text(j),
            "return" | "let" | "if" | "else" | "while" | "match" | "in" | "for" | "loop"
        ),
        _ => false,
    }
}

/// Walks backward from `from`, at its bracket level, to find the left
/// operand span, stopping at an expression boundary or at `floor`.
/// Returns `(lo, hi)` inclusive.
fn operand_back(lexed: &Lexed, from: usize, floor: usize) -> Option<(usize, usize)> {
    if from < floor || from >= lexed.tokens.len() {
        return None;
    }
    let mut walk = lexed.level_back(from).take_while(|&j| j >= floor);
    let lo = walk.find(|&j| ends_operand(lexed, j, true)).map_or(floor, |j| j + 1);
    (lo <= from).then_some((lo, from))
}

/// Walks forward from `from`, at its bracket level, to find the right
/// operand span, stopping at an expression boundary or past `ceil`.
/// Returns `(lo, hi)` inclusive.
fn operand_fwd(lexed: &Lexed, from: usize, ceil: usize) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    if from >= toks.len() || from > ceil {
        return None;
    }
    let ceil = ceil.min(toks.len() - 1);
    let mut walk = lexed.level(from).take_while(|&j| j <= ceil);
    let j = walk.find(|&j| ends_operand(lexed, j, false)).unwrap_or(ceil + 1);
    (j > from).then_some((from, j - 1))
}

/// A short rendering of a token span for messages.
fn span_text(lexed: &Lexed, lo: usize, hi: usize) -> String {
    let hi = hi.min(lexed.tokens.len().saturating_sub(1));
    let mut parts: Vec<&str> = Vec::new();
    for k in (lo..=hi).take(10) {
        parts.push(match lexed.tokens[k].kind {
            TokKind::Str => "\"..\"",
            _ => lexed.text(k),
        });
    }
    let mut s = parts.join(" ");
    if hi.saturating_sub(lo) >= 10 {
        s.push_str(" ..");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FileUnit, Graph};

    fn nanos() -> Unit {
        Unit::Of(Dim::base("nanos"))
    }

    fn millis() -> Unit {
        Unit::Of(Dim::base("millis"))
    }

    #[test]
    fn join_is_commutative_and_idempotent() {
        let cases = [Unit::Unknown, Unit::Scalar, nanos(), millis(), Unit::Conflict];
        for a in &cases {
            assert_eq!(a.join(a), *a, "idempotent: {a:?}");
            for b in &cases {
                assert_eq!(a.join(b), b.join(a), "commutative: {a:?} vs {b:?}");
            }
        }
        assert_eq!(Unit::Unknown.join(&nanos()), nanos());
        assert_eq!(Unit::Scalar.join(&nanos()), nanos());
        assert_eq!(nanos().join(&millis()), Unit::Conflict);
    }

    #[test]
    fn mul_div_round_trips() {
        let rate = Dim::base("nanos").div(&Dim::base("secs"));
        assert_eq!(rate.mul(&Dim::base("secs")), Dim::base("nanos"));
        assert_eq!(Dim::base("nanos").div(&Dim::base("nanos")), Dim::default());
        assert!(Dim::base("nanos").div(&Dim::base("nanos")).is_empty());
        assert!(rate.is_rate());
        assert!(!Dim::base("ticks").is_rate());
        // Unit-level: same-unit division is a dimensionless ratio.
        assert_eq!(nanos().div(&nanos()), Unit::Scalar);
        assert_eq!(nanos().div(&Unit::Scalar), nanos());
        assert_eq!(Unit::Unknown.mul(&nanos()), Unit::Unknown);
    }

    #[test]
    fn dims_render_ascii() {
        assert_eq!(Dim::base("nanos").render(), "nanos");
        assert_eq!(Dim::base("nanos").div(&Dim::base("secs")).render(), "nanos/secs");
        assert_eq!(Dim::base("secs").inv().render(), "1/secs");
        assert_eq!(Dim::base("nanos").mul(&Dim::base("nanos")).render(), "nanos^2");
        assert_eq!(Dim::default().render(), "dimensionless");
    }

    #[test]
    fn names_declare_dimensions() {
        assert_eq!(name_dim("limit_ms").unwrap().dim, Dim::base("millis"));
        assert_eq!(name_dim("dt_secs").unwrap().dim, Dim::base("secs"));
        assert!(name_dim("dt").is_none(), "dt's unit comes from its type or binding");
        assert_eq!(
            name_dim("ticks_per_sec").unwrap().dim,
            Dim::base("ticks").div(&Dim::base("secs"))
        );
        assert_eq!(name_dim("open_per_sec").unwrap().dim, Dim::base("secs").inv());
        assert_eq!(name_dim("lba").unwrap().dim, Dim::base("blocks"));
        assert_eq!(
            name_dim("NANOS_PER_SEC").unwrap().dim,
            Dim::base("nanos").div(&Dim::base("secs"))
        );
        assert!(name_dim("attempts").is_none());
        assert!(name_dim("rows_per_million").is_none());
        // Labels quote the unit word lower-cased, whatever the name's case.
        for (name, label) in [
            ("NANOS_PER_SEC", "named `*_per_sec` (a nanos/secs rate)"),
            ("Per_Tick_budget", "named `per_tick` (a per-ticks rate)"),
            ("limit_MS", "suffixed `*_ms` (millis)"),
        ] {
            assert_eq!(name_dim(name).map(|n| n.label()).as_deref(), Some(label), "{name}");
        }
    }

    #[test]
    fn conversion_literals_are_recognized() {
        for t in ["1_000", "1000", "1_000_000u64", "1_000_000_000", "1e9", "1000.0"] {
            assert!(conversion_literal(t), "{t}");
        }
        for t in ["1_000", "1000u64", "1_000_000_000"] {
            assert!(raw_conversion_int(t), "{t}");
        }
        for t in ["1e9", "1000.0", "1024", "999"] {
            assert!(!raw_conversion_int(t), "{t}");
        }
        assert!(!conversion_literal("1024"));
    }

    #[test]
    fn a_composed_operand_prints_each_factor() {
        let units = [FileUnit::new(
            "crates/a/src/lib.rs".to_string(),
            "pub fn f(a_ms: u64, b_secs: u64, c_ticks: u64) -> bool { a_ms * b_secs < c_ticks } \
             pub fn g(a_ms: u64, b_secs: u64, c_ticks: u64) -> bool { a_ms / b_secs < c_ticks }",
        )];
        let (findings, _) = analyze(&units, &Graph::build(&units));
        assert_eq!(findings.len(), 2, "{findings:?}");
        let at = "(millis, crates/a/src/lib.rs) -> ";
        for (f, word) in findings.iter().zip(["scaled by", "divided by"]) {
            let chain = format!("parameter `a_ms` {at}{word} parameter `b_secs` (secs, ");
            assert!(f.message.contains(&chain), "{}", f.message);
        }
    }

    #[test]
    fn a_bool_or_char_return_carries_no_unit() {
        // A comparison's verdict and a tag hold no quantity, whatever the
        // fn's name says or its body compares.
        let units = [FileUnit::new(
            "crates/a/src/lib.rs".to_string(),
            "pub fn halted_at(t: SimTime, until: SimTime) -> bool { t < until } \
             pub fn over_ms(a_ms: u64) -> bool { a_ms > 3 } \
             pub fn tag_secs(c: char) -> char { c } \
             pub fn wait_ms(a_ms: u64) -> u64 { a_ms }",
        )];
        let graph = Graph::build(&units);
        let (_, sums) = analyze(&units, &graph);
        let summarized: Vec<&str> = graph
            .nodes
            .iter()
            .zip(&sums)
            .filter(|(_, s)| s.is_some())
            .map(|(n, _)| n.name)
            .collect();
        assert_eq!(summarized, ["wait_ms"]);
    }

    #[test]
    fn a_fields_first_valued_assignment_wins() {
        // `.v` is assigned millis, then secs: it learns millis, so the
        // comparison with secs is a mismatch that names the first value.
        let units = [FileUnit::new(
            "crates/a/src/lib.rs".to_string(),
            "pub struct S { pub v: u64 } impl S { \
             pub fn set(&mut self, a_ms: u64, b_secs: u64) { self.v = a_ms; self.v = b_secs; } \
             pub fn late(&self, c_secs: u64) -> bool { self.v < c_secs } }",
        )];
        let (findings, _) = analyze(&units, &Graph::build(&units));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, id::UNIT_MISMATCH);
        assert!(findings[0].message.contains("parameter `a_ms`"), "{}", findings[0].message);
    }
}
