//! Interprocedural effect analysis: prove the probe does not perturb.
//!
//! Fail-stutter tolerance rests on *observing* a component's performance
//! without distorting it. That was not proved — the taint pass
//! ([`crate::flow`]) tracks where nondeterminism
//! *flows*, not what a function *mutates*. This module is the third
//! summary pass over the workspace call graph: per-function **effect
//! sets**, computed to a fixpoint with the same via-link hop records the
//! taint and unit summaries carry.
//!
//! * **Direct effects** — discovered lexically inside each function body:
//!   `self.field = …` / compound assignments and std mutator calls
//!   (`push`, `insert`, `sort`, …) rooted on `self` (writes to the owning
//!   struct), on a `&mut` parameter (writes escaping through the
//!   signature, recorded against the parameter's type), or on a
//!   `SCREAMING_CASE` root (static writes); interior-mutability calls
//!   (`set`, `borrow_mut`, `lock`, `store`, `fetch_*`, …) on any
//!   non-local root; RNG draws (`next_u64`, `shuffle`, … in files naming
//!   `Stream`); and scheduler primitives (`schedule_*` in files naming
//!   the scheduler surface). Mutations of *locals* are not effects —
//!   they never escape the frame.
//! * **Propagation** — a caller inherits its callees' effects over the
//!   graph edges, each hop recording the callee node id (`via`) and the
//!   call line, so a finding prints the full caller→…→write chain. Two
//!   precision filters: an effect on the callee's own type does **not**
//!   propagate when every call site's receiver is a caller-local value
//!   (a locally constructed digest or detector is caller-owned state;
//!   mutating it perturbs nothing outside the frame), and a write
//!   through a callee's `&mut` parameter does not propagate when no
//!   argument can carry a mutable borrow of outside state into it
//!   (`&mut Cursor::default()` beside by-value parameters). Both filters,
//!   and the hop's line, come from one `EdgeUse` read per call edge.
//! * **Facts** — an [`Effect`] is a copyable record whose names borrow
//!   from the parsed files; its text is rendered by [`Effect::what`] only
//!   where a finding's chain or the export prints it.
//! * **Export** — per-node effect summaries ride along in `--graph-out`
//!   next to the taint and unit summaries.
//!
//! Three rules come out of this, checked in one walk over the non-test
//! nodes. Each is a scope test and a forbidden-owner test: in scope, a
//! static write or a scheduler call is always a finding, and a write or
//! an interior mutation is one when the rule forbids its owner.
//!
//! * `oracle-pure` — oracle-module functions and `*Detector` `&self`
//!   verdict methods reachable from the campaign runners
//!   (`run_scenario`/`run_all`) must be write-free on simulation state
//!   (`simcore` types, minus the oracle-owned `Stream`/`Fnv64`): a probe
//!   that perturbs the system invalidates its own verdict.
//! * `injection-scoped` — `*Injector` methods may write only their own
//!   fields and the surface types their struct declares; arbitrary sim
//!   state is off-limits (inject through the declared surface).
//! * `mitigation-effect` — policy-module hooks (shed/breaker) may write
//!   policy-owned state only: a mitigation that mutates server internals
//!   outside its API is exactly the sustaining effect the metastable
//!   literature warns about.
//!
//! Known, deliberate approximations: a `&mut` reborrow laundered through
//! a local (`let q = &mut self.queue; q.push(x)`) is invisible (the write
//! lands on a local root); struct-literal construction is not a write;
//! closure-variable calls contribute nothing. Each narrows the effect
//! sets slightly — the backstop, as everywhere in fs-lint, is that
//! `workspace_clean` keeps the whole tree finding-free.

use crate::graph::{bfs, FileUnit, Graph};
use crate::lexer::{Lexed, TokKind, Token};
use crate::parse::{is_keyword, FnSig, Param, Receiver};
use crate::rules::{id, Finding};
use crate::summary::{call_args, split_args};
use std::collections::{BTreeMap, BTreeSet};

/// Effect kind: a write to a struct field or through a `&mut` parameter.
pub const E_WRITE: &str = "write";
/// Effect kind: interior mutability (`Cell::set`, `RefCell::borrow_mut`,
/// atomics) — a write that needs no `&mut`.
pub const E_INTERIOR: &str = "interior-mut";
/// Effect kind: a write to a `static` (SCREAMING_CASE root).
pub const E_STATIC: &str = "static-write";
/// Effect kind: an RNG draw (`Stream::next_*`/`shuffle`/`choose`).
pub const E_RNG: &str = "rng-draw";
/// Effect kind: a scheduler primitive (`schedule_*`).
pub const E_SCHED: &str = "sched";

/// Per-node effect cap: summaries grow monotonically and a handful of
/// distinct (kind, owner, field) keys is plenty for every rule; the cap
/// bounds fixpoint work on pathological fan-in.
const MAX_EFFECTS: usize = 48;

/// Std mutator methods: calling one on a non-local root is a write.
/// `take`/`replace`/`next` are deliberately absent — they are pure (or
/// read-like) on `Option`/`Iterator`/`str` where they mostly appear.
const MUTATORS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "push_str",
    "pop",
    "pop_front",
    "pop_back",
    "insert",
    "remove",
    "clear",
    "extend",
    "extend_from_slice",
    "drain",
    "truncate",
    "retain",
    "append",
    "resize",
    "fill",
    "swap",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "dedup",
    "reverse",
];

/// Interior-mutability methods: a shared reference suffices to write.
const INTERIOR: &[&str] = &[
    "set",
    "borrow_mut",
    "lock",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// `simcore::rng::Stream` draw methods (all take `&mut self`);
/// `derive`/`derive_index`/`from_seed` are pure construction and absent.
const DRAWS: &[&str] = &[
    "next_u64",
    "next_f64",
    "next_below",
    "next_range",
    "next_f64_range",
    "next_bool",
    "shuffle",
    "choose",
];

/// Identifiers that gate scheduler-effect extraction: a file calling a
/// real scheduler primitive has to name the scheduler surface somewhere.
const SCHED_GATE: &[&str] = &["Scheduler", "Simulation"];

/// `simcore` types exempt from `oracle-pure`: oracles legitimately draw
/// from a `&mut Stream` (which writes `Stream.state`) and fold into a
/// locally owned `Fnv64`.
const ORACLE_EXEMPT: &[&str] = &["Stream", "Fnv64"];

/// One effect in a function's summary: a fact whose names borrow from
/// the parsed files.
#[derive(Debug, Clone, Copy)]
pub struct Effect<'a> {
    /// Effect kind ([`E_WRITE`], [`E_INTERIOR`], …), propagated unchanged
    /// along call chains.
    pub kind: &'static str,
    /// The written type (`Server`), static (`GLOBAL`), or surface
    /// (`Stream`, `scheduler`) the effect lands on.
    pub owner: &'a str,
    /// The written field, `*` for the whole value, or the primitive name
    /// for RNG/scheduler effects.
    pub field: &'a str,
    /// 1-based line of the write, or of the call that imported it.
    pub line: u32,
    /// The callee node id the effect arrived through, `None` at the root.
    pub via: Option<usize>,
}

impl<'a> Effect<'a> {
    /// A root effect: one the body produces itself.
    fn at(kind: &'static str, owner: &'a str, field: &'a str, line: u32) -> Effect<'a> {
        Effect { kind, owner, field, line, via: None }
    }

    /// True when two effects carry the same (kind, owner, field) key.
    fn same_key(&self, other: &Effect) -> bool {
        self.kind == other.kind && self.owner == other.owner && self.field == other.field
    }

    /// Human description of this hop: the call it arrived through, or the
    /// root write, draw or scheduler call.
    pub fn what(&self, graph: &Graph) -> String {
        let (owner, field) = (self.owner, self.field);
        match (self.via, self.kind) {
            (Some(m), _) => format!("calls `{}`", graph.nodes[m].name),
            (None, E_RNG) => format!("draws RNG (`Stream::{field}`)"),
            (None, E_SCHED) => format!("calls scheduler primitive `{field}`"),
            (None, E_INTERIOR) => format!("interior-mutates `{owner}.{field}`"),
            (None, E_STATIC) => format!("writes static `{owner}`"),
            (None, _) => format!("writes `{owner}.{field}`"),
        }
    }
}

/// One function's effect summary (only non-empty summaries are exported).
#[derive(Debug, Clone)]
pub struct EffectSummary<'a> {
    /// The effects, deduplicated by (kind, owner, field).
    pub effects: Vec<Effect<'a>>,
}

/// Adds `e` to a summary unless its key is present or the cap is hit.
fn add<'a>(effects: &mut Vec<Effect<'a>>, e: Effect<'a>) {
    if effects.len() < MAX_EFFECTS && !effects.iter().any(|x| x.same_key(&e)) {
        effects.push(e);
    }
}

/// The parameter of `sig` named `name`, if its type names a type (a
/// write through it needs an owner).
fn param<'s>(sig: &'s FnSig, name: &str) -> Option<&'s Param> {
    sig.params.iter().find(|p| p.name == name && !p.ty_name.is_empty())
}

/// Runs the effect analysis: the three rule findings plus the per-node
/// effect summaries, aligned with `graph.nodes` for `--graph-out`. Like
/// taint and units it needs edges, not entry roots, so fixture subsets
/// still prove their effect discipline.
pub fn analyze<'a>(
    units: &'a [FileUnit],
    graph: &'a Graph<'a>,
) -> (Vec<Finding>, Vec<Option<EffectSummary<'a>>>) {
    let summaries = (0..graph.nodes.len()).map(|n| direct_effects(units, graph, n)).collect();
    let mut eff = Effects { units, graph, summaries };
    eff.fixpoint();
    let findings = eff.scoped_writes();
    let summaries = eff
        .summaries
        .into_iter()
        .map(|v| if v.is_empty() { None } else { Some(EffectSummary { effects: v }) })
        .collect();
    (findings, summaries)
}

/// The effects node `n`'s body produces directly.
fn direct_effects<'a>(units: &'a [FileUnit], graph: &Graph<'a>, n: usize) -> Vec<Effect<'a>> {
    let node = &graph.nodes[n];
    let u = &units[node.file];
    let toks = &u.lexed.tokens;
    let (b0, b1) = node.body;
    let b1 = b1.min(toks.len().saturating_sub(1));
    let sig = sig_of(units, graph, n);
    let mut out = Vec::new();

    // Field and static assignments: `.field = …` / `.field op= …` and
    // deref writes `*param = …` through a `&mut` parameter.
    for i in b0..=b1 {
        if toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| matches!(t.kind, TokKind::Ident | TokKind::Num))
            && assign_after(toks, i + 2)
        {
            let written = u.lexed.text(i + 1);
            let line = toks[i + 1].line;
            let (root, hop) = receiver_root(&u.lexed, i);
            let Some(root) = root else { continue };
            let place = hop.unwrap_or(written);
            if root == "self" {
                if sig.receiver == Receiver::RefMut {
                    if let Some(owner) = node.owner {
                        add(&mut out, Effect::at(E_WRITE, owner, place, line));
                    }
                }
            } else if is_screaming(root) {
                add(&mut out, Effect::at(E_STATIC, root, written, line));
            } else if let Some(p) = param(sig, root) {
                if p.mut_ref {
                    add(&mut out, Effect::at(E_WRITE, &p.ty_name, place, line));
                }
            }
        }
        // `*param = …`: a whole-value write through a `&mut` parameter.
        if toks[i].is_punct('*')
            && (i == b0 || deref_position(&u.lexed, i - 1))
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && assign_after(toks, i + 2)
        {
            if let Some(p) = param(sig, u.lexed.text(i + 1)).filter(|p| p.mut_ref) {
                add(&mut out, Effect::at(E_WRITE, &p.ty_name, "*", toks[i + 1].line));
            }
        }
    }

    // Method calls: std mutators, interior mutability, RNG draws, and
    // scheduler primitives.
    let sched_gate = SCHED_GATE.iter().any(|g| graph.mentions(node.file, g));
    for c in u.model.calls_in(b0, b1) {
        let name = c.name.as_str();
        if DRAWS.contains(&name) && graph.mentions(node.file, "Stream") {
            add(&mut out, Effect::at(E_RNG, "Stream", name, c.line));
        }
        if sched_gate && name.starts_with("schedule") {
            add(&mut out, Effect::at(E_SCHED, "scheduler", name, c.line));
        }
        let is_mut = MUTATORS.contains(&name);
        let is_int = INTERIOR.contains(&name);
        if !is_mut && !is_int {
            continue;
        }
        let (root, hop) = receiver_root(&u.lexed, c.dot);
        let Some(root) = root else { continue };
        if root == "self" {
            // A bare `self.push()` is a call on a workspace method — the
            // graph edge carries its effects; only a field receiver
            // (`self.ring.push(..)`) is a std-container write here.
            let Some(h) = hop else { continue };
            if let Some(owner) = node.owner {
                if is_int {
                    add(&mut out, Effect::at(E_INTERIOR, owner, h, c.line));
                } else if sig.receiver == Receiver::RefMut {
                    add(&mut out, Effect::at(E_WRITE, owner, h, c.line));
                }
            }
        } else if is_screaming(root) {
            add(&mut out, Effect::at(E_STATIC, root, hop.unwrap_or("*"), c.line));
        } else if let Some(p) = param(sig, root) {
            let place = hop.unwrap_or("*");
            if is_int {
                add(&mut out, Effect::at(E_INTERIOR, &p.ty_name, place, c.line));
            } else if p.mut_ref {
                add(&mut out, Effect::at(E_WRITE, &p.ty_name, place, c.line));
            }
        }
    }
    // Free-call scheduler primitives (`schedule_event(&mut q, ..)`).
    if sched_gate {
        let free = u.model.free_calls_in(b0, b1).iter();
        for c in free.filter(|c| c.called && c.name.starts_with("schedule")) {
            add(&mut out, Effect::at(E_SCHED, "scheduler", &c.name, c.line));
        }
    }
    out
}

/// The analysis state: effect sets grow monotonically to a fixpoint.
struct Effects<'a> {
    units: &'a [FileUnit],
    graph: &'a Graph<'a>,
    /// Per-node effect sets, aligned with `graph.nodes`.
    summaries: Vec<Vec<Effect<'a>>>,
}

impl<'a> Effects<'a> {
    /// Iterates caller-inherits-callee propagation to a fixpoint. Effect
    /// sets only grow and are capped, so this terminates.
    fn fixpoint(&mut self) {
        let mut uses: BTreeMap<(usize, usize), EdgeUse> = BTreeMap::new();
        loop {
            let mut updates: Vec<(usize, Effect<'a>)> = Vec::new();
            for n in 0..self.graph.nodes.len() {
                if self.summaries[n].len() >= MAX_EFFECTS {
                    continue;
                }
                // `n`'s pending updates are the tail pushed from here on.
                let pending = updates.len();
                for &m in &self.graph.edges[n] {
                    if m == n || self.summaries[m].is_empty() {
                        continue;
                    }
                    let edge = *uses
                        .entry((n, m))
                        .or_insert_with(|| EdgeUse::read(self.units, self.graph, n, m));
                    let callee_owner = self.graph.nodes[m].owner;
                    let callee_params = &sig_of(self.units, self.graph, m).params;
                    for e in &self.summaries[m] {
                        // The precision filter: a write to the callee's
                        // own type stays put when every call site's
                        // receiver is a caller-local value.
                        if edge.owned_stays
                            && (e.kind == E_WRITE || e.kind == E_INTERIOR)
                            && callee_owner == Some(e.owner)
                        {
                            continue;
                        }
                        // Same idea for `&mut` parameters: a write the
                        // callee makes through one stays put when every
                        // call site passes `&mut <caller-local>` — e.g.
                        // `splitmix64(&mut sm)` mutates only the caller's
                        // own stack slot.
                        if edge.args_stay
                            && e.kind == E_WRITE
                            && callee_params.iter().any(|p| p.mut_ref && p.ty_name == e.owner)
                        {
                            continue;
                        }
                        if self.summaries[n].iter().any(|x| x.same_key(e))
                            || updates[pending..].iter().any(|(_, x)| x.same_key(e))
                        {
                            continue;
                        }
                        updates.push((n, Effect { line: edge.line, via: Some(m), ..*e }));
                    }
                }
            }
            if updates.is_empty() {
                break;
            }
            for (n, e) in updates {
                add(&mut self.summaries[n], e);
            }
        }
    }

    /// Renders the hop-by-hop chain from node `start`'s effect `e` down
    /// to the root write, caller first.
    fn chain(&self, start: usize, e: &Effect<'a>) -> String {
        let mut out = String::new();
        let (mut n, mut eff) = (start, *e);
        for _ in 0..16 {
            let node = &self.graph.nodes[n];
            out.push_str(&format!("`{}` ({}:{})", node.name, self.units[node.file].path, eff.line));
            let Some(m) = eff.via else {
                out.push_str(&format!(" -> {}", eff.what(self.graph)));
                break;
            };
            out.push_str(" -> ");
            let Some(next) = self.summaries[m].iter().find(|x| x.same_key(&eff)) else { break };
            (n, eff) = (m, *next);
        }
        out
    }

    /// The scoped-write rules in one walk over the non-test nodes. Each
    /// rule is a scope test (which nodes it checks) and a forbidden-owner
    /// test (whose writes it forbids there); [`flag`](Self::flag) does the
    /// rest.
    ///
    /// * `oracle-pure`: oracle-module functions and `*Detector` `&self`
    ///   verdict methods reachable from the campaign runners; simulation
    ///   state is forbidden.
    /// * `injection-scoped`: `*Injector` methods; anything outside the
    ///   injector's declared surface is forbidden.
    /// * `mitigation-effect`: methods of policy-module types and free
    ///   functions of policy modules; anything but policy-owned state is
    ///   forbidden. A free hook is checked even when no `policy` module
    ///   declares a type: it then owns no state at all.
    fn scoped_writes(&self) -> Vec<Finding> {
        let oracle_scope = self.oracle_scope();
        let sim_state = self.sim_state();
        let policy_types = self.policy_types();
        let mut findings = Vec::new();
        for (n, node) in self.graph.nodes.iter().enumerate().filter(|(_, node)| !node.in_test) {
            let verdict = match node.owner {
                None => node.in_module("oracle"),
                Some(t) => {
                    t.ends_with("Detector")
                        && matches!(
                            sig_of(self.units, self.graph, n).receiver,
                            Receiver::Value | Receiver::Ref
                        )
                }
            };
            if verdict && oracle_scope[n] {
                self.flag(n, id::ORACLE_PURE, |o| sim_state.contains(o), &mut findings);
            }
            if let Some(owner) = node.owner.filter(|t| t.ends_with("Injector")) {
                let surface = self.injector_surface(owner);
                self.flag(n, id::INJECTION_SCOPED, |o| !surface.contains(o), &mut findings);
            }
            let hook =
                node.owner.map_or_else(|| node.in_module("policy"), |t| policy_types.contains(t));
            if hook {
                let forbids = |o: &str| o != "Stream" && !policy_types.contains(o);
                self.flag(n, id::MITIGATION_EFFECT, forbids, &mut findings);
            }
        }
        findings
    }

    /// Reports node `n` under `rule` at its first forbidden effect, with
    /// the chain down to the write. A static write or a scheduler call is
    /// always forbidden; a write or an interior mutation when `forbids`
    /// its owner.
    fn flag(
        &self,
        n: usize,
        rule: &'static str,
        forbids: impl Fn(&str) -> bool,
        findings: &mut Vec<Finding>,
    ) {
        let Some(e) = self.summaries[n].iter().find(|e| match e.kind {
            E_STATIC | E_SCHED => true,
            E_WRITE | E_INTERIOR => forbids(e.owner),
            _ => false,
        }) else {
            return;
        };
        let node = &self.graph.nodes[n];
        let chain = self.chain(n, e);
        let message = match rule {
            id::ORACLE_PURE => format!(
                "oracle/detector verdict path mutates simulation state: {chain} — a probe that \
                 perturbs the system invalidates its own verdict; read state, never write it \
                 (route mutations through a handler outside the oracle, or hand the oracle an \
                 immutable view)"
            ),
            id::INJECTION_SCOPED => format!(
                "injector `{}::{}` writes outside its declared injection surface: {chain} — an \
                 injector may mutate only its own fields and the types its struct declares; \
                 inject other state through the simulation's handlers",
                node.owner.unwrap_or_default(),
                node.name
            ),
            _ => format!(
                "mitigation policy hook `{}` writes non-policy state: {chain} — a shed/breaker \
                 that mutates server internals outside its API becomes the sustaining effect \
                 itself; policies write policy-owned state only and act through returned \
                 decisions",
                node.name
            ),
        };
        findings.push(Finding {
            path: self.units[node.file].path.clone(),
            line: e.line,
            rule,
            message,
        });
    }

    /// `oracle-pure`'s reach: the nodes reachable from the campaign
    /// runners (`run_scenario`/`run_all`). Fixture subsets have no
    /// campaign runner; every node is in reach there, so single-rule
    /// fixtures still fire.
    fn oracle_scope(&self) -> Vec<bool> {
        let roots: Vec<usize> = self
            .graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                !n.in_test && n.owner.is_none() && (n.name == "run_scenario" || n.name == "run_all")
            })
            .map(|(i, _)| i)
            .collect();
        if roots.is_empty() {
            vec![true; self.graph.nodes.len()]
        } else {
            bfs(&self.graph.edges, roots.into_iter())
        }
    }

    /// Simulation state for `oracle-pure`: every struct a `simcore` file
    /// declares, and the scheduler surface, minus [`ORACLE_EXEMPT`].
    fn sim_state(&self) -> BTreeSet<&'a str> {
        let simcore =
            self.units.iter().filter(|u| u.mp.abs().first().is_some_and(|k| k == "simcore"));
        let mut sim_state: BTreeSet<&str> =
            simcore.flat_map(|u| u.model.structs.iter().map(|s| s.name.as_str())).collect();
        sim_state.extend(["Simulation", "Scheduler"]);
        for ex in ORACLE_EXEMPT {
            sim_state.remove(ex);
        }
        sim_state
    }

    /// The types `policy` modules declare: their structs and impl types.
    fn policy_types(&self) -> BTreeSet<&'a str> {
        let policy = self.units.iter().filter(|u| u.mp.abs().iter().skip(1).any(|m| m == "policy"));
        policy
            .flat_map(|u| {
                let structs = u.model.structs.iter().map(|s| s.name.as_str());
                structs.chain(u.model.impls.iter().map(|im| im.type_name.as_str()))
            })
            .collect()
    }

    /// The injector `owner`'s declared injection surface: its own type,
    /// the RNG it draws from, and every type named in its struct body
    /// (its fields *are* its declared surface).
    fn injector_surface(&self, owner: &'a str) -> BTreeSet<&'a str> {
        let mut surface = BTreeSet::from([owner, "Stream"]);
        for u in self.units {
            let last = u.lexed.tokens.len().saturating_sub(1);
            for s in u.model.structs.iter().filter(|s| s.name == owner) {
                let types = u.lexed.idents((s.body.0, s.body.1.min(last)));
                surface.extend(types.filter(|t| t.starts_with(char::is_uppercase)));
            }
        }
        surface
    }
}

/// Node `n`'s signature.
fn sig_of<'u>(units: &'u [FileUnit], graph: &Graph, n: usize) -> &'u FnSig {
    let node = &graph.nodes[n];
    &units[node.file].model.fns[node.fn_idx].sig
}

/// How caller `n` uses callee `m`, read in one walk over the call sites
/// in `n`'s body that reach `m`: the hop's line and the two precision
/// filters.
#[derive(Clone, Copy)]
struct EdgeUse {
    /// The line of the first call site that reaches `m`; `n`'s own line
    /// when none does.
    line: u32,
    /// The callee's writes to its own type stay inside `n`: every method
    /// call that reaches it has a caller-local receiver root (not `self`,
    /// not a parameter, not a static), there is at least one, and no free
    /// call (UFCS `Fnv64::write(&mut h, x)`) reaches it. A locally
    /// constructed digest or detector is caller-owned — mutating it is
    /// not an external effect.
    owned_stays: bool,
    /// No argument `n` passes to the callee can carry a mutable borrow of
    /// state `n` does not own, and there is at least one call. Then
    /// whatever the callee writes through its `&mut` params lands in `n`'s
    /// own stack slots (`splitmix64(&mut sm)`, `entry_from(&mut
    /// Cursor::default(), at)`) and is not an external effect of `n`.
    /// Each argument is judged by its shape:
    ///
    /// * `&mut expr` carries one when a root of `expr` is not a
    ///   caller-local (it is `self`, one of `n`'s parameters, or a static);
    /// * a bare root carries one when it is a `&mut` parameter (a
    ///   `mid(srv)` reborrow), `self` under a `&mut self` receiver, or a
    ///   static; a by-value or shared parameter carries none;
    /// * any other shape is judged conservatively: any root that is not a
    ///   caller-local counts.
    args_stay: bool,
}

impl EdgeUse {
    /// Reads how caller `n` uses callee `m`.
    fn read(units: &[FileUnit], graph: &Graph, n: usize, m: usize) -> EdgeUse {
        let node = &graph.nodes[n];
        let u = &units[node.file];
        let (lexed, toks) = (&u.lexed, &u.lexed.tokens);
        let sig = sig_of(units, graph, n);
        let local =
            |root: &str| root != "self" && !is_screaming(root) && param(sig, root).is_none();
        // The argument `[lo, hi]` carries no mutable borrow in from
        // outside. Only chain roots count: `x` in `x.len()` does, `len`
        // does not, and path segments after `:` are not value roots
        // either.
        let arg_stays = |(lo, hi): (usize, usize)| {
            if hi == lo && toks[lo].kind == TokKind::Ident {
                let root = lexed.text(lo);
                let mut_self = root == "self" && sig.receiver == Receiver::RefMut;
                let mut_param = param(sig, root).is_some_and(|p| p.mut_ref);
                return !(mut_self || mut_param || is_screaming(root));
            }
            let mut_borrow = toks[lo].is_punct('&') && lexed.is_ident(lo + 1, "mut");
            (if mut_borrow { lo + 2 } else { lo }..=hi).all(|i| {
                toks[i].kind != TokKind::Ident
                    || toks[i - 1].is_punct('.')
                    || toks[i - 1].is_punct(':')
                    || (lexed.text(i) != "self" && is_keyword(lexed.text(i)))
                    || local(lexed.text(i))
            })
        };
        let args_stay = |(open, close): (usize, usize)| {
            split_args(&u.lexed, open, close).into_iter().all(arg_stays)
        };
        let mut line = None;
        let (mut owned_stays, mut args_ok) = (true, true);
        let (mut saw_method, mut saw_call) = (false, false);
        // A site's token is a method call's `.` or a free call's name.
        for (tok, at) in graph.sites_to(n, m) {
            line.get_or_insert(at);
            if let [c] = u.model.calls_in(tok, tok) {
                saw_method = true;
                owned_stays = owned_stays && receiver_root(&u.lexed, c.dot).0.is_some_and(local);
                args_ok = args_ok && args_stay(c.args);
            } else if let [c] = u.model.free_calls_in(tok, tok) {
                owned_stays = false;
                if c.called {
                    saw_call = true;
                    args_ok = args_ok && call_args(&u.lexed, c.tok).is_some_and(args_stay);
                }
            }
        }
        EdgeUse {
            line: line.unwrap_or(node.line),
            owned_stays: owned_stays && saw_method,
            args_stay: args_ok && (saw_method || saw_call),
        }
    }
}

/// True for a `SCREAMING_CASE` static name (`GLOBAL`, `NANOS_PER_SEC`).
fn is_screaming(s: &str) -> bool {
    s.len() >= 2
        && s.starts_with(|c: char| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// True when the token at `k` (after a field ident) begins an assignment:
/// `=` (but not `==`/`=>`) or a compound `op=`.
fn assign_after(toks: &[Token], k: usize) -> bool {
    match toks.get(k).and_then(Token::punct) {
        Some(b'=') => !toks.get(k + 1).is_some_and(|x| x.is_punct('=') || x.is_punct('>')),
        Some(b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^') => {
            toks.get(k + 1).is_some_and(|x| x.is_punct('='))
        }
        _ => false,
    }
}

/// True when the token `prev`, just before a `*`, puts it at deref (not
/// multiply) position: a statement/expression opener.
fn deref_position(lexed: &Lexed, prev: usize) -> bool {
    let t = &lexed.tokens[prev];
    match t.kind {
        TokKind::Punct => matches!(t.first, b';' | b'{' | b'(' | b',' | b'='),
        TokKind::Ident => matches!(lexed.text(prev), "let" | "return" | "else"),
        _ => false,
    }
}

/// Walks a receiver chain leftward from the `.` at `dot`, returning the
/// chain's root identifier and the first hop after it, as the tokens
/// spell them: `self.ring.push_back(..)` → `(Some("self"),
/// Some("ring"))`, `srv.depth = 0` → `(Some("srv"), None)`. Call and
/// index groups are skipped backward; a chain starting at an operator has
/// no root.
fn receiver_root(lexed: &Lexed, dot: usize) -> (Option<&str>, Option<&str>) {
    let toks = &lexed.tokens;
    let mut root: Option<&str> = None;
    let mut hop: Option<&str> = None;
    let mut i = dot;
    loop {
        let Some(mut j) = i.checked_sub(1) else { return (root, hop) };
        while toks[j].is_punct('?') {
            let Some(p) = j.checked_sub(1) else { return (root, hop) };
            j = p;
        }
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') {
            let Some(open) = lexed.partner(j) else { return (None, None) };
            i = open;
            continue;
        }
        if matches!(t.kind, TokKind::Ident | TokKind::Num) {
            let text = lexed.text(j);
            if t.kind == TokKind::Ident && is_keyword(text) && text != "self" {
                return (root, hop);
            }
            hop = root.take();
            root = Some(text);
            if j >= 1 && toks[j - 1].is_punct('.') {
                i = j - 1;
                continue;
            }
            return (root, hop);
        }
        return (root, hop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(path: &str, src: &str) -> FileUnit {
        FileUnit::new(path.to_string(), src)
    }

    fn node_id(g: &Graph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).unwrap_or_else(|| panic!("no node {name}"))
    }

    fn effects_of<'a>(
        sums: &[Option<EffectSummary<'a>>],
        g: &Graph,
        name: &str,
    ) -> Vec<Effect<'a>> {
        sums[node_id(g, name)].as_ref().map_or(Vec::new(), |s| s.effects.clone())
    }

    #[test]
    fn receiver_roots_walk_chains_and_groups() {
        let u = unit(
            "crates/a/src/lib.rs",
            "fn f() { self.ring.push_back(x); srv.depth = 0; self.items[i].clear(); \
             GLOBAL.store(1); make().reverse(); }",
        );
        let toks = &u.lexed.tokens;
        let dots: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.is_punct('.') && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
            })
            .map(|(i, _)| i)
            .collect();
        let root_for = |method: &str| {
            let d = *dots
                .iter()
                .find(|&&i| u.lexed.text(i + 1) == method)
                .unwrap_or_else(|| panic!("no .{method}"));
            receiver_root(&u.lexed, d)
        };
        assert_eq!(root_for("push_back"), (Some("self"), Some("ring")));
        assert_eq!(root_for("depth"), (Some("srv"), None));
        assert_eq!(root_for("clear"), (Some("self"), Some("items")));
        assert_eq!(root_for("store"), (Some("GLOBAL"), None));
        assert_eq!(root_for("reverse"), (Some("make"), None));
    }

    #[test]
    fn direct_effects_classify_roots() {
        let units = [unit(
            "crates/a/src/lib.rs",
            "pub struct W { ring: Vec<u64>, depth: u64 } \
             impl W { \
               pub fn touch(&mut self, srv: &mut Server, n: usize) { \
                 self.depth = n as u64; self.ring.push(1); srv.queue.clear(); \
                 let mut local = Vec::new(); local.push(n); \
               } \
               pub fn peek(&self, srv: &Server) -> u64 { srv.depth } \
             }",
        )];
        let g = Graph::build(&units);
        let (_, sums) = analyze(&units, &g);
        let touch = effects_of(&sums, &g, "touch");
        let keys: Vec<_> = touch.iter().map(|e| (e.kind, e.owner, e.field)).collect();
        assert!(keys.contains(&(E_WRITE, "W", "depth")), "{keys:?}");
        assert!(keys.contains(&(E_WRITE, "W", "ring")), "{keys:?}");
        assert!(keys.contains(&(E_WRITE, "Server", "queue")), "{keys:?}");
        assert!(
            !keys.iter().any(|&(_, o, _)| o == "Vec" || o == "local"),
            "local mutation is not an effect: {keys:?}"
        );
        assert!(effects_of(&sums, &g, "peek").is_empty(), "reads are not effects");
    }

    #[test]
    fn effects_propagate_with_via_links() {
        let units = [
            unit(
                "crates/a/src/lib.rs",
                "pub fn top(srv: &mut Server) { mid(srv); } \
                 pub fn mid(srv: &mut Server) { beta::poke(srv); }",
            ),
            unit("crates/beta/src/lib.rs", "pub fn poke(srv: &mut Server) { srv.depth = 0; }"),
        ];
        let g = Graph::build(&units);
        let (_, sums) = analyze(&units, &g);
        let top = effects_of(&sums, &g, "top");
        assert_eq!(top.len(), 1, "{top:?}");
        assert_eq!(top[0].via, Some(node_id(&g, "mid")), "two-hop chain records the callee");
        assert_eq!((top[0].kind, top[0].owner), (E_WRITE, "Server"));
    }

    #[test]
    fn locally_owned_callee_state_stays_contained() {
        // `ufcs`'s method call alone has a caller-local receiver; its UFCS
        // call of the same name is what keeps the write.
        let units = [unit(
            "crates/a/src/lib.rs",
            "pub struct Fnv64 { state: u64 } \
             impl Fnv64 { pub fn write(&mut self, x: u64) { self.state ^= x; } } \
             pub fn digest(xs: &[u64]) -> u64 { \
               let mut h = Fnv64 { state: 0 }; for x in xs { h.write(*x); } h.state } \
             pub fn leak(h: &mut Fnv64) { h.write(1); } \
             pub fn ufcs() -> u64 { \
               let mut h = Fnv64 { state: 0 }; h.write(2); Fnv64::write(&mut h, 1); h.state }",
        )];
        let g = Graph::build(&units);
        let (_, sums) = analyze(&units, &g);
        assert!(
            effects_of(&sums, &g, "digest").is_empty(),
            "a locally constructed digest is caller-owned"
        );
        for name in ["leak", "ufcs"] {
            let got = effects_of(&sums, &g, name);
            assert!(
                got.iter().any(|e| e.kind == E_WRITE && e.owner == "Fnv64"),
                "a &mut-param receiver escapes, and a free call naming the callee voids \
                 containment: `{name}` {got:?}"
            );
        }
    }

    #[test]
    fn a_hop_names_the_line_of_the_call_that_reaches_the_callee() {
        // `a::run` and `b::run` share a name and only `b::run` writes: the
        // hop, and the chain, cite line 4, the `b::run(..)` call.
        let units = [
            unit(
                "crates/meta/src/lib.rs",
                "pub mod a; pub mod b; pub mod policy; pub struct Server { pub queue: Vec<u64> }",
            ),
            unit("crates/meta/src/a.rs", "pub fn run(n: u64) -> u64 { n + 1 }"),
            unit("crates/meta/src/b.rs", "pub fn run(s: &mut crate::Server) { s.queue.clear(); }"),
            unit(
                "crates/meta/src/policy.rs",
                "use crate::{a, b};\n\
                 pub fn shed(srv: &mut crate::Server) -> u64 {\n\
                 let n = a::run(1);\n\
                 b::run(srv);\n\
                 n }",
            ),
        ];
        let g = Graph::build(&units);
        let (findings, sums) = analyze(&units, &g);
        let b_run = g.nodes.iter().position(|n| n.name == "run" && n.file == 2);
        let hops: Vec<_> = effects_of(&sums, &g, "shed").iter().map(|e| (e.via, e.line)).collect();
        assert_eq!(hops, [(b_run, 4)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let chain = "`shed` (crates/meta/src/policy.rs:4) -> `run`";
        assert!(findings[0].message.contains(chain), "{}", findings[0].message);
    }

    #[test]
    fn only_arguments_that_can_carry_a_mut_borrow_export_a_callee_write() {
        let units = [unit(
            "crates/a/src/lib.rs",
            "pub struct Cur { pub seg: u64 } \
             pub static GLOBAL: Cur = Cur { seg: 0 }; \
             pub fn step(c: &mut Cur, at: u64) { c.seg = at; } \
             pub fn fresh(at: u64, by: &u64) { step(&mut Cur::default(), at + *by); } \
             pub fn by_value(at: u64) { step(&mut Cur::default(), at); } \
             pub fn through(c: &mut Cur, at: u64) { step(c, at); } \
             pub fn reborrow(c: &mut Cur) { step(&mut *c, 1); } \
             pub fn field(c: &mut Cur) { step(&mut Cur::default(), c.seg); } \
             pub fn global() { step(GLOBAL, 2); } \
             impl Cur { pub fn again(&mut self) { step(self, 3); } \
                        pub fn look(&self) { step(&mut Cur::default(), 4); } }",
        )];
        let g = Graph::build(&units);
        let (_, sums) = analyze(&units, &g);
        let writes = |name: &str| {
            effects_of(&sums, &g, name).iter().any(|e| e.kind == E_WRITE && e.owner == "Cur")
        };
        for name in ["by_value", "look"] {
            assert!(!writes(name), "`{name}` passes only a temporary and plain values");
        }
        for name in ["through", "reborrow", "global", "again"] {
            assert!(writes(name), "`{name}` passes a `&mut` borrow it does not own");
        }
        // Shapes that are neither `&mut expr` nor a bare root stay
        // conservative: a parameter anywhere in them counts.
        for name in ["fresh", "field"] {
            assert!(writes(name), "`{name}` is judged conservatively");
        }
    }

    #[test]
    fn oracle_pure_fires_across_crates_and_exempts_stream() {
        let units = [
            unit(
                "crates/camp/src/lib.rs",
                "pub mod oracle; \
                 pub fn run_scenario(sim: &mut simcore::Server, rng: &mut simcore::Stream) { \
                   oracle::check(sim); oracle::sample(rng); }",
            ),
            unit(
                "crates/camp/src/oracle.rs",
                "pub fn check(sim: &mut Server) { simcore::poke(sim); } \
                 pub fn sample(rng: &mut Stream) -> u64 { rng.next_u64() }",
            ),
            unit(
                "crates/simcore/src/lib.rs",
                "pub struct Server { pub depth: u64 } \
                 pub struct Stream { state: u64 } \
                 impl Stream { pub fn next_u64(&mut self) -> u64 { self.state += 1; self.state } } \
                 pub fn poke(sim: &mut Server) { sim.depth = 0; }",
            ),
        ];
        let g = Graph::build(&units);
        let (findings, _) = analyze(&units, &g);
        let pure: Vec<_> = findings.iter().filter(|f| f.rule == id::ORACLE_PURE).collect();
        assert_eq!(pure.len(), 1, "{findings:?}");
        assert!(pure[0].message.contains("`check`"), "{}", pure[0].message);
        assert!(pure[0].message.contains("`poke`"), "chain prints hops: {}", pure[0].message);
        assert!(
            !pure[0].message.contains("sample"),
            "Stream draws are oracle-legitimate: {findings:?}"
        );
    }

    #[test]
    fn injection_scope_is_the_declared_surface() {
        let units = [unit(
            "crates/a/src/lib.rs",
            "pub struct Disk { pub speed: u64 } pub struct Server { pub depth: u64 } \
             pub struct FaultInjector { target: Disk } \
             impl FaultInjector { \
               pub fn fire(&self, srv: &mut Server) { srv.depth = 0; } \
               pub fn stutter(&mut self, d: &mut Disk) { d.speed = 1; self.target.speed = 2; } \
             }",
        )];
        let g = Graph::build(&units);
        let (findings, _) = analyze(&units, &g);
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == id::INJECTION_SCOPED).collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("`fire`"), "{}", hits[0].message);
    }

    #[test]
    fn mitigation_writes_policy_state_only() {
        let units = [
            unit(
                "crates/meta/src/policy.rs",
                "pub struct Shed { level: u64 } \
                 impl Shed { \
                   pub fn tune(&mut self) { self.level += 1; } \
                   pub fn apply(&mut self, srv: &mut Server) { srv.queue.clear(); } \
                 }",
            ),
            unit(
                "crates/meta/src/lib.rs",
                "pub mod policy; pub struct Server { pub queue: Vec<u64> }",
            ),
        ];
        let g = Graph::build(&units);
        let (findings, _) = analyze(&units, &g);
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == id::MITIGATION_EFFECT).collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("`apply`"), "{}", hits[0].message);
    }

    #[test]
    fn scheduler_and_static_effects_are_recorded() {
        let units = [unit(
            "crates/a/src/lib.rs",
            "pub fn arm(sim: &mut Simulation) { sim.schedule_at(5); } \
             pub fn bump() { COUNTER.fetch_add(1, Relaxed); }",
        )];
        let g = Graph::build(&units);
        let (_, sums) = analyze(&units, &g);
        let arm = effects_of(&sums, &g, "arm");
        assert!(arm.iter().any(|e| e.kind == E_SCHED && e.field == "schedule_at"), "{arm:?}");
        let bump = effects_of(&sums, &g, "bump");
        assert!(bump.iter().any(|e| e.kind == E_STATIC && e.owner == "COUNTER"), "{bump:?}");
    }
}
