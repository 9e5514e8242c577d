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
//!   call line, so a finding prints the full caller→…→write chain. One
//!   precision filter: an effect on the callee's own type does **not**
//!   propagate when every call site's receiver is a caller-local value
//!   (a locally constructed digest or detector is caller-owned state;
//!   mutating it perturbs nothing outside the frame).
//! * **Export** — per-node effect summaries ride along in `--graph-out`
//!   next to the taint and unit summaries.
//!
//! Three rules come out of this:
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
use crate::summary::call_args;
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

/// One effect in a function's summary.
#[derive(Debug, Clone)]
pub struct Effect {
    /// Effect kind ([`E_WRITE`], [`E_INTERIOR`], …), propagated unchanged
    /// along call chains.
    pub kind: &'static str,
    /// The written type (`Server`), static (`GLOBAL`), or surface
    /// (`Stream`, `scheduler`) the effect lands on.
    pub owner: String,
    /// The written field, `*` for the whole value, or the primitive name
    /// for RNG/scheduler effects.
    pub field: String,
    /// 1-based line of the write, or of the call that imported it.
    pub line: u32,
    /// The callee node id the effect arrived through, `None` at the root.
    pub via: Option<usize>,
    /// Human description of this hop.
    pub what: String,
}

/// One function's effect summary (only non-empty summaries are exported).
#[derive(Debug, Clone)]
pub struct EffectSummary {
    /// The effects, deduplicated by (kind, owner, field).
    pub effects: Vec<Effect>,
}

/// True when two effects carry the same (kind, owner, field) key.
fn same_key(a: &Effect, b: &Effect) -> bool {
    a.kind == b.kind && a.owner == b.owner && a.field == b.field
}

/// Adds `e` to a summary unless its key is present or the cap is hit.
fn add(effects: &mut Vec<Effect>, e: Effect) {
    if effects.len() < MAX_EFFECTS && !effects.iter().any(|x| same_key(x, &e)) {
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
pub fn analyze(units: &[FileUnit], graph: &Graph) -> (Vec<Finding>, Vec<Option<EffectSummary>>) {
    let mut eff = Effects::new(units, graph);
    eff.fixpoint();
    let mut findings = Vec::new();
    eff.oracle_pure(&mut findings);
    eff.injection_scoped(&mut findings);
    eff.mitigation_effect(&mut findings);
    let summaries = eff
        .summaries
        .into_iter()
        .map(|v| if v.is_empty() { None } else { Some(EffectSummary { effects: v }) })
        .collect();
    (findings, summaries)
}

/// The analysis state: effect sets grow monotonically to a fixpoint.
struct Effects<'a> {
    units: &'a [FileUnit],
    graph: &'a Graph<'a>,
    /// Per-node effect sets, aligned with `graph.nodes`.
    summaries: Vec<Vec<Effect>>,
}

impl<'a> Effects<'a> {
    fn new(units: &'a [FileUnit], graph: &'a Graph<'a>) -> Effects<'a> {
        let mut eff = Effects { units, graph, summaries: vec![Vec::new(); graph.nodes.len()] };
        for n in 0..graph.nodes.len() {
            let direct = eff.direct_effects(n);
            for e in direct {
                add(&mut eff.summaries[n], e);
            }
        }
        eff
    }

    /// The effects node `n`'s body produces directly.
    fn direct_effects(&self, n: usize) -> Vec<Effect> {
        let node = &self.graph.nodes[n];
        let u = &self.units[node.file];
        let toks = &u.lexed.tokens;
        let (b0, b1) = node.body;
        let b1 = b1.min(toks.len().saturating_sub(1));
        let sig = sig_of(self.units, self.graph, n);
        let mut out = Vec::new();

        // Field and static assignments: `.field = …` / `.field op= …` and
        // deref writes `*param = …` through a `&mut` parameter.
        for i in b0..=b1 {
            if toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| matches!(t.kind, TokKind::Ident | TokKind::Num))
                && assign_after(toks, i + 2)
            {
                let written = toks[i + 1].text.to_string();
                let line = toks[i + 1].line;
                let (root, hop) = receiver_root(&u.lexed, i);
                let Some(root) = root else { continue };
                let place = hop.unwrap_or_else(|| written.clone());
                if root == "self" {
                    if sig.receiver == Receiver::RefMut {
                        if let Some(owner) = &node.owner {
                            out.push(write_effect(E_WRITE, owner.clone(), place, line));
                        }
                    }
                } else if is_screaming(&root) {
                    out.push(write_effect(E_STATIC, root, written, line));
                } else if let Some(p) = param(sig, &root) {
                    if p.mut_ref {
                        out.push(write_effect(E_WRITE, p.ty_name.clone(), place, line));
                    }
                }
            }
            // `*param = …`: a whole-value write through a `&mut` parameter.
            if toks[i].is_punct('*')
                && (i == b0 || deref_position(&toks[i - 1]))
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
                && assign_after(toks, i + 2)
            {
                if let Some(p) = param(sig, &toks[i + 1].text).filter(|p| p.mut_ref) {
                    let line = toks[i + 1].line;
                    out.push(write_effect(E_WRITE, p.ty_name.clone(), "*".to_string(), line));
                }
            }
        }

        // Method calls: std mutators, interior mutability, RNG draws, and
        // scheduler primitives.
        let sched_gate = SCHED_GATE.iter().any(|g| self.graph.mentions(node.file, g));
        for c in u.model.calls_in(b0, b1) {
            let name = c.name.as_str();
            if DRAWS.contains(&name) && self.graph.mentions(node.file, "Stream") {
                out.push(Effect {
                    kind: E_RNG,
                    owner: "Stream".to_string(),
                    field: c.name.clone(),
                    line: c.line,
                    via: None,
                    what: format!("draws RNG (`Stream::{name}`)"),
                });
            }
            if sched_gate && name.starts_with("schedule") {
                out.push(sched_effect(c.name.clone(), c.line));
            }
            let is_mut = MUTATORS.contains(&name);
            let is_int = INTERIOR.contains(&name);
            if !is_mut && !is_int {
                continue;
            }
            let (root, hop) = receiver_root(&u.lexed, c.dot);
            let Some(root) = root else { continue };
            if root == "self" {
                // A bare `self.push()` is a call on a workspace method —
                // the graph edge carries its effects; only a field
                // receiver (`self.ring.push(..)`) is a std-container
                // write here.
                let Some(h) = hop else { continue };
                if let Some(owner) = &node.owner {
                    if is_int {
                        out.push(write_effect(E_INTERIOR, owner.clone(), h, c.line));
                    } else if sig.receiver == Receiver::RefMut {
                        out.push(write_effect(E_WRITE, owner.clone(), h, c.line));
                    }
                }
            } else if is_screaming(&root) {
                out.push(write_effect(
                    E_STATIC,
                    root,
                    hop.unwrap_or_else(|| "*".to_string()),
                    c.line,
                ));
            } else if let Some(p) = param(sig, &root) {
                let place = hop.unwrap_or_else(|| "*".to_string());
                if is_int {
                    out.push(write_effect(E_INTERIOR, p.ty_name.clone(), place, c.line));
                } else if p.mut_ref {
                    out.push(write_effect(E_WRITE, p.ty_name.clone(), place, c.line));
                }
            }
        }
        // Free-call scheduler primitives (`schedule_event(&mut q, ..)`).
        if sched_gate {
            for c in u
                .model
                .free_calls_in(b0, b1)
                .iter()
                .filter(|c| c.called && c.name.starts_with("schedule"))
            {
                out.push(sched_effect(c.name.clone(), c.line));
            }
        }
        out
    }

    /// Iterates caller-inherits-callee propagation to a fixpoint. Effect
    /// sets only grow and are capped, so this terminates.
    fn fixpoint(&mut self) {
        let mut contained: BTreeMap<(usize, usize), bool> = BTreeMap::new();
        let mut arg_local: BTreeMap<(usize, usize), bool> = BTreeMap::new();
        loop {
            let mut updates: Vec<(usize, Effect)> = Vec::new();
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
                    let owned_stays = *contained
                        .entry((n, m))
                        .or_insert_with(|| callee_contained(self.units, self.graph, n, m));
                    let args_stay = *arg_local
                        .entry((n, m))
                        .or_insert_with(|| mut_args_stay_local(self.units, self.graph, n, m));
                    let callee_owner = self.graph.nodes[m].owner.as_deref();
                    for k in 0..self.summaries[m].len() {
                        let e = &self.summaries[m][k];
                        // The precision filter: a write to the callee's
                        // own type stays put when every call site's
                        // receiver is a caller-local value.
                        if owned_stays
                            && (e.kind == E_WRITE || e.kind == E_INTERIOR)
                            && callee_owner == Some(e.owner.as_str())
                        {
                            continue;
                        }
                        // Same idea for `&mut` parameters: a write the
                        // callee makes through one stays put when every
                        // call site passes `&mut <caller-local>` — e.g.
                        // `splitmix64(&mut sm)` mutates only the caller's
                        // own stack slot.
                        if args_stay
                            && e.kind == E_WRITE
                            && sig_of(self.units, self.graph, m)
                                .params
                                .iter()
                                .any(|p| p.mut_ref && p.ty_name == e.owner)
                        {
                            continue;
                        }
                        if self.summaries[n].iter().any(|x| same_key(x, e))
                            || updates[pending..].iter().any(|(_, x)| same_key(x, e))
                        {
                            continue;
                        }
                        updates.push((
                            n,
                            Effect {
                                kind: e.kind,
                                owner: e.owner.clone(),
                                field: e.field.clone(),
                                line: self.graph.call_line(self.units, n, m),
                                via: Some(m),
                                what: format!("calls `{}`", self.graph.nodes[m].name),
                            },
                        ));
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
    fn chain(&self, start: usize, e: &Effect) -> String {
        let mut out = String::new();
        let mut n = start;
        let mut eff = e.clone();
        for _ in 0..16 {
            let node = &self.graph.nodes[n];
            out.push_str(&format!("`{}` ({}:{})", node.name, self.units[node.file].path, eff.line));
            let Some(m) = eff.via else {
                out.push_str(&format!(" -> {}", eff.what));
                break;
            };
            out.push_str(" -> ");
            let Some(next) = self.summaries[m].iter().find(|x| same_key(x, &eff)) else { break };
            eff = next.clone();
            n = m;
        }
        out
    }

    /// `oracle-pure`: oracle-module functions and `*Detector` `&self`
    /// verdict methods reachable from the campaign runners must not write
    /// simulation state, touch statics, or call the scheduler.
    fn oracle_pure(&self, findings: &mut Vec<Finding>) {
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
        // Fixture subsets have no campaign runner; check every non-test
        // oracle/detector there, so single-rule fixtures still fire.
        let scope: Vec<bool> = if roots.is_empty() {
            self.graph.nodes.iter().map(|n| !n.in_test).collect()
        } else {
            bfs(&self.graph.edges, roots.into_iter())
        };
        let mut sim_state: BTreeSet<String> = BTreeSet::new();
        for u in self.units {
            if u.mp.abs().first().is_some_and(|k| k == "simcore") {
                for s in &u.model.structs {
                    sim_state.insert(s.name.clone());
                }
            }
        }
        sim_state.insert("Simulation".to_string());
        sim_state.insert("Scheduler".to_string());
        for ex in ORACLE_EXEMPT {
            sim_state.remove(*ex);
        }
        for (n, node) in self.graph.nodes.iter().enumerate() {
            if node.in_test || !scope[n] {
                continue;
            }
            let is_oracle_fn =
                node.owner.is_none() && node.abs_module.iter().skip(1).any(|m| m == "oracle");
            let is_verdict_method = node.owner.as_deref().is_some_and(|t| t.ends_with("Detector"))
                && matches!(
                    sig_of(self.units, self.graph, n).receiver,
                    Receiver::Value | Receiver::Ref
                );
            if !is_oracle_fn && !is_verdict_method {
                continue;
            }
            let flagged = self.summaries[n].iter().find(|e| match e.kind {
                k if k == E_SCHED || k == E_STATIC => true,
                k if k == E_WRITE || k == E_INTERIOR => sim_state.contains(&e.owner),
                _ => false,
            });
            if let Some(e) = flagged {
                findings.push(Finding {
                    path: self.units[node.file].path.clone(),
                    line: e.line,
                    rule: id::ORACLE_PURE,
                    message: format!(
                        "oracle/detector verdict path mutates simulation state: {} — a probe \
                         that perturbs the system invalidates its own verdict; read state, \
                         never write it (route mutations through a handler outside the \
                         oracle, or hand the oracle an immutable view)",
                        self.chain(n, e)
                    ),
                });
            }
        }
    }

    /// `injection-scoped`: `*Injector` methods write only their own
    /// fields and the surface types their struct declares.
    fn injection_scoped(&self, findings: &mut Vec<Finding>) {
        for (n, node) in self.graph.nodes.iter().enumerate() {
            if node.in_test {
                continue;
            }
            let Some(owner) = node.owner.as_deref() else { continue };
            if owner != "Injector" && !owner.ends_with("Injector") {
                continue;
            }
            // The declared injection surface: the injector's own type,
            // the RNG it draws from, and every type named in its struct
            // body (its fields *are* its declared surface).
            let mut allowed: BTreeSet<String> = BTreeSet::new();
            allowed.insert(owner.to_string());
            allowed.insert("Stream".to_string());
            for u in self.units {
                for s in u.model.structs.iter().filter(|s| s.name == owner) {
                    let (s0, s1) = s.body;
                    let toks = &u.lexed.tokens;
                    for t in &toks[s0..=s1.min(toks.len().saturating_sub(1))] {
                        if t.kind == TokKind::Ident && t.text.starts_with(char::is_uppercase) {
                            allowed.insert(t.text.to_string());
                        }
                    }
                }
            }
            let flagged = self.summaries[n].iter().find(|e| match e.kind {
                k if k == E_STATIC || k == E_SCHED => true,
                k if k == E_WRITE || k == E_INTERIOR => !allowed.contains(&e.owner),
                _ => false,
            });
            if let Some(e) = flagged {
                findings.push(Finding {
                    path: self.units[node.file].path.clone(),
                    line: e.line,
                    rule: id::INJECTION_SCOPED,
                    message: format!(
                        "injector `{owner}::{}` writes outside its declared injection \
                         surface: {} — an injector may mutate only its own fields and the \
                         types its struct declares; inject other state through the \
                         simulation's handlers",
                        node.name,
                        self.chain(n, e)
                    ),
                });
            }
        }
    }

    /// `mitigation-effect`: policy-module hooks write policy-owned state
    /// only.
    fn mitigation_effect(&self, findings: &mut Vec<Finding>) {
        let mut policy_types: BTreeSet<String> = BTreeSet::new();
        for u in self.units {
            if !u.mp.abs().iter().skip(1).any(|m| m == "policy") {
                continue;
            }
            for s in &u.model.structs {
                policy_types.insert(s.name.clone());
            }
            for im in &u.model.impls {
                policy_types.insert(im.type_name.clone());
            }
        }
        if policy_types.is_empty() {
            return;
        }
        let mut allowed = policy_types.clone();
        allowed.insert("Stream".to_string());
        for (n, node) in self.graph.nodes.iter().enumerate() {
            if node.in_test {
                continue;
            }
            let scoped = match &node.owner {
                Some(t) => policy_types.contains(t),
                None => node.abs_module.iter().skip(1).any(|m| m == "policy"),
            };
            if !scoped {
                continue;
            }
            let flagged = self.summaries[n].iter().find(|e| match e.kind {
                k if k == E_STATIC || k == E_SCHED => true,
                k if k == E_WRITE || k == E_INTERIOR => !allowed.contains(&e.owner),
                _ => false,
            });
            if let Some(e) = flagged {
                findings.push(Finding {
                    path: self.units[node.file].path.clone(),
                    line: e.line,
                    rule: id::MITIGATION_EFFECT,
                    message: format!(
                        "mitigation policy hook `{}` writes non-policy state: {} — a \
                         shed/breaker that mutates server internals outside its API becomes \
                         the sustaining effect itself; policies write policy-owned state \
                         only and act through returned decisions",
                        node.name,
                        self.chain(n, e)
                    ),
                });
            }
        }
    }
}

/// Node `n`'s signature.
fn sig_of<'u>(units: &'u [FileUnit], graph: &Graph, n: usize) -> &'u FnSig {
    let node = &graph.nodes[n];
    &units[node.file].model.fns[node.fn_idx].sig
}

/// A direct write/interior/static effect record.
fn write_effect(kind: &'static str, owner: String, field: String, line: u32) -> Effect {
    let what = match kind {
        k if k == E_INTERIOR => format!("interior-mutates `{owner}.{field}`"),
        k if k == E_STATIC => format!("writes static `{owner}`"),
        _ => format!("writes `{owner}.{field}`"),
    };
    Effect { kind, owner, field, line, via: None, what }
}

/// A scheduler-primitive effect record.
fn sched_effect(name: String, line: u32) -> Effect {
    Effect {
        kind: E_SCHED,
        owner: "scheduler".to_string(),
        what: format!("calls scheduler primitive `{name}`"),
        field: name,
        line,
        via: None,
    }
}

/// True when the callee's writes to its own type stay inside caller `n`:
/// every call site of `m`'s name in `n`'s body has a caller-local
/// receiver root (not `self`, not a parameter, not a static), and no
/// UFCS-style free call names it. A locally constructed digest or
/// detector is caller-owned — mutating it is not an external effect.
fn callee_contained(units: &[FileUnit], graph: &Graph, n: usize, m: usize) -> bool {
    let callee = &graph.nodes[m];
    if callee.owner.is_none() {
        return false;
    }
    let node = &graph.nodes[n];
    let u = &units[node.file];
    let (b0, b1) = node.body;
    let sig = sig_of(units, graph, n);
    let mut saw = false;
    for c in u.model.calls_in(b0, b1).iter().filter(|c| c.name == callee.name) {
        saw = true;
        let (root, _) = receiver_root(&u.lexed, c.dot);
        let Some(root) = root else { return false };
        if root == "self" || is_screaming(&root) || param(sig, &root).is_some() {
            return false;
        }
    }
    if u.model.free_calls_in(b0, b1).iter().any(|c| c.name == callee.name) {
        return false;
    }
    saw
}

/// True when every root identifier caller `n` passes in an argument list
/// to callee `m` is a caller-local: not `self`, not one of `n`'s
/// parameters, not a static. Then whatever `m` writes through its `&mut`
/// params lands in `n`'s own stack slots (`splitmix64(&mut sm)`) and is
/// not an external effect of `n`. A bare `mid(srv)` reborrow of `n`'s
/// own `&mut` parameter fails the check, so those writes still
/// propagate. Conservative: any param mention in any argument position
/// (even read-only) defeats containment.
fn mut_args_stay_local(units: &[FileUnit], graph: &Graph, n: usize, m: usize) -> bool {
    let callee = &graph.nodes[m];
    let node = &graph.nodes[n];
    let u = &units[node.file];
    let toks = &u.lexed.tokens;
    let (b0, b1) = node.body;
    let sig = sig_of(units, graph, n);
    let root_is_local =
        |root: &str| root != "self" && !is_screaming(root) && param(sig, root).is_none();
    let span_ok = |open: usize, close: usize| {
        for i in open + 1..close {
            // Only chain roots: `x` in `x.len()` counts, `len` does not,
            // and path segments after `:` are not value roots either.
            if toks[i].kind == TokKind::Ident
                && !toks[i - 1].is_punct('.')
                && !toks[i - 1].is_punct(':')
                && (toks[i].text == "self" || !is_keyword(&toks[i].text))
                && !root_is_local(&toks[i].text)
            {
                return false;
            }
        }
        true
    };
    let mut saw = false;
    for c in u.model.calls_in(b0, b1).iter().filter(|c| c.name == callee.name) {
        saw = true;
        if !span_ok(c.args.0, c.args.1) {
            return false;
        }
    }
    for c in u.model.free_calls_in(b0, b1).iter().filter(|c| c.called && c.name == callee.name) {
        saw = true;
        let Some((open, close)) = call_args(&u.lexed, c.tok) else { return false };
        if !span_ok(open, close) {
            return false;
        }
    }
    saw
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
    let Some(t) = toks.get(k) else { return false };
    if t.kind != TokKind::Punct {
        return false;
    }
    match &*t.text {
        "=" => !toks.get(k + 1).is_some_and(|x| x.is_punct('=') || x.is_punct('>')),
        "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" => {
            toks.get(k + 1).is_some_and(|x| x.is_punct('='))
        }
        _ => false,
    }
}

/// True when the token before a `*` puts it at deref (not multiply)
/// position: a statement/expression opener.
fn deref_position(prev: &Token) -> bool {
    match prev.kind {
        TokKind::Punct => matches!(&*prev.text, ";" | "{" | "(" | "," | "="),
        TokKind::Ident => matches!(&*prev.text, "let" | "return" | "else"),
        _ => false,
    }
}

/// Walks a receiver chain leftward from the `.` at `dot`, returning the
/// chain's root identifier and the first hop after it:
/// `self.ring.push_back(..)` → `(Some("self"), Some("ring"))`,
/// `srv.depth = 0` → `(Some("srv"), None)`. Call and index groups are
/// skipped backward; a chain starting at an operator has no root.
fn receiver_root(lexed: &Lexed, dot: usize) -> (Option<String>, Option<String>) {
    let toks = &lexed.tokens;
    let mut root: Option<String> = None;
    let mut hop: Option<String> = None;
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
            if t.kind == TokKind::Ident && is_keyword(&t.text) && t.text != "self" {
                return (root, hop);
            }
            hop = root.take();
            root = Some(t.text.to_string());
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

    fn effects_of<'a>(sums: &'a [Option<EffectSummary>], g: &Graph, name: &str) -> Vec<&'a Effect> {
        match &sums[node_id(g, name)] {
            Some(s) => s.effects.iter().collect(),
            None => Vec::new(),
        }
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
                .find(|&&i| toks[i + 1].text == method)
                .unwrap_or_else(|| panic!("no .{method}"));
            receiver_root(&u.lexed, d)
        };
        assert_eq!(root_for("push_back"), (Some("self".into()), Some("ring".into())));
        assert_eq!(root_for("depth"), (Some("srv".into()), None));
        assert_eq!(root_for("clear"), (Some("self".into()), Some("items".into())));
        assert_eq!(root_for("store"), (Some("GLOBAL".into()), None));
        assert_eq!(root_for("reverse"), (Some("make".into()), None));
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
        let key = |e: &Effect| (e.kind, e.owner.clone(), e.field.clone());
        let keys: Vec<_> = touch.iter().map(|e| key(e)).collect();
        assert!(keys.contains(&(E_WRITE, "W".into(), "depth".into())), "{keys:?}");
        assert!(keys.contains(&(E_WRITE, "W".into(), "ring".into())), "{keys:?}");
        assert!(keys.contains(&(E_WRITE, "Server".into(), "queue".into())), "{keys:?}");
        assert!(
            !keys.iter().any(|(_, o, _)| o == "Vec" || o == "local"),
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
        assert_eq!((top[0].kind, top[0].owner.as_str()), (E_WRITE, "Server"));
    }

    #[test]
    fn locally_owned_callee_state_stays_contained() {
        let units = [unit(
            "crates/a/src/lib.rs",
            "pub struct Fnv64 { state: u64 } \
             impl Fnv64 { pub fn write(&mut self, x: u64) { self.state ^= x; } } \
             pub fn digest(xs: &[u64]) -> u64 { \
               let mut h = Fnv64 { state: 0 }; for x in xs { h.write(*x); } h.state } \
             pub fn leak(h: &mut Fnv64) { h.write(1); }",
        )];
        let g = Graph::build(&units);
        let (_, sums) = analyze(&units, &g);
        assert!(
            effects_of(&sums, &g, "digest").is_empty(),
            "a locally constructed digest is caller-owned"
        );
        let leak = effects_of(&sums, &g, "leak");
        assert!(
            leak.iter().any(|e| e.kind == E_WRITE && e.owner == "Fnv64"),
            "a &mut-param receiver escapes: {leak:?}"
        );
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
