//! The workspace call graph: nodes, edges, reachability fixpoints, and the
//! whole-program rules built on them.
//!
//! fs-lint v2 approximated "code a fault injector can reach" with
//! hardcoded path lists. That approximation failed in both directions: a
//! panic in a helper crate called *from* an injector-driven crate was
//! invisible, and a panic in genuinely unreachable utility code was a
//! false positive. This module replaces the lists with an actual
//! reachability analysis over a conservative call graph:
//!
//! * **Nodes** are `fn` items keyed by *(crate, module path, name)*, with
//!   their owning `impl` type recovered by span containment
//!   ([`crate::parse`]). A node borrows its names and module path from
//!   the file it was parsed from.
//! * **Call sites and edges.** This module is the only code that maps a
//!   call to the functions it reaches. It resolves every method call and
//!   every free call or path reference, inside a `fn` or not, and keeps
//!   each resolved site's callees (`Graph::callees`); `edges[n]` is the
//!   union of the sites whose innermost `fn` is `n`. The summary passes
//!   read a site's callees instead of matching calls by name.
//!   Method calls dispatch *by name* to every method with that name in the
//!   workspace — a superset of real dispatch that subsumes trait objects
//!   and generic bounds (`impl Trait for T` methods get an edge from every
//!   call through the trait's method names) — **gated on the caller's
//!   file mentioning the method's self type or trait** as an identifier
//!   anywhere (import, construction, annotation, impl). The gate prunes
//!   pure name collisions: `atomic.load(..)` does not edge into an
//!   unrelated `Vm::load`, because a file that really calls a workspace
//!   method has to name its type or trait to get a value of it. The
//!   mention index records, per file, only the names some gate asks
//!   about: every impl owner and trait, plus the few gate types the
//!   scheduling set and the summary passes name (`Fnv64`, `Stream`, …).
//!   Free calls resolve through per-crate module resolution, imports, and
//!   `pub use` re-exports ([`crate::resolve`]); a `Self::helper()` call
//!   resolves against the enclosing impl, and `Type::name()` against the
//!   methods of `Type`. Paths that cannot be resolved (std, unknown
//!   crates) reach nothing, and a call whose name no free fn or `use`
//!   alias carries skips the path lookups.
//! * **Injector-reachable set `R`**: the fixpoint from the real entry
//!   points — methods of `Injector` and `*Detector` impls, the simcore
//!   `Simulation`/`Scheduler` surface (scheduler callbacks run under
//!   these), and the campaign dispatch roots `run_scenario` / `run_all`.
//!   `panic-path` runs exactly on `R`.
//! * **Scheduling set `S ⊆ R`-ish**: functions that own or touch the
//!   event queue — methods of types with a `BinaryHeap` or `EventKey`
//!   field, bodies mentioning `BinaryHeap` or `EventKey`, and callers of
//!   the scheduler primitives (`schedule_at`/`schedule_after`/
//!   `schedule_periodic`/`run_until`/`run_for`/`schedule_event`). The
//!   full `stable-tiebreak` battery runs on
//!   `S`; the rest of `R` gets only the bare-time-key check, because a
//!   single-key `min_by_key` in ordinary model code is not a scheduling
//!   hazard. `Ord`/`PartialOrd` impls are in scope when their type appears
//!   inside any `BinaryHeap<…>` element type workspace-wide.
//!
//! Known, deliberate approximations: module-level constant expressions
//! have no enclosing `fn` and contribute no edges; inline `mod m {}`
//! blocks share their file's module path; bare (unqualified) function
//! *references* passed as values are not edges (qualified ones are);
//! closure-variable calls `(cb)(x)` are invisible. Each widens or narrows
//! the sets slightly — the gate's backstop is that `workspace_clean` keeps
//! the whole tree finding-free either way.
//!
//! ## No entry points
//!
//! When the scanned file set contains *no* entry points (single-file runs,
//! fixture subsets) there is nothing to seed the fixpoints from, and the
//! engine uses [`FileScope::unscoped`]: `S` and `R` are empty, so only the
//! everywhere rules apply. The v2 path lists and their `--scope-fallback`
//! escape hatch are gone.

use crate::lexer::{Lexed, TokKind};
use crate::parse::{self, FileModel};
use crate::resolve::{self, ModPath, Resolver};
use crate::rules::{id, Finding};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One lexed and parsed file, with its module coordinates.
pub struct FileUnit {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Lexed tokens and comments.
    pub lexed: Lexed,
    /// Parsed shape.
    pub model: FileModel,
    /// Crate and module coordinates.
    pub mp: ModPath,
}

impl FileUnit {
    /// Lexes, parses, and locates one file's source, which the unit's
    /// [`Lexed`] keeps: an owned `String` moves in uncopied.
    pub fn new(path: String, source: impl Into<String>) -> FileUnit {
        let lexed = crate::lexer::lex(source);
        let model = parse::parse(&lexed);
        let mp = resolve::module_path(&path);
        FileUnit { path, lexed, model, mp }
    }
}

/// One function or method node, borrowing its names from its file.
#[derive(Debug)]
pub struct FnNode<'a> {
    /// Index of the owning [`FileUnit`].
    pub file: usize,
    /// Index into the file's `model.fns`.
    pub fn_idx: usize,
    /// The function's name.
    pub name: &'a str,
    /// The owning impl's type name, `None` for free functions.
    pub owner: Option<&'a str>,
    /// The owning impl's trait name, if it is a trait impl.
    pub trait_name: Option<&'a str>,
    /// Absolute module path `[krate, modules…]`.
    pub abs_module: &'a [String],
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token span of the body, braces included.
    pub body: (usize, usize),
    /// True for test code.
    pub in_test: bool,
}

impl FnNode<'_> {
    /// True when the node is defined inside a module named `name`, at any
    /// depth below its crate root (`campaign::oracle` is in `oracle`).
    pub(crate) fn in_module(&self, name: &str) -> bool {
        self.abs_module.iter().skip(1).any(|m| m == name)
    }
}

/// The `(at, seq)` key the event engine queues; owning or touching it
/// marks a function as scheduling code, like `BinaryHeap`.
const QUEUE_KEY_TYPE: &str = "EventKey";

/// Scheduler primitives whose callers belong to the scheduling set `S`.
const SCHED_METHODS: &[&str] = &[
    "schedule_at",
    "schedule_after",
    "schedule_periodic",
    "run_until",
    "run_for",
    "schedule_event",
];

/// Impl type names whose methods are injector-reachability entry points.
const ENTRY_TYPES: &[&str] = &["Injector", "Simulation", "Scheduler"];

/// Free functions that are entry points: the campaign's scenario dispatch
/// and the runner's pool loop (scheduler callbacks hang off these).
const ENTRY_FNS: &[&str] = &["run_scenario", "run_all"];

/// The type names the analyses gate on besides impl owners and traits,
/// sorted: the two queue markers this module's scheduling set scans for,
/// the digest and bench-table types the taint pass's sinks need, and the
/// scheduler surface and RNG stream the effect pass needs.
const MENTION_GATES: &[&str] =
    &["BinaryHeap", QUEUE_KEY_TYPE, "Fnv64", "Scheduler", "Simulation", "Stream", "Table"];

/// The workspace call graph with its reachability fixpoints.
pub struct Graph<'a> {
    /// Every function node, in (file, source) order.
    pub nodes: Vec<FnNode<'a>>,
    /// Adjacency: `edges[n]` is the set of callee node ids of `n`.
    pub edges: Vec<BTreeSet<usize>>,
    /// Entry-point node ids.
    pub entries: Vec<usize>,
    /// `reachable[n]`: node is in the injector-reachable set `R`.
    pub reachable: Vec<bool>,
    /// `sched[n]`: node is in the scheduling set `S`.
    pub sched: Vec<bool>,
    /// Type names appearing inside `BinaryHeap<…>` element types.
    pub heap_elem_types: BTreeSet<String>,
    /// Which file mentions which gated name.
    mentions: Mentions<'a>,
    /// Node id of each file's first `fn`; its `fn_idx`-th is
    /// `file_start[file] + fn_idx`, and its nodes end where the next
    /// file's start (one entry past the last file).
    file_start: Vec<usize>,
    /// Every call site that resolved to a node, file by file and in token
    /// order within a file.
    sites: Vec<Site>,
    /// Index into `sites` of each file's first site, like `file_start`.
    site_start: Vec<usize>,
    /// The sites' callee lists, each sorted by node id.
    callees: Vec<usize>,
}

/// One resolved call site: the `.` of a method call or the name token of
/// a free call or path reference, its line, and its callees' range in
/// [`Graph`]'s callee lists.
struct Site {
    tok: usize,
    line: u32,
    to: std::ops::Range<usize>,
}

/// The names some gate asks about, and which files mention each as an
/// identifier token anywhere (import, construction, annotation, impl).
struct Mentions<'a> {
    /// The gated names, sorted and distinct: every impl owner and trait,
    /// and [`MENTION_GATES`].
    names: Vec<&'a str>,
    /// `hit[file * names.len() + k]`: the file mentions `names[k]`.
    hit: Vec<bool>,
    /// Per node, the indices of its owner's and its trait's names.
    owners: Vec<[Option<usize>; 2]>,
}

impl<'a> Mentions<'a> {
    /// Indexes `units` for the names `nodes` and the gates ask about. A
    /// token is looked up only among the names that share its first
    /// byte, and only when one of those has its length (lengths from 63
    /// on share one bit).
    fn index(units: &[FileUnit], nodes: &[FnNode<'a>]) -> Mentions<'a> {
        let owned = nodes.iter().flat_map(|n| [n.owner, n.trait_name]).flatten();
        let mut names: Vec<&str> = owned.chain(MENTION_GATES.iter().copied()).collect();
        names.sort_unstable();
        names.dedup();
        let len_bit = |len: usize| 1u64 << len.min(63);
        // Per first byte: the names' range in sorted order, and their
        // lengths.
        let mut range = [(0usize, 0usize); 256];
        let mut lens = [0u64; 256];
        for (k, name) in names.iter().enumerate() {
            let b = usize::from(name.as_bytes().first().copied().unwrap_or(0));
            range[b] = if lens[b] == 0 { (k, k + 1) } else { (range[b].0, k + 1) };
            lens[b] |= len_bit(name.len());
        }
        let mut hit = vec![false; units.len() * names.len()];
        for (row, u) in hit.chunks_mut(names.len().max(1)).zip(units) {
            let idents =
                u.lexed.tokens.iter().enumerate().filter(|(_, t)| t.kind == TokKind::Ident);
            for (i, t) in idents {
                // The token's first byte and length, read without the source.
                let b = usize::from(t.first);
                if lens[b] & len_bit((t.hi - t.lo) as usize) == 0 {
                    continue;
                }
                let text = u.lexed.text(i);
                let (lo, hi) = range[b];
                if let Ok(k) = names[lo..hi].binary_search(&text) {
                    row[lo + k] = true;
                }
            }
        }
        let find = |name: &str| names.binary_search(&name).ok();
        let owners =
            nodes.iter().map(|n| [n.owner, n.trait_name].map(|t| t.and_then(find))).collect();
        Mentions { names, hit, owners }
    }

    /// True when `file` mentions the gated name `name`.
    fn mentions(&self, file: usize, name: &str) -> bool {
        let k = self.names.binary_search(&name);
        debug_assert!(k.is_ok(), "`{name}` is not a gated name");
        k.is_ok_and(|k| self.hit[file * self.names.len() + k])
    }

    /// True when `file` mentions node `n`'s owner type or trait.
    fn names_owner_of(&self, file: usize, n: usize) -> bool {
        self.owners[n].iter().flatten().any(|&k| self.hit[file * self.names.len() + k])
    }
}

impl<'a> Graph<'a> {
    /// Builds the graph over the scanned files.
    pub fn build(units: &'a [FileUnit]) -> Graph<'a> {
        let mut nodes = Vec::new();
        let mut file_start = Vec::with_capacity(units.len() + 1);
        for (file, u) in units.iter().enumerate() {
            file_start.push(nodes.len());
            for (fn_idx, f) in u.model.fns.iter().enumerate() {
                let im = u.model.owning_impl(f.body).map(|k| &u.model.impls[k]);
                nodes.push(FnNode {
                    file,
                    fn_idx,
                    name: u.lexed.text(f.name),
                    owner: im.map(|im| u.lexed.text(im.type_name)),
                    trait_name: im.and_then(|im| im.trait_name).map(|k| u.lexed.text(k)),
                    abs_module: u.mp.abs(),
                    line: f.line,
                    body: f.body,
                    in_test: f.in_test,
                });
            }
        }
        file_start.push(nodes.len());

        let resolver = Resolver::from_mod_paths(units.iter().map(|u| &u.mp));
        let imports: Vec<_> = units.iter().map(|u| resolve::import_map(u, &resolver)).collect();

        // Lookup tables.
        let mut free_fns: BTreeMap<Vec<&str>, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_type: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (n, node) in nodes.iter().enumerate() {
            match node.owner {
                None => {
                    let module = node.abs_module.iter().map(String::as_str);
                    free_fns.entry(module.chain([node.name]).collect()).or_default().push(n);
                }
                Some(ty) => {
                    methods_by_name.entry(node.name).or_default().push(n);
                    methods_by_type.entry((ty, node.name)).or_default().push(n);
                }
            }
        }
        // `pub use` re-exports per module: (visible name or None-for-glob,
        // canonical target).
        let mut reexports: ReexportMap = BTreeMap::new();
        let mut key: Vec<&str> = Vec::new();
        for u in units {
            for d in u.model.uses.iter().filter(|d| d.is_pub) {
                if !resolver.canon(&u.mp, d.segs.iter().map(|&k| u.lexed.text(k)), &mut key) {
                    continue;
                }
                let vis = if d.glob { None } else { d.alias.or(d.segs.last().copied()) };
                let vis = vis.map(|k| u.lexed.text(k));
                let module = u.mp.abs().iter().map(String::as_str).collect();
                reexports.entry(module).or_default().push((vis, key.clone()));
            }
        }
        let lookup = FnLookup { free_fns, reexports };
        // A path lookup can only reach a free fn by its own name or by an
        // alias a `use` gives it: a free call by any other name (`Some`,
        // a tuple struct, a std function) skips the path lookups.
        let aliases = units
            .iter()
            .flat_map(|u| u.model.uses.iter().filter_map(|d| Some(u.lexed.text(d.alias?))));
        let resolvable: BTreeSet<&str> =
            nodes.iter().filter(|n| n.owner.is_none()).map(|n| n.name).chain(aliases).collect();

        // The mention gate for method edges below and for the passes.
        let mentions = Mentions::index(units, &nodes);

        // Call sites, in and outside fns; a site in a fn adds its callees
        // to the innermost fn's edges. `key` and `targets` are reused for
        // every call: resolving one copies no name.
        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
        let (mut sites, mut site_start, mut callees) = (Vec::new(), Vec::new(), Vec::new());
        let mut targets: Vec<usize> = Vec::new();
        for (file, u) in units.iter().enumerate() {
            site_start.push(sites.len());
            let mut record = |tok: usize, line: u32, targets: &mut Vec<usize>| {
                if !targets.is_empty() {
                    targets.sort_unstable();
                    targets.dedup();
                    if let Some(k) = u.model.enclosing_fn_idx(tok) {
                        edges[file_start[file] + k].extend(targets.iter());
                    }
                    let to = callees.len()..callees.len() + targets.len();
                    sites.push(Site { tok, line, to });
                    callees.append(targets);
                }
            };
            for call in &u.model.calls {
                if let Some(tgts) = methods_by_name.get(u.lexed.text(call.name)) {
                    // By-name dispatch, gated: the caller's file must
                    // mention the candidate's self type (construction,
                    // import, annotation) or its trait (dyn / generic
                    // dispatch). A bare name match against a std method
                    // (`atomic.load`, `vec.push`) mentions neither and
                    // resolves to nothing.
                    targets.extend(tgts.iter().filter(|&&t| mentions.names_owner_of(file, t)));
                    record(call.dot, call.line, &mut targets);
                }
            }
            let module = || u.mp.abs().iter().map(String::as_str);
            for fc in &u.model.free_calls {
                let (name, text) = (u.lexed.text(fc.name), |k| u.lexed.text(k));
                match fc.qual().len() {
                    1 if u.lexed.is_ident(fc.head, "Self") => {
                        // Resolve against the enclosing impl's type.
                        if let Some(k) = u.model.owning_impl((fc.name, fc.name)) {
                            let ty = text(u.model.impls[k].type_name);
                            if let Some(ts) = methods_by_type.get(&(ty, name)) {
                                targets.extend(ts);
                            }
                        }
                    }
                    0 => {
                        if fc.called && resolvable.contains(name) {
                            // Same module, then named import, then glob
                            // imports.
                            key.clear();
                            key.extend(module().chain([name]));
                            lookup.find(&key, 0, &mut targets);
                            if targets.is_empty() {
                                if let Some(t) = imports[file].named.get(name) {
                                    lookup.find(t, 0, &mut targets);
                                }
                            }
                            if targets.is_empty() {
                                for g in &imports[file].globs {
                                    key.clear();
                                    key.extend(g.iter().copied().chain([name]));
                                    lookup.find(&key, 0, &mut targets);
                                }
                            }
                        }
                    }
                    _ => {
                        // A type-qualified associated call (`Fnv64::new()`),
                        // by the last qualifier segment.
                        if let Some(ts) = methods_by_type.get(&(text(fc.name - 3), name)) {
                            targets.extend(ts);
                        }
                        // A module-qualified free call, with the head
                        // segment substituted through the import map when
                        // it names an imported module (`use adapt::oracle
                        // as qoracle`).
                        if resolvable.contains(name) {
                            let segs = (fc.head..=fc.name).step_by(3).map(text);
                            if let Some(head_target) = imports[file].named.get(text(fc.head)) {
                                key.clear();
                                key.extend(head_target.iter().copied().chain(segs.clone().skip(1)));
                                lookup.find(&key, 0, &mut targets);
                            }
                            if resolver.canon(&u.mp, segs, &mut key) {
                                lookup.find(&key, 0, &mut targets);
                            }
                        }
                    }
                }
                record(fc.name, fc.line, &mut targets);
            }
            sites[site_start[file]..].sort_unstable_by_key(|s: &Site| s.tok);
        }
        site_start.push(sites.len());

        // Entry points.
        let entries: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.in_test && is_entry(n))
            .map(|(i, _)| i)
            .collect();
        let reachable = bfs(&edges, entries.iter().copied());

        // The scheduling set and heap element types. "Queue structs" are
        // event-queue owners: a `BinaryHeap` or `EventKey` field. Only a
        // file that mentions one of the two holds either.
        let queue_marked =
            |file: usize| ["BinaryHeap", QUEUE_KEY_TYPE].iter().any(|m| mentions.mentions(file, m));
        let mut queue_structs: BTreeSet<&str> = BTreeSet::new();
        let mut heap_elem_types: BTreeSet<String> = BTreeSet::new();
        for (file, u) in units.iter().enumerate() {
            if !queue_marked(file) {
                continue;
            }
            for s in &u.model.structs {
                if names_queue(&u.lexed, s.body) {
                    queue_structs.insert(u.lexed.text(s.name));
                }
            }
            for h in &u.model.heaps {
                for name in u.lexed.idents(h.angles) {
                    if name != "Reverse" && name.starts_with(char::is_uppercase) {
                        heap_elem_types.insert(name.to_string());
                    }
                }
            }
        }
        let mut sched = vec![false; nodes.len()];
        for (n, node) in nodes.iter().enumerate() {
            if node.owner.is_some_and(|t| queue_structs.contains(t)) {
                sched[n] = true;
                continue;
            }
            let u = &units[node.file];
            let (b0, b1) = node.body;
            let touches_heap = queue_marked(node.file)
                && (u.model.heaps.iter().any(|h| h.angles.0 >= b0 && h.angles.1 <= b1)
                    || names_queue(&u.lexed, node.body));
            let sched_call = |name: usize| SCHED_METHODS.contains(&u.lexed.text(name));
            let calls_sched = u.model.calls_in(b0, b1).iter().any(|c| sched_call(c.name))
                || u.model.free_calls_in(b0, b1).iter().any(|c| c.called && sched_call(c.name));
            sched[n] = touches_heap || calls_sched;
        }

        Graph {
            nodes,
            edges,
            entries,
            reachable,
            sched,
            heap_elem_types,
            mentions,
            file_start,
            sites,
            site_start,
            callees,
        }
    }

    /// The node of `units[file].model.fns[fn_idx]`.
    pub(crate) fn node_of(&self, file: usize, fn_idx: usize) -> usize {
        self.file_start[file] + fn_idx
    }

    /// True when `units[file]` mentions the identifier `name` anywhere.
    /// `name` must be one the index records: an impl owner or trait, or
    /// one of [`MENTION_GATES`].
    pub(crate) fn mentions(&self, file: usize, name: &str) -> bool {
        self.mentions.mentions(file, name)
    }

    /// The resolved call sites of `units[file]`, in token order.
    fn sites_of(&self, file: usize) -> &[Site] {
        &self.sites[self.site_start[file]..self.site_start[file + 1]]
    }

    /// The nodes the call site at token `tok` of `units[file]` reaches,
    /// sorted by node id: `tok` is the `.` of a method call or the name
    /// token of a free call or path reference. Empty when the site
    /// resolves to no node.
    pub(crate) fn callees(&self, file: usize, tok: usize) -> &[usize] {
        let sites = self.sites_of(file);
        match sites.binary_search_by_key(&tok, |s| s.tok) {
            Ok(k) => &self.callees[sites[k].to.clone()],
            Err(_) => &[],
        }
    }

    /// The call sites in node `n`'s body that reach node `m`, in token
    /// order: each site's token and line.
    pub(crate) fn sites_to(&self, n: usize, m: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let node = &self.nodes[n];
        let sites = self.sites_of(node.file);
        let (b0, b1) = node.body;
        let in_body = sites[sites.partition_point(|s| s.tok < b0)..].iter();
        let reaching = in_body.take_while(move |s| s.tok <= b1);
        reaching.filter(move |s| self.callees[s.to.clone()].contains(&m)).map(|s| (s.tok, s.line))
    }

    /// The line of the first call site in node `n`'s body that reaches
    /// node `m`; `n`'s own line when none does.
    pub(crate) fn call_line(&self, n: usize, m: usize) -> u32 {
        self.sites_to(n, m).next().map_or(self.nodes[n].line, |(_, line)| line)
    }

    /// True when graph-derived scoping is usable: the scanned set contains
    /// at least one entry point.
    pub fn has_entries(&self) -> bool {
        !self.entries.is_empty()
    }

    /// The scope object for one scanned file under graph-derived scoping.
    pub fn scope_for(&self, file: usize) -> FileScope<'_> {
        let mut sched_spans = Vec::new();
        let mut reach_spans = Vec::new();
        for n in self.file_start[file]..self.file_start[file + 1] {
            let node = &self.nodes[n];
            // Test code is exempt from both rule families: a test that
            // panics is a test that fails, and a test's private sort is
            // not the scheduler's.
            if node.in_test {
                continue;
            }
            if self.sched[n] {
                sched_spans.push(node.body);
            }
            if self.reachable[n] {
                reach_spans.push(node.body);
            }
        }
        FileScope { sched_spans, reach_spans, ord_types: Some(&self.heap_elem_types), heaps: true }
    }

    /// The whole-program rules: `oracle-coverage` and `dead-scenario`.
    /// Both are silent when the scanned set contains no campaign registry
    /// (single-file runs, fixtures without one).
    pub fn whole_program_findings(&self, units: &[FileUnit]) -> Vec<Finding> {
        let mut findings = Vec::new();
        self.oracle_coverage(units, &mut findings);
        self.dead_scenario(units, &mut findings);
        findings
    }

    /// Every scenario-class dispatcher registered next to `run_scenario`
    /// must reach at least one `oracle` module, and every injector
    /// constructor in a `catalog` module must be reachable from the
    /// campaign binary: no scenario cell runs unchecked.
    fn oracle_coverage(&self, units: &[FileUnit], findings: &mut Vec<Finding>) {
        let dispatch: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.owner.is_none()
                    && n.name == "run_scenario"
                    && n.abs_module.iter().any(|m| m == "campaign")
            })
            .map(|(i, _)| i)
            .collect();
        for &rs in &dispatch {
            let callees: Vec<usize> = self.edges[rs]
                .iter()
                .copied()
                .filter(|&c| {
                    let n = &self.nodes[c];
                    c != rs
                        && n.owner.is_none()
                        && n.name.starts_with("run_")
                        && n.abs_module == self.nodes[rs].abs_module
                })
                .collect();
            for c in callees {
                let seen = bfs(&self.edges, std::iter::once(c));
                let covered =
                    seen.iter().enumerate().any(|(n, &s)| s && self.nodes[n].in_module("oracle"));
                if !covered {
                    let node = &self.nodes[c];
                    findings.push(Finding {
                        path: units[node.file].path.clone(),
                        line: node.line,
                        rule: id::ORACLE_COVERAGE,
                        message: format!(
                            "scenario dispatcher `{}` reaches no oracle module: its cells run \
                             with no invariant checked — call the class's oracle (or route \
                             results through one that does)",
                            node.name
                        ),
                    });
                }
            }
        }
        // Registration side: catalog constructors must be wired into the
        // campaign binary, else an injector class silently runs nowhere.
        if let Some(from_main) = self.campaign_main_reach() {
            for (n, node) in self.nodes.iter().enumerate() {
                let in_catalog = node.abs_module.last().is_some_and(|m| m == "catalog");
                if in_catalog && node.owner.is_none() && !node.in_test && !from_main[n] {
                    findings.push(Finding {
                        path: units[node.file].path.clone(),
                        line: node.line,
                        rule: id::ORACLE_COVERAGE,
                        message: format!(
                            "injector constructor `{}` is not reachable from the campaign \
                             binary: the class is registered in no scenario cell, so it is \
                             never oracle-checked — add it to the catalog's `all()` (or the \
                             campaign registry)",
                            node.name
                        ),
                    });
                }
            }
        }
    }

    /// Campaign cells whose code is never reachable from the `fs-campaign`
    /// binary's `main` are dead: they look covered but never run.
    fn dead_scenario(&self, units: &[FileUnit], findings: &mut Vec<Finding>) {
        let Some(from_main) = self.campaign_main_reach() else { return };
        for (n, node) in self.nodes.iter().enumerate() {
            let in_campaign = node.abs_module.get(1).is_some_and(|m| m == "campaign");
            // Trait-impl methods (`Default::default`, `Display::fmt`, …)
            // are invoked through derives, operators, and `..` spreads the
            // graph cannot see; only inherent/free campaign code counts.
            if in_campaign && !node.in_test && node.trait_name.is_none() && !from_main[n] {
                findings.push(Finding {
                    path: units[node.file].path.clone(),
                    line: node.line,
                    rule: id::DEAD_SCENARIO,
                    message: format!(
                        "campaign item `{}` is not reachable from the fs-campaign binary — a \
                         dead scenario cell looks covered but never runs; wire it into the \
                         dispatch (or delete it)",
                        node.name
                    ),
                });
            }
        }
    }

    /// Reachability from the campaign binary's `main`(s); `None` when the
    /// scanned set contains no campaign binary.
    fn campaign_main_reach(&self) -> Option<Vec<bool>> {
        let mains: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.name == "main"
                    && n.owner.is_none()
                    && n.abs_module.get(1).is_some_and(|m| m == "bin")
                    && n.abs_module.last().is_some_and(|b| b.contains("campaign"))
            })
            .map(|(i, _)| i)
            .collect();
        if mains.is_empty() {
            return None;
        }
        Some(bfs(&self.edges, mains.into_iter()))
    }

    /// Renders the graph as a JSON document for `--graph-out`. `taint`
    /// holds the per-node summaries from [`crate::flow::analyze`], `usum`
    /// the return-unit summaries from [`crate::units::analyze`], and
    /// `esum` the effect summaries from [`crate::effects::analyze`], each
    /// aligned with `nodes` (pass `&[]` to omit them all).
    pub fn render_json(
        &self,
        units: &[FileUnit],
        taint: &[Option<crate::flow::TaintSummary>],
        usum: &[Option<crate::units::UnitSummary>],
        esum: &[Option<crate::effects::EffectSummary<'_>>],
    ) -> String {
        use crate::engine::json_str;
        let mut out = String::from("{\n  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let module = n.abs_module[1..].join("::");
            let hop = |line: u32, via: Option<usize>, what: &str| {
                let via = via.map_or("null".to_string(), |v| v.to_string());
                format!("\"line\": {line}, \"via\": {via}, \"what\": {}}}", json_str(what))
            };
            let taint_json = match taint.get(i) {
                Some(Some(s)) => {
                    format!("{{\"kind\": {}, {}", json_str(s.kind), hop(s.line, s.via, &s.what))
                }
                _ => "null".to_string(),
            };
            let unit_json = match usum.get(i) {
                Some(Some(s)) => {
                    format!(
                        "{{\"dim\": {}, {}",
                        json_str(&s.dim.render()),
                        hop(s.line, s.via, &s.what)
                    )
                }
                _ => "null".to_string(),
            };
            let effects_json = match esum.get(i) {
                Some(Some(s)) => {
                    let rows: Vec<String> = s
                        .effects
                        .iter()
                        .map(|e| {
                            format!(
                                "{{\"kind\": {}, \"owner\": {}, \"field\": {}, {}",
                                json_str(e.kind),
                                json_str(e.owner),
                                json_str(e.field),
                                hop(e.line, e.via, &e.what(self))
                            )
                        })
                        .collect();
                    format!("[{}]", rows.join(", "))
                }
                _ => "null".to_string(),
            };
            out.push_str(&format!(
                "\n    {{\"id\": {i}, \"crate\": {}, \"module\": {}, \"name\": {}, \
                 \"owner\": {}, \"path\": {}, \"line\": {}, \"test\": {}, \"entry\": {}, \
                 \"reachable\": {}, \"sched\": {}, \"taint\": {}, \"unit\": {}, \
                 \"effects\": {}}}",
                json_str(&n.abs_module[0]),
                json_str(&module),
                json_str(n.name),
                n.owner.map_or("null".to_string(), json_str),
                json_str(&units[n.file].path),
                n.line,
                n.in_test,
                self.entries.contains(&i),
                self.reachable[i],
                self.sched[i],
                taint_json,
                unit_json,
                effects_json,
            ));
        }
        if !self.nodes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"edges\": [");
        let mut first = true;
        for (src, tgts) in self.edges.iter().enumerate() {
            for &t in tgts {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\n    [{src}, {t}]"));
            }
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// True when the token span `[lo, hi]` names `BinaryHeap` or the queue
/// key type.
fn names_queue(lexed: &Lexed, (lo, hi): (usize, usize)) -> bool {
    (lo..=hi).any(|k| lexed.is_ident(k, "BinaryHeap") || lexed.is_ident(k, QUEUE_KEY_TYPE))
}

/// True when a node is an injector-reachability entry point.
fn is_entry(n: &FnNode) -> bool {
    let type_entry = |name: &str| ENTRY_TYPES.contains(&name) || name.ends_with("Detector");
    if n.owner.is_some_and(type_entry) || n.trait_name.is_some_and(type_entry) {
        return true;
    }
    n.owner.is_none() && ENTRY_FNS.contains(&n.name)
}

/// Breadth-first reachability over the adjacency sets.
pub(crate) fn bfs(edges: &[BTreeSet<usize>], roots: impl Iterator<Item = usize>) -> Vec<bool> {
    let mut seen = vec![false; edges.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for r in roots {
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(n) = queue.pop_front() {
        for &t in &edges[n] {
            if !seen[t] {
                seen[t] = true;
                queue.push_back(t);
            }
        }
    }
    seen
}

/// Per-module `pub use` re-exports: module path → (visible name, or
/// `None` for a glob; canonical target path).
type ReexportMap<'a> = BTreeMap<Vec<&'a str>, Vec<(Option<&'a str>, Vec<&'a str>)>>;

/// Free-function lookup with `pub use` re-export following.
struct FnLookup<'a> {
    free_fns: BTreeMap<Vec<&'a str>, Vec<usize>>,
    reexports: ReexportMap<'a>,
}

impl FnLookup<'_> {
    /// Adds to `out` the node ids for the absolute path `abs` = `[krate,
    /// modules…, name]`, following re-exports to a small depth (cycles
    /// terminate there).
    fn find(&self, abs: &[&str], depth: usize, out: &mut Vec<usize>) {
        if depth > 4 {
            return;
        }
        if let Some(ids) = self.free_fns.get(abs) {
            out.extend(ids);
            return;
        }
        let Some((&name, parent)) = abs.split_last() else { return };
        let Some(rx) = self.reexports.get(parent) else { return };
        for (vis, target) in rx {
            match *vis {
                Some(v) if v == name => self.find(target, depth + 1, out),
                None => {
                    let key: Vec<&str> = target.iter().copied().chain([name]).collect();
                    self.find(&key, depth + 1, out);
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scoping: what the semantic rules consult.
// ---------------------------------------------------------------------------

/// One file's semantic-rule scope: the token spans of its `S` and `R`
/// members, derived from the call graph ([`Graph::scope_for`]), whose
/// heap-element types it borrows.
#[derive(Debug)]
pub struct FileScope<'g> {
    /// Body spans of scheduling-set (`S`) functions in this file.
    pub sched_spans: Vec<(usize, usize)>,
    /// Body spans of injector-reachable (`R`) functions in this file.
    pub reach_spans: Vec<(usize, usize)>,
    /// Type names whose `Ord`/`PartialOrd` impls are in tiebreak scope;
    /// `None` means every type (whole-file unit-test scopes only).
    pub ord_types: Option<&'g BTreeSet<String>>,
    /// Whether `BinaryHeap<…>` declarations are in scope. Graph scopes
    /// always set this: every heap is scheduling infrastructure.
    pub heaps: bool,
}

/// The heap-element types of a scope that puts no `Ord` impl in scope.
static NO_TYPES: BTreeSet<String> = BTreeSet::new();

impl FileScope<'_> {
    /// The empty scope, used when the scanned set has no entry points
    /// (single-file runs, fixture subsets): `S` and `R` are empty and no
    /// `Ord` impl or heap declaration is in scope, so only the everywhere
    /// rules (`float-total-order`, the token rules) apply.
    pub fn unscoped() -> FileScope<'static> {
        FileScope {
            sched_spans: Vec::new(),
            reach_spans: Vec::new(),
            ord_types: Some(&NO_TYPES),
            heaps: false,
        }
    }

    /// A whole-file scope for single-file unit harnesses: every token is
    /// in `S` (when `sched`) and `R` (when `reach`), and `sched` puts
    /// every `Ord` impl and heap declaration in scope. Stands in for what
    /// the graph would derive once the file sat in a full workspace.
    #[cfg(test)]
    pub fn whole_file(sched: bool, reach: bool) -> FileScope<'static> {
        let span = |on: bool| if on { vec![(0, usize::MAX)] } else { Vec::new() };
        FileScope {
            sched_spans: span(sched),
            reach_spans: span(reach),
            ord_types: if sched { None } else { Some(&NO_TYPES) },
            heaps: sched,
        }
    }

    /// True when token index `i` is inside scheduling-set code: the full
    /// `stable-tiebreak` battery applies.
    pub fn in_sched(&self, i: usize) -> bool {
        self.sched_spans.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// True when token index `i` is inside injector-reachable code:
    /// `panic-path` applies.
    pub fn in_reach(&self, i: usize) -> bool {
        self.reach_spans.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// True when token index `i` gets the *weak* tiebreak check (bare
    /// time-key orderings only): reachable but not scheduling code.
    pub fn weak_tiebreak(&self, i: usize) -> bool {
        self.in_reach(i) && !self.in_sched(i)
    }

    /// True when the `Ord`/`PartialOrd` impl for `ty` is in tiebreak scope.
    pub fn ord_in_scope(&self, ty: &str) -> bool {
        match &self.ord_types {
            Some(set) => set.contains(ty),
            None => true,
        }
    }

    /// True when `BinaryHeap<…>` element checks apply.
    pub fn heap_in_scope(&self) -> bool {
        self.heaps
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

    #[test]
    fn cross_crate_free_call_edges_resolve() {
        let units = [
            unit(
                "crates/alpha/src/lib.rs",
                "pub struct Injector; impl Injector { pub fn fire(&self) { beta::helper(1); } }",
            ),
            unit("crates/beta/src/lib.rs", "pub fn helper(x: u64) -> u64 { x }"),
        ];
        let g = Graph::build(&units);
        let fire = node_id(&g, "fire");
        let helper = node_id(&g, "helper");
        assert!(g.edges[fire].contains(&helper), "{:?}", g.edges);
        assert!(g.entries.contains(&fire), "Injector methods are entries");
        assert!(g.reachable[helper], "helper is reachable through the cross-crate call");
    }

    #[test]
    fn pub_use_reexports_resolve() {
        let units = [
            unit(
                "crates/alpha/src/lib.rs",
                "pub mod eng; pub use eng::dispatch; \
                 pub struct Injector; impl Injector { pub fn fire(&self) { dispatch(); } }",
            ),
            unit("crates/alpha/src/eng.rs", "pub fn dispatch() {}"),
        ];
        let g = Graph::build(&units);
        assert!(g.reachable[node_id(&g, "dispatch")], "re-exported fn resolves");
    }

    #[test]
    fn calls_through_use_aliases_resolve() {
        // `go` and `run` name no fn: only the aliases the re-export and
        // the import give `dispatch` resolve them.
        let units = [
            unit(
                "crates/alpha/src/lib.rs",
                "pub mod eng; pub use eng::dispatch as go; \
                 pub fn relay() { go(); } pub fn qualified() { crate::go(); }",
            ),
            unit("crates/alpha/src/eng.rs", "pub fn dispatch() {}"),
            unit(
                "crates/beta/src/lib.rs",
                "use alpha::eng::dispatch as run; pub fn imported() { run(); }",
            ),
        ];
        let g = Graph::build(&units);
        let dispatch = node_id(&g, "dispatch");
        for caller in ["relay", "qualified", "imported"] {
            assert!(g.edges[node_id(&g, caller)].contains(&dispatch), "{caller}: {:?}", g.edges);
        }
    }

    #[test]
    fn each_call_site_keeps_its_callees() {
        // An imported call, a `Self::` call, a type-qualified call and a
        // method call that passes the owner gate each resolve at their own
        // site; `a.load(..)` names no mentioned owner and resolves nowhere.
        let units = [
            unit(
                "crates/alpha/src/lib.rs",
                "pub mod util; use util::helper; pub struct W; \
                 impl W { pub fn new() -> W { W } pub fn step(&self) { Self::inner(); } \
                          fn inner() {} } \
                 pub fn drive(w: &W, a: &AtomicU8) { helper(); W::new(); w.step(); a.load(R); }",
            ),
            unit("crates/alpha/src/util.rs", "pub fn helper() {}"),
            unit("crates/beta/src/lib.rs", "pub struct Vm; impl Vm { pub fn load(&self) {} }"),
        ];
        let g = Graph::build(&units);
        let (lexed, model) = (&units[0].lexed, &units[0].model);
        let site = |name: &str| match model.calls.iter().find(|c| lexed.is_ident(c.name, name)) {
            Some(c) => c.dot,
            None => {
                model.free_calls.iter().find(|c| lexed.is_ident(c.name, name)).map_or(0, |c| c.name)
            }
        };
        for name in ["helper", "inner", "new", "step"] {
            assert_eq!(g.callees(0, site(name)), [node_id(&g, name)], "{name}");
        }
        assert!(g.callees(0, site("load")).is_empty());
        // A node's edges are the union of its own sites' callees.
        for (n, node) in g.nodes.iter().enumerate() {
            let m = &units[node.file].model;
            let toks = m.calls.iter().map(|c| c.dot).chain(m.free_calls.iter().map(|c| c.name));
            let own = toks.filter(|&t| m.enclosing_fn_idx(t) == Some(node.fn_idx));
            let union: BTreeSet<usize> =
                own.flat_map(|t| g.callees(node.file, t)).copied().collect();
            assert_eq!(g.edges[n], union, "{}", node.name);
        }
        assert_eq!(g.edges[node_id(&g, "drive")].len(), 3);
    }

    #[test]
    fn method_dispatch_is_by_name_and_unreachable_stays_out() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub struct Injector; impl Injector { pub fn fire(&self, w: &W) { w.step(); } } \
             pub struct W; impl W { pub fn step(&self) {} pub fn never(&self) {} }",
        )];
        let g = Graph::build(&units);
        assert!(g.reachable[node_id(&g, "step")]);
        assert!(!g.reachable[node_id(&g, "never")], "uncalled method is not reachable");
    }

    #[test]
    fn method_edges_require_a_type_or_trait_mention() {
        // `fire` calls `.load(..)` on a std atomic: beta's `Vm::load` has
        // the same name, but alpha never mentions `Vm`, so no edge forms.
        // gamma calls through `Box<dyn Pump>`: naming the *trait* is
        // enough to edge into every implementor's method.
        let units = [
            unit(
                "crates/alpha/src/lib.rs",
                "pub struct Injector; impl Injector { \
                   pub fn fire(&self, a: &AtomicU8) { a.load(Relaxed); } }",
            ),
            unit("crates/beta/src/lib.rs", "pub struct Vm; impl Vm { pub fn load(&self) {} }"),
            unit(
                "crates/gamma/src/lib.rs",
                "pub struct Injector; impl Injector { \
                   pub fn drive(&self, p: &mut Box<dyn Pump>) { p.pump(); } }",
            ),
            unit(
                "crates/delta/src/lib.rs",
                "pub struct Piston; impl Pump for Piston { pub fn pump(&mut self) {} }",
            ),
        ];
        let g = Graph::build(&units);
        assert!(!g.reachable[node_id(&g, "load")], "std-method name collision edges nothing");
        assert!(g.reachable[node_id(&g, "pump")], "trait mention reaches dyn implementors");
    }

    #[test]
    fn key_owners_join_the_sched_set() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub struct Ring { keys: Vec<EventKey> } \
             impl Ring { pub fn tune(&mut self) {} } \
             pub struct Driver; \
             impl Driver { pub fn drain(&self, sim: &mut Sim) { sim.run_until(9); } } \
             pub fn bystander() {}",
        )];
        let g = Graph::build(&units);
        assert!(g.sched[node_id(&g, "tune")], "inherent methods of EventKey owners are S");
        assert!(g.sched[node_id(&g, "drain")], "scheduler-primitive callers are S");
        assert!(!g.sched[node_id(&g, "bystander")]);
    }

    #[test]
    fn sched_set_covers_heap_owners_and_scheduler_callers() {
        let units = [unit(
            "crates/alpha/src/lib.rs",
            "pub struct Q { h: BinaryHeap<(SimTime, u64)> } \
             impl Q { pub fn push(&mut self) {} } \
             pub fn arms(sim: &mut Sim) { sim.schedule_at(1); } \
             pub fn plain() {}",
        )];
        let g = Graph::build(&units);
        assert!(g.sched[node_id(&g, "push")], "heap-owning type's methods are S");
        assert!(g.sched[node_id(&g, "arms")], "scheduler-primitive callers are S");
        assert!(!g.sched[node_id(&g, "plain")]);
        assert!(g.heap_elem_types.contains("SimTime"));
    }

    #[test]
    fn no_entries_means_unscoped() {
        let units = [unit("crates/alpha/src/lib.rs", "pub fn lonely() {}")];
        let g = Graph::build(&units);
        assert!(!g.has_entries());
        // The scope the engine substitutes has nothing in S or R.
        let s = FileScope::unscoped();
        assert!(!s.in_sched(0) && !s.in_reach(0));
        assert!(!s.heap_in_scope() && !s.ord_in_scope("Ev"));
    }
}
