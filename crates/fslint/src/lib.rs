//! # fslint — the workspace determinism auditor
//!
//! Every tier of this repo's test strategy (docs/TESTING.md) rests on one
//! contract: the simulation is bit-deterministic. Integer sim-time only,
//! ordered collections only, and all randomness flowing through labelled
//! `simcore::rng::Stream::derive` streams. A single stray `HashMap`
//! iteration or a reused stream label silently perturbs the pinned
//! campaign digest with no diagnostic pointing at the cause.
//!
//! `fs-lint` turns that convention into a machine-checked tier-0 gate: an
//! offline, zero-dependency static pass over every `.rs` file in `crates/`,
//! `src/`, `tests/`, and `examples/` (`vendor/`, `target/`, and lint-test
//! `fixtures/` trees are exempt). It is built on a small hand-rolled lexer
//! ([`lexer`]) rather than `syn` — the build environment has no crates.io
//! access — and matches rules against identifier tokens, so forbidden names
//! in strings, comments, and doc examples never fire.
//!
//! ## Rules
//!
//! | rule | enforces |
//! |------|----------|
//! | `no-wall-clock` | no `Instant`/`SystemTime`/`thread::sleep` outside `crates/bench` |
//! | `no-unordered-collections` | `BTreeMap`/`BTreeSet`, never `HashMap`/`HashSet` |
//! | `no-ambient-rng` | no `thread_rng`/`from_entropy`/`rand::random`; streams derive from the master seed |
//! | `unique-stream-labels` | a `derive("…")` label never recurs in a second file |
//! | `forbid-unsafe-everywhere` | crate roots carry `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]`; no `unsafe` anywhere |
//! | `golden-regen-note` | files pinning goldens say how to regenerate them |
//! | `stable-tiebreak` | scheduling-set comparators carry a deterministic tiebreak beyond bare time or floats |
//! | `float-total-order` | float orderings use `total_cmp`, not `partial_cmp().unwrap()` or NaN-absorbing folds |
//! | `panic-path` | no `unwrap`/`expect`/panic macros/computed indexing in injector-reachable code |
//! | `oracle-coverage` | every registered scenario class reaches an oracle module |
//! | `dead-scenario` | no campaign code unreachable from the `fs-campaign` binary |
//! | `digest-taint` | no nondeterministic value flows (interprocedurally) into a digest fold, golden assertion, or bench artifact |
//! | `rng-lineage` | every `Stream::from_seed` is literal- or label-rooted, never a loop index or shard id |
//! | `oracle-taint` | no nondeterministic value flows into an oracle verdict |
//! | `unit-mismatch` | no add/sub/compare/assign across quantities of conflicting inferred units |
//! | `raw-unit-conversion` | no magic `* 1_000`/`* 1_000_000_000` literals outside `simcore::time` |
//! | `rate-confusion` | a per-X rate only combines with a different shape through a `dt` factor |
//! | `threshold-unit` | detector thresholds are configured in the unit they are compared against |
//! | `oracle-pure` | campaign-reachable oracle/detector verdict paths are write-free on sim state |
//! | `injection-scoped` | injectors write only their declared injection surface |
//! | `mitigation-effect` | metastable policy hooks write policy-owned state only |
//! | `suppression-stale` | no `fslint: allow(...)` comment that silences nothing |
//!
//! `stable-tiebreak` and `panic-path` run on a lightweight semantic model
//! ([`parse`]) built over the lexer — function items, impl blocks,
//! comparator closures, and per-function bound variables — and are scoped
//! by a workspace call-graph reachability analysis ([`graph`] over
//! [`resolve`]): `panic-path` fires on the injector-reachable fixpoint
//! `R`, and the full `stable-tiebreak` battery on the scheduling set `S`;
//! a scanned set with no entry points is unscoped, so only the
//! everywhere rules apply. The whole-program rules (`oracle-coverage`,
//! `dead-scenario`) walk the same graph from the campaign's dispatch
//! roots; `--graph-out FILE` exports the graph a run used.
//!
//! The taint rules (`digest-taint`, `rng-lineage`, `oracle-taint`) run an
//! interprocedural, summary-based flow analysis ([`flow`]) over the same
//! call graph: per-function summaries ("returns a wall-clock-derived
//! value") are propagated to a fixpoint, locals and struct fields carry
//! taint across statements, sorting sanitizes unordered-iteration taint,
//! and each finding reports the full source→sink call path. Computed
//! summaries ride along in the `--graph-out` export under `"taint"`.
//!
//! The unit rules (`unit-mismatch`, `raw-unit-conversion`,
//! `rate-confusion`, `threshold-unit`) run a second summary-based pass
//! over the same graph ([`units`]): Kennedy-style dimensional inference
//! seeded from API signatures (`SimTime::from_secs`, `as_nanos()`) and
//! naming discipline (`*_ms`/`*_secs`/`*_ticks`/`*_per_sec` suffixes,
//! `dt`, `lba`), propagated through lets, fields, params, and returns to
//! a per-function fixpoint on a small lattice (unknown ⊑ scalar ⊑
//! concrete ⊑ conflict; mul/div compose dimensions, same-unit division
//! is a dimensionless ratio). Mismatch messages print both inference
//! chains hop by hop; return-unit summaries ride along in the
//! `--graph-out` export under `"unit"`.
//!
//! The effect rules (`oracle-pure`, `injection-scoped`,
//! `mitigation-effect`) run a third summary pass over the same graph
//! ([`effects`]): per-function write/interior-mutability/static-write/
//! RNG-draw/scheduler effect sets are extracted from `self.field = …`
//! assignments, `&mut` parameter writes, mutating method calls, and
//! `schedule_*` dispatch, then propagated caller-ward to a
//! fixpoint with the same via-link hop reporting taint and units use —
//! so "the detector's verdict path mutates the scheduler three calls
//! down" renders as a full call chain. Effect summaries ride along in
//! the `--graph-out` export under `"effects"`.
//!
//! The three summary passes keep only their seeds, transfer functions
//! and rules; the plumbing around them is shared (the crate-private
//! `summary` module): the signature each [`parse::FnItem`] records once,
//! the identifier sets and `(file, fn) → node` map [`graph::Graph`]
//! builds once, one call resolver (the graph keeps the callees of every
//! call site it resolves, and the passes read them instead of matching
//! calls by name), one `let`/`for` binding walker with shadowing, one
//! `.field = value` learner over the assignment sites [`parse`]
//! records, and one hop-chain printer.
//!
//! ## Suppressions
//!
//! Findings are silenced only by an explicit inline comment with a
//! mandatory reason, on the offending line or the line above:
//!
//! ```text
//! // fslint: allow(no-wall-clock) — calibrates the harness against real time
//! ```
//!
//! A reason-less or unparsable directive is itself a finding
//! (`malformed-suppression`) and silences nothing.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p fslint --bin fs-lint                  # lint the workspace
//! cargo run -p fslint --bin fs-lint -- --json        # JSON report on stdout
//! cargo run -p fslint --bin fs-lint -- --list-rules
//! fs-lint path/to/a.rs path/to/b.rs                  # lint exactly these files
//! ```
//!
//! `--out FILE` also writes the JSON report to a file, `--graph-out FILE`
//! exports the call graph, `--timings` adds per-phase wall times, and
//! `--jobs N` sets how many workers run the file scan, the call graph's
//! file tasks, and the taint, unit and effect passes and the per-file
//! rules, the calling thread among them (`--jobs 1` starts none). Exit
//! status: 0 clean, 1 findings, 2 usage error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod effects;
pub mod engine;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod resolve;
pub mod rules;
pub mod sem;
pub(crate) mod summary;
pub mod suppress;
pub mod units;

pub use engine::{collect_workspace_files, lint_paths, lint_workspace, Config, Report};
pub use rules::{Finding, RULES};
