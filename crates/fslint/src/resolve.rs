//! Per-crate module resolution for the workspace call graph.
//!
//! The call graph ([`crate::graph`]) keys function nodes on
//! *(crate, module path, name)*. This module recovers those coordinates
//! without `cargo` metadata (the build is offline): a file's module path is
//! derived from its on-disk location, crate names are aliased by the
//! workspace's naming conventions, and `use` declarations are flattened
//! into a per-file import map of canonical absolute paths.
//!
//! * `crates/<c>/src/lib.rs` → crate `c`, module root; `<m>.rs` and
//!   `<m>/mod.rs` → module `[m]`, nested files nest further.
//! * `crates/<c>/src/bin/<b>.rs` → crate `c`, module `[bin, b]` — binary
//!   roots are kept addressable so entry points like the `fs-campaign`
//!   `main` can anchor whole-program rules.
//! * The root package's `src/` tree is crate `fail_stutter` (its lib
//!   name). Anything else (integration tests, examples, stray fixtures)
//!   becomes its own standalone root so its `use other_crate::…` imports
//!   still resolve cross-crate.
//! * A crate directory `d` is importable as `d`, `d` with dashes
//!   underscored, and `fs_<d>` (the `bench` directory builds the
//!   `fs-bench` package, imported as `fs_bench`).
//!
//! Everything here is a conservative approximation: a path that cannot be
//! canonicalised (std, vendored names, macro-generated modules) resolves
//! to nothing and simply contributes no call-graph edge. Inline `mod m {}`
//! blocks share their file's module path.
//!
//! Paths are resolved as borrowed segments: the resolver's tables and an
//! [`ImportMap`] hold `&str`s that point into the scanned files' module
//! paths and `use` items, and [`Resolver::canon`] writes into a buffer
//! its caller reuses, so resolving a call copies no name.

use crate::parse::UseDecl;
use std::collections::{BTreeMap, BTreeSet};

/// A file's module coordinates: which crate it belongs to and the module
/// path within that crate, stored once in the absolute form `[krate,
/// modules…]` that the call graph keys on and borrows.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ModPath {
    abs: Vec<String>,
}

impl ModPath {
    /// Canonical crate key (the directory name under `crates/`, or
    /// `fail_stutter` for the root package, or a standalone-file key).
    pub fn krate(&self) -> &str {
        &self.abs[0]
    }

    /// Module segments within the crate (`[]` for the crate root;
    /// `["bin", "fs-campaign"]` for a binary root).
    pub fn modules(&self) -> &[String] {
        &self.abs[1..]
    }

    /// The absolute form `[krate, modules…]` used as a lookup key.
    pub fn abs(&self) -> &[String] {
        &self.abs
    }

    fn new(krate: &str, modules: Vec<String>) -> ModPath {
        let mut abs = modules;
        abs.insert(0, krate.to_string());
        ModPath { abs }
    }
}

/// Derives a file's [`ModPath`] from its path (workspace-relative or
/// absolute; `/`-separated). Matching is positional on the
/// `crates/<c>/src/` shape — the *last* occurrence wins, so lint-fixture
/// trees that mirror the shape resolve like the real thing.
pub(crate) fn module_path(path: &str) -> ModPath {
    let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
    // `crates/<c>/src/…` anywhere in the path (last occurrence wins).
    let hit = (0..comps.len())
        .rev()
        .find(|&i| comps[i] == "crates" && i + 2 < comps.len() && comps[i + 2] == "src");
    if let Some(i) = hit {
        return ModPath::new(comps[i + 1], file_modules(&comps[i + 3..]));
    }
    // The root package's `src/` tree (workspace-relative paths only).
    if comps.first() == Some(&"src") && comps.len() > 1 {
        return ModPath::new("fail_stutter", file_modules(&comps[1..]));
    }
    // Standalone root: integration tests, examples, unmatched files.
    ModPath::new(path.trim_end_matches(".rs"), Vec::new())
}

/// Module segments for the path components below a `src/` root.
fn file_modules(comps: &[&str]) -> Vec<String> {
    let mut mods: Vec<String> = Vec::new();
    for (i, c) in comps.iter().enumerate() {
        if i + 1 == comps.len() {
            let stem = c.trim_end_matches(".rs");
            if stem != "lib" && stem != "main" && stem != "mod" {
                mods.push(stem.to_string());
            }
        } else {
            mods.push((*c).to_string());
        }
    }
    mods
}

/// Workspace-level name tables the canonicaliser consults, borrowing the
/// scanned files' [`ModPath`]s.
#[derive(Debug, Default)]
pub struct Resolver<'a> {
    /// Importable crate name → canonical crate key.
    pub aliases: BTreeMap<String, &'a str>,
    /// Every known absolute module path `[krate, modules…]`.
    pub modules: BTreeSet<Vec<&'a str>>,
}

impl<'a> Resolver<'a> {
    /// Builds the alias and module tables from the scanned files'
    /// [`ModPath`]s.
    pub fn from_mod_paths(mod_paths: impl IntoIterator<Item = &'a ModPath>) -> Resolver<'a> {
        let mut res = Resolver::default();
        for mp in mod_paths {
            for alias in crate_aliases(mp.krate()) {
                res.aliases.insert(alias, mp.krate());
            }
            // Register the module and every prefix of it.
            let abs: Vec<&str> = mp.abs().iter().map(String::as_str).collect();
            for end in 1..=abs.len() {
                if !res.modules.contains(&abs[..end]) {
                    res.modules.insert(abs[..end].to_vec());
                }
            }
        }
        res
    }

    /// Canonicalises a path written at `at` into absolute
    /// `[krate, modules…, item…]` segments, written into `out`. False
    /// (with `out` unspecified) when the path is empty or its head is not
    /// addressable in the scanned workspace (std, unknown crates).
    pub fn canon(
        &self,
        at: &'a ModPath,
        segs: impl IntoIterator<Item = &'a str>,
        out: &mut Vec<&'a str>,
    ) -> bool {
        out.clear();
        let mut segs = segs.into_iter().peekable();
        let Some(head) = segs.next() else { return false };
        let abs = at.abs().iter().map(String::as_str);
        match head {
            "crate" => out.push(at.krate()),
            "self" => out.extend(abs),
            "super" => {
                out.extend(abs);
                // Each leading `super`, this one included, pops a module;
                // popping past the crate root is unresolvable.
                loop {
                    if out.len() <= 1 {
                        return false;
                    }
                    out.pop();
                    if segs.next_if_eq(&"super").is_none() {
                        break;
                    }
                }
            }
            name => {
                if let Some(k) = self.aliases.get(name) {
                    out.push(k);
                } else {
                    // A submodule of the current module, else a root module
                    // of the current crate.
                    out.extend(abs);
                    out.push(name);
                    if !self.modules.contains(&out[..]) {
                        out.clear();
                        out.extend([at.krate(), name]);
                        if !self.modules.contains(&out[..]) {
                            return false;
                        }
                    }
                }
            }
        }
        out.extend(segs);
        true
    }
}

/// The names under which the crate keyed `key` can be imported.
fn crate_aliases(key: &str) -> Vec<String> {
    let underscored = key.replace('-', "_");
    let mut out = vec![key.to_string(), underscored.clone(), format!("fs_{underscored}")];
    out.dedup();
    out
}

/// One file's imports, with targets already canonicalised.
#[derive(Debug, Default)]
pub struct ImportMap<'a> {
    /// Visible name → absolute target segments.
    pub named: BTreeMap<&'a str, Vec<&'a str>>,
    /// Absolute module prefixes imported wholesale (`use m::*`).
    pub globs: Vec<Vec<&'a str>>,
}

/// Builds a file's [`ImportMap`] from its flattened `use` items.
pub(crate) fn import_map<'a>(
    uses: &'a [UseDecl],
    res: &Resolver<'a>,
    at: &'a ModPath,
) -> ImportMap<'a> {
    let mut map = ImportMap::default();
    let mut abs = Vec::new();
    for u in uses {
        if !res.canon(at, u.segs.iter().map(String::as_str), &mut abs) {
            continue;
        }
        if u.glob {
            map.globs.push(abs.clone());
        } else if let Some(name) = u.alias.as_deref().or_else(|| u.segs.last().map(String::as_str))
        {
            if name != "_" {
                map.named.insert(name, abs.clone());
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mp(krate: &str, modules: &[&str]) -> ModPath {
        ModPath::new(krate, modules.iter().map(|m| m.to_string()).collect())
    }

    /// `segs` written at `at`, canonicalised; `None` when unresolvable.
    fn canon<'a>(res: &Resolver<'a>, at: &'a ModPath, segs: &[&'a str]) -> Option<String> {
        let mut out = Vec::new();
        res.canon(at, segs.iter().copied(), &mut out).then(|| out.join("::"))
    }

    #[test]
    fn file_paths_map_to_module_paths() {
        for (path, want) in [
            ("crates/simcore/src/lib.rs", mp("simcore", &[])),
            ("crates/simcore/src/sim.rs", mp("simcore", &["sim"])),
            ("crates/bench/src/campaign/mod.rs", mp("bench", &["campaign"])),
            ("crates/bench/src/campaign/scenario.rs", mp("bench", &["campaign", "scenario"])),
            ("crates/bench/src/bin/fs-campaign.rs", mp("bench", &["bin", "fs-campaign"])),
            ("src/lib.rs", mp("fail_stutter", &[])),
            (
                "/abs/repo/crates/fslint/tests/fixtures/graph/crates/alpha/src/eng.rs",
                mp("alpha", &["eng"]),
            ),
        ] {
            assert_eq!(module_path(path), want, "{path}");
        }
    }

    #[test]
    fn unmatched_files_are_standalone_roots() {
        let got = module_path("tests/campaign_smoke.rs");
        assert!(got.modules().is_empty());
        assert_eq!(got.krate(), "tests/campaign_smoke");
    }

    fn mod_paths() -> [ModPath; 3] {
        [
            mp("bench", &["campaign", "scenario"]),
            mp("adapt", &["oracle"]),
            mp("simcore", &["prelude"]),
        ]
    }

    #[test]
    fn crate_aliases_cover_dash_and_fs_prefix_forms() {
        let mps = mod_paths();
        let res = Resolver::from_mod_paths(&mps);
        for alias in ["bench", "fs_bench"] {
            assert_eq!(res.aliases.get(alias).copied(), Some("bench"), "{alias}");
        }
    }

    #[test]
    fn canon_resolves_crate_self_super_and_cross_crate_heads() {
        let mps = mod_paths();
        let res = Resolver::from_mod_paths(&mps);
        let at = mp("bench", &["campaign", "scenario"]);
        let got = |segs: &[&'static str]| canon(&res, &at, segs);
        assert_eq!(
            got(&["crate", "campaign", "run_all"]).as_deref(),
            Some("bench::campaign::run_all")
        );
        assert_eq!(got(&["self", "helper"]).as_deref(), Some("bench::campaign::scenario::helper"));
        assert_eq!(
            got(&["super", "runner", "run_all"]).as_deref(),
            Some("bench::campaign::runner::run_all")
        );
        assert_eq!(got(&["super", "super", "x"]).as_deref(), Some("bench::x"));
        assert_eq!(got(&["super", "super", "super", "x"]), None, "past the crate root");
        assert_eq!(got(&["adapt", "oracle", "check"]).as_deref(), Some("adapt::oracle::check"));
        assert_eq!(got(&["std", "mem", "take"]), None);
        assert_eq!(got(&[]), None);
    }

    #[test]
    fn canon_resolves_sibling_and_root_modules() {
        let mps = [mp("bench", &["campaign", "scenario"]), mp("adapt", &["oracle"])];
        let res = Resolver::from_mod_paths(&mps);
        // From the campaign root, `scenario::run` names the submodule.
        let at = mp("bench", &["campaign"]);
        let got = canon(&res, &at, &["scenario", "run"]);
        assert_eq!(got.as_deref(), Some("bench::campaign::scenario::run"));
        // From a leaf module, a crate-root module still resolves.
        let at = mp("adapt", &["hedge"]);
        let got = canon(&res, &at, &["oracle", "check"]);
        assert_eq!(got.as_deref(), Some("adapt::oracle::check"));
    }

    #[test]
    fn import_map_flattens_names_aliases_and_globs() {
        use crate::parse::UseDecl;
        let mps = mod_paths();
        let res = Resolver::from_mod_paths(&mps);
        let at = mp("bench", &["campaign", "scenario"]);
        let d = |segs: &[&str], alias: Option<&str>, glob: bool| UseDecl {
            segs: segs.iter().map(|s| s.to_string()).collect(),
            alias: alias.map(String::from),
            glob,
            is_pub: false,
            line: 1,
        };
        let uses = [
            d(&["adapt", "oracle"], Some("qoracle"), false),
            d(&["simcore", "prelude"], None, true),
            d(&["std", "collections", "BTreeMap"], None, false),
        ];
        let map = import_map(&uses, &res, &at);
        assert_eq!(map.named.get("qoracle").map(|v| v.join("::")), Some("adapt::oracle".into()));
        assert_eq!(map.globs.len(), 1);
        assert!(!map.named.contains_key("BTreeMap"), "std targets do not canonicalise");
    }
}
