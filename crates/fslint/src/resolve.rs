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
//! to `None` and simply contributes no call-graph edge. Inline `mod m {}`
//! blocks share their file's module path.

use crate::parse::UseDecl;
use std::collections::{BTreeMap, BTreeSet};

/// A file's module coordinates: which crate it belongs to and the module
/// path within that crate.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ModPath {
    /// Canonical crate key (the directory name under `crates/`, or
    /// `fail_stutter` for the root package, or a standalone-file key).
    pub krate: String,
    /// Module segments within the crate (`[]` for the crate root;
    /// `["bin", "fs-campaign"]` for a binary root).
    pub modules: Vec<String>,
}

impl ModPath {
    /// The absolute form `[krate, modules…]` used as a lookup key.
    pub fn abs(&self) -> Vec<String> {
        let mut v = Vec::with_capacity(1 + self.modules.len());
        v.push(self.krate.clone());
        v.extend(self.modules.iter().cloned());
        v
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
        return ModPath { krate: comps[i + 1].to_string(), modules: file_modules(&comps[i + 3..]) };
    }
    // The root package's `src/` tree (workspace-relative paths only).
    if comps.first() == Some(&"src") && comps.len() > 1 {
        return ModPath { krate: "fail_stutter".to_string(), modules: file_modules(&comps[1..]) };
    }
    // Standalone root: integration tests, examples, unmatched files.
    ModPath { krate: path.trim_end_matches(".rs").to_string(), modules: Vec::new() }
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

/// Workspace-level name tables the canonicaliser consults.
#[derive(Debug, Default)]
pub struct Resolver {
    /// Importable crate name → canonical crate key.
    pub aliases: BTreeMap<String, String>,
    /// Every known absolute module path `[krate, modules…]`.
    pub modules: BTreeSet<Vec<String>>,
}

impl Resolver {
    /// Builds the alias and module tables from the scanned files'
    /// [`ModPath`]s.
    pub fn from_mod_paths(mod_paths: &[ModPath]) -> Resolver {
        let mut res = Resolver::default();
        for mp in mod_paths {
            for alias in crate_aliases(&mp.krate) {
                res.aliases.insert(alias, mp.krate.clone());
            }
            // Register the module and every prefix of it.
            let abs = mp.abs();
            for end in 1..=abs.len() {
                res.modules.insert(abs[..end].to_vec());
            }
        }
        res
    }

    /// Canonicalises a path written at `at` into absolute
    /// `[krate, modules…, item…]` segments. `None` when the head is not
    /// addressable in the scanned workspace (std, unknown crates).
    pub fn canon(&self, at: &ModPath, segs: &[String]) -> Option<Vec<String>> {
        let head = segs.first()?;
        let mut out: Vec<String>;
        let mut rest = segs;
        match head.as_str() {
            "crate" => {
                out = vec![at.krate.clone()];
                rest = &rest[1..];
            }
            "self" => {
                out = at.abs();
                rest = &rest[1..];
            }
            "super" => {
                out = at.abs();
                while rest.first().is_some_and(|s| s == "super") {
                    // Popping past the crate root is unresolvable.
                    if out.len() <= 1 {
                        return None;
                    }
                    out.pop();
                    rest = &rest[1..];
                }
            }
            name => {
                if let Some(k) = self.aliases.get(name) {
                    out = vec![k.clone()];
                } else {
                    // A submodule of the current module, else a root module
                    // of the current crate.
                    let mut sub = at.abs();
                    sub.push(name.to_string());
                    if self.modules.contains(&sub) {
                        out = sub;
                    } else {
                        let root = vec![at.krate.clone(), name.to_string()];
                        if self.modules.contains(&root) {
                            out = root;
                        } else {
                            return None;
                        }
                    }
                }
                rest = &rest[1..];
            }
        }
        out.extend(rest.iter().cloned());
        Some(out)
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
pub struct ImportMap {
    /// Visible name → absolute target segments.
    pub named: BTreeMap<String, Vec<String>>,
    /// Absolute module prefixes imported wholesale (`use m::*`).
    pub globs: Vec<Vec<String>>,
}

/// Builds a file's [`ImportMap`] from its flattened `use` items.
pub(crate) fn import_map(uses: &[UseDecl], res: &Resolver, at: &ModPath) -> ImportMap {
    let mut map = ImportMap::default();
    for u in uses {
        let Some(abs) = res.canon(at, &u.segs) else { continue };
        if u.glob {
            map.globs.push(abs);
        } else if let Some(name) = u.alias.clone().or_else(|| u.segs.last().cloned()) {
            if name != "_" {
                map.named.insert(name, abs);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mp(krate: &str, modules: &[&str]) -> ModPath {
        ModPath {
            krate: krate.to_string(),
            modules: modules.iter().map(|m| m.to_string()).collect(),
        }
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
        assert!(got.modules.is_empty());
        assert_eq!(got.krate, "tests/campaign_smoke");
    }

    fn resolver() -> Resolver {
        Resolver::from_mod_paths(&[
            mp("bench", &["campaign", "scenario"]),
            mp("adapt", &["oracle"]),
            mp("simcore", &["prelude"]),
        ])
    }

    #[test]
    fn crate_aliases_cover_dash_and_fs_prefix_forms() {
        let res = resolver();
        for alias in ["bench", "fs_bench"] {
            assert_eq!(res.aliases.get(alias).map(String::as_str), Some("bench"), "{alias}");
        }
    }

    #[test]
    fn canon_resolves_crate_self_super_and_cross_crate_heads() {
        let res = resolver();
        let at = mp("bench", &["campaign", "scenario"]);
        let seg = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            res.canon(&at, &seg(&["crate", "campaign", "run_all"])),
            Some(seg(&["bench", "campaign", "run_all"]))
        );
        assert_eq!(
            res.canon(&at, &seg(&["self", "helper"])),
            Some(seg(&["bench", "campaign", "scenario", "helper"]))
        );
        assert_eq!(
            res.canon(&at, &seg(&["super", "runner", "run_all"])),
            Some(seg(&["bench", "campaign", "runner", "run_all"]))
        );
        assert_eq!(
            res.canon(&at, &seg(&["adapt", "oracle", "check"])),
            Some(seg(&["adapt", "oracle", "check"]))
        );
        assert_eq!(res.canon(&at, &seg(&["std", "mem", "take"])), None);
    }

    #[test]
    fn canon_resolves_sibling_and_root_modules() {
        let res = resolver();
        // From the campaign root, `scenario::run` names the submodule.
        let at = mp("bench", &["campaign"]);
        let got = res.canon(&at, &["scenario".to_string(), "run".to_string()]);
        assert_eq!(got.map(|v| v.join("::")), Some("bench::campaign::scenario::run".into()));
        // From a leaf module, a crate-root module still resolves.
        let at = mp("adapt", &["hedge"]);
        let got = res.canon(&at, &["oracle".to_string(), "check".to_string()]);
        assert_eq!(got.map(|v| v.join("::")), Some("adapt::oracle::check".into()));
    }

    #[test]
    fn import_map_flattens_names_aliases_and_globs() {
        use crate::parse::UseDecl;
        let res = resolver();
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
