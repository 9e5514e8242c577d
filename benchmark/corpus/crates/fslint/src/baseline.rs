//! Finding baselines: adopt the linter on a dirty tree without losing the
//! gate on *new* debt.
//!
//! `fs-lint --write-baseline FILE` records the current findings grouped by
//! `(rule, path)` with a count. A later run with `--baseline FILE` then:
//!
//! * **add semantics** — any finding beyond a key's recorded count fails
//!   the gate and is reported normally; the baseline never grows by itself;
//! * **remove semantics** — keys whose findings have (partly) disappeared
//!   are reported as *stale* so the baseline can be re-written smaller, but
//!   they do not fail the gate.
//!
//! Counts are keyed on `(rule, path)` rather than line numbers so that
//! unrelated edits shifting a file do not churn the baseline; the cost is
//! that a fix and a regression in the same file cancel out, which is why
//! stale entries are surfaced on every run.
//!
//! The file is JSON, read back by the hand-rolled parser below (this crate
//! builds offline, with no serde):
//!
//! ```text
//! { "baseline": [ {"rule": "panic-path", "path": "crates/x.rs", "count": 3} ] }
//! ```

use crate::rules::Finding;
use std::collections::BTreeMap;

/// A recorded set of accepted findings, counted per `(rule, path)`.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(String, String), u64>,
}

/// The result of filtering a run through a baseline.
#[derive(Debug)]
pub struct BaselineDiff {
    /// Findings not covered by the baseline — these fail the gate.
    pub new: Vec<Finding>,
    /// `(rule, path, unused)` keys whose recorded count exceeds what the
    /// run produced; the baseline should be re-written without them.
    pub stale: Vec<(String, String, u64)>,
}

impl Baseline {
    /// Builds a baseline covering exactly `findings`.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut entries: BTreeMap<(String, String), u64> = BTreeMap::new();
        for f in findings {
            *entries.entry((f.rule.to_string(), f.path.clone())).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Number of `(rule, path)` keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the baseline covers nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(rule, path)` keys this baseline records debt for. The engine
    /// uses these to spot suppressions that only silence baselined
    /// findings ([`crate::rules::id::SUPPRESSION_STALE`]).
    pub fn keys(&self) -> impl Iterator<Item = &(String, String)> {
        self.entries.keys()
    }

    /// Splits `findings` into new (beyond the recorded counts) and reports
    /// under-used keys as stale.
    pub fn apply(&self, findings: Vec<Finding>) -> BaselineDiff {
        let mut used: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut new = Vec::new();
        for f in findings {
            let key = (f.rule.to_string(), f.path.clone());
            let budget = self.entries.get(&key).copied().unwrap_or(0);
            let u = used.entry(key).or_insert(0);
            if *u < budget {
                *u += 1;
            } else {
                new.push(f);
            }
        }
        let mut stale = Vec::new();
        for ((rule, path), &count) in &self.entries {
            let u = used.get(&(rule.clone(), path.clone())).copied().unwrap_or(0);
            if u < count {
                stale.push((rule.clone(), path.clone(), count - u));
            }
        }
        BaselineDiff { new, stale }
    }

    /// A copy of this baseline with the `stale` unused counts subtracted;
    /// keys whose count reaches zero are dropped entirely. This is
    /// `--prune-baseline`: re-recording only the debt that still exists,
    /// without re-admitting anything new.
    pub fn pruned(&self, stale: &[(String, String, u64)]) -> Baseline {
        let mut entries = self.entries.clone();
        for (rule, path, unused) in stale {
            let key = (rule.clone(), path.clone());
            let emptied = entries
                .get_mut(&key)
                .map(|c| {
                    *c = c.saturating_sub(*unused);
                    *c == 0
                })
                .unwrap_or(false);
            if emptied {
                entries.remove(&key);
            }
        }
        Baseline { entries }
    }

    /// Renders the baseline file.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"baseline\": [");
        for (i, ((rule, path), count)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"count\": {}}}",
                json_str(rule),
                json_str(path),
                count
            ));
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a baseline file written by [`render`](Self::render).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        p.ws();
        p.eat(b'{')?;
        let key = p.string()?;
        if key != "baseline" {
            return Err(format!("expected \"baseline\" key, found {key:?}"));
        }
        p.eat(b':')?;
        p.eat(b'[')?;
        let mut entries = BTreeMap::new();
        p.ws();
        if !p.peek(b']') {
            loop {
                let (rule, path, count) = p.entry()?;
                *entries.entry((rule, path)).or_insert(0) += count;
                p.ws();
                if p.peek(b',') {
                    p.eat(b',')?;
                } else {
                    break;
                }
            }
        }
        p.eat(b']')?;
        p.eat(b'}')?;
        Ok(Baseline { entries })
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal JSON reader for the one document shape this module writes.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn peek(&mut self, c: u8) -> bool {
        self.ws();
        self.b.get(self.i) == Some(&c)
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.b.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex =
                                self.b.get(self.i..self.i + 4).ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                c => out.push(c as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.ws();
        let start = self.i;
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a count at byte {start}"));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }

    /// One `{"rule": …, "path": …, "count": …}` object, keys in any order.
    fn entry(&mut self) -> Result<(String, String, u64), String> {
        self.eat(b'{')?;
        let (mut rule, mut path, mut count) = (None, None, None);
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            match key.as_str() {
                "rule" => rule = Some(self.string()?),
                "path" => path = Some(self.string()?),
                "count" => count = Some(self.number()?),
                other => return Err(format!("unknown baseline key {other:?}")),
            }
            if self.peek(b',') {
                self.eat(b',')?;
            } else {
                break;
            }
        }
        self.eat(b'}')?;
        Ok((
            rule.ok_or("entry missing \"rule\"")?,
            path.ok_or("entry missing \"path\"")?,
            count.unwrap_or(1),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str) -> Finding {
        Finding { path: path.to_string(), line: 1, rule, message: String::new() }
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let b = Baseline::from_findings(&[
            finding("panic-path", "crates/a.rs"),
            finding("panic-path", "crates/a.rs"),
            finding("float-total-order", "crates/b \"quoted\".rs"),
        ]);
        let parsed = Baseline::parse(&b.render()).expect("parses");
        assert_eq!(parsed, b);
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn covered_findings_pass_and_excess_is_new() {
        let b = Baseline::from_findings(&[finding("panic-path", "crates/a.rs")]);
        let diff = b.apply(vec![
            finding("panic-path", "crates/a.rs"),
            finding("panic-path", "crates/a.rs"),
        ]);
        assert_eq!(diff.new.len(), 1, "one finding beyond the recorded count");
        assert!(diff.stale.is_empty());
    }

    #[test]
    fn different_rule_or_path_is_not_covered() {
        let b = Baseline::from_findings(&[finding("panic-path", "crates/a.rs")]);
        assert_eq!(b.apply(vec![finding("panic-path", "crates/b.rs")]).new.len(), 1);
        assert_eq!(b.apply(vec![finding("float-total-order", "crates/a.rs")]).new.len(), 1);
    }

    #[test]
    fn fixed_findings_surface_as_stale() {
        let b = Baseline::from_findings(&[
            finding("panic-path", "crates/a.rs"),
            finding("panic-path", "crates/a.rs"),
        ]);
        let diff = b.apply(vec![finding("panic-path", "crates/a.rs")]);
        assert!(diff.new.is_empty());
        assert_eq!(diff.stale, vec![("panic-path".into(), "crates/a.rs".into(), 1)]);
    }

    #[test]
    fn pruning_subtracts_stale_counts_and_drops_empty_keys() {
        let b = Baseline::from_findings(&[
            finding("panic-path", "crates/a.rs"),
            finding("panic-path", "crates/a.rs"),
            finding("float-total-order", "crates/b.rs"),
        ]);
        // One of the two a.rs findings is fixed; b.rs is fully fixed.
        let diff = b.apply(vec![finding("panic-path", "crates/a.rs")]);
        let pruned = b.pruned(&diff.stale);
        assert_eq!(pruned.len(), 1, "{pruned:?}");
        assert!(pruned.apply(vec![finding("panic-path", "crates/a.rs")]).new.is_empty());
        assert_eq!(pruned.apply(vec![finding("float-total-order", "crates/b.rs")]).new.len(), 1);
    }

    #[test]
    fn empty_baseline_parses_and_covers_nothing() {
        let b = Baseline::parse("{ \"baseline\": [] }").expect("parses");
        assert!(b.is_empty());
        assert_eq!(b.apply(vec![finding("panic-path", "x.rs")]).new.len(), 1);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        for bad in ["", "{}", "{\"baseline\": [{\"rule\": 3}]}", "{\"other\": []}"] {
            assert!(Baseline::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn missing_count_defaults_to_one() {
        let b = Baseline::parse("{\"baseline\": [{\"rule\": \"panic-path\", \"path\": \"a.rs\"}]}")
            .expect("parses");
        assert!(b.apply(vec![finding("panic-path", "a.rs")]).new.is_empty());
    }
}
