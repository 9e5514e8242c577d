//! Parsing and application of inline suppression comments.
//!
//! The only way to silence a finding in source is an explicit
//!
//! ```text
//! // fslint: allow(no-wall-clock) — why this is sound here
//! ```
//!
//! comment on the offending line or the line directly above it. The reason
//! is mandatory: a suppression that parses but gives none is itself a
//! [`crate::rules::id::MALFORMED_SUPPRESSION`] finding, and does *not*
//! silence anything — accountability is the point.

use crate::lexer::Comment;
use crate::rules::{self, Finding};

/// The marker that turns a comment into a suppression directive.
const MARKER: &str = "fslint:";

/// One parsed, valid suppression.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Rules this suppression silences.
    pub rules: Vec<String>,
    /// Last line of the comment; the suppression covers this line and the
    /// next one.
    pub end_line: u32,
}

/// Result of scanning one file's comments: valid suppressions plus
/// findings for malformed ones.
#[derive(Debug, Default)]
pub struct Scan {
    /// Valid suppressions, each covering its own and the following line.
    pub suppressions: Vec<Suppression>,
    /// `malformed-suppression` findings (path left empty; engine fills it).
    pub malformed: Vec<(u32, String)>,
}

/// Scans comments for suppression directives (the [`MARKER`] prefix).
///
/// Doc comments (`///`, `//!`, `/**`, `/*!` — their text keeps the extra
/// `/`, `!`, or `*` prefix) are documentation, never directives: the crate
/// docs *show* the suppression syntax without suppressing anything.
pub fn scan(comments: &[Comment]) -> Scan {
    let mut out = Scan::default();
    for c in comments {
        if matches!(c.text.chars().next(), Some('/' | '!' | '*')) {
            continue;
        }
        let Some(at) = c.text.find(MARKER) else { continue };
        let directive = c.text[at + MARKER.len()..].trim();
        match parse_allow(directive) {
            Ok(rules) => {
                out.suppressions.push(Suppression { rules, end_line: c.end_line });
            }
            Err(why) => out.malformed.push((c.line, why)),
        }
    }
    out
}

/// Parses `allow(rule, …) <sep> reason`, validating rule names and the
/// mandatory reason.
fn parse_allow(directive: &str) -> Result<Vec<String>, String> {
    let Some(rest) = directive.strip_prefix("allow") else {
        return Err(format!(
            "unrecognised fslint directive {directive:?}; expected \
             `fslint: allow(<rule>) — reason`"
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("missing `(` after `allow`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("missing `)` in `allow(...)`".to_string());
    };
    let (list, tail) = rest.split_at(close);
    let mut rules = Vec::new();
    for raw in list.split(',') {
        let rule = raw.trim();
        if rule.is_empty() {
            return Err("empty rule list in `allow(...)`".to_string());
        }
        if rule == rules::id::MALFORMED_SUPPRESSION {
            return Err(format!("`{rule}` cannot be suppressed"));
        }
        if !rules::is_known_rule(rule) {
            return Err(format!("unknown rule `{rule}` in `allow(...)`"));
        }
        rules.push(rule.to_string());
    }
    // Everything after `)` minus separator punctuation must be a reason.
    let reason: String = tail[1..]
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'))
        .trim()
        .to_string();
    if reason.is_empty() {
        return Err(
            "suppression lacks the mandatory reason (`fslint: allow(<rule>) — reason`)".to_string()
        );
    }
    Ok(rules)
}

/// Drops findings covered by a valid suppression and appends
/// `malformed-suppression` findings for invalid directives in `path`.
///
/// The second return value has one entry per [`Scan::suppressions`]:
/// whether that suppression silenced a finding this run. It is the
/// `suppression-stale` rule's input — a suppression that silences nothing
/// documents an invariant that is now machine-checked or gone.
pub fn apply(path: &str, scan: &Scan, findings: Vec<Finding>) -> (Vec<Finding>, Vec<bool>) {
    let mut used = vec![false; scan.suppressions.len()];
    let mut out: Vec<Finding> = Vec::with_capacity(findings.len());
    for f in findings {
        let mut covered = false;
        for (i, s) in scan.suppressions.iter().enumerate() {
            if (f.line == s.end_line || f.line == s.end_line + 1)
                && s.rules.iter().any(|r| r == f.rule)
            {
                covered = true;
                used[i] = true;
            }
        }
        if !covered {
            out.push(f);
        }
    }
    for (line, why) in &scan.malformed {
        out.push(Finding {
            path: path.to_string(),
            line: *line,
            rule: rules::id::MALFORMED_SUPPRESSION,
            message: why.clone(),
        });
    }
    (out, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(text: &str) -> Comment {
        Comment { text: text.to_string(), line: 3, end_line: 3 }
    }

    #[test]
    fn well_formed_suppression_parses() {
        let s = scan(&[comment(" fslint: allow(no-wall-clock) — calibrating the harness")]);
        assert_eq!(s.suppressions.len(), 1);
        assert!(s.malformed.is_empty());
        assert_eq!(s.suppressions[0].rules, vec!["no-wall-clock"]);
    }

    #[test]
    fn reason_is_mandatory() {
        let s = scan(&[comment(" fslint: allow(no-wall-clock)")]);
        assert!(s.suppressions.is_empty());
        assert_eq!(s.malformed.len(), 1);
        assert!(s.malformed[0].1.contains("reason"));
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let s = scan(&[comment(" fslint: allow(no-such-rule) — because")]);
        assert!(s.suppressions.is_empty());
        assert_eq!(s.malformed.len(), 1);
    }

    #[test]
    fn ascii_separators_work_too() {
        let s = scan(&[comment(" fslint: allow(no-ambient-rng) -- vendored shim boundary")]);
        assert_eq!(s.suppressions.len(), 1);
    }
}
