//! SARIF 2.1.0 rendering of a lint report (`--format sarif`).
//!
//! GitHub code scanning ingests SARIF and annotates findings inline on
//! pull requests, which turns the tier-0 gate's terse CI log into
//! per-line review comments. Like [`crate::baseline`], the document is
//! hand-rolled — this crate builds offline, with no serde — and emits
//! only the subset code scanning reads: the tool driver with its rule
//! ids (each carrying a `helpUri` into the docs/TESTING.md rule table
//! and a `defaultConfiguration.level`), and one `result` per finding
//! with a `ruleId`, a `level`, a message, and a physical location.
//! Findings keep the engine's (path, line, rule) order, so the output
//! is as deterministic as the JSON report.

use crate::engine::{json_str, Report};
use crate::rules::{HELP_BASE, RULES};

/// The severity a rule declared in its [`crate::rules::RuleInfo`];
/// engine-synthesised rules absent from the table report as errors.
fn level_for(rule: &str) -> &'static str {
    RULES.iter().find(|r| r.id == rule).map_or("error", |r| r.level)
}

/// Renders the report as a SARIF 2.1.0 document.
pub fn render(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"fs-lint\",\n");
    out.push_str("          \"informationUri\": \"crates/fslint\",\n");
    out.push_str("          \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \
             \"helpUri\": {}, \"defaultConfiguration\": {{\"level\": {}}}}}",
            json_str(r.id),
            json_str(r.summary),
            json_str(&format!("{HELP_BASE}{}", r.help)),
            json_str(r.level)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // SARIF regions are 1-based; engine-synthesised findings (file
        // read errors) carry line 0 and clamp to 1.
        out.push_str(&format!(
            "\n        {{\"ruleId\": {}, \"level\": {}, \
             \"message\": {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            json_str(f.rule),
            json_str(level_for(f.rule)),
            json_str(&f.message),
            json_str(&f.path),
            f.line.max(1)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn sarif_document_has_driver_rules_and_results() {
        let report = Report {
            findings: vec![Finding {
                path: "crates/x/src/lib.rs".to_string(),
                line: 7,
                rule: crate::rules::id::DIGEST_TAINT,
                message: "a \"quoted\" message".to_string(),
            }],
            files_scanned: 1,
            graph_json: None,
            timings: None,
        };
        let doc = render(&report);
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("\"name\": \"fs-lint\""));
        assert!(doc.contains("\"ruleId\": \"digest-taint\""));
        assert!(doc.contains("\"startLine\": 7"));
        assert!(doc.contains("a \\\"quoted\\\" message"));
        // Every registered rule is described in the driver block, with a
        // help link into the TESTING.md rule table and a default level.
        for r in RULES {
            assert!(doc.contains(&format!("\"id\": \"{}\"", r.id)), "{}", r.id);
            assert!(
                doc.contains(&format!("\"helpUri\": \"{HELP_BASE}{}\"", r.help)),
                "{} lacks its helpUri",
                r.id
            );
        }
        assert!(doc.contains("\"defaultConfiguration\": {\"level\": \"error\"}"));
        assert!(doc.contains("\"defaultConfiguration\": {\"level\": \"warning\"}"));
    }

    #[test]
    fn result_level_follows_the_rule_table() {
        let report = Report {
            findings: vec![
                Finding {
                    path: "a.rs".to_string(),
                    line: 1,
                    rule: crate::rules::id::ORACLE_PURE,
                    message: "m".to_string(),
                },
                Finding {
                    path: "a.rs".to_string(),
                    line: 2,
                    rule: crate::rules::id::SUPPRESSION_STALE,
                    message: "m".to_string(),
                },
            ],
            files_scanned: 1,
            graph_json: None,
            timings: None,
        };
        let doc = render(&report);
        assert!(doc.contains("\"ruleId\": \"oracle-pure\", \"level\": \"error\""));
        assert!(doc.contains("\"ruleId\": \"suppression-stale\", \"level\": \"warning\""));
    }

    #[test]
    fn zero_line_findings_clamp_to_one() {
        let report = Report {
            findings: vec![Finding {
                path: "gone.rs".to_string(),
                line: 0,
                rule: crate::rules::id::MALFORMED_SUPPRESSION,
                message: "could not read file".to_string(),
            }],
            files_scanned: 0,
            graph_json: None,
            timings: None,
        };
        assert!(render(&report).contains("\"startLine\": 1"));
    }
}
