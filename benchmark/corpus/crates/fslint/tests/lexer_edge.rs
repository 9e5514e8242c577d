//! Lexer edge cases: raw strings, nested block comments, char literals,
//! and `r#`-identifiers must not confuse rule matching.

use fslint::rules::id;
use fslint::{lint_paths, Config};
use std::path::{Path, PathBuf};

fn lint(names: &[&str]) -> Vec<fslint::Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let files: Vec<PathBuf> = names
        .iter()
        .map(|n| Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(n))
        .collect();
    lint_paths(&root, &files, &Config::default()).findings
}

#[test]
fn decoys_in_strings_and_comments_never_fire() {
    let findings = lint(&["edge_cases_neg.rs"]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lexer_resynchronises_after_tricky_constructs() {
    // The positive gauntlet hides decoys in raw strings, nested comments,
    // and a '"' char literal — then commits one real HashMap violation.
    // Exactly that one finding must surface, on the right line.
    let findings = lint(&["edge_cases_pos.rs"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, id::NO_UNORDERED_COLLECTIONS);
    assert_eq!(findings[0].line, 9);
}

#[test]
fn raw_string_hash_counts_nest_correctly() {
    use fslint::lexer::{lex, TokKind};
    let l = lex(r####"let x = r##"inner r#"deep"# HashMap"##; let y = HashSet::new();"####);
    let strs: Vec<_> =
        l.tokens.iter().filter(|t| t.kind == TokKind::Str).map(|t| t.text.clone()).collect();
    assert_eq!(strs, vec![r##"inner r#"deep"# HashMap"##.to_string()]);
    // The HashMap inside the raw string is invisible; the HashSet after it
    // is real code and must be visible.
    assert!(!l.tokens.iter().any(|t| t.is_ident("HashMap")));
    assert!(l.tokens.iter().any(|t| t.is_ident("HashSet")));
}

#[test]
fn nested_block_comments_close_at_the_right_depth() {
    use fslint::lexer::lex;
    let l = lex("/* a /* b /* c */ b */ a */ let real = 1;");
    assert_eq!(l.comments.len(), 1);
    assert!(l.comments[0].text.contains("c"));
    assert!(l.tokens.iter().any(|t| t.is_ident("real")));
}

#[test]
fn raw_identifiers_resolve_to_their_name() {
    use fslint::lexer::lex;
    // `r#type` is the identifier `type`, not a raw string opener; the
    // string after it must still lex as one string.
    let l = lex(r#"let r#type = "HashMap"; let done = 0;"#);
    assert!(l.tokens.iter().any(|t| t.is_ident("type")));
    assert!(l.tokens.iter().any(|t| t.is_ident("done")));
    assert!(!l.tokens.iter().any(|t| t.is_ident("HashMap")));
}

#[test]
fn char_literals_and_lifetimes_disambiguate() {
    use fslint::lexer::{lex, TokKind};
    let l = lex("fn f<'de>(q: &'de str) { let a = '\"'; let b = '\\''; let c = 'x'; }");
    assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
    assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
    // Nothing after the '"' char literal may be swallowed as a string.
    assert!(l.tokens.iter().any(|t| t.is_ident("c")));
}
