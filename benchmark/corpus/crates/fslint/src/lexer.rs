//! A small hand-rolled Rust lexer: just enough token structure for rule
//! matching, with comments preserved for suppression and note checks.
//!
//! The build environment has no crates.io access, so there is no `syn` to
//! lean on. The lexer therefore recognises exactly the surface the rules
//! need: identifiers (including `r#raw` identifiers), string-ish literals
//! (plain, byte, and raw strings with any `#` count), character literals
//! vs. lifetimes, numbers, punctuation, and both comment forms (line, and
//! block with nesting). Rules match on identifier *tokens*, so a forbidden
//! name inside a string, comment, or doc example can never fire a finding.

/// What kind of token a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `unsafe`, `r#type` → `type`).
    Ident,
    /// A string-ish literal: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#`.
    /// The token text is the literal's inner content, as written.
    Str,
    /// A character or byte literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// A lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// A numeric literal (integer or float, any base, with suffix).
    Num,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Clone, Debug)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// Token text: identifier name, literal content, or punctuation char.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// One comment (line or block, doc or plain), with its span.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Comment text *without* the `//`/`/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (equals `line` for line comments).
    pub end_line: u32,
}

/// The result of lexing one file: code tokens plus preserved comments.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

impl Token {
    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool, out: &mut String) {
        while let Some(c) = self.peek(0) {
            if pred(c) {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
    }
}

/// Lexes `src` into tokens and comments.
///
/// The lexer never fails: malformed input (an unterminated string, a lone
/// backslash) degrades to best-effort tokens rather than an error, because
/// a linter must keep going to report what it *can* see.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor { chars: src.chars().collect(), pos: 0, line: 1 };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let line = cur.line;
        match c {
            _ if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => {
                cur.bump();
                cur.bump();
                let mut text = String::new();
                cur.eat_while(|c| c != '\n', &mut text);
                out.comments.push(Comment { text, line, end_line: line });
            }
            '/' if cur.peek(1) == Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                let mut text = String::new();
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            text.push_str("/*");
                            cur.bump();
                            cur.bump();
                        }
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            if depth > 0 {
                                text.push_str("*/");
                            }
                            cur.bump();
                            cur.bump();
                        }
                        (Some(c), _) => {
                            text.push(c);
                            cur.bump();
                        }
                        (None, _) => break, // unterminated: tolerate
                    }
                }
                out.comments.push(Comment { text, line, end_line: cur.line });
            }
            '"' => {
                cur.bump();
                let text = lex_plain_string(&mut cur);
                out.tokens.push(Token { kind: TokKind::Str, text, line });
            }
            '\'' => lex_quote(&mut cur, &mut out, line),
            _ if is_ident_start(c) => lex_word(&mut cur, &mut out, line),
            _ if c.is_ascii_digit() => {
                let mut text = String::new();
                cur.eat_while(is_ident_continue, &mut text);
                // Consume a fractional part, but never a `..` range operator.
                if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                    text.push('.');
                    cur.bump();
                    cur.eat_while(is_ident_continue, &mut text);
                }
                out.tokens.push(Token { kind: TokKind::Num, text, line });
            }
            _ => {
                cur.bump();
                out.tokens.push(Token { kind: TokKind::Punct, text: c.to_string(), line });
            }
        }
    }
    out
}

/// Lexes the body of a `"…"` string; the opening quote is already consumed.
fn lex_plain_string(cur: &mut Cursor) -> String {
    let mut text = String::new();
    loop {
        match cur.bump() {
            None | Some('"') => break,
            Some('\\') => {
                text.push('\\');
                if let Some(e) = cur.bump() {
                    text.push(e);
                }
            }
            Some(c) => text.push(c),
        }
    }
    text
}

/// Lexes the body of a raw string `r##"…"##`; `hashes` were already counted
/// and the opening quote consumed.
fn lex_raw_string(cur: &mut Cursor, hashes: usize) -> String {
    let mut text = String::new();
    loop {
        match cur.bump() {
            None => break,
            Some('"') => {
                if (0..hashes).all(|k| cur.peek(k) == Some('#')) {
                    for _ in 0..hashes {
                        cur.bump();
                    }
                    break;
                }
                text.push('"');
            }
            Some(c) => text.push(c),
        }
    }
    text
}

/// Disambiguates `'a'` / `'\n'` (char literal) from `'a` / `'static`
/// (lifetime) at an opening single quote.
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    cur.bump(); // the opening '
    match (cur.peek(0), cur.peek(1)) {
        (Some('\\'), _) => {
            // Escaped char literal: consume the escape, then to the close.
            cur.bump();
            let mut text = String::from("\\");
            if let Some(e) = cur.bump() {
                text.push(e);
                if e == 'u' {
                    // \u{…}
                    while let Some(c) = cur.bump() {
                        text.push(c);
                        if c == '}' {
                            break;
                        }
                    }
                }
            }
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
            out.tokens.push(Token { kind: TokKind::Char, text, line });
        }
        (Some(c0), Some('\'')) => {
            // 'x' — a one-character literal (covers '_' and 'r' too).
            cur.bump();
            cur.bump();
            out.tokens.push(Token { kind: TokKind::Char, text: c0.to_string(), line });
        }
        (Some(c0), _) if is_ident_start(c0) => {
            let mut text = String::new();
            cur.eat_while(is_ident_continue, &mut text);
            out.tokens.push(Token { kind: TokKind::Lifetime, text, line });
        }
        _ => out.tokens.push(Token { kind: TokKind::Punct, text: "'".into(), line }),
    }
}

/// Lexes something starting with an identifier character, resolving the
/// string prefixes `r` / `b` / `br` and raw identifiers `r#ident`.
fn lex_word(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    let mut word = String::new();
    cur.eat_while(is_ident_continue, &mut word);

    let is_str_prefix = matches!(word.as_str(), "r" | "b" | "br");
    match (is_str_prefix, cur.peek(0)) {
        (true, Some('"')) => {
            cur.bump();
            let text = if word == "b" {
                lex_plain_string(cur) // b"…" has escapes like a plain string
            } else {
                lex_raw_string(cur, 0)
            };
            out.tokens.push(Token { kind: TokKind::Str, text, line });
        }
        (true, Some('#')) if word != "b" => {
            // Either a raw string r#…#"…"#…# or a raw identifier r#ident.
            let mut hashes = 0usize;
            while cur.peek(hashes) == Some('#') {
                hashes += 1;
            }
            if cur.peek(hashes) == Some('"') {
                for _ in 0..=hashes {
                    cur.bump();
                }
                let text = lex_raw_string(cur, hashes);
                out.tokens.push(Token { kind: TokKind::Str, text, line });
            } else if word == "r" && hashes == 1 && cur.peek(1).is_some_and(is_ident_start) {
                cur.bump(); // the '#'
                let mut name = String::new();
                cur.eat_while(is_ident_continue, &mut name);
                out.tokens.push(Token { kind: TokKind::Ident, text: name, line });
            } else {
                out.tokens.push(Token { kind: TokKind::Ident, text: word, line });
            }
        }
        (true, Some('\'')) if word == "b" => {
            // Byte literal b'x' — reuse the char path.
            lex_quote(cur, out, line);
        }
        _ => out.tokens.push(Token { kind: TokKind::Ident, text: word, line }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_hide_identifiers() {
        let ids = idents(r#"let x = "HashMap::new()"; let y = 1;"#);
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn comments_are_preserved_not_tokenised() {
        let l = lex("// HashMap here\nlet a = 1; /* SystemTime */");
        assert!(l.tokens.iter().all(|t| t.text != "HashMap" && t.text != "SystemTime"));
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        let lifetimes: Vec<_> = l.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        let chars: Vec<_> = l.tokens.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let l = lex("let a = \"x\ny\nz\";\nlet b = 2;");
        let b = l.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }
}
