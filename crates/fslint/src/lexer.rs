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
//!
//! The lexer walks the source by byte offset, decoding a char only where
//! a byte is not ASCII, and slices each token's text out of the source
//! once. A token whose text is one printable ASCII character (all
//! punctuation) or a keyword borrows static text, so most tokens
//! allocate nothing.
//!
//! Brackets are paired once per file, by one stack pass after lexing: the
//! *pair table* beside the tokens gives each bracket its partner, so the
//! parser and the analyses jump over a group, or walk one bracket level,
//! by lookup instead of counting depth.

use std::borrow::Cow;

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
    /// Static for one printable ASCII character or a keyword, else owned.
    pub text: Cow<'static, str>,
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
    /// The pair table: each bracket token's partner index, `UNPAIRED`
    /// for every other token. Kept beside the tokens rather than in
    /// `Token`, whose size it would grow by a quarter.
    pairs: Vec<u32>,
}

/// A pair-table entry for a token that pairs with nothing.
const UNPAIRED: u32 = u32::MAX;

impl Lexed {
    /// The bracket paired with the bracket at `i`: an opener's closer (the
    /// last token when it never closes) or a closer's opener. `None` for a
    /// token that is no bracket and for a closer with nothing open.
    pub(crate) fn partner(&self, i: usize) -> Option<usize> {
        let p = self.pairs[i];
        (p != UNPAIRED).then_some(p as usize)
    }

    /// The closer of the group the bracket at `open` opens; the last token
    /// when the group never closes.
    pub(crate) fn close_of(&self, open: usize) -> usize {
        let close = self.partner(open);
        debug_assert!(close.is_some_and(|c| c >= open), "token {open} opens no group");
        close.unwrap_or(open)
    }

    /// The next token at `i`'s bracket level: past the whole group when
    /// `i` opens one.
    pub(crate) fn step(&self, i: usize) -> usize {
        match self.partner(i) {
            Some(close) if close >= i => close + 1,
            _ => i + 1,
        }
    }

    /// The previous token at `i`'s bracket level: before the whole group
    /// when `i` closes one; `None` past the first token.
    pub(crate) fn step_back(&self, i: usize) -> Option<usize> {
        match self.partner(i) {
            Some(open) if open < i => open.checked_sub(1),
            _ => i.checked_sub(1),
        }
    }

    /// The tokens from `from` to the end at `from`'s bracket level, by
    /// [`step`](Self::step): a group shows as its opener.
    pub(crate) fn level(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let in_range = move |i: usize| (i < self.tokens.len()).then_some(i);
        std::iter::successors(in_range(from), move |&i| in_range(self.step(i)))
    }

    /// The tokens from `from` back to the start at `from`'s bracket level,
    /// by [`step_back`](Self::step_back): a group shows as its closer.
    pub(crate) fn level_back(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(from), move |&i| self.step_back(i))
    }
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

/// The printable ASCII characters in code order. A token whose text is
/// one of them borrows it from here instead of allocating.
const PRINTABLE: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// The static text of `word` when it is a Rust keyword: a keyword token
/// borrows it instead of allocating.
pub(crate) fn keyword(word: &str) -> Option<&'static str> {
    Some(match word {
        "as" => "as",
        "break" => "break",
        "const" => "const",
        "continue" => "continue",
        "crate" => "crate",
        "dyn" => "dyn",
        "else" => "else",
        "enum" => "enum",
        "extern" => "extern",
        "false" => "false",
        "fn" => "fn",
        "for" => "for",
        "if" => "if",
        "impl" => "impl",
        "in" => "in",
        "let" => "let",
        "loop" => "loop",
        "match" => "match",
        "mod" => "mod",
        "move" => "move",
        "mut" => "mut",
        "pub" => "pub",
        "ref" => "ref",
        "return" => "return",
        "self" => "self",
        "Self" => "Self",
        "static" => "static",
        "struct" => "struct",
        "super" => "super",
        "trait" => "trait",
        "true" => "true",
        "type" => "type",
        "unsafe" => "unsafe",
        "use" => "use",
        "where" => "where",
        "while" => "while",
        _ => return None,
    })
}

/// A token of `kind` spelled `s`: its text borrows static text when `s`
/// is one printable ASCII character or a keyword, else owns a copy.
fn token(kind: TokKind, s: &str, line: u32) -> Token {
    let text = match (kind, s.as_bytes()) {
        (_, &[b @ b' '..=b'~']) => {
            let i = usize::from(b - b' ');
            Cow::Borrowed(&PRINTABLE[i..=i])
        }
        (TokKind::Ident, _) => keyword(s).map_or_else(|| Cow::Owned(s.to_owned()), Cow::Borrowed),
        _ => Cow::Owned(s.to_owned()),
    };
    Token { kind, text, line }
}

/// A byte-offset cursor over the source. It only ever rests on a char
/// boundary: it advances by whole chars, or stops at an ASCII byte,
/// which never occurs inside a multi-byte char.
struct Cursor<'s> {
    src: &'s str,
    pos: usize,
    line: u32,
}

impl<'s> Cursor<'s> {
    /// The byte `ahead` bytes past the cursor.
    fn byte(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + ahead).copied()
    }

    /// The char starting at byte offset `at`, decoded only when it is not
    /// ASCII.
    fn char_at(&self, at: usize) -> Option<char> {
        match *self.src.as_bytes().get(at)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.src[at..].chars().next(),
        }
    }

    /// The char at the cursor.
    fn peek(&self) -> Option<char> {
        self.char_at(self.pos)
    }

    /// Moves to byte offset `to`, counting the newlines passed.
    fn advance_to(&mut self, to: usize) {
        let passed = &self.src.as_bytes()[self.pos..to];
        self.line += passed.iter().filter(|&&b| b == b'\n').count() as u32;
        self.pos = to;
    }

    /// Consumes identifier characters and returns them.
    fn eat_ident(&mut self) -> &'s str {
        let start = self.pos;
        while let Some(c) = self.peek().filter(|&c| is_ident_continue(c)) {
            self.pos += c.len_utf8();
        }
        &self.src[start..self.pos]
    }
}

/// Lexes `src` into tokens and comments.
///
/// The lexer never fails: malformed input (an unterminated string, a lone
/// backslash) degrades to best-effort tokens rather than an error, because
/// a linter must keep going to report what it *can* see.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor { src, pos: 0, line: 1 };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek() {
        let line = cur.line;
        let start = cur.pos;
        match c {
            '\n' => {
                cur.pos += 1;
                cur.line += 1;
            }
            _ if c.is_whitespace() => cur.pos += c.len_utf8(),
            '/' if cur.byte(1) == Some(b'/') => {
                let from = start + 2;
                cur.pos = src[from..].find('\n').map_or(src.len(), |k| from + k);
                let text = src[from..cur.pos].to_string();
                out.comments.push(Comment { text, line, end_line: line });
            }
            '/' if cur.byte(1) == Some(b'*') => {
                let (text_end, end) = block_comment_end(src.as_bytes(), start + 2);
                cur.advance_to(end);
                let text = src[start + 2..text_end].to_string();
                out.comments.push(Comment { text, line, end_line: cur.line });
            }
            '"' => {
                let (text_end, end) = plain_string_end(src.as_bytes(), start + 1);
                cur.advance_to(end);
                out.tokens.push(token(TokKind::Str, &src[start + 1..text_end], line));
            }
            '\'' => lex_quote(&mut cur, &mut out, line),
            _ if is_ident_start(c) => lex_word(&mut cur, &mut out, line),
            _ if c.is_ascii_digit() => {
                cur.eat_ident();
                // Consume a fractional part, but never a `..` range
                // operator, and not in a tuple index: a number right after
                // a lone `.` (`p.1.0` is `p`, `.`, `1`, `.`, `0`). The
                // second dot of a `..` is not lone, so `0..1.5` keeps its
                // float.
                let dots = out.tokens.iter().rev().take(2).take_while(|t| t.is_punct('.'));
                let tuple_index = dots.count() == 1;
                if !tuple_index
                    && cur.byte(0) == Some(b'.')
                    && cur.byte(1).is_some_and(|d| d.is_ascii_digit())
                {
                    cur.pos += 1;
                    cur.eat_ident();
                }
                out.tokens.push(token(TokKind::Num, &src[start..cur.pos], line));
            }
            _ => {
                cur.pos += c.len_utf8();
                out.tokens.push(token(TokKind::Punct, &src[start..cur.pos], line));
            }
        }
    }
    out.pairs = pair_brackets(&out.tokens);
    out
}

/// The pair table of `tokens`. The three bracket kinds nest as one depth,
/// so a closer pairs with the innermost open bracket of any kind; an
/// opener that never closes pairs with the last token, and a closer with
/// nothing open pairs with nothing. Only punctuation tokens are brackets.
fn pair_brackets(tokens: &[Token]) -> Vec<u32> {
    // Each token takes a source byte or more, so this holds for any file
    // that fits in memory, and every index below converts losslessly.
    assert!(tokens.len() < UNPAIRED as usize, "{} tokens overflow the pair table", tokens.len());
    let mut pairs = vec![UNPAIRED; tokens.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate().filter(|(_, t)| t.kind == TokKind::Punct) {
        match t.text.as_bytes() {
            b"(" | b"[" | b"{" => open.push(i),
            b")" | b"]" | b"}" => {
                if let Some(o) = open.pop() {
                    pairs[o] = i as u32;
                    pairs[i] = o as u32;
                }
            }
            _ => {}
        }
    }
    let last = tokens.len().saturating_sub(1) as u32;
    for o in open {
        pairs[o] = last;
    }
    pairs
}

/// Scans a block comment from `from`, just past its opening `/*`, with
/// nesting. Returns where its text ends and where the comment ends, past
/// the closing `*/`; an unterminated comment runs to the end of input.
fn block_comment_end(b: &[u8], from: usize) -> (usize, usize) {
    let mut depth = 1usize;
    let mut i = from;
    while i < b.len() {
        match (b[i], b.get(i + 1)) {
            (b'/', Some(b'*')) => {
                depth += 1;
                i += 2;
            }
            (b'*', Some(b'/')) => {
                depth -= 1;
                if depth == 0 {
                    return (i, i + 2);
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
    (b.len(), b.len())
}

/// Scans the body of a `"…"` string from `from`, just past the opening
/// quote; a backslash hides the byte after it. Returns where the text
/// ends and where the literal ends, past the closing quote; an
/// unterminated string runs to the end of input.
fn plain_string_end(b: &[u8], from: usize) -> (usize, usize) {
    let mut i = from;
    while i < b.len() {
        match b[i] {
            b'"' => return (i, i + 1),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    (b.len(), b.len())
}

/// Scans the body of a raw string `r##"…"##` from `from`, just past the
/// opening quote, closing on a quote followed by `hashes` `#`s. Returns
/// where the text ends and where the literal ends; an unterminated string
/// runs to the end of input.
fn raw_string_end(b: &[u8], from: usize, hashes: usize) -> (usize, usize) {
    for i in from..b.len() {
        let closes = b.get(i + 1..i + 1 + hashes).is_some_and(|h| h.iter().all(|&x| x == b'#'));
        if b[i] == b'"' && closes {
            return (i, i + 1 + hashes);
        }
    }
    (b.len(), b.len())
}

/// Disambiguates `'a'` / `'\n'` (char literal) from `'a` / `'static`
/// (lifetime) at an opening single quote.
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    cur.pos += 1; // the opening '
    let start = cur.pos;
    let c0 = cur.peek();
    let after = start + c0.map_or(0, char::len_utf8);
    match (c0, cur.char_at(after)) {
        (Some('\\'), e) => {
            // Escaped char literal: consume the escape, then to the close.
            let mut end = after + e.map_or(0, char::len_utf8);
            if e == Some('u') {
                // \u{…}
                end = cur.src[end..].find('}').map_or(cur.src.len(), |k| end + k + 1);
            }
            cur.advance_to(end);
            if cur.byte(0) == Some(b'\'') {
                cur.pos += 1;
            }
            out.tokens.push(token(TokKind::Char, &cur.src[start..end], line));
        }
        (Some(_), Some('\'')) => {
            // 'x' — a one-character literal (covers '_' and 'r' too).
            cur.advance_to(after + 1);
            out.tokens.push(token(TokKind::Char, &cur.src[start..after], line));
        }
        (Some(c0), _) if is_ident_start(c0) => {
            let name = cur.eat_ident();
            out.tokens.push(token(TokKind::Lifetime, name, line));
        }
        _ => out.tokens.push(token(TokKind::Punct, "'", line)),
    }
}

/// Lexes something starting with an identifier character, resolving the
/// string prefixes `r` / `b` / `br` and raw identifiers `r#ident`.
fn lex_word(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    let src = cur.src;
    let word = cur.eat_ident();

    let is_str_prefix = matches!(word, "r" | "b" | "br");
    match (is_str_prefix, cur.byte(0)) {
        (true, Some(b'"')) => {
            let from = cur.pos + 1;
            let (text_end, end) = if word == "b" {
                plain_string_end(src.as_bytes(), from) // b"…" has escapes like a plain string
            } else {
                raw_string_end(src.as_bytes(), from, 0)
            };
            cur.advance_to(end);
            out.tokens.push(token(TokKind::Str, &src[from..text_end], line));
        }
        (true, Some(b'#')) if word != "b" => {
            // Either a raw string r#…#"…"#…# or a raw identifier r#ident.
            let hashes = src[cur.pos..].bytes().take_while(|&b| b == b'#').count();
            if cur.byte(hashes) == Some(b'"') {
                let from = cur.pos + hashes + 1;
                let (text_end, end) = raw_string_end(src.as_bytes(), from, hashes);
                cur.advance_to(end);
                out.tokens.push(token(TokKind::Str, &src[from..text_end], line));
            } else if word == "r"
                && hashes == 1
                && cur.char_at(cur.pos + 1).is_some_and(is_ident_start)
            {
                cur.pos += 1; // the '#'
                let name = cur.eat_ident();
                out.tokens.push(token(TokKind::Ident, name, line));
            } else {
                out.tokens.push(token(TokKind::Ident, word, line));
            }
        }
        (true, Some(b'\'')) if word == "b" => {
            // Byte literal b'x' — reuse the char path.
            lex_quote(cur, out, line);
        }
        _ => out.tokens.push(token(TokKind::Ident, word, line)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.into_owned())
            .collect()
    }

    /// `(kind, text, line)` per token.
    fn toks(src: &str) -> Vec<(TokKind, String, u32)> {
        lex(src).tokens.into_iter().map(|t| (t.kind, t.text.into_owned(), t.line)).collect()
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

    #[test]
    fn unterminated_literals_and_comments_run_to_the_end() {
        assert_eq!(toks("let s = \"ab\ncd").last(), Some(&(TokKind::Str, "ab\ncd".into(), 1)));
        assert_eq!(toks("x r#\"ab\"\ncd").last(), Some(&(TokKind::Str, "ab\"\ncd".into(), 1)));
        assert_eq!(toks("x br##\"ab\"#").last(), Some(&(TokKind::Str, "ab\"#".into(), 1)));
        let l = lex("a /* b /* c */\nd");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].text, " b /* c */\nd");
        assert_eq!((l.comments[0].line, l.comments[0].end_line), (1, 2));
        assert_eq!(l.tokens.len(), 1);
    }

    #[test]
    fn a_backslash_at_the_end_of_input_stays_in_the_text() {
        assert_eq!(toks("\"ab\\"), vec![(TokKind::Str, "ab\\".into(), 1)]);
        assert_eq!(toks("b\"\\"), vec![(TokKind::Str, "\\".into(), 1)]);
        assert_eq!(toks("'\\"), vec![(TokKind::Char, "\\".into(), 1)]);
        assert_eq!(toks("'\\u{12"), vec![(TokKind::Char, "\\u{12".into(), 1)]);
        assert_eq!(
            toks("x '"),
            vec![(TokKind::Ident, "x".into(), 1), (TokKind::Punct, "'".into(), 1)]
        );
    }

    #[test]
    fn escapes_hide_quotes_and_newlines_are_counted_inside_literals() {
        let t = toks("\"a\\\"b\" '\\n' '\\u{1F600}' 'é' '\n' z");
        assert_eq!(t[0], (TokKind::Str, "a\\\"b".into(), 1));
        assert_eq!(t[1], (TokKind::Char, "\\n".into(), 1));
        assert_eq!(t[2], (TokKind::Char, "\\u{1F600}".into(), 1));
        assert_eq!(t[3], (TokKind::Char, "é".into(), 1));
        assert_eq!(t[4], (TokKind::Char, "\n".into(), 1));
        assert_eq!(t[5], (TokKind::Ident, "z".into(), 2));
    }

    #[test]
    fn non_ascii_identifiers_and_punctuation_lex_whole() {
        let t = toks("let größe = a→b; 名前\u{a0}—'λ\u{2028}x");
        let want: Vec<(TokKind, &str)> = vec![
            (TokKind::Ident, "let"),
            (TokKind::Ident, "größe"),
            (TokKind::Punct, "="),
            (TokKind::Ident, "a"),
            (TokKind::Punct, "→"),
            (TokKind::Ident, "b"),
            (TokKind::Punct, ";"),
            (TokKind::Ident, "名前"),
            (TokKind::Punct, "—"),
            (TokKind::Lifetime, "λ"),
            (TokKind::Ident, "x"),
        ];
        let got: Vec<(TokKind, &str)> = t.iter().map(|(k, s, _)| (*k, s.as_str())).collect();
        assert_eq!(got, want);
    }

    /// The forward scan the pair table replaced: the close delimiter
    /// matching the opener at `open`, all three kinds as one depth, or the
    /// last token on unbalanced input.
    fn match_delim(toks: &[Token], open: usize) -> usize {
        let mut depth = 0usize;
        for (i, t) in toks.iter().enumerate().skip(open) {
            if t.kind == TokKind::Punct {
                match &*t.text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            return i;
                        }
                    }
                    _ => {}
                }
            }
        }
        toks.len().saturating_sub(1)
    }

    /// The backward scan the pair table replaced: the open delimiter
    /// matching the closer at `close`, all three kinds as one depth.
    fn backward_match(toks: &[Token], close: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut i = close;
        loop {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                match &*t.text {
                    ")" | "]" | "}" => depth += 1,
                    "(" | "[" | "{" => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i);
                        }
                    }
                    _ => {}
                }
            }
            i = i.checked_sub(1)?;
        }
    }

    /// Source pieces: the six brackets, then non-brackets, among them a
    /// string and a char literal spelled as a bracket.
    const PIECES: [&str; 10] = ["(", ")", "[", "]", "{", "}", "x", ",", "\"{\"", "')'"];

    /// The source `choices` spell. Balanced, each opener pushes its closer
    /// and each closer piece pops the innermost one (or is left out), and
    /// every group still open at the end is closed.
    fn source(choices: &[usize], balanced: bool) -> String {
        let mut out: Vec<&str> = Vec::new();
        let mut open: Vec<&str> = Vec::new();
        for &c in choices {
            match (balanced, c) {
                (true, 0 | 2 | 4) => {
                    out.push(PIECES[c]);
                    open.push(PIECES[c + 1]);
                }
                (true, 1 | 3 | 5) => out.extend(open.pop()),
                _ => out.push(PIECES[c]),
            }
        }
        out.extend(open.into_iter().rev());
        out.join(" ")
    }

    fn is_open(t: &Token) -> bool {
        t.kind == TokKind::Punct && matches!(&*t.text, "(" | "[" | "{")
    }

    fn is_close(t: &Token) -> bool {
        t.kind == TokKind::Punct && matches!(&*t.text, ")" | "]" | "}")
    }

    /// The tokens of `[lo, hi)` a depth counter starting at `lo` puts at
    /// depth 0: before each token when `forward`, after it otherwise.
    fn depth_zero(toks: &[Token], lo: usize, hi: usize, forward: bool) -> Vec<usize> {
        let mut depth = 0i32;
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate().take(hi).skip(lo) {
            let before = depth;
            depth += i32::from(is_open(t)) - i32::from(is_close(t));
            if (if forward { before } else { depth }) == 0 {
                out.push(i);
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// On any stream, the table agrees with the forward scan on every
        /// opener and with the backward scan on every closer.
        #[test]
        fn the_pair_table_agrees_with_the_depth_scans(
            choices in proptest::collection::vec(0usize..PIECES.len(), 0..64),
            balanced in 0u8..2,
        ) {
            let lexed = lex(&source(&choices, balanced == 1));
            let toks = &lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if is_open(t) {
                    proptest::prop_assert_eq!(lexed.close_of(i), match_delim(toks, i));
                } else if is_close(t) {
                    proptest::prop_assert_eq!(lexed.partner(i), backward_match(toks, i));
                } else {
                    proptest::prop_assert_eq!(lexed.partner(i), None);
                }
            }
        }

        /// On balanced spans (a whole balanced stream and each group's
        /// inside), `step` visits the tokens at depth 0 before them and
        /// `step_back` the tokens at depth 0 after them.
        #[test]
        fn level_walks_visit_the_depth_zero_tokens(
            choices in proptest::collection::vec(0usize..PIECES.len(), 0..64),
        ) {
            let lexed = lex(&source(&choices, true));
            let toks = &lexed.tokens;
            let mut spans = vec![(0, toks.len())];
            spans.extend((0..toks.len()).filter(|&i| is_open(&toks[i])).map(|i| (i + 1, lexed.close_of(i))));
            for (lo, hi) in spans {
                let mut forward = Vec::new();
                let mut i = lo;
                while i < hi {
                    forward.push(i);
                    i = lexed.step(i);
                }
                proptest::prop_assert_eq!(i, hi);
                proptest::prop_assert_eq!(forward, depth_zero(toks, lo, hi, true));
                let mut backward = Vec::new();
                let mut i = hi.checked_sub(1);
                while let Some(j) = i.filter(|&j| j >= lo) {
                    backward.push(j);
                    i = lexed.step_back(j);
                }
                backward.reverse();
                proptest::prop_assert_eq!(backward, depth_zero(toks, lo, hi, false));
            }
        }
    }

    #[test]
    fn brackets_in_literals_pair_with_nothing() {
        let l = lex("f(\"(\", ']') [ ) }");
        let pairs: Vec<Option<usize>> = (0..l.tokens.len()).map(|i| l.partner(i)).collect();
        // f ( "(" , ']' ) [ ) }
        assert_eq!(pairs, [None, Some(5), None, None, None, Some(1), Some(7), Some(6), None]);
        assert_eq!((l.step(1), l.step(6), l.step(8)), (6, 8, 9));
        assert_eq!((l.step_back(5), l.step_back(7), l.step_back(0)), (Some(0), Some(5), None));
        let unclosed = lex("a ( b [ c");
        assert_eq!((unclosed.close_of(1), unclosed.close_of(3)), (4, 4));
        assert_eq!(unclosed.step(1), 5);
    }

    #[test]
    fn level_walks_end_at_the_ends_of_the_file() {
        let l = lex("a ( b ) c [ d");
        assert_eq!(l.level(0).collect::<Vec<_>>(), [0, 1, 4, 5]);
        assert_eq!(l.level(5).collect::<Vec<_>>(), [5]);
        assert_eq!(l.level(7).count(), 0);
        assert_eq!(l.level_back(4).collect::<Vec<_>>(), [4, 3, 0]);
        assert_eq!(l.level_back(6).collect::<Vec<_>>(), [6, 5, 4, 3, 0]);
        assert_eq!(lex("").level(0).count(), 0);
    }

    #[test]
    fn a_number_after_a_lone_dot_is_a_tuple_index() {
        let nums = |src: &str| -> Vec<String> {
            let toks = lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Num);
            toks.map(|t| t.text.into_owned()).collect()
        };
        assert_eq!(nums("let k = p.1.0;"), ["1", "0"]);
        assert_eq!(nums("|e| (e.0.1, e.1)"), ["0", "1", "1"]);
        assert_eq!(nums("for x in 0..1.5 {}"), ["0", "1.5"]);
        assert_eq!(nums("x..1.5"), ["1.5"]);
        assert_eq!(nums("..=2.5"), ["2.5"]);
        assert_eq!(nums("1.0.max(2.0)"), ["1.0", "2.0"]);
        assert_eq!(nums("1..2"), ["1", "2"]);
    }

    #[test]
    fn punctuation_and_keywords_borrow_static_text() {
        assert!(PRINTABLE.bytes().eq(b' '..=b'~'));
        let l = lex("let f = (größe);");
        let text = |s: &str| &l.tokens.iter().find(|t| t.text == s).unwrap().text;
        assert!(matches!(text("("), Cow::Borrowed("(")));
        assert!(matches!(text("let"), Cow::Borrowed("let")));
        assert!(matches!(text("f"), Cow::Borrowed("f")));
        assert!(matches!(text("größe"), Cow::Owned(_)));
    }
}
