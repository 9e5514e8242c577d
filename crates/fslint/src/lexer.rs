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
//! a byte is not ASCII. A token holds no text: it is its kind, its text's
//! first byte, its line and its byte span of the source, which [`Lexed`]
//! owns once. Lexing a file therefore allocates per file (the source, the
//! token and pair vectors, the comments), never per token, and
//! [`Lexed::text`] slices a token's text where a pass reads it. The first
//! byte answers every punctuation test ([`Token::is_punct`],
//! [`Token::punct`]) without touching the source.
//!
//! Brackets are paired once per file, by one stack pass after lexing: the
//! *pair table* beside the tokens gives each bracket its partner, so the
//! parser and the analyses jump over a group, or walk one bracket level,
//! by lookup instead of counting depth.

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

/// One lexed token. It holds no text: its text (identifier name, literal
/// content, or punctuation char) is the byte span `[lo, hi)` of the
/// file's source, which [`Lexed::text`] slices.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// The text's first byte, 0 for an empty literal. A punctuation test
    /// reads it instead of the source.
    pub first: u8,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Byte offset of the text's start in [`Lexed::src`].
    pub lo: u32,
    /// Byte offset just past the text's end in [`Lexed::src`].
    pub hi: u32,
}

const _: () = assert!(std::mem::size_of::<Token>() == 16);

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

/// The result of lexing one file: its source, code tokens that span it,
/// and preserved comments.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// The file's source, which every token's span indexes.
    pub src: String,
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
    /// The text of token `i`: identifier name, literal content, or
    /// punctuation char.
    pub fn text(&self, i: usize) -> &str {
        let t = &self.tokens[i];
        &self.src[t.lo as usize..t.hi as usize]
    }

    /// True if token `i` is the identifier `name`; false past the last
    /// token. The source is read only when the lengths agree.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| {
            t.kind == TokKind::Ident
                && (t.hi - t.lo) as usize == name.len()
                && self.src.as_bytes()[t.lo as usize..t.hi as usize] == *name.as_bytes()
        })
    }

    /// The texts of the identifiers among the tokens `[lo, hi]`.
    pub(crate) fn idents(&self, (lo, hi): (usize, usize)) -> impl Iterator<Item = &str> + '_ {
        (lo..=hi).filter(|&k| self.tokens[k].kind == TokKind::Ident).map(|k| self.text(k))
    }

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
    /// The first byte of a punctuation token's text, `None` for any other
    /// token: the character itself when it is ASCII, a byte from 0x80 up
    /// (which no ASCII pattern matches) when it is not.
    pub fn punct(&self) -> Option<u8> {
        (self.kind == TokKind::Punct).then_some(self.first)
    }

    /// True if this token is the punctuation character `c`, which must be
    /// ASCII.
    pub fn is_punct(&self, c: char) -> bool {
        debug_assert!(c.is_ascii(), "`{c}` is no ASCII punctuation");
        self.kind == TokKind::Punct && u32::from(self.first) == u32::from(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
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

    /// A token of `kind` on `line` whose text is the source's `[lo, hi)`.
    fn token(&self, kind: TokKind, (lo, hi): (usize, usize), line: u32) -> Token {
        let first = if lo < hi { self.src.as_bytes()[lo] } else { 0 };
        Token { kind, first, line, lo: lo as u32, hi: hi as u32 }
    }
}

/// Lexes `src` into tokens and comments. The returned [`Lexed`] owns the
/// source, so a caller that has a `String` moves it in uncopied.
///
/// The lexer never fails: malformed input (an unterminated string, a lone
/// backslash) degrades to best-effort tokens rather than an error, because
/// a linter must keep going to report what it *can* see.
pub fn lex(src: impl Into<String>) -> Lexed {
    let src = src.into();
    // A span's ends are `u32`s; every offset below converts losslessly.
    assert!(src.len() < u32::MAX as usize, "{} source bytes overflow a token span", src.len());
    let mut cur = Cursor { src: &src, pos: 0, line: 1 };
    let (mut tokens, mut comments) = (Vec::new(), Vec::new());

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
                comments.push(Comment { text, line, end_line: line });
            }
            '/' if cur.byte(1) == Some(b'*') => {
                let (text_end, end) = block_comment_end(src.as_bytes(), start + 2);
                cur.advance_to(end);
                let text = src[start + 2..text_end].to_string();
                comments.push(Comment { text, line, end_line: cur.line });
            }
            '"' => {
                let (text_end, end) = plain_string_end(src.as_bytes(), start + 1);
                cur.advance_to(end);
                tokens.push(cur.token(TokKind::Str, (start + 1, text_end), line));
            }
            '\'' => lex_quote(&mut cur, &mut tokens, line),
            _ if is_ident_start(c) => lex_word(&mut cur, &mut tokens, line),
            _ if c.is_ascii_digit() => {
                cur.eat_ident();
                // Consume a fractional part, but never a `..` range
                // operator, and not in a tuple index: a number right after
                // a lone `.` (`p.1.0` is `p`, `.`, `1`, `.`, `0`). The
                // second dot of a `..` is not lone, so `0..1.5` keeps its
                // float.
                let dots = tokens.iter().rev().take(2).take_while(|t| t.is_punct('.'));
                let tuple_index = dots.count() == 1;
                if !tuple_index
                    && cur.byte(0) == Some(b'.')
                    && cur.byte(1).is_some_and(|d| d.is_ascii_digit())
                {
                    cur.pos += 1;
                    cur.eat_ident();
                }
                tokens.push(cur.token(TokKind::Num, (start, cur.pos), line));
            }
            _ => {
                cur.pos += c.len_utf8();
                tokens.push(cur.token(TokKind::Punct, (start, cur.pos), line));
            }
        }
    }
    let pairs = pair_brackets(&tokens);
    Lexed { src, tokens, comments, pairs }
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
    for (i, t) in tokens.iter().enumerate() {
        match t.punct() {
            Some(b'(' | b'[' | b'{') => open.push(i),
            Some(b')' | b']' | b'}') => {
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
fn lex_quote(cur: &mut Cursor, tokens: &mut Vec<Token>, line: u32) {
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
            tokens.push(cur.token(TokKind::Char, (start, end), line));
        }
        (Some(_), Some('\'')) => {
            // 'x' — a one-character literal (covers '_' and 'r' too).
            cur.advance_to(after + 1);
            tokens.push(cur.token(TokKind::Char, (start, after), line));
        }
        (Some(c0), _) if is_ident_start(c0) => {
            cur.eat_ident();
            tokens.push(cur.token(TokKind::Lifetime, (start, cur.pos), line));
        }
        _ => tokens.push(cur.token(TokKind::Punct, (start - 1, start), line)),
    }
}

/// Lexes something starting with an identifier character, resolving the
/// string prefixes `r` / `b` / `br` and raw identifiers `r#ident`.
fn lex_word(cur: &mut Cursor, tokens: &mut Vec<Token>, line: u32) {
    let src = cur.src;
    let start = cur.pos;
    let word = cur.eat_ident();
    let word_span = (start, cur.pos);

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
            tokens.push(cur.token(TokKind::Str, (from, text_end), line));
        }
        (true, Some(b'#')) if word != "b" => {
            // Either a raw string r#…#"…"#…# or a raw identifier r#ident.
            let hashes = src[cur.pos..].bytes().take_while(|&b| b == b'#').count();
            if cur.byte(hashes) == Some(b'"') {
                let from = cur.pos + hashes + 1;
                let (text_end, end) = raw_string_end(src.as_bytes(), from, hashes);
                cur.advance_to(end);
                tokens.push(cur.token(TokKind::Str, (from, text_end), line));
            } else if word == "r"
                && hashes == 1
                && cur.char_at(cur.pos + 1).is_some_and(is_ident_start)
            {
                cur.pos += 1; // the '#'
                let name = cur.pos;
                cur.eat_ident();
                tokens.push(cur.token(TokKind::Ident, (name, cur.pos), line));
            } else {
                tokens.push(cur.token(TokKind::Ident, word_span, line));
            }
        }
        (true, Some(b'\'')) if word == "b" => {
            // Byte literal b'x' — reuse the char path.
            lex_quote(cur, tokens, line);
        }
        _ => tokens.push(cur.token(TokKind::Ident, word_span, line)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        let t = toks(src).into_iter().filter(|(kind, ..)| *kind == TokKind::Ident);
        t.map(|(_, text, _)| text).collect()
    }

    /// `(kind, text, line)` per token.
    fn toks(src: &str) -> Vec<(TokKind, String, u32)> {
        let l = lex(src);
        l.tokens.iter().enumerate().map(|(i, t)| (t.kind, l.text(i).to_string(), t.line)).collect()
    }

    #[test]
    fn strings_hide_identifiers() {
        let ids = idents(r#"let x = "HashMap::new()"; let y = 1;"#);
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn comments_are_preserved_not_tokenised() {
        let l = lex("// HashMap here\nlet a = 1; /* SystemTime */");
        assert!((0..l.tokens.len()).all(|i| l.text(i) != "HashMap" && l.text(i) != "SystemTime"));
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
        let b = (0..l.tokens.len()).find(|&i| l.is_ident(i, "b")).unwrap();
        assert_eq!(l.tokens[b].line, 4);
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
            if is_open(t) {
                depth += 1;
            } else if is_close(t) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
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
            if is_close(t) {
                depth += 1;
            } else if is_open(t) {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
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
        matches!(t.punct(), Some(b'(' | b'[' | b'{'))
    }

    fn is_close(t: &Token) -> bool {
        matches!(t.punct(), Some(b')' | b']' | b'}'))
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

    /// Source pieces for the span property: ASCII and non-ASCII
    /// identifiers and punctuation, every literal form (some whose text
    /// starts with a punctuation character), lifetimes, numbers, comments
    /// and whitespace. Joined with no separator, they also lex as pieces
    /// glued together.
    pub(crate) const SPAN_PIECES: [&str; 26] = [
        "x",
        "größe",
        "名前",
        "r#type",
        "(",
        "}",
        ".",
        ":",
        "→",
        "—",
        "'",
        "\"",
        "\"(a\"",
        "\"\"",
        "b\"\\\"\"",
        "r#\".\"#",
        "'x'",
        "'\\n'",
        "b'{'",
        "'a",
        "1.5",
        "0..1",
        "// c\n",
        "/* → */",
        " ",
        "\n",
    ];

    /// ASCII characters a punctuation test may ask about.
    const ASCII_PUNCT: &str = "()[]{}.:;,'\"#!&<>-=|*/\\_";

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// On any stream, the table agrees with the forward scan on every
        /// opener and with the backward scan on every closer.
        #[test]
        fn the_pair_table_agrees_with_the_depth_scans(
            choices in proptest::collection::vec(0usize..PIECES.len(), 0..64),
            balanced in 0u8..2,
        ) {
            let lexed = lex(source(&choices, balanced == 1));
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
            let lexed = lex(source(&choices, true));
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

        /// On any source, each token's text is its span of the source,
        /// the spans ascend and never overlap, `first` is the text's first
        /// byte, the punctuation and identifier tests agree with the text,
        /// and a literal's or a lifetime's span starts just past its
        /// opening quote.
        #[test]
        fn tokens_are_ascending_spans_of_the_source(
            choices in proptest::collection::vec(0usize..SPAN_PIECES.len(), 0..48),
        ) {
            let src: String = choices.iter().map(|&c| SPAN_PIECES[c]).collect();
            let l = lex(src.as_str());
            let mut end = 0;
            for (i, t) in l.tokens.iter().enumerate() {
                let (lo, hi) = (t.lo as usize, t.hi as usize);
                proptest::prop_assert!(end <= lo && lo <= hi, "{src:?}: token {i} at {lo}..{hi}");
                end = hi;
                let text = l.text(i);
                proptest::prop_assert_eq!(src.get(lo..hi), Some(text));
                proptest::prop_assert_eq!(t.first, text.bytes().next().unwrap_or(0));
                let punct = t.kind == TokKind::Punct;
                proptest::prop_assert_eq!(t.punct(), punct.then_some(t.first));
                for c in ASCII_PUNCT.chars() {
                    let want = punct && text.len() == 1 && text.starts_with(c);
                    proptest::prop_assert_eq!(t.is_punct(c), want, "{src:?}: {text:?} is `{c}`");
                }
                proptest::prop_assert_eq!(l.is_ident(i, text), t.kind == TokKind::Ident);
                let quote = lo.checked_sub(1).map(|q| src.as_bytes()[q]);
                match t.kind {
                    TokKind::Punct => proptest::prop_assert_eq!(text.chars().count(), 1),
                    TokKind::Ident => proptest::prop_assert!(
                        text.starts_with(is_ident_start) && text.chars().all(is_ident_continue)
                    ),
                    TokKind::Str => proptest::prop_assert_eq!(quote, Some(b'"'), "{src:?}"),
                    TokKind::Char | TokKind::Lifetime => {
                        proptest::prop_assert_eq!(quote, Some(b'\''), "{src:?}")
                    }
                    TokKind::Num => proptest::prop_assert!(text.starts_with(|c: char| c.is_ascii_digit())),
                }
            }
            proptest::prop_assert!(end <= src.len());
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
            let t = toks(src).into_iter().filter(|(kind, ..)| *kind == TokKind::Num);
            t.map(|(_, text, _)| text).collect()
        };
        assert_eq!(nums("let k = p.1.0;"), ["1", "0"]);
        assert_eq!(nums("|e| (e.0.1, e.1)"), ["0", "1", "1"]);
        assert_eq!(nums("for x in 0..1.5 {}"), ["0", "1.5"]);
        assert_eq!(nums("x..1.5"), ["1.5"]);
        assert_eq!(nums("..=2.5"), ["2.5"]);
        assert_eq!(nums("1.0.max(2.0)"), ["1.0", "2.0"]);
        assert_eq!(nums("1..2"), ["1", "2"]);
    }
}
