//! A small, honest Rust lexer.
//!
//! This is **not** a parser: it produces a flat token stream that is just
//! faithful enough for lexical rule checking. What it must get right (and
//! has tests for):
//!
//! * line comments and **nested** block comments (neither produce tokens,
//!   but their text is recorded per line for rules that require
//!   justification comments);
//! * string literals in every surface form — `"…"` with escapes, raw
//!   strings `r"…"` / `r#"…"#` with arbitrary `#` depth, byte and C
//!   variants (`b"…"`, `br#"…"#`, `c"…"`, `cr"…"`), and raw *identifiers*
//!   (`r#fn`), so that `unwrap` inside a string never looks like a call;
//! * the `'` ambiguity: `'a'` / `'\n'` / `b'x'` are character literals,
//!   `'a` / `'static` are lifetimes;
//! * `#[test]` / `#[cfg(test)]` region tracking by brace depth, so rules
//!   can exempt test code without a parse tree.
//!
//! The lexer never panics and never rejects input: arbitrary byte soup
//! (lossily decoded to UTF-8 by [`lex`]'s callers) lexes to *some* token
//! stream, with unterminated literals simply ending at end of input. A
//! property test asserts this over random inputs.

/// The classification of one [`Tok`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `let`, `unsafe`, `r#fn`).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`) — no closing quote.
    Lifetime,
    /// Character or byte-character literal (`'x'`, `b'\n'`).
    Char,
    /// Any string literal form (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Numeric literal, including its suffix (`0x1f`, `42u8`).
    Num,
    /// A single ASCII punctuation byte (`.`, `[`, `!`, …).
    Punct(u8),
    /// Anything else (stray non-ASCII punctuation, lone quotes).
    Other,
}

/// One lexed token: kind, byte span into the source, 1-based line, and a
/// test-region flag filled in by [`lex`]'s region pass.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token classification.
    pub kind: TokKind,
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
    /// 1-based source line of the token's first byte.
    pub line: u32,
    /// Whether this token lies inside a `#[test]` fn or `#[cfg(test)]`
    /// item body.
    pub in_test: bool,
}

/// The output of [`lex`]: the token stream plus per-line comment text.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order (comments and whitespace omitted).
    pub tokens: Vec<Tok>,
    /// `(line, text)` for every comment, recorded at the line the comment
    /// *starts* on. Text excludes the `//` / `/*` introducer.
    pub comments: Vec<(u32, String)>,
}

impl Lexed {
    /// The source text of `tok` (callers keep the source they lexed).
    #[must_use]
    pub fn text<'s>(&self, src: &'s str, tok: &Tok) -> &'s str {
        src.get(tok.start..tok.end).unwrap_or("")
    }

    /// Whether any comment starting on `line` contains `needle`.
    #[must_use]
    pub fn comment_on_line_contains(&self, line: u32, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|(l, text)| *l == line && text.contains(needle))
    }

    /// Whether any comment starts on `line`.
    #[must_use]
    pub fn has_comment_on_line(&self, line: u32) -> bool {
        self.comments.iter().any(|(l, _)| *l == line)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens and comments, then marks test regions.
///
/// Never panics, for any input. Invalid or unterminated constructs lex to
/// best-effort tokens ending at end of input.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let mut out = raw_lex(src);
    mark_test_regions(src, &mut out);
    out
}

fn raw_lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    // Every token and comment takes the line of its first byte: the
    // newlines crossed since the last one, whatever scanned over them.
    let mut line: u32 = 1;
    let mut counted = 0usize;
    while i < b.len() {
        let crossed = b[counted..i].iter().filter(|&&c| c == b'\n').count();
        line = line.saturating_add(u32::try_from(crossed).unwrap_or(u32::MAX));
        counted = i;
        let start = i;
        let kind = match b[i] {
            b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c => {
                i += 1;
                None
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments
                    .push((line, lossy_slice(src, start + 2, i).to_string()));
                None
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text_end = i.saturating_sub(2).max(start + 2);
                out.comments
                    .push((line, lossy_slice(src, start + 2, text_end).to_string()));
                None
            }
            b'"' => {
                i = scan_string(b, i);
                Some(TokKind::Str)
            }
            b'\'' => {
                let (kind, end) = scan_quote(b, i);
                i = end;
                Some(kind)
            }
            b'0'..=b'9' => {
                i = ident_end(b, i + 1);
                Some(TokKind::Num)
            }
            c if is_ident_start(c) => {
                i = ident_end(b, i + 1);
                let word = lossy_slice(src, start, i);
                // String-literal prefixes and raw identifiers: an ident
                // immediately followed by `"`, `#`, or `'` may actually
                // introduce a literal (`r"…"`, `br#"…"#`, `b'x'`, `r#fn`).
                match (word, b.get(i)) {
                    ("r" | "br" | "cr", Some(&b'#' | &b'"')) => {
                        if let Some(end) = scan_raw_string(b, i) {
                            i = end;
                            Some(TokKind::Str)
                        } else {
                            if word == "r" && b.get(i) == Some(&b'#') {
                                // Raw identifier `r#ident`.
                                i = ident_end(b, i + 1);
                            }
                            Some(TokKind::Ident)
                        }
                    }
                    ("b" | "c", Some(&b'"')) => {
                        i = scan_string(b, i);
                        Some(TokKind::Str)
                    }
                    ("b", Some(&b'\'')) => {
                        // A byte-char literal is never a lifetime.
                        i = scan_char_body(b, i).1;
                        Some(TokKind::Char)
                    }
                    _ => Some(TokKind::Ident),
                }
            }
            c => {
                i += 1;
                Some(if c.is_ascii_punctuation() {
                    TokKind::Punct(c)
                } else {
                    TokKind::Other
                })
            }
        };
        if let Some(kind) = kind {
            out.tokens.push(Tok {
                kind,
                start,
                end: i,
                line,
                in_test: false,
            });
        }
    }
    out
}

/// One past the identifier characters from `i` on.
fn ident_end(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && is_ident_continue(b[i]) {
        i += 1;
    }
    i
}

fn lossy_slice(src: &str, start: usize, end: usize) -> &str {
    let start = start.min(src.len());
    let mut end = end.clamp(start, src.len());
    // Nudge to char boundaries so slicing can't panic on multi-byte input.
    let mut s = start;
    while s < end && !src.is_char_boundary(s) {
        s += 1;
    }
    while end > s && !src.is_char_boundary(end) {
        end -= 1;
    }
    src.get(s..end).unwrap_or("")
}

/// Scans a `"…"` string starting at the opening quote; returns
/// one past the closing quote. Unterminated → EOF.
fn scan_string(b: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    b.len()
}

/// Scans a raw string whose hashes/quote begin at `i` (prefix ident
/// already consumed). Returns `None` if this is not actually a raw string
/// (e.g. `r#ident`).
fn scan_raw_string(b: &[u8], mut i: usize) -> Option<usize> {
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    while i < b.len() {
        if b[i] == b'"' {
            let tail = &b[i + 1..];
            if tail.len() >= hashes && tail.iter().take(hashes).all(|&h| h == b'#') {
                return Some(i + 1 + hashes);
            }
        }
        i += 1;
    }
    Some(b.len())
}

/// Scans a char-literal body starting at the opening `'` (byte offset of
/// the quote itself, or of `b` for byte chars — pass the quote offset).
/// Returns (consumed-through, end). Stops at newline/EOF if unterminated.
fn scan_char_body(b: &[u8], start: usize) -> (usize, usize) {
    // Find the quote (start may point at the `b` prefix).
    let mut i = start;
    while i < b.len() && b[i] != b'\'' {
        i += 1;
    }
    i += 1; // past the opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return (start, i + 1),
            b'\n' => return (start, i),
            _ => i += 1,
        }
    }
    (start, b.len())
}

/// Disambiguates `'` at `i`: char literal vs lifetime/label.
fn scan_quote(b: &[u8], i: usize) -> (TokKind, usize) {
    match b.get(i + 1) {
        // `'\n'` and friends — always a char literal.
        Some(&b'\\') => {
            let (_, end) = scan_char_body(b, i);
            (TokKind::Char, end)
        }
        // `'x'` — a char literal iff the very next byte closes it.
        Some(&c) if is_ident_continue(c) && c < 0x80 => {
            if b.get(i + 2) == Some(&b'\'') {
                (TokKind::Char, i + 3)
            } else {
                // Lifetime or loop label: consume the identifier.
                let mut j = i + 1;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                (TokKind::Lifetime, j)
            }
        }
        // Multi-byte scalar char literal like 'é': scan for a closing
        // quote within the next few bytes.
        Some(&c) if c >= 0x80 => {
            let (_, end) = scan_char_body(b, i);
            (TokKind::Char, end)
        }
        // `'('`, `'-'`, … punctuation char literals.
        Some(&c) if c != b'\'' && b.get(i + 2) == Some(&b'\'') => {
            let _ = c;
            (TokKind::Char, i + 3)
        }
        _ => (TokKind::Other, i + 1),
    }
}

/// Marks `in_test` on every token inside a `#[test]` / `#[cfg(test)]`
/// item body, by pairing the marking attribute with the next brace block.
fn mark_test_regions(src: &str, out: &mut Lexed) {
    let mut depth: u32 = 0;
    let mut pending_test = false;
    let mut test_depths: Vec<u32> = Vec::new();
    let mut idx = 0usize;
    while idx < out.tokens.len() {
        // Attributes: `#[…]` / `#![…]` — scan to the matching `]`,
        // checking for a bare `test` ident (covers `#[test]`,
        // `#[cfg(test)]`, `#[cfg(all(test, …))]`).
        if matches!(out.tokens[idx].kind, TokKind::Punct(b'#')) {
            let mut j = idx + 1;
            if matches!(
                out.tokens.get(j).map(|t| t.kind),
                Some(TokKind::Punct(b'!'))
            ) {
                j += 1;
            }
            if matches!(
                out.tokens.get(j).map(|t| t.kind),
                Some(TokKind::Punct(b'['))
            ) {
                let mut nest = 0u32;
                let mut mentions_test = false;
                let mut k = j;
                while k < out.tokens.len() {
                    match out.tokens[k].kind {
                        TokKind::Punct(b'[') => nest += 1,
                        TokKind::Punct(b']') => {
                            nest = nest.saturating_sub(1);
                            if nest == 0 {
                                break;
                            }
                        }
                        TokKind::Ident => {
                            let text = src
                                .get(out.tokens[k].start..out.tokens[k].end)
                                .unwrap_or("");
                            if text == "test" {
                                mentions_test = true;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if mentions_test {
                    pending_test = true;
                }
                // Mark attribute tokens with the current region state and
                // skip past the attribute.
                let in_test = !test_depths.is_empty();
                let last = k.min(out.tokens.len().saturating_sub(1));
                for t in &mut out.tokens[idx..=last] {
                    t.in_test = in_test;
                }
                idx = k + 1;
                continue;
            }
        }
        match out.tokens[idx].kind {
            TokKind::Punct(b'{') => {
                depth += 1;
                if pending_test {
                    test_depths.push(depth);
                    pending_test = false;
                }
            }
            TokKind::Punct(b'}') => {
                if test_depths.last() == Some(&depth) {
                    test_depths.pop();
                }
                depth = depth.saturating_sub(1);
            }
            // `#[cfg(test)] mod x;` (out-of-line): the `;` ends the item
            // without a body in this file.
            TokKind::Punct(b';') => pending_test = false,
            _ => {}
        }
        out.tokens[idx].in_test = !test_depths.is_empty();
        idx += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<(String, bool)> {
        let lx = lex(src);
        lx.tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (lx.text(src, t).to_string(), t.in_test))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r###"
            let a = "call .unwrap() here"; // and .unwrap() there
            /* block /* nested */ .unwrap() */
            let b = r#"raw "quoted" .unwrap()"#;
            let c = b"bytes .unwrap()";
        "###;
        let names: Vec<_> = idents(src).into_iter().map(|(n, _)| n).collect();
        assert!(!names.contains(&"unwrap".to_string()), "{names:?}");
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lx = lex(src);
        let kinds: Vec<_> = lx.tokens.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::Lifetime));
        assert!(kinds.contains(&TokKind::Char));
        // The char literal 'x' must not swallow the closing brace.
        assert_eq!(kinds.last(), Some(&TokKind::Punct(b'}')));
    }

    #[test]
    fn char_escapes_and_byte_chars() {
        let src = r"let a = '\''; let b = b'\n'; let q = '\u{1f}';";
        let lx = lex(src);
        let chars = lx.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn raw_identifiers_stay_idents() {
        let src = "let r#fn = 1; let x = r#\"raw\"#;";
        let lx = lex(src);
        let id = lx
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Ident && lx.text(src, t) == "r#fn");
        assert!(id.is_some());
        assert!(lx.tokens.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn test_regions_are_marked() {
        let src = r"
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); }
            }
            fn live2() { z.unwrap(); }
        ";
        let marked = idents(src);
        let unwraps: Vec<_> = marked.iter().filter(|(n, _)| n == "unwrap").collect();
        assert_eq!(unwraps.len(), 3);
        assert!(!unwraps[0].1);
        assert!(unwraps[1].1);
        assert!(!unwraps[2].1);
    }

    #[test]
    fn test_attr_with_following_attrs() {
        let src = "#[test]\n#[ignore]\nfn t() { x.unwrap(); }\nfn live() { y.unwrap(); }";
        let marked = idents(src);
        let unwraps: Vec<_> = marked.iter().filter(|(n, _)| n == "unwrap").collect();
        assert_eq!(unwraps.len(), 2);
        assert!(unwraps[0].1);
        assert!(!unwraps[1].1);
    }

    #[test]
    fn unterminated_inputs_lex() {
        for src in ["\"abc", "r#\"abc", "/* a /* b */", "'", "b'", "'\\", "r#"] {
            let _ = lex(src); // must not panic
        }
    }
}
