//! A deliberately small Rust source scrubber.
//!
//! The lint in [`crate::lint`] is token-level: it looks for
//! `with_capacity(`, `vec![`, and similar spellings. Matching those
//! against raw source would fire inside comments, doc examples, and string
//! literals, and — worse — inside `#[cfg(test)]` code, which sizes buffers
//! from trusted values. This module produces a *scrubbed* view of a file:
//!
//! - comments (line, doc, nested block) and string/char literals are
//!   blanked with spaces, **preserving byte offsets and line numbers**;
//! - `// lint: <kind>(<reason>)` waiver comments are collected with their
//!   line numbers before being blanked;
//! - byte ranges of test-only items (`#[cfg(test)]`, `#[test]`,
//!   `mod tests { .. }`) are recorded so rules can skip them; an inner
//!   `#![cfg(test)]` marks the whole file.
//!
//! This is not a parser, and does not try to be `syn`: the repo bans
//! exotic token trees in its own source far more effectively than the
//! scrubber could cope with them, and the fixture tests in
//! `tests/lint_fixtures.rs` pin the cases that matter (lifetimes vs char
//! literals, raw strings, nested block comments, strings containing
//! `unwrap(`).

/// A `// lint: kind(reason)` waiver comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the comment sits on (applies to that line and the
    /// next, so a waiver can sit above the waived expression).
    pub line: usize,
    /// The waiver kind; `claim-checked` is the one the lint reads.
    pub kind: String,
    /// The justification inside the parentheses. Must be non-empty.
    pub reason: String,
}

/// The scrubbed view of one source file.
#[derive(Debug)]
pub struct Scrubbed {
    /// Source with comments and literals blanked, byte-for-byte aligned
    /// with the original.
    pub text: String,
    /// Collected `// lint:` waivers.
    pub waivers: Vec<Waiver>,
    /// Byte ranges (half-open) of items the rules must ignore.
    pub ignored: Vec<(usize, usize)>,
}

impl Scrubbed {
    /// Is byte offset `at` inside an ignored (test-only) item?
    pub fn is_ignored(&self, at: usize) -> bool {
        self.ignored.iter().any(|&(s, e)| at >= s && at < e)
    }

    /// Is there a waiver of `kind` on `line` or up to two lines above it?
    /// (Two, not one, because rustfmt wraps the waived expression onto a
    /// continuation line often enough that "the line right below the
    /// comment" is not where the flagged token lands.)
    pub(crate) fn waived(&self, kind: &str, line: usize) -> bool {
        self.waivers
            .iter()
            .any(|w| w.kind == kind && (w.line..w.line + 3).contains(&line))
    }
}

/// Scrub `src` (see module docs).
pub fn scrub(src: &str) -> Scrubbed {
    let (text, waivers) = blank_noncode(src);
    let ignored = find_ignored(&text);
    Scrubbed {
        text,
        waivers,
        ignored,
    }
}

/// 1-based line number of byte offset `at` in `text`.
pub(crate) fn line_of(text: &str, at: usize) -> usize {
    text.as_bytes()[..at.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Pass 1: blank comments and literals, harvesting `// lint:` waivers.
fn blank_noncode(src: &str) -> (String, Vec<Waiver>) {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut waivers = Vec::new();
    let mut i = 0;
    let mut line = 1usize;

    // Emit `n` source bytes verbatim (code) or blanked (non-code),
    // keeping newlines either way so offsets and line counts survive.
    macro_rules! emit {
        (code $n:expr) => {{
            for _ in 0..$n {
                if b[i] == b'\n' {
                    line += 1;
                }
                out.push(b[i]);
                i += 1;
            }
        }};
        (blank $n:expr) => {{
            for _ in 0..$n {
                if b[i] == b'\n' {
                    line += 1;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
        }};
    }

    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(b.len(), |n| i + n);
                if let Some(w) = parse_waiver(&src[i..end], line) {
                    waivers.push(w);
                }
                emit!(blank end - i);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                let start = i;
                while i < b.len() {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
                let len = i - start;
                i = start;
                emit!(blank len);
            }
            b'"' => {
                // String literal: blank contents, keep the quotes as code
                // so `("...")` still scans as a call with an argument.
                emit!(code 1);
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        emit!(blank 2);
                    } else {
                        emit!(blank 1);
                    }
                }
                if i < b.len() {
                    emit!(code 1);
                }
            }
            b'r' if is_raw_string_start(b, i) => {
                let hashes = count_hashes(b, i + 1);
                emit!(code 1 + hashes + 1); // r##"
                let close: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                while i < b.len() && !b[i..].starts_with(&close) {
                    emit!(blank 1);
                }
                if i < b.len() {
                    emit!(code close.len());
                }
            }
            b'b' if b.get(i + 1) == Some(&b'"') => {
                emit!(code 2);
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        emit!(blank 2);
                    } else {
                        emit!(blank 1);
                    }
                }
                if i < b.len() {
                    emit!(code 1);
                }
            }
            b'\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`,
                // `'\n'`): a lifetime's identifier is not followed by a
                // closing quote.
                if is_char_literal(b, i) {
                    let mut j = i + 1;
                    if b.get(j) == Some(&b'\\') {
                        j += 2;
                        // \u{...}
                        while j < b.len() && b[j] != b'\'' {
                            j += 1;
                        }
                    } else {
                        // possibly multi-byte UTF-8 scalar
                        while j < b.len() && b[j] != b'\'' {
                            j += 1;
                        }
                    }
                    let len = (j + 1).min(b.len()) - i;
                    emit!(code 1);
                    emit!(blank len - 2);
                    emit!(code 1);
                } else {
                    emit!(code 1);
                }
            }
            _ => emit!(code 1),
        }
    }
    // The blanking above is byte-for-byte, and only ever blanks whole
    // multi-byte sequences inside literals, so the output is valid UTF-8.
    (String::from_utf8(out).unwrap_or_default(), waivers)
}

/// Does `// lint: kind(reason)` appear in this line comment?
fn parse_waiver(comment: &str, line: usize) -> Option<Waiver> {
    let at = comment.find("lint:")?;
    let rest = comment[at + 5..].trim_start();
    let open = rest.find('(')?;
    let close = rest.rfind(')')?;
    if close <= open {
        return None;
    }
    let kind = rest[..open].trim();
    let reason = rest[open + 1..close].trim();
    if kind.is_empty() || reason.is_empty() {
        return None;
    }
    Some(Waiver {
        line,
        kind: kind.to_string(),
        reason: reason.to_string(),
    })
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  (not an identifier like `ркey` — require the char
    // before `r` to not be alphanumeric/underscore)
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    let h = count_hashes(b, i + 1);
    b.get(i + 1 + h) == Some(&b'"')
}

fn count_hashes(b: &[u8], mut i: usize) -> usize {
    let start = i;
    while b.get(i) == Some(&b'#') {
        i += 1;
    }
    i - start
}

fn is_char_literal(b: &[u8], i: usize) -> bool {
    match b.get(i + 1) {
        Some(b'\\') => true,
        Some(&c) if c != b'\'' => {
            // `'x'` is a char; `'x` followed by anything else is a
            // lifetime. Scan a short window for the closing quote.
            if c.is_ascii_alphanumeric() || c == b'_' {
                // single-char identifier start: char iff next is a quote
                b.get(i + 2) == Some(&b'\'')
            } else {
                // punctuation / multi-byte scalar: treat as char literal
                true
            }
        }
        _ => false,
    }
}

/// Pass 2: collect ignored (test-only) item ranges.
///
/// Works on the scrubbed text so braces inside literals don't confuse the
/// matcher.
fn find_ignored(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut ignored = Vec::new();
    let mut i = 0;
    while let Some(off) = text[i..].find('#') {
        let at = i + off;
        i = at + 1;
        let inner = b.get(at + 1) == Some(&b'!');
        let open = at + if inner { 2 } else { 1 };
        if b.get(open) != Some(&b'[') {
            continue;
        }
        let Some(close) = matching(b, open, b'[', b']') else {
            continue;
        };
        let payload = &text[open + 1..close];
        if payload != "test" && payload != "cfg(test)" {
            continue;
        }
        if inner {
            ignored.push((0, b.len()));
        } else if let Some(range) = item_after(b, close + 1) {
            ignored.push((at, range.1));
        }
    }
    // `mod tests {` / `mod test {` blocks, wherever the cfg sits.
    let mut j = 0;
    while let Some(off) = text[j..].find("mod ") {
        let at = j + off;
        j = at + 4;
        if at > 0 && (b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_') {
            continue;
        }
        let name: String = text[at + 4..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name == "tests" || name == "test" {
            if let Some(range) = item_after(b, at) {
                ignored.push((at, range.1));
            }
        }
    }
    ignored
}

/// The span of the item starting at/after `from`: everything up to the
/// close of its first brace block, or its terminating `;` for block-less
/// items (`use`, `type`, extern fns).
fn item_after(b: &[u8], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < b.len() {
        match b[i] {
            b'{' => {
                let close = matching(b, i, b'{', b'}')?;
                return Some((from, close + 1));
            }
            b';' => return Some((from, i + 1)),
            b'#' => {
                // another attribute on the same item — skip its brackets
                let mut k = i + 1;
                if b.get(k) == Some(&b'!') {
                    k += 1;
                }
                if b.get(k) == Some(&b'[') {
                    i = matching(b, k, b'[', b']')? + 1;
                    continue;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Offset of the bracket matching the one at `open`.
fn matching(b: &[u8], open: usize, oc: u8, cc: u8) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        if b[i] == oc {
            depth += 1;
        } else if b[i] == cc {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Function spans in scrubbed text: `(name, body_start, body_end)`.
///
/// Used by the claim-gate rule to scope reservations to decode-like
/// functions and to look for gate calls in the same body.
pub(crate) fn fn_spans(text: &str) -> Vec<(String, usize, usize)> {
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while let Some(off) = text[i..].find("fn ") {
        let at = i + off;
        i = at + 3;
        if at > 0 && (b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_') {
            continue;
        }
        let name: String = text[at + 3..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // Find the body: first `{` after the signature, skipping where-
        // clauses is unnecessary — the first top-level `{` after `fn` *is*
        // the body in this codebase's style. A `;` first means a trait
        // method declaration with no body.
        let mut k = at + 3;
        let mut body = None;
        while k < b.len() {
            match b[k] {
                b'{' => {
                    body = matching(b, k, b'{', b'}').map(|e| (k, e + 1));
                    break;
                }
                b';' => break,
                _ => k += 1,
            }
        }
        if let Some((s, e)) = body {
            spans.push((name, s, e));
            // Do not skip past the body: nested fns are found because the
            // outer loop continues from just after this `fn` keyword.
        }
    }
    spans
}
