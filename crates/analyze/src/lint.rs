//! The claim-gate lint (`R002`), the one invariant the compiler cannot
//! express: no capacity reservation (`with_capacity`, `reserve`,
//! `vec![x; n]`) in a decode-like function of the wire/container modules
//! and codec decoders on `CLAIM_GATE_FILES` unless the function also
//! calls a claim gate, or the site carries a
//! `// lint: claim-checked(reason)` waiver.
//!
//! The repo's other source invariants are the compiler's and one test's:
//!
//! - no-panic (formerly `R001`): each panic-free crate root and harness
//!   module denies clippy's `unwrap_used`/`expect_used`/`panic`/
//!   `unreachable` in its non-test code, and the workspace denies
//!   `todo`/`unimplemented` everywhere. Each exception is an
//!   `#[expect(clippy::…, reason = "…")]` at its site, which fails the
//!   build once the panic it excuses is gone;
//! - wire casts (formerly `R003`): `protocol.rs`, `stream.rs` and
//!   `container.rs` deny clippy's `cast_possible_truncation` and
//!   `cast_possible_wrap` in their non-test code;
//! - root attributes (formerly `R004`): the umbrella's tier-1 test
//!   `tests/root_attributes.rs` checks that every crate root and module
//!   keeps the attributes above, and `#![forbid(unsafe_code)]`.
//!
//! The workspace pass is `tests/lint_fixtures.rs`'s
//! `workspace_is_claim_gated`.

use crate::lexer::{self, Scrubbed};
use std::fmt;
use std::fs;
use std::path::Path;

/// Files whose decode-like functions must gate reservations.
const CLAIM_GATE_FILES: &[&str] = &[
    "crates/core/src/frame.rs",
    "crates/core/src/stream.rs",
    "crates/core/src/blocks.rs",
    "crates/core/src/fault.rs",
    "crates/core/src/wire.rs",
    "crates/serve/src/protocol.rs",
    "crates/dbsim/src/container.rs",
    "crates/codecs-cpu/src/common.rs",
    "crates/codecs-cpu/src/predictor.rs",
    "crates/entropy/src/huffman.rs",
];

/// Function-name prefixes that mark a function as decode-like.
const DECODE_PREFIXES: &[&str] = &[
    "decode",
    "decompress",
    "parse",
    "read",
    "load",
    "take",
    "recv",
    "valid",
    "check",
];

/// Tokens whose presence in a function body count as a claim gate.
const GATE_TOKENS: &[&str] = &["check_decode_claim", "stream_cap", "plausible"];

/// One ungated reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the repo root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [R002] {}", self.path, self.line, self.message)
    }
}

/// Lint every file on `CLAIM_GATE_FILES` under `root`; a listed file
/// that is missing is an error, so a rename cannot drop it from the rule.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for rel in CLAIM_GATE_FILES {
        let file = root.join(rel);
        let src = fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        lint_file(rel, &lexer::scrub(&src), &mut findings);
    }
    Ok(findings)
}

/// Run R002 over one scrubbed file, as if it lived at `rel`.
pub fn lint_file(rel: &str, s: &Scrubbed, findings: &mut Vec<Finding>) {
    if CLAIM_GATE_FILES.contains(&rel) {
        claim_gate(rel, s, findings);
    }
}

/// Unguarded capacity reservations in decode-like functions.
fn claim_gate(rel: &str, s: &Scrubbed, findings: &mut Vec<Finding>) {
    let spans = lexer::fn_spans(&s.text);
    const RESERVATIONS: &[&str] = &["with_capacity(", ".reserve(", ".reserve_exact("];
    let mut sites: Vec<usize> = RESERVATIONS
        .iter()
        .flat_map(|p| occurrences(&s.text, p))
        .collect();
    // `vec![expr; len]` repeat form: a `;` at depth 1 inside the brackets.
    for at in occurrences(&s.text, "vec!") {
        let b = s.text.as_bytes();
        let Some(open) = (at + 4..s.text.len()).find(|&k| !b[k].is_ascii_whitespace()) else {
            continue;
        };
        if b[open] != b'[' {
            continue;
        }
        if let Some(close) = matching_bracket(b, open) {
            // Repeat form only, and only when the length is an expression:
            // `vec![0u8; 16]` with a literal count is a fixed buffer, not
            // a decoded claim.
            if let Some((_, len)) = s.text[open + 1..close].split_once(';') {
                let len = len.trim();
                if !len.is_empty() && !len.bytes().all(|c| c.is_ascii_digit() || c == b'_') {
                    sites.push(at);
                }
            }
        }
    }
    sites.sort_unstable();
    for at in sites {
        if s.is_ignored(at) {
            continue;
        }
        // innermost enclosing function
        let Some((name, bs, be)) = spans
            .iter()
            .filter(|(_, bs, be)| at >= *bs && at < *be)
            .min_by_key(|(_, bs, be)| be - bs)
        else {
            continue;
        };
        if !DECODE_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let body = &s.text[*bs..*be];
        if GATE_TOKENS.iter().any(|g| body.contains(g)) {
            continue;
        }
        let line = lexer::line_of(&s.text, at);
        if s.waived("claim-checked", line) {
            continue;
        }
        findings.push(Finding {
            path: rel.to_string(),
            line,
            message: format!(
                "capacity reservation in decode function `{name}` with no claim gate \
                 (call a plausibility check first, or waive with \
                 `// lint: claim-checked(reason)`)"
            ),
        });
    }
}

fn occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(off) = hay[i..].find(needle) {
        out.push(i + off);
        i += off + 1;
    }
    out
}

fn matching_bracket(b: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}
