//! The invariant lints: rules the compiler cannot express but the repo's
//! serving posture depends on.
//!
//! | Rule | Meaning |
//! |---|---|
//! | `R001` no-panic | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test code of the production crates (`core`, `serve`, `dbsim`, `entropy`, `telemetry`, `gpu-sim`, `codecs-gpu`, `codecs-cpu`, `dzip`) and of the benchmark harness modules (`bench/src/{runner,metrics,summary,scaling}.rs`) |
//! | `R002` claim-gate | no capacity reservation (`with_capacity`, `reserve`, `vec![x; n]`) in decode-like functions of the wire/container modules and the codec decoders on the list unless the function also calls a claim gate, or the site carries a `// lint: claim-checked(reason)` waiver |
//! | `R003` wire-cast | no truncating `as` cast on a line that decodes wire integers in `protocol.rs`/`stream.rs`/`container.rs`, unless waived with `// lint: cast-checked(reason)` |
//! | `R004` forbid-unsafe | every non-compat crate root carries `#![forbid(unsafe_code)]` (the `bench` crate is exempt: its tracking allocator implements `GlobalAlloc`) |
//!
//! Findings not burnable today live in a committed allowlist
//! (`ANALYZE_ALLOWLIST`), one `rule path count reason` entry per line.
//! Counts are exact in both directions: a new finding over the count fails
//! the build, and so does a stale entry whose findings were burned down —
//! the allowlist only ever shrinks.

use crate::lexer::{self, Scrubbed};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose non-test code must be panic-free (R001).
const PANIC_FREE_CRATES: &[&str] = &[
    "core",
    "serve",
    "dbsim",
    "entropy",
    "telemetry",
    "gpu-sim",
    "codecs-gpu",
    "codecs-cpu",
    "dzip",
];

/// Single files held to R001 ahead of their crate: the benchmark harness
/// modules, which were held to it as part of `core` before they moved to
/// `bench`.
const PANIC_FREE_FILES: &[&str] = &[
    "crates/bench/src/runner.rs",
    "crates/bench/src/metrics.rs",
    "crates/bench/src/summary.rs",
    "crates/bench/src/scaling.rs",
];

/// Files whose decode-like functions must gate reservations (R002).
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

/// File basenames subject to the wire-cast rule (R003).
const WIRE_CAST_FILES: &[&str] = &["protocol.rs", "stream.rs", "container.rs"];

/// Tokens that mark a line as decoding wire integers. `take(` is handled
/// separately: only the bare call form (the cursor-advancing helpers in
/// the parsers) counts, not the `.take(n)` iterator adaptor.
const DECODE_MARKERS: &[&str] = &[
    "from_le_bytes",
    "from_be_bytes",
    "read_u8(",
    "read_u16(",
    "read_u32(",
    "read_u64(",
];

/// Cast targets that can truncate a wire-decoded integer.
const NARROW_CASTS: &[&str] = &[
    "as u8", "as u16", "as u32", "as i8", "as i16", "as i32", "as usize", "as isize",
];

/// Crate directories exempt from R004 (vendored shims; the bench
/// allocator needs `unsafe impl GlobalAlloc`).
const FORBID_UNSAFE_EXEMPT: &[&str] = &["compat", "bench"];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID, `R001`..`R004`.
    pub rule: &'static str,
    /// Path relative to the repo root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Lint every watched file under `root`. Returns findings not covered by
/// the allowlist, plus allowlist integrity errors (stale or over-counted
/// entries) rendered as findings against the allowlist file itself.
pub fn run(root: &Path, allowlist_path: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for file in watched_files(root)? {
        let rel = relpath(root, &file);
        let src = fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let scrubbed = lexer::scrub(&src);
        if scrubbed.skip_file {
            continue;
        }
        lint_file(&rel, &scrubbed, &mut findings);
    }
    for rel in crate_roots(root)? {
        let file = root.join(&rel);
        let src = fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        if !lexer::scrub(&src).text.contains("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                rule: "R004",
                path: rel,
                line: 1,
                message: "crate root is missing #![forbid(unsafe_code)]".into(),
            });
        }
    }
    apply_allowlist(findings, allowlist_path)
}

/// All lintable `.rs` files: `src/` trees of the non-compat crates plus
/// the umbrella crate, excluding tests/benches/examples directories.
fn watched_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut src_dirs = vec![root.join("src")];
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "compat" {
            continue;
        }
        src_dirs.push(entry.path().join("src"));
    }
    for dir in src_dirs {
        walk_rs(&dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(()); // crate without src/, nothing to lint
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Crate roots subject to R004.
fn crate_roots(root: &Path) -> Result<Vec<String>, String> {
    let mut roots = vec!["src/lib.rs".to_string()];
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if FORBID_UNSAFE_EXEMPT.contains(&name.as_str()) {
            continue;
        }
        if entry.path().join("src/lib.rs").is_file() {
            roots.push(format!("crates/{name}/src/lib.rs"));
        }
    }
    roots.sort();
    Ok(roots)
}

fn relpath(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run R001–R003 over one scrubbed file.
pub fn lint_file(rel: &str, s: &Scrubbed, findings: &mut Vec<Finding>) {
    if in_panic_free_crate(rel) {
        no_panic(rel, s, findings);
    }
    if CLAIM_GATE_FILES.contains(&rel) {
        claim_gate(rel, s, findings);
    }
    if WIRE_CAST_FILES
        .iter()
        .any(|f| rel.ends_with(f) && rel.starts_with("crates/"))
    {
        wire_cast(rel, s, findings);
    }
}

fn in_panic_free_crate(rel: &str) -> bool {
    PANIC_FREE_FILES.contains(&rel)
        || PANIC_FREE_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// R001: panics in non-test production code.
fn no_panic(rel: &str, s: &Scrubbed, findings: &mut Vec<Finding>) {
    const METHODS: &[&str] = &[".unwrap()", ".expect("];
    const MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];
    for pat in METHODS.iter().chain(MACROS) {
        for at in occurrences(&s.text, pat) {
            if s.is_ignored(at) {
                continue;
            }
            // `.expect(` must not also catch `.expect_err(`; boundary
            // checks keep `core::unreachable!` matched but `my_panic!` not.
            let b = s.text.as_bytes();
            let before_ok = pat.starts_with('.')
                || at == 0
                || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
            if !before_ok {
                continue;
            }
            findings.push(Finding {
                rule: "R001",
                path: rel.to_string(),
                line: lexer::line_of(&s.text, at),
                message: format!("`{pat}` in non-test production code"),
            });
        }
    }
}

/// R002: unguarded capacity reservations in decode-like functions.
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
            rule: "R002",
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

/// R003: truncating casts on wire-decode lines.
fn wire_cast(rel: &str, s: &Scrubbed, findings: &mut Vec<Finding>) {
    for (idx, line) in s.text.lines().enumerate() {
        let line_no = idx + 1;
        if !DECODE_MARKERS.iter().any(|m| line.contains(m)) && !has_bare_take(line) {
            continue;
        }
        let Some(col) = NARROW_CASTS
            .iter()
            .filter_map(|c| find_token(line, c))
            .min()
        else {
            continue;
        };
        // offset of this line in the file text
        let at: usize = s.text.lines().take(idx).map(|l| l.len() + 1).sum::<usize>() + col;
        if s.is_ignored(at) || s.waived("cast-checked", line_no) {
            continue;
        }
        findings.push(Finding {
            rule: "R003",
            path: rel.to_string(),
            line: line_no,
            message: "truncating `as` cast on a wire-decode line \
                      (use `usize::from`/`try_from` or the saturating \
                      `fcbench_core::wire::len32`/`len64` helpers, or waive with \
                      `// lint: cast-checked(reason)`)"
                .into(),
        });
    }
}

/// A bare `take(` call (the byte-cursor helpers in the parsers), as
/// opposed to the `.take(n)` iterator adaptor or a longer identifier.
fn has_bare_take(line: &str) -> bool {
    let b = line.as_bytes();
    occurrences(line, "take(").into_iter().any(|at| {
        at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_' || b[at - 1] == b'.')
    })
}

/// Find `tok` in `line` with identifier boundaries on both sides.
fn find_token(line: &str, tok: &str) -> Option<usize> {
    let b = line.as_bytes();
    for at in occurrences(line, tok) {
        let before_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let end = at + tok.len();
        let after_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if before_ok && after_ok {
            return Some(at);
        }
    }
    None
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

/// Subtract the allowlist from `findings`; surface integrity errors.
fn apply_allowlist(findings: Vec<Finding>, allowlist_path: &Path) -> Result<Vec<Finding>, String> {
    let mut allowed: BTreeMap<(String, String), usize> = BTreeMap::new();
    let text = match fs::read_to_string(allowlist_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("read {}: {e}", allowlist_path.display())),
    };
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(path), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "{}:{}: malformed allowlist entry (want `rule path count reason`)",
                allowlist_path.display(),
                no + 1
            ));
        };
        let count: usize = count.parse().map_err(|_| {
            format!(
                "{}:{}: count {count:?} is not a number",
                allowlist_path.display(),
                no + 1
            )
        })?;
        if parts.next().is_none() {
            return Err(format!(
                "{}:{}: allowlist entry has no justification",
                allowlist_path.display(),
                no + 1
            ));
        }
        allowed.insert((rule.to_string(), path.to_string()), count);
    }

    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in &findings {
        *counts
            .entry((f.rule.to_string(), f.path.clone()))
            .or_insert(0) += 1;
    }
    let mut out = Vec::new();
    let list = allowlist_path.display();
    for f in findings {
        let key = (f.rule.to_string(), f.path.clone());
        let found = counts[&key];
        match allowed.get(&key) {
            Some(&n) if n == found => {} // exactly covered
            Some(&n) => out.push(Finding {
                message: format!(
                    "{} (allowlist covers {n} for this rule+file, found {found} — \
                     update {list} with a justification, or burn the finding down)",
                    f.message
                ),
                ..f
            }),
            None => out.push(f),
        }
    }
    // Stale entries: the allowlist only shrinks.
    for ((rule, path), n) in &allowed {
        let found = counts
            .get(&(rule.clone(), path.clone()))
            .copied()
            .unwrap_or(0);
        if found < *n {
            out.push(Finding {
                rule: match rule.as_str() {
                    "R001" => "R001",
                    "R002" => "R002",
                    "R003" => "R003",
                    _ => "R004",
                },
                path: relpath_str(allowlist_path),
                line: 1,
                message: format!(
                    "stale allowlist entry: `{rule} {path}` allows {n} but only \
                     {found} remain — shrink the entry"
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(out)
}

fn relpath_str(p: &Path) -> String {
    p.to_string_lossy().replace('\\', "/")
}
