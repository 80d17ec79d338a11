//! The lint rules against pinned fixtures: exact rule IDs at exact lines
//! for the violations file, and zero findings for the false-positive
//! gauntlet.

use fcbench_analyze::lexer;
use fcbench_analyze::lint::{lint_file, Finding};

/// Lint a fixture as if it lived at `rel` inside the repo.
fn lint_fixture(rel: &str, fixture: &str) -> Vec<Finding> {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(fixture),
    )
    .expect("fixture file");
    let mut findings = Vec::new();
    lint_file(rel, &lexer::scrub(&src), &mut findings);
    findings
}

#[test]
fn violations_fixture_fires_every_rule_at_the_pinned_lines() {
    // protocol.rs in the serve crate is watched by R002 (claim-gate file)
    // and R003 (wire-cast file) at once.
    let findings = lint_fixture("crates/serve/src/protocol.rs", "violations.rs");
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    let want = vec![
        ("R003", 5),  // `as usize` on a from_le_bytes line
        ("R002", 6),  // ungated Vec::with_capacity in decode_payload
        ("R002", 12), // vec![0u8; src.len()] repeat form in read_sizes
    ];
    let mut got_sorted = got.clone();
    got_sorted.sort();
    let mut want_sorted = want.clone();
    want_sorted.sort();
    assert_eq!(
        got_sorted, want_sorted,
        "findings (rule, line) mismatch: {findings:#?}"
    );
}

#[test]
fn violations_only_fire_for_watched_locations() {
    // A module no rule watches, with a basename no wire rule watches.
    let findings = lint_fixture("crates/bench/src/friedman.rs", "violations.rs");
    assert_eq!(findings, vec![], "unwatched location must be silent");
}

#[test]
fn roots_missing_their_attributes_fire_r004() {
    // A panic-free module without the no-panic attribute; the dzip codec
    // is held to it as a bench module.
    for rel in ["crates/bench/src/metrics.rs", "crates/bench/src/dzip.rs"] {
        let findings = lint_fixture(rel, "violations.rs");
        let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(got, vec![("R004", 1)], "{rel}: {findings:#?}");
        assert!(findings[0].message.contains("clippy::unwrap_used"), "{rel}");
    }
    // A panic-free crate root needs both attributes; any other crate
    // root only `forbid(unsafe_code)`; the bench root neither.
    for (rel, want) in [
        ("crates/dbsim/src/lib.rs", 2),
        ("crates/datasets/src/lib.rs", 1),
        ("src/lib.rs", 1),
        ("crates/bench/src/lib.rs", 0),
    ] {
        let findings = lint_fixture(rel, "violations.rs");
        assert!(findings.iter().all(|f| f.rule == "R004"), "{rel}");
        assert_eq!(findings.len(), want, "{rel}: {findings:#?}");
    }
}

#[test]
fn clean_fixture_is_silent() {
    for rel in [
        "crates/serve/src/protocol.rs",
        "crates/dbsim/src/lib.rs",
        "crates/bench/src/runner.rs",
    ] {
        let findings = lint_fixture(rel, "clean.rs");
        assert_eq!(findings, vec![], "{rel}: false positive: {findings:#?}");
    }
}

#[test]
fn scrubber_reports_waivers_and_test_scopes() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clean.rs"),
    )
    .expect("fixture file");
    let s = lexer::scrub(&src);
    assert!(
        s.waivers
            .iter()
            .any(|w| w.kind == "claim-checked" && w.reason.contains("u8-bounded")),
        "waiver comment must be harvested: {:?}",
        s.waivers
    );
    // The `mod tests` block at the bottom must be an ignored range.
    let at = src
        .find("fn panics_are_fine_in_tests")
        .expect("fixture shape");
    assert!(s.is_ignored(at), "test module must be ignored");
    // Code before it must not be.
    let at = src.find("pub fn decode_with_gate").expect("fixture shape");
    assert!(!s.is_ignored(at));
}

#[test]
fn test_only_files_are_ignored_whole() {
    let src = "#![cfg(test)]\npub fn decode(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n";
    let s = lexer::scrub(src);
    assert!(s.is_ignored(src.find("with_capacity").expect("present")));
}
