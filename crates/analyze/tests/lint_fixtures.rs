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
    let scrubbed = lexer::scrub(&src);
    assert!(!scrubbed.skip_file, "fixtures are not test-only files");
    let mut findings = Vec::new();
    lint_file(rel, &scrubbed, &mut findings);
    findings
}

#[test]
fn violations_fixture_fires_every_rule_at_the_pinned_lines() {
    // protocol.rs in the serve crate is watched by R001 (panic-free
    // crate), R002 (claim-gate file), and R003 (wire-cast file) at once.
    let findings = lint_fixture("crates/serve/src/protocol.rs", "violations.rs");
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    let want = vec![
        ("R003", 5),  // `as usize` on a from_le_bytes line
        ("R002", 6),  // ungated Vec::with_capacity in decode_payload
        ("R001", 7),  // .unwrap()
        ("R001", 12), // .expect(
        ("R001", 14), // panic!
        ("R001", 18), // unreachable!
        ("R002", 23), // vec![0u8; src.len()] repeat form in read_sizes
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
    // The same source in a crate outside the panic-free set, with a
    // basename no wire rule watches: only the claim-gate rule is scoped
    // by... nothing here, so nothing fires at all.
    let findings = lint_fixture("crates/bench/src/friedman.rs", "violations.rs");
    assert_eq!(findings, vec![], "unwatched location must be silent");

    // In a panic-free file but not a wire/claim file: only R001. The dzip
    // codec is watched as a bench file, as it was as a crate.
    for rel in ["crates/bench/src/metrics.rs", "crates/bench/src/dzip.rs"] {
        let findings = lint_fixture(rel, "violations.rs");
        assert!(
            findings.iter().all(|f| f.rule == "R001"),
            "{rel}: {findings:#?}"
        );
        assert_eq!(findings.len(), 4, "{rel}");
    }
}

#[test]
fn clean_fixture_is_silent() {
    let findings = lint_fixture("crates/serve/src/protocol.rs", "clean.rs");
    assert_eq!(findings, vec![], "false positive: {findings:#?}");
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
fn model_check_only_files_are_skipped_entirely() {
    let s = lexer::scrub("#![cfg(feature = \"model-check\")]\npub fn f() { x.unwrap() }\n");
    assert!(s.skip_file);
}
