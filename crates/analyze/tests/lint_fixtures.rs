//! The claim-gate lint against pinned fixtures — exact lines for the
//! violations file, zero findings for the false-positive gauntlet — and
//! over the workspace itself.

use fcbench_analyze::lexer;
use fcbench_analyze::lint::{self, lint_file, Finding};

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
fn violations_fixture_fires_at_the_pinned_lines() {
    let findings = lint_fixture("crates/serve/src/protocol.rs", "violations.rs");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    // An ungated Vec::with_capacity in decode_payload, and the
    // vec![0u8; src.len()] repeat form in read_sizes.
    assert_eq!(lines, vec![6, 12], "{findings:#?}");
}

#[test]
fn violations_only_fire_for_watched_locations() {
    let findings = lint_fixture("crates/bench/src/friedman.rs", "violations.rs");
    assert_eq!(findings, vec![], "unwatched location must be silent");
}

#[test]
fn clean_fixture_is_silent() {
    let findings = lint_fixture("crates/serve/src/protocol.rs", "clean.rs");
    assert_eq!(findings, vec![], "false positive: {findings:#?}");
}

/// The workspace pass: every watched file of this checkout is gated.
#[test]
fn workspace_is_claim_gated() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint::run(&root).expect("every watched file reads");
    let listing: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "{}", listing.join("\n"));
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
