//! Every crate root and held module keeps the attributes its lints hang
//! on. The compiler enforces each lint only where its attribute sits, so
//! dropping one would silently shrink what the build checks; this test
//! makes that a failure instead. Attributes match with whitespace ignored
//! (rustfmt splits them over lines) and comment lines skipped.
//!
//! - `#![forbid(unsafe_code)]` in every crate root but `bench`'s, whose
//!   allocator module alone lifts the workspace's `unsafe_code = "deny"`
//!   (the compat shims under `crates/compat/` are not crate roots here);
//! - the no-panic attribute in the panic-free crate roots and the
//!   benchmark harness modules;
//! - the wire-cast attribute in the three modules that encode and decode
//!   wire integers;
//! - the no-indexing attribute in the modules converted to checked access
//!   so far, a list that only grows.

use std::fs;
use std::path::Path;

const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";
const NO_PANIC: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
                        clippy::panic, clippy::unreachable))]";
const NO_WIRE_CAST: &str = "#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, \
                            clippy::cast_possible_wrap))]";
const NO_INDEXING: &str = "#![cfg_attr(not(test), deny(clippy::indexing_slicing))]";

/// The one crate root without [`FORBID_UNSAFE`].
const UNSAFE_ALLOWED: &str = "bench";

/// Crates whose `src/lib.rs` carries [`NO_PANIC`].
const PANIC_FREE_CRATES: &[&str] = &[
    "core",
    "serve",
    "dbsim",
    "entropy",
    "telemetry",
    "codecs-gpu",
    "codecs-cpu",
];

/// Single modules and the attributes each carries.
const MODULES: &[(&str, &[&str])] = &[
    ("crates/bench/src/runner.rs", &[NO_PANIC]),
    ("crates/bench/src/metrics.rs", &[NO_PANIC]),
    ("crates/bench/src/summary.rs", &[NO_PANIC]),
    ("crates/bench/src/scaling.rs", &[NO_PANIC]),
    ("crates/bench/src/dzip.rs", &[NO_PANIC]),
    ("crates/serve/src/protocol.rs", &[NO_WIRE_CAST, NO_INDEXING]),
    ("crates/core/src/stream.rs", &[NO_WIRE_CAST]),
    ("crates/dbsim/src/container.rs", &[NO_WIRE_CAST]),
    ("crates/core/src/frame.rs", &[NO_INDEXING]),
    ("crates/core/src/wire.rs", &[NO_INDEXING]),
];

fn squeeze(text: &str) -> String {
    text.split_whitespace().collect()
}

/// `rel`'s code lines with all whitespace removed.
fn code_of(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
    src.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .map(squeeze)
        .collect()
}

/// Every crate root: the umbrella's, then `crates/<name>/src/lib.rs` for
/// each crate directory, as `(crate name, path)`.
fn crate_roots() -> Vec<(String, String)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut roots = vec![(String::from("fcbench"), String::from("src/lib.rs"))];
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let name = entry.expect("crates/ entry").file_name();
        let name = name.to_string_lossy().into_owned();
        if name == "compat" {
            continue;
        }
        let rel = format!("crates/{name}/src/lib.rs");
        assert!(
            crates.join(&name).join("src/lib.rs").is_file(),
            "{rel} is missing"
        );
        roots.push((name, rel));
    }
    roots
}

#[test]
fn every_root_and_held_module_keeps_its_attributes() {
    let roots = crate_roots();
    for krate in PANIC_FREE_CRATES.iter().chain([&UNSAFE_ALLOWED]) {
        assert!(
            roots.iter().any(|(name, _)| name == krate),
            "no crate root found for `{krate}`"
        );
    }
    let mut required: Vec<(&str, &str)> = MODULES
        .iter()
        .flat_map(|(rel, attrs)| attrs.iter().map(move |a| (*rel, *a)))
        .collect();
    for (name, rel) in &roots {
        if name != UNSAFE_ALLOWED {
            required.push((rel, FORBID_UNSAFE));
        }
        if PANIC_FREE_CRATES.contains(&name.as_str()) {
            required.push((rel, NO_PANIC));
        }
    }
    let missing: Vec<String> = required
        .iter()
        .filter(|(rel, attr)| !code_of(rel).contains(&squeeze(attr)))
        .map(|(rel, attr)| format!("{rel} is missing `{attr}`"))
        .collect();
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}
