//! Golden pins for the 17 codec payload formats.
//!
//! FCB3 and FCDB2 have golden images; this is the same pin one layer down.
//! Every row of `full_registry()` compresses two deterministic corpus
//! datasets (`msg-bt` is f64, `citytemp` is f32; the generators take no
//! seed) at three sizes — 1 001 elements (a ragged tail for the u64-word
//! codecs on f32), 40 000 (below the codecs' fan-out threshold) and 200 000
//! (above it, so the inline and threaded paths are both pinned) — and the
//! `(length, CRC-32)` of each payload, or the typed `Unsupported` a row
//! returns, must match `tests/data/codec_golden.txt`. A kernel or scaffold
//! change that moves a single payload byte fails here first.

use fcbench::core::{stream::crc32, Error};
use fcbench::datasets::{find, generate};
use fcbench_bench::codecs::full_registry;
use std::fmt::Write;

#[test]
fn every_payload_format_is_frozen() {
    let mut actual = String::new();
    for entry in full_registry().iter() {
        for dataset in ["msg-bt", "citytemp"] {
            let spec = find(dataset).expect("catalogued dataset");
            for n in [1_001, 40_000, 200_000] {
                let cell = match entry.codec().compress(&generate(&spec, n)) {
                    Ok(p) => format!("{} {:08x}", p.len(), crc32(&p)),
                    Err(Error::Unsupported(_)) => "unsupported".to_string(),
                    Err(e) => panic!("{} on {dataset}/{n}: {e}", entry.name()),
                };
                writeln!(actual, "{} {dataset} {n} {cell}", entry.name()).unwrap();
            }
        }
    }
    let golden = include_str!("data/codec_golden.txt");
    for (a, g) in actual.lines().zip(golden.lines()) {
        assert_eq!(a, g, "payload bytes moved; the table now reads:\n{actual}");
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "row count changed; the table now reads:\n{actual}"
    );
}
