//! Golden pins for the 17 codec payload formats.
//!
//! FCB3 and FCDB2 have golden images; this is the same pin one layer down.
//! Every row of `full_registry()` compresses deterministic corpus datasets
//! (the generators take no seed), and the `(length, CRC-32)` of each
//! payload, or the typed `Unsupported` a row returns, must match
//! `tests/data/codec_golden.txt`. The table has two parts, each
//! codec-major:
//!
//! - 1-D: `msg-bt` (f64) and `citytemp` (f32) at 1 001 elements (a ragged
//!   tail for the u64-word codecs on f32), 40 000 (below the codecs'
//!   fan-out threshold) and 200 000 (above it, so the inline and threaded
//!   paths are both pinned);
//! - multi-D: `acs-wht` (a 2-D f32 image) and `miranda3d` (a 3-D f32
//!   field) at 40 000 and 200 000 elements, so the 2-D/3-D Lorenzo, cube
//!   and border paths are pinned on both sides of the threshold too.
//!
//! Each payload must also decode back to its input, so the decoders are
//! checked on exactly the pinned bytes. A kernel or scaffold change that
//! moves a single payload byte fails here first.

use fcbench::core::{stream::crc32, Error};
use fcbench::datasets::{find, generate};
use fcbench_bench::codecs::full_registry;
use std::fmt::Write;

/// The table's two parts: `(dataset, element counts)` each.
const PARTS: [&[(&str, &[usize])]; 2] = [
    &[
        ("msg-bt", &[1_001, 40_000, 200_000]),
        ("citytemp", &[1_001, 40_000, 200_000]),
    ],
    &[
        ("acs-wht", &[40_000, 200_000]),
        ("miranda3d", &[40_000, 200_000]),
    ],
];

#[test]
fn every_payload_format_is_frozen() {
    let registry = full_registry();
    let mut actual = String::new();
    for part in PARTS {
        for entry in registry.iter() {
            for &(dataset, sizes) in part {
                let spec = find(dataset).expect("catalogued dataset");
                for &n in sizes {
                    let (codec, data) = (entry.codec(), generate(&spec, n));
                    let cell = match codec.compress(&data) {
                        Ok(p) => {
                            let back = codec.decompress(&p, data.desc()).unwrap_or_else(|e| {
                                panic!("{} on {dataset}/{n}: decode: {e}", entry.name())
                            });
                            assert!(
                                back.bytes() == data.bytes(),
                                "{} on {dataset}/{n} does not round-trip",
                                entry.name()
                            );
                            format!("{} {:08x}", p.len(), crc32(&p))
                        }
                        Err(Error::Unsupported(_)) => "unsupported".to_string(),
                        Err(e) => panic!("{} on {dataset}/{n}: {e}", entry.name()),
                    };
                    writeln!(actual, "{} {dataset} {n} {cell}", entry.name()).unwrap();
                }
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
