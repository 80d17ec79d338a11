//! Golden pins for the 33 dataset generators.
//!
//! Every table, ratio and ladder rung reads its input from
//! `fcbench_datasets::generate`, so the generators' bytes are pinned the way
//! `codec_golden` pins the codecs' payloads: the `(dims, length, CRC-32)` of
//! every catalog dataset at 4 096 elements (every map runs inline) and at
//! 200 000 (above `wire::PARALLEL_BYTES`, so the fanned-out map is pinned
//! too) must match `tests/data/dataset_golden.txt`. A generator change that
//! moves a single value byte fails here first.

use fcbench::core::stream::crc32;
use fcbench::datasets::{catalog, generate};
use std::fmt::Write;

const SIZES: [usize; 2] = [4_096, 200_000];

#[test]
fn every_dataset_is_frozen() {
    let mut actual = String::new();
    for n in SIZES {
        for spec in catalog() {
            let data = generate(&spec, n);
            let dims: Vec<String> = data.desc().dims.iter().map(usize::to_string).collect();
            writeln!(
                actual,
                "{} {n} {} {} {:08x}",
                spec.name,
                dims.join("x"),
                data.bytes().len(),
                crc32(data.bytes())
            )
            .unwrap();
        }
    }
    let golden = include_str!("data/dataset_golden.txt");
    for (a, g) in actual.lines().zip(golden.lines()) {
        assert_eq!(
            a, g,
            "generated bytes moved; the table now reads:\n{actual}"
        );
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "row count changed; the table now reads:\n{actual}"
    );
}
