//! Golden pin for the paper's deterministic, ratio-only outputs.
//!
//! `codec_golden` pins payload bytes on four datasets and `dataset_golden`
//! pins the generators; this pins what the paper reports from them. Table 4
//! (the 14 × 33 compression ratios, their per-domain and overall harmonic
//! means and the failure rates) at 4 096 elements per dataset must match
//! `tests/data/paper_tables_4096.txt`, which is exactly what
//! `fcbench --elems 4096 --reps 1 table4` prints under its separator line.
//! The file has no timing column, so it is byte-stable across runs and
//! machines. An encoder-choice change on any of the 33 sets (astro-mhd or
//! the HDR sets, which the four-set ladder corpus never sees) fails here.

use fcbench_bench::{experiments, Context};

#[test]
fn table4_ratios_are_frozen() {
    let actual = experiments::table4(&Context::new(4_096, 1));
    let golden = include_str!("data/paper_tables_4096.txt");
    for (a, g) in actual.lines().zip(golden.lines()) {
        assert_eq!(a, g, "a paper ratio moved; the table now reads:\n{actual}");
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "row count changed; the table now reads:\n{actual}"
    );
}
