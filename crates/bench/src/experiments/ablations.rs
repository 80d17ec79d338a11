//! Ablations of the design choices DESIGN.md calls out: Chimp's window
//! size, bitshuffle's block size, SPDP's LZ window, pFPC's thread count
//! against a multi-channel table, and ndzip's hypercube size. Each
//! configuration is one [`run_cell`] on a fixed dataset and size, so its
//! ratio and its speed print side by side.

use crate::context::{render_cells, Context};
use crate::metrics::timing_rule;
use crate::runner::{run_cell, CellOutcome};
use fcbench_codecs_cpu::{Backend, Bitshuffle, Chimp, Ndzip, Pfpc, Spdp};
use fcbench_core::Compressor;
use fcbench_datasets::{find, generate};
use fcbench_entropy::lz77::Lz77Config;

/// Elements per ablation dataset (ndzip's cubes get twice as many).
const ELEMS: usize = 1 << 14;

/// One ablated knob: the dataset it runs on, at how many elements, and
/// one labelled codec per setting.
type Ablation = (&'static str, usize, Vec<(String, Box<dyn Compressor>)>);

fn ablation_groups() -> [Ablation; 5] {
    fn variants<T: Copy, C: Compressor + 'static>(
        knob: &str,
        settings: &[(&str, T)],
        build: impl Fn(T) -> C,
    ) -> Vec<(String, Box<dyn Compressor>)> {
        settings
            .iter()
            .map(|&(label, s)| {
                let codec: Box<dyn Compressor> = Box::new(build(s));
                (format!("{knob}={label}"), codec)
            })
            .collect()
    }
    let lz = |window, chain_depth| Lz77Config {
        window,
        chain_depth,
    };
    [
        // Window 1 is Gorilla-style, 128 is §3.5's sliding window; DB
        // transaction data is where its value revisits pay off (Table 4:
        // Chimp leads the DB domain).
        (
            "tpcxBB-store",
            ELEMS,
            variants(
                "chimp window",
                &[("1", 1), ("8", 8), ("128", 128)],
                Chimp::with_window,
            ),
        ),
        // The reference 4 KB L1 block vs the paper's 64 KB.
        (
            "acs-wht",
            ELEMS,
            variants(
                "bitshuffle block",
                &[("4096", 4096), ("65536", 65_536)],
                |block| Bitshuffle::with_config(Backend::Lz4, block, 4),
            ),
        ),
        // The §3.2 ratio/throughput trade-off of the LZ window.
        (
            "msg-bt",
            ELEMS,
            variants(
                "spdp window",
                &[
                    ("4K/d4", lz(1 << 12, 4)),
                    ("64K/d8", lz(1 << 16, 8)),
                    ("1M/d64", lz(1 << 20, 64)),
                ],
                Spdp::with_lz_config,
            ),
        ),
        // §3.6: chunking interacts with the column interleave of an
        // 8-channel table.
        (
            "wesad-chest",
            ELEMS,
            variants(
                "pfpc threads",
                &[("1", 1), ("8", 8), ("32", 32)],
                Pfpc::with_threads,
            ),
        ),
        (
            "miranda3d",
            2 * ELEMS,
            variants(
                "ndzip cube",
                &[("64", 64), ("4096", 4096)],
                Ndzip::with_cube_elems,
            ),
        ),
    ]
}

/// The 13 ablation configurations, each timed with the context's rep
/// count (the fixed datasets and sizes ignore `--elems`).
pub fn ablations(ctx: &Context) -> String {
    let mut cells = Vec::new();
    let mut datasets = Vec::new();
    for (dataset, elems, variants) in ablation_groups() {
        let data = generate(&find(dataset).expect("catalog dataset"), elems);
        datasets.push(format!("{dataset} ({elems})"));
        for (label, codec) in variants {
            match run_cell(codec.as_ref(), &data, ctx.reps) {
                CellOutcome::Ok(m) => cells.push((label, m)),
                CellOutcome::Failed(e) => panic!("ablation {label} on {dataset}: {e}"),
            }
        }
    }
    let mut out = String::from("Ablations: one design knob per group, other settings at default\n");
    out.push_str(&timing_rule(ctx.reps));
    out.push_str(&render_cells("configuration", &cells));
    out.push_str(&format!(
        "\ndatasets (elements), in group order: {}\n\
         expected shape: Chimp's ratio grows with its window on DB data; a\n\
         larger ndzip cube compresses better; pFPC's ratio moves little with\n\
         its thread count.\n",
        datasets.join(", ")
    ));
    out
}
