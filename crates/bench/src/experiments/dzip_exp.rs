//! The §4.5 Dzip experiment: neural compression works, but at three-plus
//! orders of magnitude lower throughput than conventional codecs — "still
//! not practical for applications at the time of our survey".

use crate::context::{render_cells, Context};
use crate::dzip::Dzip;
use crate::metrics::timing_rule;
use crate::runner::{run_cell, CellOutcome};
use fcbench_core::CodecRegistry;
use fcbench_datasets::{find, generate};

/// Elements of the msg-bt excerpt: small, because Dzip runs at ~KB/s.
const EXCERPT_ELEMS: usize = 16384;

/// Compare Dzip against two conventional codecs on a small excerpt, each
/// cell timed with the context's rep count.
pub fn dzip_experiment(ctx: &Context) -> String {
    let spec = find("msg-bt").expect("catalog dataset");
    let data = generate(&spec, EXCERPT_ELEMS);

    // A purpose-built registry: the neural codec plus two conventional
    // baselines drawn with the same construction as the paper registry.
    let registry = CodecRegistry::new()
        .with(Dzip::with_bootstrap(1, 1 << 14))
        .with(fcbench_codecs_cpu::Gorilla::new())
        .with(fcbench_codecs_cpu::Bitshuffle::lz4());

    let mut cells = Vec::new();
    let mut dzip_ct = f64::NAN;
    let mut fastest_ct = 0.0f64;
    for entry in registry.iter() {
        let m = match run_cell(entry.codec().as_ref(), &data, ctx.reps) {
            CellOutcome::Ok(m) => m,
            CellOutcome::Failed(e) => panic!("{} on the dzip excerpt: {e}", entry.name()),
        };
        let ct = m.compression_throughput_gbs();
        if entry.name() == "dzip" {
            dzip_ct = ct;
        } else {
            fastest_ct = fastest_ct.max(ct);
        }
        cells.push((entry.name().to_string(), m));
    }

    let mut out = format!(
        "Dzip (S4.5): neural compression on a {} KB msg-bt excerpt\n",
        data.bytes().len() / 1024
    );
    out.push_str(&timing_rule(ctx.reps));
    out.push_str(&render_cells("method", &cells));
    out.push_str(&format!(
        "\nconventional/neural speed gap: {:.0}x\n\
         (paper: Dzip runs at ~KB/s; NN-based compression 'still not practical')\n",
        fastest_ct / dzip_ct
    ));
    out
}
