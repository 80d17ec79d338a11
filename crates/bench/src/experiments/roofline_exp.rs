//! Figure 11: roofline placement of every codec's dominant kernel, and the
//! analytic op counts that place it.

use crate::context::{render_table, Context};
use crate::metrics::{time_reps, timing_rule, Timing};
use fcbench_core::{DataDesc, Platform};
use fcbench_datasets::{find, generate};
use fcbench_roofline::{Bound, MachineModel, OpProfile, RooflinePoint};

/// Operation and byte counts of the dominant compression kernel of the
/// codec registered as `codec`, for one pass over `desc`: the dots of
/// Figure 11 and Table 5's modelled device rates. `None` for a name
/// without a model.
pub(crate) fn kernel_profile(codec: &str, desc: &DataDesc) -> Option<OpProfile> {
    let n = desc.elements() as u64;
    let esz = desc.precision.bytes() as u64;
    let b = desc.byte_len() as u64;
    let words = b / 8;
    let bits = 8 * b;
    let (int_ops, float_ops, bytes_moved) = match codec {
        // Per word: two table lookups, two XORs, lz count, two table
        // updates, hash mixing — ~18 int ops; moves the word plus two
        // table entries each way.
        "pfpc" => (18 * words, 0, 6 * 8 * words),
        // The LZ stage's chained hash probing: per input byte ~10 integer
        // ops; the three transforms each re-read and re-write the stream.
        "spdp" => (10 * b, 0, 8 * b),
        // Lorenzo sum (≤ 7 FP add/sub), map/compare/subtract plus the
        // range-coder update (~30 int ops — serial and branchy, which is
        // why fpzip sits lowest on the CPU roofline).
        "fpzip" => (30 * n, 7 * n, 2 * n * esz),
        // The bit transpose: per element-bit one shift, mask, or — ~3 int
        // ops per bit; the block is read and written once by the transpose
        // and re-read by the dictionary stage. Memory-bound (§6.3 (3)).
        "bitshuffle-lz4" | "bitshuffle-zstd" => (3 * bits, 0, 4 * b),
        // The transpose+compact stage — per element-bit a shift/mask/or
        // like bitshuffle, plus the Lorenzo sweeps (nd adds per element).
        // Compute-bound per §6.3 (3); ndzip-GPU runs the same kernel.
        "ndzip-cpu" | "ndzip-gpu" => (3 * bits + 3 * n, 0, 3 * b),
        // Scale, round, subtract, and byte scatter per value (~6 float +
        // 8 int ops); reads each value, writes the padded field.
        "buff" => (8 * n, 6 * n, 2 * n * esz),
        // Per element one XOR, lz/tz counts, window compare, and bit
        // pushes — ~12 integer ops; reads the word, writes ~CR⁻¹ of it.
        "gorilla" => (12 * n, 0, 2 * n * esz),
        // Adds the window probe (hash + compare) to Gorilla's XOR work:
        // ~20 integer ops per element and a read of one stored word.
        "chimp128" => (20 * n, 0, 3 * n * esz),
        // Predict, XOR, lz count, update: a handful of register ops; the
        // word moves each way. DFCM adds a table load + store + hash
        // mixing per word.
        "last-value" => (5 * words, 0, 2 * 8 * words),
        "last-stride" => (7 * words, 0, 2 * 8 * words),
        "dfcm" => (12 * words, 0, 4 * 8 * words),
        // Per word: subtract, sign/abs, lz count, nibble pack — ~8 int
        // ops; reads the word, writes ~the word back.
        "gfc" => (8 * words, 0, 2 * 8 * words),
        // The BIT transpose (like bitshuffle): ~3 int ops per element-bit;
        // the chunk is touched by all four stages.
        "mpc" => (3 * bits, 0, 5 * b),
        // Hash, probe, compare per byte — ~12 int ops/byte, reads input +
        // table traffic.
        "nvcomp-lz4" => (12 * b, 0, 3 * b),
        // Delta + lz count: ~4 int ops per word — bandwidth-bound, the
        // closest dot to the GPU memory roof in Fig. 11b.
        "nvcomp-bitcomp" => (4 * words, 0, 2 * 8 * words),
        // Per byte: GRU step 2·H² mults + readout 256·H + softmax ≈ 5000
        // FLOPs — the reason NN compression runs at KB-not-GB per second.
        "dzip" => {
            let h = fcbench_dzip::HIDDEN as u64;
            let per_byte = 2 * h * h + 2 * 256 * h + 512;
            (20 * b, per_byte * b, 2 * b + 256 * (h + 1) * 8)
        }
        _ => return None,
    };
    Some(OpProfile {
        int_ops,
        float_ops,
        bytes_moved,
    })
}

/// One placed dot: the roofline point, its bound, and the timing its
/// performance was derived from.
type Placed = (RooflinePoint, Bound, Timing);

fn place(ctx: &Context, platform: Platform, machine: &MachineModel) -> Vec<Placed> {
    // The paper profiles on msg-bt (footnote 15).
    let spec = find("msg-bt").expect("catalog dataset");
    let data = generate(&spec, ctx.elems);
    let mut payload = Vec::new();
    ctx.registry
        .by_platform(platform)
        .filter_map(|entry| {
            let codec = entry.codec();
            let profile = kernel_profile(entry.name(), data.desc())?;
            let time = time_reps(ctx.reps, || codec.compress_into(&data, &mut payload)).ok()?;
            let point = RooflinePoint::from_profile(entry.name(), &profile, time.median);
            let bound = point.classify(machine, 0.5);
            Some((point, bound, time))
        })
        .collect()
}

fn render(machine: &MachineModel, points: &[Placed]) -> String {
    let headers = vec![
        "method".to_string(),
        "ops/byte".to_string(),
        "GOP/s".to_string(),
        "IQR %".to_string(),
        "roof GOP/s".to_string(),
        "bound".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(p, b, t)| {
            vec![
                p.name.clone(),
                format!("{:.2}", p.intensity),
                format!("{:.2}", p.performance),
                format!("{:.0}", t.iqr_pct()),
                format!("{:.1}", machine.attainable(p.intensity)),
                format!("{b:?}"),
            ]
        })
        .collect();
    let mut out = format!(
        "{}: compute roof {:.1} GOP/s, DRAM roof {:.1} GB/s, ridge {:.2} ops/byte\n",
        machine.name,
        machine.compute_roof(),
        machine.dram_roof(),
        machine.ridge_intensity()
    );
    out.push_str(&render_table(&headers, &rows));
    out
}

/// Figure 11a/11b: CPU and GPU rooflines (profiled on msg-bt, as in the
/// paper's footnote 15).
pub fn fig11(ctx: &Context) -> String {
    let cpu_machine = MachineModel::xeon_gold_6126();
    let gpu_machine = MachineModel::rtx_6000();

    let mut out = String::from("Figure 11a: CPU-based methods\n");
    out.push_str(&timing_rule(ctx.reps));
    out.push_str(&render(
        &cpu_machine,
        &place(ctx, Platform::Cpu, &cpu_machine),
    ));
    out.push_str("\nFigure 11b: GPU-based methods (simulated device)\n");
    out.push_str(&render(
        &gpu_machine,
        &place(ctx, Platform::Gpu, &gpu_machine),
    ));
    out.push_str(
        "\npaper shape: serial codecs (fpzip, BUFF, SPDP, Gorilla, Chimp) sit far\n\
         below both roofs (underutilized — parallelism would help); bitshuffle is\n\
         memory-bound; ndzip is compute-bound; most GPU kernels hug the memory\n\
         roof. Absolute GOP/s here reflect host execution of the simulated\n\
         kernels, so dots sit lower than on the paper's testbed while the\n\
         *relative* placement (who is near which roof) is what reproduces.\n",
    );
    out
}
