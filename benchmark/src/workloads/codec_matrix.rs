//! `codec_matrix` — the paper's Table 4–6 run: every CPU codec of
//! `full_registry()` over one representative dataset per domain, inline on
//! one thread through `compress_into`/`decompress_into` with reused buffers.

use crate::corpus::{Corpus, Rng};
use crate::harness::{
    closed_loop, Env, Inputs, LoopCfg, LoopOut, OpTimes, PhaseSpec, Scale, Slicing, Spec, Window,
    Workload,
};
use crate::trace::{self, Span, Tracer};
use fcbench_core::{Compressor, FloatData, Platform};
use std::collections::BTreeMap;
use std::sync::Arc;

pub static SPEC: Spec = Spec {
    name: "codec_matrix",
    why:
        "codecs-cpu and entropy do all the work and pool, stream, dbsim and serve none: the bypass \
          workload for engine, container and serve changes, the mechanism workload for kernel work",
    gated: true,
    op: "one (codec, dataset) cell: compress_into then decompress_into, 1 thread",
    phases: &[PhaseSpec {
        name: "matrix",
        share: 1.0,
    }],
    latency_phase: 0,
    rate_phase: 0,
};

/// One representative per domain (HPC f64, TS f32, OBS f32, DB f32): the
/// corpus `fcbench_bench::perf_json::CORPUS` already fixes.
pub const DATASETS: [&str; 4] = fcbench_bench::perf_json::CORPUS;

/// Elements per dataset.
const ELEMS: usize = 1 << 20;

/// Leading share of each dataset the set-up pass runs on: enough to find
/// the "-" cells and warm every codec's thread-local scratch without making
/// one set-up cycle as long as a measured pass.
const SETUP_PREFIX_DIV: usize = 16;

/// The CPU rows of the full registry, in registry order. GPU-sim rows are
/// left out: their wall time is the simulator's.
pub fn cpu_codecs() -> Vec<Arc<dyn Compressor>> {
    fcbench_bench::codecs::full_registry()
        .by_platform(Platform::Cpu)
        .map(|e| Arc::clone(e.codec()))
        .collect()
}

pub struct CodecMatrix {
    codecs: Vec<Arc<dyn Compressor>>,
    datasets: Vec<(&'static str, FloatData)>,
    /// Cells (codec index, dataset index) the matrix runs; the rest are the
    /// paper's "-" cells, fixed at set-up.
    cells: Vec<(usize, usize)>,
    skipped: Vec<(&'static str, &'static str)>,
    /// Compressed size of each cell, as last produced.
    stored: Vec<u64>,
    /// Cell order of the next pass.
    order: Vec<usize>,
    next: usize,
    rng: Rng,
    payload: Vec<u8>,
    restored: FloatData,
    inputs: Inputs,
}

/// The first `1/div` of `data`'s rows, as its own dataset.
fn prefix(data: &FloatData, div: usize) -> Result<FloatData, String> {
    let mut desc = data.desc().clone();
    let rows = desc.dims[0];
    let keep = (rows / div).max(1);
    desc.dims[0] = keep;
    let bytes = data.bytes()[..data.bytes().len() / rows * keep].to_vec();
    FloatData::from_bytes(desc, bytes).map_err(|e| e.to_string())
}

impl CodecMatrix {
    pub fn setup(seed: u64, scale: Scale, tracer: &mut Tracer) -> Result<CodecMatrix, String> {
        let mut corpus = Corpus::new(seed);
        let mut datasets = Vec::new();
        for name in DATASETS {
            datasets.push((name, corpus.dataset(name, scale.elems(ELEMS), tracer)?));
        }
        let codecs = cpu_codecs();
        // Sized for the largest cell up front: grown on demand, the two
        // reused buffers would end at capacities that depend on the cell
        // order, and `peak_rss_mb` with them.
        let largest = datasets
            .iter()
            .map(|(_, d)| d)
            .max_by_key(|d| d.bytes().len())
            .ok_or("no datasets")?;
        let mut payload = Vec::with_capacity(2 * largest.bytes().len());
        let mut restored = largest.clone();
        let mut cells = Vec::new();
        let mut skipped = Vec::new();
        for (d, (dname, data)) in datasets.iter().enumerate() {
            let head = prefix(data, SETUP_PREFIX_DIV)?;
            for (c, codec) in codecs.iter().enumerate() {
                match codec.compress_into(&head, &mut payload) {
                    Ok(n) => {
                        codec
                            .decompress_into(&payload[..n], head.desc(), &mut restored)
                            .map_err(|e| format!("{} on {dname}: {e}", codec.info().name))?;
                        cells.push((c, d));
                    }
                    Err(_) => skipped.push((codec.info().name, *dname)),
                }
            }
        }
        Ok(CodecMatrix {
            codecs,
            datasets,
            stored: vec![0; cells.len()],
            order: (0..cells.len()).collect(),
            cells,
            skipped,
            next: 0,
            rng: corpus.rng().clone(),
            payload,
            restored,
            inputs: corpus.inputs(),
        })
    }

    /// The next cell of the current pass; a new pass reshuffles the order.
    fn cell(&mut self, tracer: &mut Tracer) -> Result<OpTimes, String> {
        if self.next == 0 {
            self.rng.shuffle(&mut self.order);
        }
        let cell = self.order[self.next];
        let (c, d) = self.cells[cell];
        self.next = (self.next + 1) % self.order.len();
        let codec = &self.codecs[c];
        let name = codec.info().name;
        let (dname, data) = &self.datasets[d];
        let raw = data.bytes().len() as u64;
        tracer.begin_op("bench", "codec_matrix.cell");
        let (n, write_s) = tracer.time("codec", "compress_into", name, raw, || {
            codec.compress_into(data, &mut self.payload)
        });
        let result = n
            .map_err(|e| format!("{name} compress {dname}: {e}"))
            .and_then(|n| {
                let (r, read_s) = tracer.time("codec", "decompress_into", name, raw, || {
                    codec.decompress_into(&self.payload[..n], data.desc(), &mut self.restored)
                });
                r.map_err(|e| format!("{name} decompress {dname}: {e}"))?;
                Ok((n, read_s))
            });
        tracer.end_op();
        let (n, read_s) = result?;
        if self.restored.bytes() != data.bytes() {
            return Err(format!("{name} on {dname}: restored bytes differ"));
        }
        self.stored[cell] = n as u64;
        Ok(OpTimes {
            write_s,
            read_s,
            total_s: write_s + read_s,
            raw_bytes: raw,
            stored_bytes: n as u64,
        })
    }
}

impl Workload for CodecMatrix {
    fn spec(&self) -> &'static Spec {
        &SPEC
    }

    fn inputs(&self) -> Inputs {
        self.inputs
    }

    fn notes(&self) -> Vec<String> {
        let skipped: Vec<String> = self
            .skipped
            .iter()
            .map(|(c, d)| format!("{c}/{d}"))
            .collect();
        vec![format!(
            "{} codecs x {} datasets = {} cells per pass; skipped \"-\" cells: [{}]",
            self.codecs.len(),
            self.datasets.len(),
            self.cells.len(),
            skipped.join(", ")
        )]
    }

    fn slicing(&self) -> Slicing {
        Slicing::Pass {
            ops: self.cells.len(),
        }
    }

    fn run_phase(&mut self, _phase: usize, cfg: &LoopCfg, tracer: &mut Tracer) -> LoopOut {
        self.next = 0;
        closed_loop(cfg, std::time::Instant::now(), tracer, |t| self.cell(t))
    }

    /// The kernels beneath the codecs, fed what the bitshuffle rows feed
    /// them: 64 KiB blocks of each dataset, bit-transposed. Only the first
    /// [`KERNEL_BLOCKS`] of each: the thorough matchers run at a few MB/s.
    fn probe(&mut self, _seconds: f64, tracer: &mut Tracer) -> Result<(), String> {
        use fcbench_codecs_cpu::bitshuffle::{bit_transpose_into, bit_untranspose_into};
        use fcbench_entropy::{huffman, lz4, lz77, zzip};
        let mut planes = Vec::new();
        let mut back = Vec::new();
        let mut out = Vec::new();
        for (_, data) in &self.datasets {
            let bits = data.desc().precision.bits();
            for block in data
                .bytes()
                .chunks_exact(KERNEL_BLOCK_BYTES)
                .take(KERNEL_BLOCKS)
            {
                let (elems, raw) = (block.len() * 8 / bits, block.len() as u64);
                tracer.time("codec", "bit_transpose", "", raw, || {
                    bit_transpose_into(block, elems, bits, &mut planes)
                });
                tracer.time("codec", "bit_untranspose", "", raw, || {
                    bit_untranspose_into(&planes, elems, bits, &mut back)
                });
                if back != block {
                    return Err("bit transpose does not round-trip".into());
                }
                tracer.time("entropy", "lz4.compress", "", raw, || {
                    lz4::compress_into(&planes, &mut out)
                });
                tracer.time("entropy", "lz77_fast.compress", "", raw, || {
                    lz77::compress_into(&planes, lz77::Lz77Config::fast(), &mut out)
                });
                tracer.time("entropy", "lz77_thorough.compress", "", raw, || {
                    lz77::compress_into(&planes, lz77::Lz77Config::thorough(), &mut out)
                });
                tracer.time("entropy", "zzip.compress", "", raw, || {
                    std::hint::black_box(zzip::compress(&planes));
                });
                tracer.time("entropy", "huffman.encode", "", raw, || {
                    huffman::encode_into(&planes, &mut out)
                });
            }
        }
        Ok(())
    }

    fn layer_metrics(
        &self,
        _window: &Window,
        s: &[Span],
        _env: &Env,
        out: &mut BTreeMap<String, f64>,
    ) {
        for (c, codec) in self.codecs.iter().enumerate() {
            let name = codec.info().name;
            let (raw, stored) = self
                .cells
                .iter()
                .zip(&self.stored)
                .filter(|((cell_codec, _), _)| *cell_codec == c)
                .fold((0, 0), |(raw, stored), ((_, d), n)| {
                    (raw + self.datasets[*d].1.bytes().len() as u64, stored + n)
                });
            out.insert(
                format!("codec.{name}.compress_mb_s"),
                trace::rate_mb_s(s, "codec", "compress_into", name),
            );
            out.insert(
                format!("codec.{name}.decompress_mb_s"),
                trace::rate_mb_s(s, "codec", "decompress_into", name),
            );
            out.insert(format!("codec.{name}.ratio"), raw as f64 / stored as f64);
        }
        for (layer, name, metric) in KERNELS {
            out.insert(metric.to_string(), trace::rate_mb_s(s, layer, name, ""));
        }
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// The bitshuffle rows' block size, and how many blocks of each dataset the
/// kernel probes read.
const KERNEL_BLOCK_BYTES: usize = 64 * 1024;
const KERNEL_BLOCKS: usize = 4;

/// Kernel probes as (span layer, span name, metric).
pub const KERNELS: [(&str, &str, &str); 7] = [
    ("entropy", "lz4.compress", "entropy.lz4.compress_mb_s"),
    (
        "entropy",
        "lz77_fast.compress",
        "entropy.lz77_fast.compress_mb_s",
    ),
    (
        "entropy",
        "lz77_thorough.compress",
        "entropy.lz77_thorough.compress_mb_s",
    ),
    ("entropy", "zzip.compress", "entropy.zzip.compress_mb_s"),
    ("entropy", "huffman.encode", "entropy.huffman.encode_mb_s"),
    ("codec", "bit_transpose", "codec.bit_transpose_mb_s"),
    ("codec", "bit_untranspose", "codec.bit_untranspose_mb_s"),
];
