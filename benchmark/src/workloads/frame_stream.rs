//! `frame_stream` — an HPC in-situ dump: one large field written through
//! `FrameWriter` over the shared `WorkerPool` into memory and read back with
//! `FrameReader::read_to_end`. No socket, no file: pool and stream only.

use super::{host_pool, pool_metrics};
use crate::corpus::Corpus;
use crate::harness::{
    closed_loop, Env, Inputs, LoopCfg, LoopOut, OpTimes, PhaseSpec, Scale, Spec, Window, Workload,
};
use crate::trace::{self, Span, Tracer};
use fcbench_core::telemetry::Registry;
use fcbench_core::{Compressor, FloatData, FrameReader, FrameWriter, WorkerPool};
use std::collections::BTreeMap;
use std::sync::Arc;

pub static SPEC: Spec = Spec {
    name: "frame_stream",
    why: "core::pool and core::stream with large blocks and a deep window, no socket and no file: \
          where a hand-off, window or saturation change shows and a serve or dbsim change must not",
    gated: true,
    op: "miranda3d streamed out and back once with gorilla and once with bitshuffle-lz4",
    phases: &[PhaseSpec {
        name: "stream",
        share: 1.0,
    }],
    latency_phase: 0,
    rate_phase: 0,
};

const DATASET: &str = "miranda3d";

/// 8 Mi f32 elements: 32 MiB, four times the two cores' 8 MiB of L2. (The
/// host's shared L3 cannot be outsized in a sandbox.)
const ELEMS: usize = 8 << 20;

pub const BLOCK_ELEMS: usize = 65536;

/// A fast XOR codec and the transpose + LZ stack: both inside every
/// operation, so operations have one shape.
pub const CODECS: [&str; 2] = ["gorilla", "bitshuffle-lz4"];

pub struct FrameStream {
    pool: Arc<WorkerPool>,
    codecs: Vec<Arc<dyn Compressor>>,
    data: FloatData,
    /// The compressed stream, reused across operations.
    sink: Vec<u8>,
    restored: FloatData,
    inputs: Inputs,
}

/// What one trip through the stream layer is recorded as.
struct Rung {
    pool: Option<Arc<WorkerPool>>,
    write: &'static str,
    finish: &'static str,
    read: &'static str,
}

impl FrameStream {
    pub fn setup(
        seed: u64,
        scale: Scale,
        env: &Env,
        tracer: &mut Tracer,
    ) -> Result<FrameStream, String> {
        let mut corpus = Corpus::new(seed);
        let data = corpus.dataset(DATASET, scale.elems(ELEMS), tracer)?;
        let registry = fcbench_bench::codecs::full_registry();
        let codecs = CODECS
            .iter()
            .map(|name| registry.require(name).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut w = FrameStream {
            pool: host_pool(env),
            codecs,
            data,
            sink: Vec::new(),
            restored: FloatData::scratch(),
            inputs: corpus.inputs(),
        };
        // Sizes the reused buffers and warms the workers' scratch.
        w.op(&mut Tracer::new(std::time::Instant::now()))?;
        Ok(w)
    }

    /// Streams the field out and back with every codec through `rung`.
    fn round_trip(&mut self, rung: &Rung, tracer: &mut Tracer) -> Result<OpTimes, String> {
        let raw = self.data.bytes().len() as u64;
        let mut t = OpTimes {
            write_s: 0.0,
            read_s: 0.0,
            total_s: 0.0,
            raw_bytes: 0,
            stored_bytes: 0,
        };
        for codec in &self.codecs {
            let name = codec.info().name;
            let mut sink = std::mem::take(&mut self.sink);
            sink.clear();
            let mut writer = FrameWriter::new(
                sink,
                Arc::clone(codec),
                self.data.desc().clone(),
                BLOCK_ELEMS,
                rung.pool.clone(),
            )
            .map_err(|e| format!("{name} writer: {e}"))?;
            let (r, write_s) = tracer.time("stream", rung.write, name, raw, || {
                writer.write(self.data.bytes())
            });
            r.map_err(|e| format!("{name} write: {e}"))?;
            let (sink, finish_s) = tracer.time("stream", rung.finish, name, 0, || writer.finish());
            self.sink = sink.map_err(|e| format!("{name} finish: {e}"))?;

            let (r, read_s) = tracer.time("stream", rung.read, name, raw, || {
                FrameReader::new(&self.sink[..], Arc::clone(codec), rung.pool.clone())
                    .and_then(|mut reader| reader.read_to_end(&mut self.restored))
            });
            r.map_err(|e| format!("{name} read: {e}"))?;
            if self.restored.bytes() != self.data.bytes() {
                return Err(format!("{name}: restored bytes differ"));
            }
            t.write_s += write_s + finish_s;
            t.read_s += read_s;
            t.raw_bytes += raw;
            t.stored_bytes += self.sink.len() as u64;
        }
        t.total_s = t.write_s + t.read_s;
        Ok(t)
    }

    fn op(&mut self, tracer: &mut Tracer) -> Result<OpTimes, String> {
        tracer.begin_op("bench", "frame_stream.op");
        let r = self.round_trip(
            &Rung {
                pool: Some(Arc::clone(&self.pool)),
                write: "write",
                finish: "finish",
                read: "read_to_end",
            },
            tracer,
        );
        tracer.end_op();
        r
    }
}

impl Workload for FrameStream {
    fn spec(&self) -> &'static Spec {
        &SPEC
    }

    fn inputs(&self) -> Inputs {
        self.inputs
    }

    fn registries(&self) -> Vec<Arc<Registry>> {
        vec![Arc::clone(self.pool.telemetry())]
    }

    fn run_phase(&mut self, _phase: usize, cfg: &LoopCfg, tracer: &mut Tracer) -> LoopOut {
        closed_loop(cfg, std::time::Instant::now(), tracer, |t| self.op(t))
    }

    /// The rung below: the same blocks through the same writer and reader
    /// on the caller's thread, no pool.
    fn probe(&mut self, _seconds: f64, tracer: &mut Tracer) -> Result<(), String> {
        let inline = Rung {
            pool: None,
            write: "inline.write",
            finish: "inline.finish",
            read: "inline.read_to_end",
        };
        tracer.begin_op("bench", "frame_stream.inline");
        let r = self.round_trip(&inline, tracer);
        tracer.end_op();
        r.map(|_| ())
    }

    fn layer_metrics(
        &self,
        window: &Window,
        s: &[Span],
        env: &Env,
        out: &mut BTreeMap<String, f64>,
    ) {
        let threads = env.pool_threads as f64;
        for name in CODECS {
            // A writer's time is its `write` and `finish` calls together.
            let rate = |write: &str, finish: &str| {
                let (bytes, w) = trace::totals(s, "stream", write, name);
                let (_, f) = trace::totals(s, "stream", finish, name);
                bytes as f64 / (w + f) / 1e6
            };
            let write = rate("write", "finish");
            let read = trace::rate_mb_s(s, "stream", "read_to_end", name);
            let inline_c = rate("inline.write", "inline.finish");
            let inline_d = trace::rate_mb_s(s, "stream", "inline.read_to_end", name);
            out.insert(format!("stream.{name}.write_mb_s"), write);
            out.insert(format!("stream.{name}.read_mb_s"), read);
            out.insert(format!("stream.inline.{name}.compress_mb_s"), inline_c);
            out.insert(format!("stream.inline.{name}.decompress_mb_s"), inline_d);
            out.insert(
                format!("stream.{name}.write_eff"),
                write / (inline_c * threads),
            );
            out.insert(
                format!("stream.{name}.read_eff"),
                read / (inline_d * threads),
            );
        }
        let delta = window.delta();
        pool_metrics(SPEC.name, window, env, out);
        out.insert(
            "stream.reader.read_ahead_stalls".into(),
            delta.counter("stream.reader.read_ahead.stalls"),
        );
        // Time the caller spent in stream calls beyond what perfectly
        // parallel codec execution accounts for.
        let caller_s: f64 = window.phases[0]
            .out
            .records
            .iter()
            .map(|r| r.times.total_s)
            .sum();
        out.insert(
            "stream.self_s".into(),
            caller_s - delta.seconds("pool.exec") / threads,
        );
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        self.pool.shutdown();
        Ok(())
    }
}
