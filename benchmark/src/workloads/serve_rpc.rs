//! `serve_rpc` — FCS1 over loopback against an in-process `Server` sharing
//! the harness-owned pool: persistent connections, closed loop. Phase
//! `small` sends one-block 8 KiB requests (per-request fixed cost: protocol,
//! syscalls, handler wake-up, one pool hand-off); phase `bulk` sends 4 MiB
//! requests of eight blocks (reply buffering, socket copies, pipelined
//! blocks). Every operation compresses and then decompresses the reply, so
//! a COMPRESS gain that costs DECOMPRESS shows.

use super::{host_pool, join_pool, pool_metrics};
use crate::corpus::Corpus;
use crate::harness::{
    closed_loop, Env, Inputs, LoopCfg, LoopOut, OpTimes, PhaseSpec, PhaseStats, Scale, Spec,
    Window, Workload,
};
use crate::openloop;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use fcbench_core::telemetry::Registry;
use fcbench_core::{FloatData, FrameReader, FrameWriter, WorkerPool};
use fcbench_serve::{Client, RunningServer, ServeConfig, Server};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub static SPEC: Spec = Spec {
    name: "serve_rpc",
    why: "the serve layer dominates small requests and is diluted in bulk ones, so a small-request \
          fast path and a bulk reply-streaming change each have a metric that moves and one that must not",
    // Noise rule 5: over loopback on two shared vCPUs, where each thread
    // lands decides whether a wake-up crosses cores, and 8 KiB operations
    // settle for seconds at a time at 75, 190 or 270 us; ten same-code runs
    // spread 10-28 % (inter-quartile, of the median) on every timing metric,
    // whatever the estimator. A gate that flaps blocks every later change,
    // so this workload reports but does not gate.
    gated: false,
    op: "Client::compress then Client::decompress of the reply, gorilla on gas-price",
    phases: &[
        PhaseSpec {
            name: "small",
            share: 0.5,
        },
        PhaseSpec {
            name: "bulk",
            share: 0.5,
        },
    ],
    latency_phase: 0,
    rate_phase: 1,
};

const DATASET: &str = "gas-price";
const CODEC: &str = "gorilla";

/// 512 Ki f64 elements: the 4 MiB bulk request, eight blocks.
const BULK_ELEMS: usize = 512 << 10;
const BULK_BLOCK_ELEMS: usize = 65536;
/// The 8 KiB small request, one block.
const SMALL_ELEMS: usize = 1024;

/// Warm-up operations per connection in set-up.
const WARM_SMALL_OPS: usize = 2000;
const WARM_BULK_OPS: usize = 8;

/// Round trips of the bulk payload through the local stream, the rung below.
const LOCAL_STREAM_TRIPS: usize = 8;

/// Offered load of the open-loop probe, as a share of the closed-loop
/// `small` rate measured in the same process.
const OPEN_LOOP_LOAD: f64 = 0.5;

struct Request {
    data: FloatData,
    block_elems: usize,
    label: &'static str,
}

/// What the open-loop probe measured.
struct OpenLoop {
    offered_ops_per_s: f64,
    report: openloop::Report,
}

pub struct ServeRpc {
    pool: Arc<WorkerPool>,
    server: RunningServer,
    clients: Vec<Client>,
    requests: [Request; 2],
    /// Median slice `ops_per_s` of the last `small` phase.
    small_ops_per_s: f64,
    open: Option<OpenLoop>,
    inputs: Inputs,
}

fn op(client: &mut Client, req: &Request, tracer: &mut Tracer) -> Result<OpTimes, String> {
    let raw = req.data.bytes().len() as u64;
    tracer.begin_op("bench", "serve_rpc.op");
    let (reply, write_s) = tracer.time("serve", "compress", req.label, raw, || {
        client.compress(CODEC, &req.data, req.block_elems)
    });
    let result = reply
        .map_err(|e| format!("{} compress: {e}", req.label))
        .and_then(|reply| {
            let (back, read_s) = tracer.time("serve", "decompress", req.label, raw, || {
                client.decompress(&reply)
            });
            let back = back.map_err(|e| format!("{} decompress: {e}", req.label))?;
            Ok((reply.len(), back, read_s))
        });
    tracer.end_op();
    let (stored, back, read_s) = result?;
    if back.bytes() != req.data.bytes() {
        return Err(format!("{}: restored bytes differ", req.label));
    }
    Ok(OpTimes {
        write_s,
        read_s,
        total_s: write_s + read_s,
        raw_bytes: raw,
        stored_bytes: stored as u64,
    })
}

impl ServeRpc {
    pub fn setup(
        seed: u64,
        scale: Scale,
        env: &Env,
        tracer: &mut Tracer,
    ) -> Result<ServeRpc, String> {
        let mut corpus = Corpus::new(seed);
        let table = corpus.dataset(DATASET, scale.elems(BULK_ELEMS), tracer)?;
        let bulk = table.flattened_1d();
        let small_desc = fcbench_core::DataDesc::new(
            bulk.desc().precision,
            vec![SMALL_ELEMS],
            bulk.desc().domain,
        )
        .map_err(|e| e.to_string())?;
        let small = FloatData::from_bytes(
            small_desc.clone(),
            bulk.bytes()[..small_desc.byte_len()].to_vec(),
        )
        .map_err(|e| e.to_string())?;

        let pool = host_pool(env);
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(fcbench_bench::codecs::full_registry()),
            Arc::clone(&pool),
            ServeConfig::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let server = server.spawn();
        let clients = (0..env.clients)
            .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut w = ServeRpc {
            pool,
            server,
            clients,
            requests: [
                Request {
                    data: small,
                    block_elems: SMALL_ELEMS,
                    label: "small",
                },
                Request {
                    data: bulk,
                    block_elems: BULK_BLOCK_ELEMS,
                    label: "bulk",
                },
            ],
            small_ops_per_s: 0.0,
            open: None,
            inputs: corpus.inputs(),
        };
        let mut quiet = Tracer::new(Instant::now());
        for client in &mut w.clients {
            for (req, ops) in w.requests.iter().zip([WARM_SMALL_OPS, WARM_BULK_OPS]) {
                for _ in 0..scale.count(ops) {
                    op(client, req, &mut quiet)?;
                }
            }
        }
        Ok(w)
    }
}

impl Workload for ServeRpc {
    fn spec(&self) -> &'static Spec {
        &SPEC
    }

    fn inputs(&self) -> Inputs {
        self.inputs
    }

    fn clients(&self) -> usize {
        self.clients.len()
    }

    fn registries(&self) -> Vec<Arc<Registry>> {
        vec![Arc::clone(self.pool.telemetry())]
    }

    /// One closed loop per connection, each on its own thread.
    fn run_phase(&mut self, phase: usize, cfg: &LoopCfg, tracer: &mut Tracer) -> LoopOut {
        let req = &self.requests[phase];
        let start = Instant::now();
        let mut merged = LoopOut::default();
        std::thread::scope(|s| {
            let loops: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    let mut own = tracer.fork(i);
                    s.spawn(move || {
                        let out = closed_loop(cfg, start, &mut own, |t| op(client, req, t));
                        (out, own)
                    })
                })
                .collect();
            for l in loops {
                match l.join() {
                    Ok((out, own)) => {
                        merged.merge(out);
                        tracer.absorb(own);
                    }
                    Err(_) => {
                        merged.failed += 1;
                        merged.failures.push("a client thread panicked".into());
                    }
                }
            }
        });
        if phase == SPEC.latency_phase {
            self.small_ops_per_s =
                PhaseStats::of(merged.records.iter(), self.clients.len(), cfg.slicing)
                    .ops_per_s
                    .median;
        }
        merged
    }

    /// The rung below `bulk` — the same payload through a local
    /// `FrameWriter`/`FrameReader` on the same, now idle, pool — and the
    /// open-loop probe of `small`.
    fn probe(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<(), String> {
        let bulk = &self.requests[1];
        let raw = bulk.data.bytes().len() as u64;
        let codec = fcbench_bench::codecs::full_registry()
            .require(CODEC)
            .map_err(|e| e.to_string())?;
        let mut sink = Vec::new();
        let mut restored = FloatData::scratch();
        for _ in 0..LOCAL_STREAM_TRIPS {
            sink.clear();
            let (r, _) = tracer.time("serve", "local_stream.write", "bulk", raw, || {
                let mut w = FrameWriter::new(
                    sink,
                    Arc::clone(&codec),
                    bulk.data.desc().clone(),
                    bulk.block_elems,
                    Some(Arc::clone(&self.pool)),
                )?;
                w.write(bulk.data.bytes())?;
                w.finish()
            });
            sink = r.map_err(|e| format!("local stream write: {e}"))?;
            let (r, _) = tracer.time("serve", "local_stream.read", "bulk", raw, || {
                FrameReader::new(&sink[..], Arc::clone(&codec), Some(Arc::clone(&self.pool)))
                    .and_then(|mut r| r.read_to_end(&mut restored))
            });
            r.map_err(|e| format!("local stream read: {e}"))?;
            if restored.bytes() != bulk.data.bytes() {
                return Err("local stream: restored bytes differ".into());
            }
        }

        let offered = OPEN_LOOP_LOAD * self.small_ops_per_s;
        let schedule = openloop::Schedule::per_second(offered).ok_or_else(|| {
            format!("no closed-loop rate to derive the open-loop rate from ({offered})")
        })?;
        let (client, small) = (&mut self.clients[0], &self.requests[0]);
        let mut quiet = Tracer::new(Instant::now());
        let sent = openloop::run(&schedule, seconds, || {
            op(client, small, &mut quiet).map(|_| ())
        })?;
        self.open = Some(OpenLoop {
            offered_ops_per_s: offered,
            report: openloop::report(&schedule, &sent),
        });
        Ok(())
    }

    fn layer_metrics(
        &self,
        window: &Window,
        s: &[Span],
        env: &Env,
        out: &mut BTreeMap<String, f64>,
    ) {
        let p50_us = |name: &str, label: &str| {
            stats::median(&trace::durations(s, "serve", name, label)) * 1e6
        };
        out.insert(
            "serve.small.compress_p50_us".into(),
            p50_us("compress", "small"),
        );
        out.insert(
            "serve.small.decompress_p50_us".into(),
            p50_us("decompress", "small"),
        );

        // A small request is one pool job; a bulk one fans out to every worker.
        let exec_threads = [1.0, env.pool_threads as f64];
        for (i, phase) in window.phases.iter().enumerate() {
            let label = SPEC.phases[i].name;
            let mut put = |k: &str, v: f64| out.insert(format!("serve.{label}.{k}"), v);
            let st = phase.stats();
            let (q, tail) = stats::tail(&st.latencies_us);
            put("op_tail_us", tail);
            put("op_tail_q", q);
            if label == "bulk" {
                put("op_p50_us", st.op_p50_us());
            }
            // Server side, from the program's own registry, per request
            // (an operation is two requests).
            let d = &phase.delta;
            let requests = d.count("serve.request.compress") + d.count("serve.request.decompress");
            let server_us = (d.seconds("serve.request.compress")
                + d.seconds("serve.request.decompress"))
                / requests
                * 1e6;
            let client_us = phase
                .out
                .records
                .iter()
                .map(|r| r.times.total_s)
                .sum::<f64>()
                / (2.0 * phase.out.records.len() as f64)
                * 1e6;
            let engine_us = d.mean_us("serve.phase.engine");
            put("server_request_us", server_us);
            put("decode_us", d.mean_us("serve.phase.decode"));
            put("engine_us", engine_us);
            put("reply_write_us", d.mean_us("serve.phase.reply_write"));
            put("client_minus_server_us", client_us - server_us);
            put(
                "engine_minus_exec_us",
                engine_us - d.seconds("pool.exec") / requests / exec_threads[i] * 1e6,
            );
        }

        let (bytes, w) = trace::totals(s, "serve", "local_stream.write", "bulk");
        let (_, r) = trace::totals(s, "serve", "local_stream.read", "bulk");
        let stream_mb_s = 2.0 * bytes as f64 / (w + r) / 1e6;
        let (bytes, c) = trace::totals(s, "serve", "compress", "bulk");
        let (_, d) = trace::totals(s, "serve", "decompress", "bulk");
        out.insert("serve.bulk.stream_mb_s".into(), stream_mb_s);
        out.insert(
            "serve.bulk.over_stream".into(),
            stream_mb_s / (2.0 * bytes as f64 / (c + d) / 1e6),
        );

        // Since the server started: warm-up, window and probes.
        let life = self.pool.telemetry().snapshot();
        let counter = |name: &str| life.counter(name).unwrap_or(0) as f64;
        out.insert("serve.requests.shed".into(), counter("serve.requests.shed"));
        out.insert(
            "serve.requests.failed".into(),
            counter("serve.requests.failed"),
        );
        out.insert(
            "serve.timeouts".into(),
            ["read", "write", "idle"]
                .iter()
                .map(|k| counter(&format!("serve.timeouts.{k}")))
                .sum(),
        );

        if let Some(open) = &self.open {
            let (q, tail) = stats::tail(&open.report.latencies_us);
            out.insert(
                "serve.open.offered_ops_per_s".into(),
                open.offered_ops_per_s,
            );
            out.insert(
                "serve.open.p50_us".into(),
                stats::percentile_sorted(&open.report.latencies_us, 0.5),
            );
            out.insert("serve.open.tail_us".into(), tail);
            out.insert("serve.open.tail_q".into(), q);
            out.insert("serve.open.late_frac".into(), open.report.late_frac);
        }
        pool_metrics(SPEC.name, window, env, out);
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        let ServeRpc {
            pool,
            server,
            clients,
            ..
        } = *self;
        drop(clients);
        server
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}"))?;
        join_pool(pool)
    }
}
