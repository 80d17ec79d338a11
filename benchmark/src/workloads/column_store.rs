//! `column_store` — the paper's Table 10/11 database path: a table written
//! with `write_container_pooled` to a real file and read back through
//! `read_container` → `decode_pooled` → `run_scan_benchmark`, at the 4K page
//! (fixed-cost-bound) and at 64K elements (steady state) in every operation.

use super::{host_pool, join_pool, pool_metrics};
use crate::corpus::Corpus;
use crate::harness::{
    closed_loop, Env, Inputs, LoopCfg, LoopOut, OpTimes, PhaseSpec, Scale, Spec, Window, Workload,
};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use fcbench_core::telemetry::Registry;
use fcbench_core::{Compressor, DataDesc, Domain, FloatData, Precision, WorkerPool};
use fcbench_dbsim::{read_container, write_container_pooled, ColumnData, DataFrame};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

pub static SPEC: Spec = Spec {
    name: "column_store",
    why: "dbsim does most of the work and uses the pool unlike frame_stream (32 KiB jobs, one record, \
          CRC and Write per page): where the codec-to-container throughput gap lives",
    gated: true,
    op: "8 x 256Ki-row f64 table written to a file and read, decoded and scanned, at 4096- and 65536-element pages",
    phases: &[PhaseSpec {
        name: "table",
        share: 1.0,
    }],
    latency_phase: 0,
    rate_phase: 0,
};

const DATASET: &str = "tpcH-order";
const ELEMS: usize = 2 << 20;
const COLUMNS: usize = 8;
const CODEC: &str = "gorilla";

/// The paper's 4K page and the engine's default block, with span labels.
pub const PAGES: [(usize, &str); 2] = [(4096, "page4k"), (65536, "page64k")];

pub struct ColumnStore {
    pool: Arc<WorkerPool>,
    codec: Arc<dyn Compressor>,
    columns: Vec<ColumnData>,
    /// `run_scan_benchmark` over the table as generated.
    scan_checksum: usize,
    dir: PathBuf,
    path: PathBuf,
    inputs: Inputs,
}

impl ColumnStore {
    pub fn setup(
        seed: u64,
        scale: Scale,
        env: &Env,
        tracer: &mut Tracer,
    ) -> Result<ColumnStore, String> {
        let mut corpus = Corpus::new(seed);
        let data = corpus.dataset(DATASET, scale.elems(ELEMS), tracer)?;
        if data.desc().precision != Precision::Double {
            return Err(format!("{DATASET} is not f64"));
        }
        let col_bytes = data.bytes().len() / COLUMNS / 8 * 8;
        let columns: Vec<ColumnData> = data
            .bytes()
            .chunks_exact(col_bytes)
            .enumerate()
            .map(|(i, bytes)| ColumnData {
                name: format!("c{i}"),
                precision: Precision::Double,
                bytes: bytes.to_vec(),
            })
            .collect();
        let reference: Vec<ColumnData> = columns
            .iter()
            .map(|c| ColumnData {
                name: c.name.clone(),
                precision: c.precision,
                bytes: c.bytes.clone(),
            })
            .collect();
        let scan_checksum = DataFrame::from_columns(reference)
            .map_err(|e| e.to_string())?
            .run_scan_benchmark();
        let dir = crate::out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut w = ColumnStore {
            pool: host_pool(env),
            codec: fcbench_bench::codecs::full_registry()
                .require(CODEC)
                .map_err(|e| e.to_string())?,
            columns,
            scan_checksum,
            path: dir.join("table.fcdb"),
            dir,
            inputs: corpus.inputs(),
        };
        w.op(&mut Tracer::new(std::time::Instant::now()))?;
        Ok(w)
    }

    fn raw_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.bytes.len() as u64).sum()
    }

    fn op(&mut self, tracer: &mut Tracer) -> Result<OpTimes, String> {
        tracer.begin_op("bench", "column_store.op");
        let r = self.table_round_trips(tracer);
        tracer.end_op();
        r
    }

    /// Writes, reads, decodes and scans the table once per page size.
    fn table_round_trips(&mut self, tracer: &mut Tracer) -> Result<OpTimes, String> {
        let raw = self.raw_bytes();
        let mut t = OpTimes {
            write_s: 0.0,
            read_s: 0.0,
            total_s: 0.0,
            raw_bytes: 0,
            stored_bytes: 0,
        };
        for (page, label) in PAGES {
            let (r, write_s) = tracer.time("dbsim", "write_container_pooled", label, raw, || {
                write_container_pooled(&self.path, &self.pool, &self.codec, &self.columns, page)
            });
            r.map_err(|e| format!("{label} write: {e}"))?;
            let stored = std::fs::metadata(&self.path)
                .map_err(|e| format!("{label} stat: {e}"))?
                .len();

            let (read, io_s) = tracer.time("dbsim", "read_container", label, raw, || {
                read_container(&self.path)
            });
            let read = read.map_err(|e| format!("{label} read: {e}"))?;
            if !read.is_clean() {
                return Err(format!(
                    "{label}: container recovery was {:?}",
                    read.outcome
                ));
            }
            let (decoded, decode_s) = tracer.time("dbsim", "decode_pooled", label, raw, || {
                read.table
                    .columns
                    .iter()
                    .map(|col| col.decode_pooled(&self.pool, &self.codec))
                    .collect::<Result<Vec<_>, _>>()
            });
            let decoded = decoded.map_err(|e| format!("{label} decode: {e}"))?;
            if decoded.len() != self.columns.len()
                || decoded
                    .iter()
                    .zip(&self.columns)
                    .any(|(a, b)| a.bytes != b.bytes)
            {
                return Err(format!("{label}: decoded table differs"));
            }
            let frame =
                DataFrame::from_columns(decoded).map_err(|e| format!("{label} frame: {e}"))?;
            let (checksum, query_s) =
                tracer.time("dbsim", "run_scan_benchmark", label, raw, || {
                    frame.run_scan_benchmark()
                });
            if checksum != self.scan_checksum {
                return Err(format!(
                    "{label}: scan matched {checksum} rows, expected {}",
                    self.scan_checksum
                ));
            }
            t.write_s += write_s;
            t.read_s += io_s + decode_s;
            t.total_s += write_s + io_s + decode_s + query_s;
            t.raw_bytes += raw;
            t.stored_bytes += stored;
        }
        Ok(t)
    }
}

impl Workload for ColumnStore {
    fn spec(&self) -> &'static Spec {
        &SPEC
    }

    fn inputs(&self) -> Inputs {
        self.inputs
    }

    fn registries(&self) -> Vec<Arc<Registry>> {
        vec![
            Arc::clone(self.pool.telemetry()),
            Arc::clone(fcbench_dbsim::metrics::registry()),
        ]
    }

    fn run_phase(&mut self, _phase: usize, cfg: &LoopCfg, tracer: &mut Tracer) -> LoopOut {
        closed_loop(cfg, std::time::Instant::now(), tracer, |t| self.op(t))
    }

    /// The rung below: the same pages through `compress_into` on the
    /// caller's thread — no pool, no records, no file.
    fn probe(&mut self, _seconds: f64, tracer: &mut Tracer) -> Result<(), String> {
        let mut page_data = FloatData::scratch();
        let mut payload = Vec::new();
        for (page, label) in PAGES {
            for col in &self.columns {
                for chunk in col.bytes.chunks(page * 8) {
                    let desc =
                        DataDesc::new(Precision::Double, vec![chunk.len() / 8], Domain::Database)
                            .map_err(|e| e.to_string())?;
                    page_data
                        .refill_from_slice(&desc, chunk)
                        .map_err(|e| e.to_string())?;
                    let (r, _) = tracer.time(
                        "dbsim",
                        "inline.compress_into",
                        label,
                        chunk.len() as u64,
                        || self.codec.compress_into(&page_data, &mut payload),
                    );
                    r.map_err(|e| format!("inline {label}: {e}"))?;
                }
            }
        }
        Ok(())
    }

    fn layer_metrics(
        &self,
        window: &Window,
        s: &[Span],
        env: &Env,
        out: &mut BTreeMap<String, f64>,
    ) {
        let threads = env.pool_threads as f64;
        for (_, label) in PAGES {
            let write = trace::rate_mb_s(s, "dbsim", "write_container_pooled", label);
            let (bytes, io) = trace::totals(s, "dbsim", "read_container", label);
            let (_, decode) = trace::totals(s, "dbsim", "decode_pooled", label);
            let inline = trace::rate_mb_s(s, "dbsim", "inline.compress_into", label);
            out.insert(format!("dbsim.{label}.write_mb_s"), write);
            out.insert(
                format!("dbsim.{label}.read_mb_s"),
                bytes as f64 / (io + decode) / 1e6,
            );
            out.insert(format!("dbsim.{label}.inline_compress_mb_s"), inline);
            out.insert(
                format!("dbsim.{label}.write_eff"),
                write / (inline * threads),
            );
        }
        // The paper's three primitives, per operation (both page sizes).
        let per_op = |name: &str| {
            let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
            for sp in s.iter().filter(|sp| sp.layer == "dbsim" && sp.name == name) {
                *by_op.entry(sp.op).or_default() += sp.seconds();
            }
            stats::median(&by_op.into_values().collect::<Vec<_>>())
        };
        out.insert("dbsim.io_s".into(), per_op("read_container"));
        out.insert("dbsim.decode_s".into(), per_op("decode_pooled"));
        out.insert("dbsim.query_s".into(), per_op("run_scan_benchmark"));

        let d = window.delta();
        let records = &window.phases[0].out.records;
        let ops = records.len() as f64;
        out.insert(
            "dbsim.commit_s".into(),
            d.seconds("dbsim.container.commit") / ops,
        );
        out.insert(
            "dbsim.records".into(),
            d.counter("dbsim.container.records.committed") / ops,
        );
        out.insert(
            "dbsim.cursor.stalls".into(),
            d.counter("dbsim.cursor.read_ahead.stalls") / ops,
        );
        if let Some(r) = records.first() {
            out.insert(
                "dbsim.stored_per_raw".into(),
                r.times.stored_bytes as f64 / r.times.raw_bytes as f64,
            );
        }
        let mut lat: Vec<f64> = records.iter().map(|r| r.times.total_s * 1e6).collect();
        lat.sort_by(f64::total_cmp);
        let (q, v) = stats::tail(&lat);
        out.insert("dbsim.op_tail_us".into(), v);
        out.insert("dbsim.op_tail_q".into(), q);
        pool_metrics(SPEC.name, window, env, out);
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        let removed = std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("remove {}: {e}", self.dir.display()));
        join_pool(self.pool)?;
        removed
    }
}
