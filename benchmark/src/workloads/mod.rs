//! The four workloads, bottom of the ladder to top.

pub mod codec_matrix;
pub mod column_store;
pub mod frame_stream;
pub mod serve_rpc;

use crate::harness::{Env, Scale, Spec, Window, Workload};
use crate::trace::Tracer;
use fcbench_core::{PoolConfig, WorkerPool};
use std::collections::BTreeMap;
use std::sync::Arc;

pub static SPECS: [&Spec; 4] = [
    &codec_matrix::SPEC,
    &frame_stream::SPEC,
    &column_store::SPEC,
    &serve_rpc::SPEC,
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// One complete set-up of `spec`, fixed-count warm-up pass included.
pub fn setup(
    spec: &Spec,
    seed: u64,
    scale: Scale,
    env: &Env,
    tracer: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match spec.name {
        "codec_matrix" => Box::new(codec_matrix::CodecMatrix::setup(seed, scale, tracer)?),
        "frame_stream" => Box::new(frame_stream::FrameStream::setup(seed, scale, env, tracer)?),
        "column_store" => Box::new(column_store::ColumnStore::setup(seed, scale, env, tracer)?),
        "serve_rpc" => Box::new(serve_rpc::ServeRpc::setup(seed, scale, env, tracer)?),
        other => return Err(format!("no workload {other}")),
    })
}

/// The engine every pooled workload runs on: `min(nproc, 4)` workers and
/// the host-sized slot queue `PoolConfig::for_host` would pick for them.
fn host_pool(env: &Env) -> Arc<WorkerPool> {
    let threads = env.pool_threads;
    Arc::new(WorkerPool::new(
        PoolConfig::with_threads(threads).queue_depth((threads * 4).clamp(8, 256)),
    ))
}

/// Drops the last reference to the engine, which joins its workers.
fn join_pool(pool: Arc<WorkerPool>) -> Result<(), String> {
    pool.shutdown();
    Arc::try_unwrap(pool)
        .map(drop)
        .map_err(|_| "the worker pool is still shared at tear-down".to_string())
}

/// `pool.<workload>.*` from the pool's own telemetry over `window`.
fn pool_metrics(workload: &str, window: &Window, env: &Env, out: &mut BTreeMap<String, f64>) {
    let d = window.delta();
    let exec_s = d.seconds("pool.exec");
    let mut put = |k: &str, v: f64| out.insert(format!("pool.{workload}.{k}"), v);
    put("jobs", d.count("pool.exec"));
    put("exec_s", exec_s);
    put("queue_wait_s", d.seconds("pool.queue_wait"));
    put(
        "busy_frac",
        exec_s / (window.wall_s() * env.pool_threads as f64),
    );
    put("drain_stalls", d.counter("pool.drain.stalls"));
}
