//! # fcbench-serve
//!
//! Compression as a service boundary: a TCP server speaking the small
//! length-prefixed [`FCS1` protocol](protocol) that multiplexes many
//! client streams onto **one** shared
//! [`WorkerPool`](fcbench_core::pool::WorkerPool) engine — the request
//! front-end FCBench's Table 11 / dbsim experiments frame but only expose
//! as offline CLIs.
//!
//! - [`Server`] owns the engine (size it with
//!   [`PoolConfig::for_host`](fcbench_core::PoolConfig::for_host)); each
//!   connection handler feeds its stream through the core
//!   `FrameWriter`/`FrameReader` under the shared-pool saturation
//!   discipline, capped per connection so no client pins every job slot.
//! - [`Client`] is the matching blocking library.
//! - The server counts bytes, requests, and per-codec traffic on its
//!   telemetry registry ([`ServerHandle::telemetry`]) — the same registry
//!   the pool and frame streams record latency histograms into, exposed
//!   whole over the wire by the `STATS_V2` verb: [`Client::stats_v2`]
//!   returns the same [`Snapshot`](fcbench_telemetry::Snapshot) that
//!   `telemetry().snapshot()` does in process.
//!
//! Every protocol error — unknown codec, oversized record, malformed
//! header, truncated stream — fails the *request* with a typed reply; the
//! server keeps serving.
//!
//! ```
//! use fcbench_core::registry::CodecRegistry;
//! use fcbench_core::{Domain, FloatData, PoolConfig, WorkerPool};
//! use fcbench_serve::{Client, ServeConfig, Server};
//! use std::sync::Arc;
//! # use fcbench_core::codec::{CodecClass, CodecInfo, Community, Platform, PrecisionSupport};
//! # use fcbench_core::{Compressor, DataDesc, Result};
//! # struct Store;
//! # impl Compressor for Store {
//! #     fn info(&self) -> CodecInfo {
//! #         CodecInfo { name: "store", year: 2024, community: Community::General,
//! #                     class: CodecClass::Delta, platform: Platform::Cpu,
//! #                     parallel: false, precisions: PrecisionSupport::Both }
//! #     }
//! #     fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
//! #         out.clear();
//! #         out.extend_from_slice(data.bytes());
//! #         Ok(out.len())
//! #     }
//! #     fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
//! #         out.refill_from_slice(desc, payload)
//! #     }
//! # }
//! let registry = Arc::new(CodecRegistry::new().with(Store));
//! let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2)));
//! let server = Server::bind("127.0.0.1:0", registry, pool, ServeConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let running = server.spawn();
//!
//! let mut client = Client::connect(addr).unwrap();
//! let data = FloatData::from_f64(&[1.0, 2.0, 3.0], vec![3], Domain::TimeSeries).unwrap();
//! let compressed = client.compress("store", &data, 2).unwrap();
//! let restored = client.decompress(&compressed).unwrap();
//! assert_eq!(restored.bytes(), data.bytes());
//!
//! let stats = client.stats_v2().unwrap();
//! assert_eq!(stats.counter("serve.requests.ok"), Some(2));
//! let local = running.handle().telemetry().snapshot();
//! assert_eq!(local.counter("serve.requests.codec.store"), Some(2));
//! drop(client);
//! running.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]

mod client;
pub mod protocol;
mod server;

pub use client::{Client, ClientConfig, RetryPolicy};
pub use protocol::CodecListing;
pub use server::{RunningServer, ServeConfig, Server, ServerHandle};
