//! The serving counters every connection handler updates.
//!
//! [`ServerStats`] is a *view* over pre-resolved handles on the server's
//! [`Registry`] — the same registry the pool and frame streams record
//! into — rather than a second, parallel set of atomics. On the wire the
//! counters travel with everything else in that registry, over `STATS_V2`
//! (see [`protocol::encode_stats_v2`](crate::protocol)); in process,
//! [`RunningServer::stats`](crate::RunningServer::stats) reads them as a
//! [`StatsSnapshot`].

use fcbench_core::CodecRegistry;
use fcbench_telemetry::{Counter, Gauge, GaugeGuard, Registry};

/// Pre-resolved serving handles, updated lock-free by every connection
/// handler. Per-codec request counts are a fixed vector parallel to the
/// codec registry's registration order, so bumping one is a single
/// `fetch_add` on a pre-resolved counter.
pub struct ServerStats {
    bytes_in: Counter,
    bytes_out: Counter,
    requests_ok: Counter,
    requests_failed: Counter,
    connections_accepted: Counter,
    connections_active: Gauge,
    codec_names: Vec<&'static str>,
    codec_requests: Vec<Counter>,
}

impl ServerStats {
    /// Resolve the serving handles on `metrics`, one per-codec counter for
    /// each entry of `registry`. (Handles onto an existing registry start
    /// from whatever the registry already holds — a fresh registry per
    /// server keeps them zero.)
    pub(crate) fn new(registry: &CodecRegistry, metrics: &Registry) -> Self {
        let codec_names = registry.names();
        let codec_requests = codec_names
            .iter()
            .map(|name| metrics.counter(&format!("serve.requests.codec.{name}")))
            .collect();
        ServerStats {
            bytes_in: metrics.counter("serve.bytes.in"),
            bytes_out: metrics.counter("serve.bytes.out"),
            requests_ok: metrics.counter("serve.requests.ok"),
            requests_failed: metrics.counter("serve.requests.failed"),
            connections_accepted: metrics.counter("serve.connections.accepted"),
            connections_active: metrics.gauge("serve.connections.active"),
            codec_names,
            codec_requests,
        }
    }

    pub(crate) fn add_bytes_in(&self, n: u64) {
        self.bytes_in.add(n);
    }

    pub(crate) fn add_bytes_out(&self, n: u64) {
        self.bytes_out.add(n);
    }

    pub(crate) fn request_ok(&self) {
        self.requests_ok.inc();
    }

    pub(crate) fn request_failed(&self) {
        self.requests_failed.inc();
    }

    /// Book one accepted connection and return the RAII guard holding its
    /// slot in the active-connection gauge: the gauge decrements when the
    /// guard drops, however the handler exits — there is no code path that
    /// can leak an increment.
    #[must_use]
    pub(crate) fn connection_opened(&self) -> GaugeGuard {
        self.connections_accepted.inc();
        self.connections_active.inc_scoped()
    }

    /// Count one served request against `codec` (no-op for names outside
    /// the registry — those failed before reaching a codec).
    pub(crate) fn count_codec(&self, codec: &str) {
        if let Some(i) = self.codec_names.iter().position(|n| *n == codec) {
            if let Some(c) = self.codec_requests.get(i) {
                c.inc();
            }
        }
    }

    /// A point-in-time copy of every counter.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            requests_ok: self.requests_ok.get(),
            requests_failed: self.requests_failed.get(),
            connections_accepted: self.connections_accepted.get(),
            connections_active: self.connections_active.get(),
            per_codec: self
                .codec_names
                .iter()
                .zip(self.codec_requests.iter())
                .map(|(name, count)| (name.to_string(), count.get()))
                .collect(),
        }
    }
}

/// A point-in-time copy of the serving counters: totals plus per-codec
/// request counts in registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub requests_ok: u64,
    /// Requests refused with a typed error reply, plus connections that
    /// died with a request in flight (mid-body disconnects, reply write
    /// failures) — server work consumed without a served reply.
    pub requests_failed: u64,
    pub connections_accepted: u64,
    pub connections_active: u64,
    pub per_codec: Vec<(String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::codec::{CodecClass, CodecInfo, Community, Platform, PrecisionSupport};
    use fcbench_core::{Compressor, DataDesc, FloatData, Result};
    use std::sync::Arc;

    struct Fake(&'static str);

    impl Compressor for Fake {
        fn info(&self) -> CodecInfo {
            CodecInfo {
                name: self.0,
                year: 2024,
                community: Community::General,
                class: CodecClass::Delta,
                platform: Platform::Cpu,
                parallel: false,
                precisions: PrecisionSupport::Both,
            }
        }
        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            out.clear();
            out.extend_from_slice(data.bytes());
            Ok(out.len())
        }
        fn decompress_into(
            &self,
            payload: &[u8],
            desc: &DataDesc,
            out: &mut FloatData,
        ) -> Result<()> {
            out.refill_from_slice(desc, payload)
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let registry = CodecRegistry::new().with(Fake("a")).with(Fake("b"));
        let metrics = Arc::new(Registry::new());
        let stats = ServerStats::new(&registry, &metrics);
        let active = stats.connection_opened();
        stats.add_bytes_in(100);
        stats.add_bytes_out(40);
        stats.request_ok();
        stats.count_codec("b");
        stats.count_codec("nope"); // ignored: never reached a codec
        stats.request_failed();
        let snap = stats.snapshot();
        assert_eq!(snap.bytes_in, 100);
        assert_eq!(snap.bytes_out, 40);
        assert_eq!(snap.requests_ok, 1);
        assert_eq!(snap.requests_failed, 1);
        assert_eq!(snap.connections_accepted, 1);
        assert_eq!(snap.connections_active, 1);
        assert_eq!(
            snap.per_codec,
            vec![("a".to_string(), 0), ("b".to_string(), 1)]
        );
        drop(active);
        assert_eq!(stats.snapshot().connections_active, 0);
        // Everything also landed on the shared registry, where the
        // exposition dump and STATS_V2 read it.
        let reg = metrics.snapshot();
        assert_eq!(reg.counter("serve.bytes.in"), Some(100));
        assert_eq!(reg.counter("serve.requests.codec.b"), Some(1));
        assert_eq!(reg.gauge("serve.connections.active"), Some(0));
    }

    #[test]
    fn active_gauge_cannot_leak_past_its_guard() {
        let registry = CodecRegistry::new().with(Fake("a"));
        let metrics = Arc::new(Registry::new());
        let stats = ServerStats::new(&registry, &metrics);
        {
            let _a = stats.connection_opened();
            let _b = stats.connection_opened();
            assert_eq!(stats.snapshot().connections_active, 2);
        }
        assert_eq!(stats.snapshot().connections_active, 0);
        assert_eq!(stats.snapshot().connections_accepted, 2);
    }
}
