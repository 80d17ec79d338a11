//! The `FCS1` client library: a thin, blocking wrapper over one TCP
//! connection. Used by the integration tests, benches, and examples — and
//! by anything else that wants compression as a network call.
//!
//! Resilience is configured per client through [`ClientConfig`]:
//!
//! - **Deadlines.** Every socket operation runs under the configured
//!   connect/read/write timeouts (all on by default), so a dead or silent
//!   peer surfaces as a typed [`Error::Io`] instead of hanging the caller
//!   forever.
//! - **Retries.** A [`RetryPolicy`] re-runs *idempotent* requests —
//!   `COMPRESS`, `DECOMPRESS`, `LIST_CODECS`, `STATS_V2`, all
//!   pure reads or pure functions of their payload — after retryable
//!   failures: the server's `ERR_BUSY` shed reply (honouring its
//!   retry-after hint as a floor) and transport-level I/O errors. Each
//!   retry waits out a jittered exponential backoff and reconnects, since
//!   the failed exchange may have desynced the old connection's framing.
//!   [`Client::send_raw`] — arbitrary bytes, unknowable semantics — is
//!   never retried. Retries are off by default
//!   ([`RetryPolicy::default`]); opt in by setting
//!   [`max_retries`](RetryPolicy::max_retries).

use crate::protocol::{self, CodecListing};
use fcbench_core::fault::Rng;
use fcbench_core::{Error, FloatData, Result};
use fcbench_telemetry::{Counter, Registry, Snapshot};
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// When (and how patiently) a [`Client`] retries idempotent requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt; `0` disables retrying.
    pub max_retries: u32,
    /// First backoff; doubles per retry up to
    /// [`max_backoff`](Self::max_backoff).
    pub base_backoff: Duration,
    /// Ceiling on one backoff wait.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter (vary it across a fleet
    /// of clients so shed retries do not re-arrive in lockstep).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Retries disabled; errors surface to the caller on first failure.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// Is `err` worth retrying at all? Shed replies and transport
    /// failures are; every other typed error is a property of the request
    /// itself and would only fail again.
    fn retryable(err: &Error) -> Option<Duration> {
        match err {
            Error::Busy { retry_after_ms } => Some(Duration::from_millis(*retry_after_ms)),
            Error::Io(_) => Some(Duration::ZERO),
            _ => None,
        }
    }

    /// The wait before retry number `attempt` (0-based) of `err`, or
    /// `None` to give up: budget exhausted, or the error is not
    /// retryable. Exponential with deterministic jitter in the upper half
    /// of the window, floored at a busy reply's retry-after hint.
    pub(crate) fn delay_for(&self, attempt: u32, err: &Error) -> Option<Duration> {
        let floor = Self::retryable(err)?;
        if attempt >= self.max_retries {
            return None;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        let nanos = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
        let mut rng = Rng::new(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9E37));
        let jittered = nanos / 2 + rng.below(nanos / 2 + 1);
        Some(Duration::from_nanos(jittered).max(floor))
    }
}

/// Connection and resilience knobs for a [`Client`].
#[derive(Clone)]
pub struct ClientConfig {
    /// Deadline on establishing the TCP connection (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Socket read deadline: a reply (or any part of one) later than this
    /// fails the request with a typed I/O error instead of hanging.
    pub read_timeout: Option<Duration>,
    /// Socket write deadline for request bodies.
    pub write_timeout: Option<Duration>,
    /// Retry policy for idempotent requests.
    pub retry: RetryPolicy,
    /// Registry the `client.retries` counter is recorded on (e.g. to
    /// assert retry behaviour in tests, or to merge client-side telemetry
    /// with a process-wide registry). `None` counts locally only
    /// ([`Client::retries`]).
    pub telemetry: Option<Arc<Registry>>,
}

impl Default for ClientConfig {
    /// Deadlines on (10s connect, 30s read/write), retries off.
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::default(),
            telemetry: None,
        }
    }
}

impl std::fmt::Debug for ClientConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientConfig")
            .field("connect_timeout", &self.connect_timeout)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("retry", &self.retry)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

/// One connection to an `FCS1` server. Requests run strictly in sequence
/// on the connection (open several clients for concurrency — the server
/// multiplexes them onto its one engine).
pub struct Client {
    stream: TcpStream,
    /// The server's advertised request-size ceiling (from the handshake).
    server_max: u64,
    /// Resolved peer addresses, kept for retry reconnects.
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    retry_counter: Counter,
    retries: u64,
}

impl Client {
    /// Connect and complete the `FCS1` handshake with default deadlines
    /// and no retries ([`ClientConfig::default`]).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect and complete the `FCS1` handshake under `config`'s
    /// deadlines and retry policy.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Client::open(&addrs, &config)?;
        let retry_counter = config
            .telemetry
            .as_ref()
            .map_or_else(Counter::detached, |reg| reg.counter("client.retries"));
        let mut client = Client {
            stream,
            server_max: u64::MAX,
            addrs,
            config,
            retry_counter,
            retries: 0,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Open a socket to the first answering address, under the configured
    /// connect deadline, with the read/write deadlines installed.
    fn open(addrs: &[SocketAddr], config: &ClientConfig) -> Result<TcpStream> {
        let mut last: Option<std::io::Error> = None;
        for addr in addrs {
            let attempt = match config.connect_timeout {
                Some(t) => TcpStream::connect_timeout(addr, t),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_write_timeout(config.write_timeout)?;
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last
            .map(Error::from)
            .unwrap_or_else(|| Error::Io("address resolved to no socket addresses".into())))
    }

    fn handshake(&mut self) -> Result<()> {
        self.stream.write_all(&protocol::client_hello())?;
        self.stream.flush()?;
        let body = protocol::read_reply(&mut self.stream)?;
        let (_version, server_max) = protocol::check_hello_body(&body)?;
        self.server_max = server_max;
        Ok(())
    }

    /// Replace the connection with a fresh handshaken one (retry path —
    /// the failed exchange may have desynced the old framing).
    fn reconnect(&mut self) -> Result<()> {
        self.stream = Client::open(&self.addrs, &self.config)?;
        self.handshake()
    }

    /// Run an idempotent request under the retry policy: on a retryable
    /// failure, wait out the backoff, reconnect, and re-run. A failed
    /// reconnect is itself the next error the policy judges.
    fn retrying<T>(&mut self, mut op: impl FnMut(&mut Client) -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        let mut pending: Option<Error> = None;
        loop {
            let err = match pending.take() {
                Some(e) => e,
                None => match op(self) {
                    Ok(v) => return Ok(v),
                    Err(e) => e,
                },
            };
            let Some(delay) = self.config.retry.delay_for(attempt, &err) else {
                return Err(err);
            };
            attempt += 1;
            self.retries += 1;
            self.retry_counter.inc();
            std::thread::sleep(delay);
            if let Err(e) = self.reconnect() {
                pending = Some(e);
            }
        }
    }

    /// Retries performed over this client's lifetime (also on the
    /// configured telemetry registry as `client.retries`).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The server's advertised request-size ceiling in bytes: the raw
    /// element bytes of a `COMPRESS`. A `DECOMPRESS` stream gets expansion
    /// headroom on top (`protocol::stream_cap`) so a stream the server
    /// itself produced always fits back through it.
    pub fn server_max_request_bytes(&self) -> u64 {
        self.server_max
    }

    /// Refuse a request the server already told us it will cut off —
    /// the typed error the server would send, without streaming a body
    /// whose rejection would reset the connection mid-upload.
    fn check_request_size(&self, bytes: usize, cap: u64) -> Result<()> {
        if bytes as u64 > cap {
            return Err(Error::Unsupported(format!(
                "request is {bytes} bytes; the server accepts at most {cap}"
            )));
        }
        Ok(())
    }

    /// The reply-body ceiling for this connection: the protocol default,
    /// widened when the server's advertised request cap means a `COMPRESS`
    /// reply (stream bytes, with expansion headroom) can legitimately
    /// exceed it — refusing such a reply unread would desync the framing.
    fn reply_cap(&self) -> usize {
        let stream = usize::try_from(protocol::stream_cap(self.server_max)).unwrap_or(usize::MAX);
        protocol::MAX_REPLY_BYTES.max(stream)
    }

    fn read_reply(&mut self) -> Result<Vec<u8>> {
        let cap = self.reply_cap();
        protocol::read_reply_capped(&mut self.stream, cap)
    }

    /// Compress `data` on the server with `codec`, split into
    /// `block_elems`-element blocks. Returns the compressed `FCB3` stream
    /// — self-describing, so it can be decoded by
    /// [`decompress`](Client::decompress), by a local
    /// [`FrameReader`](fcbench_core::stream::FrameReader), or stored as-is.
    /// Idempotent: retried under the policy.
    pub fn compress(
        &mut self,
        codec: &str,
        data: &FloatData,
        block_elems: usize,
    ) -> Result<Vec<u8>> {
        self.retrying(|c| c.compress_once(codec, data, block_elems))
    }

    fn compress_once(
        &mut self,
        codec: &str,
        data: &FloatData,
        block_elems: usize,
    ) -> Result<Vec<u8>> {
        self.check_request_size(data.bytes().len(), self.server_max)?;
        let head = protocol::compress_head(codec, data.desc(), block_elems as u64)?;
        self.stream.write_all(&head)?;
        self.stream.write_all(data.bytes())?;
        self.stream.flush()?;
        self.read_reply()
    }

    /// Decompress an `FCB3` stream on the server (its prologue names the
    /// codec). Returns the restored container. Idempotent: retried under
    /// the policy.
    pub fn decompress(&mut self, stream: &[u8]) -> Result<FloatData> {
        self.retrying(|c| c.decompress_once(stream))
    }

    fn decompress_once(&mut self, stream: &[u8]) -> Result<FloatData> {
        self.check_request_size(stream.len(), protocol::stream_cap(self.server_max))?;
        let mut req = Vec::with_capacity(9);
        req.push(protocol::VERB_DECOMPRESS);
        req.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        self.stream.write_all(&req)?;
        self.stream.write_all(stream)?;
        self.stream.flush()?;
        let body = self.read_reply()?;
        let mut cursor = &body[..];
        let desc = protocol::in_body(fcbench_core::frame::read_desc(&mut cursor))?;
        if cursor.len() != desc.byte_len() {
            return Err(Error::Corrupt(format!(
                "reply carries {} element bytes but its descriptor implies {}",
                cursor.len(),
                desc.byte_len()
            )));
        }
        FloatData::from_bytes(desc, cursor.to_vec())
    }

    /// Round-trip helper: compress, then decompress, on the server;
    /// asserts nothing — callers compare against the original.
    pub fn roundtrip(
        &mut self,
        codec: &str,
        data: &FloatData,
        block_elems: usize,
    ) -> Result<FloatData> {
        let compressed = self.compress(codec, data, block_elems)?;
        self.decompress(&compressed)
    }

    /// The server's codec catalogue with per-entry capabilities.
    /// Idempotent: retried under the policy.
    pub fn list_codecs(&mut self) -> Result<Vec<CodecListing>> {
        self.retrying(|c| {
            c.stream.write_all(&[protocol::VERB_LIST_CODECS])?;
            c.stream.flush()?;
            let body = c.read_reply()?;
            protocol::decode_listings(&body)
        })
    }

    /// The server's full telemetry registry as a [`Snapshot`] — the type
    /// `telemetry().snapshot()` returns in process: every counter, gauge,
    /// and latency histogram across the serve, frame-stream, and pool
    /// layers. Histograms arrive as complete (sparse) bucket snapshots, so
    /// the caller takes its own quantiles — `p50()`, `p99()` — or merges
    /// snapshots across servers. Idempotent: retried under the policy.
    pub fn stats_v2(&mut self) -> Result<Snapshot> {
        self.retrying(|c| {
            c.stream.write_all(&[protocol::VERB_STATS_V2])?;
            c.stream.flush()?;
            let body = c.read_reply()?;
            protocol::decode_stats_v2(&body)
        })
    }

    /// Raw access for protocol (and hostile-input) tests: send arbitrary
    /// bytes on the connection and read one reply frame. **Never
    /// retried** — arbitrary bytes have arbitrary semantics, and blindly
    /// replaying them could repeat a non-idempotent effect.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<Vec<u8>> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        self.read_reply()
    }
}
