//! The `FCS1` TCP server: many client connections, one shared
//! [`WorkerPool`] engine.
//!
//! Each accepted connection gets a handler thread, but compression work
//! does not stay on it: handlers feed their streams through
//! [`FrameWriter`]/[`FrameReader`], which fan blocks out to the server's
//! single warm pool under the drain-own-oldest saturation discipline — so
//! N clients share the engine without deadlock, and a per-connection
//! in-flight cap ([`ServeConfig::max_inflight_per_conn`]) keeps any one
//! stream from pinning every job slot. Every codec runs this way, the
//! GPU-simulated methods included, so every request's codec work runs
//! under the workers' `catch_unwind` and is timed in
//! `pool.exec.codec.<name>`.
//!
//! Protocol errors are *request* failures: the handler replies with a typed
//! error frame and — whenever the request body was fully consumed, so
//! framing is intact — keeps serving the connection. A body it cannot skip
//! (a petabyte-claiming record, a malformed header) closes that connection;
//! nothing a client sends takes the server down.

use crate::protocol::{self, CodecListing};
use fcbench_core::stream::{FrameReader, FrameWriter};
use fcbench_core::{CodecRegistry, Error, Platform, Result, WorkerPool};
use fcbench_telemetry::{Counter, Gauge, GaugeGuard, Histogram, HistogramFamily, Registry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket-read granularity for streaming request bodies into the engine.
const BODY_CHUNK: usize = 64 * 1024;

/// How often the nonblocking accept loop re-polls the listener (and the
/// shutdown flag) when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Ceiling on one dataset's raw element bytes, in both directions:
    /// `COMPRESS` rejects larger inputs, `DECOMPRESS` rejects streams
    /// larger than this or claiming a larger decoded size. This is the
    /// gate that turns a petabyte-claiming record into a typed reply
    /// instead of an allocation.
    pub max_request_bytes: usize,
    /// Per-connection cap on blocks in flight on the shared pool (see
    /// [`FrameWriter::max_in_flight`]).
    pub max_inflight_per_conn: usize,
    /// Socket read-timeout granularity; idle handlers poll the shutdown
    /// flag at this cadence.
    pub idle_poll: Duration,
    /// How long a mid-request read or write may stall before the
    /// connection is dropped.
    pub stall_limit: Duration,
    /// Patience for mid-request reads once shutdown has been signalled.
    pub shutdown_grace: Duration,
    /// Socket write deadline: one `write` that makes no progress for this
    /// long (a peer that stopped reading its reply) fails the connection
    /// and counts `serve.timeouts.write`.
    pub write_deadline: Duration,
    /// How long a connection may sit at a request boundary with no verb
    /// byte before it is reaped (`serve.timeouts.idle`). Keep-alive
    /// clients that speak within the window are unaffected.
    pub idle_timeout: Duration,
    /// Deadline on the `HELLO` handshake — deliberately shorter than
    /// [`idle_timeout`](Self::idle_timeout), so a pre-handshake socket
    /// (a port scanner, a slow-loris opener) cannot pin a handler thread
    /// for the full idle window.
    pub handshake_deadline: Duration,
    /// Load-shedding threshold: when more than this many data requests
    /// (`COMPRESS`/`DECOMPRESS`) are in flight server-wide, further ones
    /// are refused with a typed `ERR_BUSY` reply carrying
    /// [`busy_retry_after`](Self::busy_retry_after) instead of queueing
    /// on the saturated engine. `0` picks an automatic ceiling well above
    /// the pool's queue depth; `usize::MAX` disables shedding.
    pub shed_max_inflight: usize,
    /// The retry-after hint an `ERR_BUSY` reply carries.
    pub busy_retry_after: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_request_bytes: 64 * 1024 * 1024,
            max_inflight_per_conn: 4,
            idle_poll: Duration::from_millis(50),
            stall_limit: Duration::from_secs(30),
            shutdown_grace: Duration::from_secs(2),
            write_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            handshake_deadline: Duration::from_secs(5),
            shed_max_inflight: 0,
            busy_retry_after: Duration::from_millis(50),
        }
    }
}

/// Pre-resolved serving handles on the server's telemetry registry (the
/// pool's registry, so pool, frame-stream, and serve metrics share one
/// exposition and one `STATS_V2` body). Everything here is resolved once
/// at bind time; recording on the request path is a single relaxed
/// atomic op per sample.
struct ServeMetrics {
    registry: Arc<Registry>,
    /// Bytes read off and written to client sockets.
    bytes_in: Counter,
    bytes_out: Counter,
    /// Requests served with an OK reply.
    requests_ok: Counter,
    /// Requests refused with a typed error reply, plus connections that
    /// died with a request in flight (mid-body disconnects, reply write
    /// failures) — server work consumed without a served reply.
    requests_failed: Counter,
    connections_accepted: Counter,
    connections_active: Gauge,
    /// Served requests by codec (`serve.requests.codec.<name>`), one
    /// counter per codec-registry entry in registration order.
    codec_requests: Vec<(&'static str, Counter)>,
    /// Wall time per verb, refusals included — what a client waited.
    req_compress: Histogram,
    req_decompress: Histogram,
    req_list_codecs: Histogram,
    req_stats_v2: Histogram,
    /// Served-request wall time by codec (`serve.request.codec.<name>`),
    /// recorded when the reply body is ready.
    req_codec: HistogramFamily,
    /// Phase breakdown of the two data verbs: reading the request off
    /// the socket, waiting on the engine, writing the reply.
    phase_decode: Histogram,
    phase_engine: Histogram,
    phase_reply_write: Histogram,
    /// Connection lifetime, accept to hangup.
    conn_lifetime: Histogram,
    /// Data requests being served right now, server-wide — the admission
    /// gauge the shedding threshold is compared against.
    inflight: Gauge,
    /// Requests refused with `ERR_BUSY` under load.
    shed: Counter,
    /// Mid-request read stalls that exhausted the server's patience.
    timeouts_read: Counter,
    /// Reply writes that timed out against a peer that stopped reading.
    timeouts_write: Counter,
    /// Connections reaped at a boundary: idle past the window, or a
    /// handshake that never arrived.
    timeouts_idle: Counter,
}

impl ServeMetrics {
    /// Resolve every handle on `registry`, with one per-codec counter for
    /// each entry of `codecs`.
    fn new(registry: &Arc<Registry>, codecs: &CodecRegistry) -> Self {
        ServeMetrics {
            registry: Arc::clone(registry),
            bytes_in: registry.counter("serve.bytes.in"),
            bytes_out: registry.counter("serve.bytes.out"),
            requests_ok: registry.counter("serve.requests.ok"),
            requests_failed: registry.counter("serve.requests.failed"),
            connections_accepted: registry.counter("serve.connections.accepted"),
            connections_active: registry.gauge("serve.connections.active"),
            codec_requests: codecs
                .names()
                .into_iter()
                .map(|name| {
                    (
                        name,
                        registry.counter(&format!("serve.requests.codec.{name}")),
                    )
                })
                .collect(),
            req_compress: registry.histogram("serve.request.compress"),
            req_decompress: registry.histogram("serve.request.decompress"),
            req_list_codecs: registry.histogram("serve.request.list_codecs"),
            req_stats_v2: registry.histogram("serve.request.stats_v2"),
            req_codec: registry.histogram_family("serve.request.codec"),
            phase_decode: registry.histogram("serve.phase.decode"),
            phase_engine: registry.histogram("serve.phase.engine"),
            phase_reply_write: registry.histogram("serve.phase.reply_write"),
            conn_lifetime: registry.histogram("serve.connection.lifetime"),
            inflight: registry.gauge("serve.requests.inflight"),
            shed: registry.counter("serve.requests.shed"),
            timeouts_read: registry.counter("serve.timeouts.read"),
            timeouts_write: registry.counter("serve.timeouts.write"),
            timeouts_idle: registry.counter("serve.timeouts.idle"),
        }
    }

    /// The per-verb latency histogram, or `None` for an unknown verb.
    fn verb_histogram(&self, verb: u8) -> Option<&Histogram> {
        match verb {
            protocol::VERB_COMPRESS => Some(&self.req_compress),
            protocol::VERB_DECOMPRESS => Some(&self.req_decompress),
            protocol::VERB_LIST_CODECS => Some(&self.req_list_codecs),
            protocol::VERB_STATS_V2 => Some(&self.req_stats_v2),
            _ => None,
        }
    }

    /// Count a served request, and its wall time, against its codec
    /// (no-op for names outside the codec registry — those failed before
    /// reaching a codec).
    fn note_codec(&self, name: &str, elapsed: Duration) {
        let Some((_, count)) = self.codec_requests.iter().find(|(n, _)| *n == name) else {
            return;
        };
        count.inc();
        if let Some(h) = self.req_codec.get(name) {
            h.record_duration(elapsed);
        }
    }

    /// Book one accepted connection and return the RAII guard holding its
    /// slot in the active-connection gauge: the gauge decrements when the
    /// guard drops, however the handler exits — there is no code path that
    /// can leak an increment.
    #[must_use]
    fn connection_opened(&self) -> GaugeGuard {
        self.connections_accepted.inc();
        self.connections_active.inc_scoped()
    }
}

struct Shared {
    registry: Arc<CodecRegistry>,
    pool: Arc<WorkerPool>,
    metrics: ServeMetrics,
    config: ServeConfig,
    /// [`ServeConfig::shed_max_inflight`] with `0` resolved to the
    /// automatic ceiling (64 data requests per pool job slot, at least
    /// 1024 — far past the point where queueing more helps anyone).
    shed_threshold: usize,
    shutdown: AtomicBool,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Admission control for the data verbs: shed when the in-flight
    /// gauge (which already counts the request asking) exceeds the
    /// threshold. Cheap — one relaxed load — so it runs per request.
    fn should_shed(&self) -> bool {
        self.metrics.inflight.get() > self.shed_threshold as u64
    }

    /// The typed error a shed request is refused with.
    fn busy(&self) -> Error {
        Error::Busy {
            retry_after_ms: u64::try_from(self.config.busy_retry_after.as_millis())
                .unwrap_or(u64::MAX),
        }
    }
}

/// A bound-but-not-yet-running `FCS1` server. Construct with
/// [`Server::bind`], then either `run` it on the current
/// thread or [`spawn`](Server::spawn) it onto a background one.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A cheap handle onto a server: address, telemetry, shutdown signal.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A server running on a background thread (from [`Server::spawn`]).
pub struct RunningServer {
    handle: ServerHandle,
    join: JoinHandle<Result<()>>,
}

impl Server {
    /// Bind `addr` and prepare to serve `registry`'s codecs on `pool`.
    /// Pass an OS-assigned port (`127.0.0.1:0`) in tests and read the real
    /// one back from [`local_addr`](Server::local_addr).
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<CodecRegistry>,
        pool: Arc<WorkerPool>,
        config: ServeConfig,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Serve metrics live on the pool's registry: one snapshot (and one
        // STATS_V2 body) spans the request layer, the frame streams, and
        // the engine underneath them.
        let metrics = ServeMetrics::new(pool.telemetry(), &registry);
        let shed_threshold = match config.shed_max_inflight {
            0 => (pool.config().queue_depth.saturating_mul(64)).max(1024),
            n => n,
        };
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                registry,
                pool,
                metrics,
                config,
                shed_threshold,
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for telemetry and shutdown, usable from any thread.
    pub(crate) fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Accept and serve connections until shutdown is signalled through a
    /// [`ServerHandle`]. Each connection gets a handler thread; on
    /// shutdown the loop stops accepting and joins every handler, so
    /// accepted connections drain before this returns.
    ///
    /// The listener polls nonblocking every few milliseconds so the shutdown
    /// flag is always noticed — a blocking `accept` would need a wake-up
    /// self-connection, which can fail (interface-specific binds,
    /// saturated backlogs) and leave shutdown hanging forever.
    pub(crate) fn run(self) -> Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.shutting_down() {
                        drop(stream);
                        break;
                    }
                    let shared = Arc::clone(&self.shared);
                    // A failed spawn (thread exhaustion under a connection
                    // flood) drops that one connection — never the server.
                    let spawned = std::thread::Builder::new()
                        .name("fcbench-serve-conn".into())
                        .spawn(move || handle_connection(stream, &shared));
                    if let Ok(h) = spawned {
                        handlers.push(h);
                    }
                    handlers.retain(|h| !h.is_finished());
                }
                Err(_) if self.shared.shutting_down() => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => {
                    // Every other accept failure is treated as transient —
                    // fd exhaustion under a connection flood (EMFILE), a
                    // peer resetting while queued in the backlog
                    // (ECONNABORTED) — because exiting would drop every
                    // connection already being served. Conditions like
                    // these clear on their own; a truly dead listener
                    // degrades to this poll loop until shutdown, which the
                    // flag check above still honours.
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }

    /// `run` on a background thread.
    pub fn spawn(self) -> RunningServer {
        let handle = self.handle();
        let join = std::thread::Builder::new()
            .name("fcbench-serve-accept".into())
            .spawn(move || self.run())
            .expect("spawn server accept thread");
        RunningServer { handle, join }
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's telemetry registry (shared with its worker pool):
    /// request/phase latency histograms, serving counters, engine and
    /// frame-stream metrics. Snapshot it, or dump it with
    /// [`Registry::render_text`].
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.shared.metrics.registry
    }

    /// Signal a graceful shutdown: the accept loop (which polls the flag
    /// every few milliseconds) stops taking new connections and existing
    /// handlers exit at their next request boundary (mid-request work gets
    /// [`ServeConfig::shutdown_grace`]). Returns immediately; use
    /// [`RunningServer::shutdown`] to also wait for the drain.
    pub(crate) fn signal_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }
}

impl RunningServer {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// A cloneable handle (telemetry, shutdown signal).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Gracefully shut down: stop accepting, drain accepted connections,
    /// join the accept thread.
    pub fn shutdown(self) -> Result<()> {
        self.handle.signal_shutdown();
        self.join
            .join()
            .map_err(|_| Error::Io("server accept thread panicked".into()))?
    }
}

/// Whether the connection survives the request it just served.
enum Flow {
    Continue,
    Close,
}

/// What happened while waiting at a message boundary.
enum Boundary {
    /// A full message head arrived.
    Message,
    /// The peer closed (or shutdown was signalled) — end quietly.
    Closed,
    /// The peer stayed silent past the caller's budget.
    TimedOut,
}

/// One connection's view of the socket: counts bytes in [`ServeMetrics`]
/// and absorbs read timeouts with the mid-message patience policy (stall
/// limits, shutdown grace). Boundary reads — where blocking forever on an
/// idle keep-alive connection is correct — go through
/// [`Conn::read_message_start`] instead.
struct Conn<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    stalled_since: Option<Instant>,
    /// Has the request currently being served been booked in
    /// [`ServeMetrics`] (ok or failed)? Keeps the accounting exactly-once:
    /// an error propagating out of a handler books a failure only if the
    /// request was never counted (mid-body disconnect), not when a counted
    /// request's reply write failed afterwards.
    accounted: bool,
}

impl Conn<'_> {
    /// Book the in-flight request as served, before the reply is written —
    /// a client that has read its reply must already see itself counted.
    fn count_ok(&mut self) {
        self.accounted = true;
        self.shared.metrics.requests_ok.inc();
    }

    /// Book the in-flight request as failed.
    fn count_failed(&mut self) {
        self.accounted = true;
        self.shared.metrics.requests_failed.inc();
    }
}

impl Conn<'_> {
    fn stall_budget(&self) -> Duration {
        if self.shared.shutting_down() {
            self.shared.config.shutdown_grace
        } else {
            self.shared.config.stall_limit
        }
    }

    /// Wait (up to `budget`) for the first byte(s) of a message, then read
    /// the rest. [`Boundary::Closed`] means the connection ended cleanly
    /// before a message started: the peer closed, or shutdown was
    /// signalled while idle. [`Boundary::TimedOut`] means the peer stayed
    /// silent past the budget — the caller reaps the connection (idle
    /// keep-alive expiry, or a handshake that never came).
    fn read_message_start(&mut self, buf: &mut [u8], budget: Duration) -> Result<Boundary> {
        debug_assert!(!buf.is_empty());
        let waiting_since = Instant::now();
        let got = loop {
            match self.stream_read(buf) {
                Ok(0) => return Ok(Boundary::Closed),
                Ok(n) => break n,
                Err(e) if is_timeout(&e) => {
                    if self.shared.shutting_down() {
                        return Ok(Boundary::Closed);
                    }
                    if waiting_since.elapsed() >= budget {
                        return Ok(Boundary::TimedOut);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        if got < buf.len() {
            let rest = &mut buf[got..];
            protocol::read_exact(self, rest)?;
        }
        Ok(Boundary::Message)
    }

    fn stream_read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (&mut &*self.stream).read(buf)?;
        self.shared.metrics.bytes_in.add(n as u64);
        Ok(n)
    }

    /// Mid-message read: up to `buf.len()` bytes, returning as soon as any
    /// arrive (`Ok(0)` at EOF). Timeouts are retried until the stall budget
    /// runs out, so length-prefixed framing never desyncs under a slow
    /// client, and every idle poll tick calls `on_idle` — the compress path
    /// flushes finished pool jobs there, so a trickling client cannot keep
    /// completed job slots pinned away from other connections.
    fn read_some(&mut self, buf: &mut [u8], mut on_idle: impl FnMut()) -> std::io::Result<usize> {
        loop {
            match self.stream_read(buf) {
                Ok(n) => {
                    self.stalled_since = None;
                    return Ok(n);
                }
                Err(e) if is_timeout(&e) => {
                    on_idle();
                    let since = *self.stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= self.stall_budget() {
                        self.stalled_since = None;
                        self.shared.metrics.timeouts_read.inc();
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "request read stalled past the server's patience",
                        ));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl Read for Conn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.read_some(buf, || {})
    }
}

impl Write for Conn<'_> {
    /// Reply write under the socket's write deadline
    /// ([`ServeConfig::write_deadline`]): a peer that stopped reading
    /// fails the write with a timeout, counted before it propagates.
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match (&mut &*self.stream).write(buf) {
            Ok(n) => {
                self.shared.metrics.bytes_out.add(n as u64);
                Ok(n)
            }
            Err(e) => {
                if is_timeout(&e) {
                    self.shared.metrics.timeouts_write.inc();
                }
                Err(e)
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&mut &*self.stream).flush()
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // The guard holds this connection's slot in the active gauge and
    // releases it on drop — no exit path (error, panic unwinding through
    // the handler, early return) can leak an increment.
    let _active = shared.metrics.connection_opened();
    let opened = Instant::now();
    // Connection-level I/O failures are that connection's problem alone;
    // request accounting (including deaths mid-request) happens inside.
    let _ = serve_connection(&stream, shared);
    shared
        .metrics
        .conn_lifetime
        .record_duration(opened.elapsed());
}

fn serve_connection(stream: &TcpStream, shared: &Shared) -> Result<()> {
    // Some platforms hand accepted sockets the listener's nonblocking
    // flag; the timeout-based read discipline below needs blocking mode.
    stream.set_nonblocking(false)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(shared.config.idle_poll))?;
    stream.set_write_timeout(Some(shared.config.write_deadline))?;
    let mut conn = Conn {
        stream,
        shared,
        stalled_since: None,
        accounted: false,
    };

    // Handshake: garbage gets a typed reply and the connection is done.
    // The wait is bounded by its own (short) deadline so a pre-handshake
    // socket cannot pin this handler thread for the idle window.
    let mut hello = [0u8; 6];
    match conn.read_message_start(&mut hello, shared.config.handshake_deadline)? {
        Boundary::Message => {}
        Boundary::Closed => return Ok(()),
        Boundary::TimedOut => {
            shared.metrics.timeouts_idle.inc();
            return Ok(());
        }
    }
    if let Err(e) = protocol::check_client_hello(&hello) {
        // Same half-close/drain discipline as every other refusal that
        // closes the connection: an HTTP probe (or a client pipelining
        // hello+request) has unread bytes queued, and dropping the socket
        // over them would RST away the typed reply.
        let _ = fail_close(&mut conn, &e)?;
        return Ok(());
    }
    protocol::write_ok_reply(
        &mut conn,
        &protocol::hello_body(shared.config.max_request_bytes as u64),
    )?;

    // Request loop: one verb frame at a time, in order. A connection
    // silent past the idle window is reaped at the boundary — nothing is
    // half-sent there, so a quiet close is correct and cheap.
    loop {
        let mut verb = [0u8; 1];
        match conn.read_message_start(&mut verb, shared.config.idle_timeout)? {
            Boundary::Message => {}
            Boundary::Closed => return Ok(()),
            Boundary::TimedOut => {
                shared.metrics.timeouts_idle.inc();
                return Ok(());
            }
        }
        conn.accounted = false;
        let started = Instant::now();
        // The guard counts this request in the admission gauge for as
        // long as it is being served; the shed check reads the gauge
        // *with this request included*, so a threshold of N admits N
        // concurrent data requests and refuses the N+1th.
        let _inflight = shared.metrics.inflight.inc_scoped();
        let served = match verb[0] {
            protocol::VERB_COMPRESS if shared.should_shed() => shed_compress(&mut conn, shared),
            protocol::VERB_DECOMPRESS if shared.should_shed() => shed_decompress(&mut conn, shared),
            protocol::VERB_COMPRESS => handle_compress(&mut conn, shared, started),
            protocol::VERB_DECOMPRESS => handle_decompress(&mut conn, shared, started),
            protocol::VERB_LIST_CODECS => handle_list_codecs(&mut conn, shared),
            protocol::VERB_STATS_V2 => handle_stats_v2(&mut conn, shared),
            other => fail_close(
                &mut conn,
                &Error::Corrupt(format!("unknown request verb {other}")),
            ),
        };
        // Refusals count too: a typed error reply is still time the
        // client waited on this verb.
        if let Some(h) = shared.metrics.verb_histogram(verb[0]) {
            h.record_duration(started.elapsed());
        }
        let flow = match served {
            Ok(f) => f,
            Err(e) => {
                // The request died on connection I/O: a mid-body
                // disconnect never reached its per-request accounting —
                // book it failed, exactly once. (A counted request whose
                // reply write failed stays counted as it was.)
                if !conn.accounted {
                    conn.count_failed();
                }
                return Err(e);
            }
        };
        if matches!(flow, Flow::Close) {
            return Ok(());
        }
    }
}

/// Reply with a typed error; the request body was consumed, so the
/// connection keeps serving.
fn fail_continue(conn: &mut Conn<'_>, err: &Error) -> Result<Flow> {
    conn.count_failed();
    protocol::write_err_reply(conn, err)?;
    Ok(Flow::Continue)
}

/// How much unread request body `fail_close` drains before giving up on a
/// graceful close (a hostile sender mid-petabyte gets its RST after this).
const CLOSE_DRAIN_LIMIT: usize = 256 * 1024;

/// Reply with a typed error (best effort) and close: framing is broken or
/// the body cannot be skipped. Dropping a socket with unread inbound bytes
/// makes TCP send RST, which can discard the queued error reply before
/// the client reads it — so half-close the write side (FIN after the
/// reply) and drain what the peer already sent, bounded, before dropping.
fn fail_close(conn: &mut Conn<'_>, err: &Error) -> Result<Flow> {
    conn.count_failed();
    let _ = protocol::write_err_reply(conn, err);
    let _ = conn.flush();
    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < CLOSE_DRAIN_LIMIT {
        match conn.stream_read(&mut sink) {
            Ok(0) => break, // peer saw our FIN and closed
            Ok(n) => drained += n,
            Err(e) if is_timeout(&e) => break, // peer quiet for an idle tick
            Err(_) => break,
        }
    }
    Ok(Flow::Close)
}

/// Read and discard `len` body bytes to keep the connection's framing
/// intact after a request-level refusal.
fn discard_body(conn: &mut Conn<'_>, len: usize) -> Result<()> {
    let mut chunk = [0u8; 4096];
    let mut remaining = len;
    while remaining > 0 {
        let take = chunk.len().min(remaining);
        protocol::read_exact(conn, &mut chunk[..take])?;
        remaining -= take;
    }
    Ok(())
}

/// Shed a `COMPRESS` under load: consume the request (header and body) so
/// framing stays intact, then refuse with `ERR_BUSY` and keep the
/// connection — the client retries after the hint without reconnecting.
fn shed_compress(conn: &mut Conn<'_>, shared: &Shared) -> Result<Flow> {
    let (_name, desc, _block_elems) = match protocol::read_compress_head(conn) {
        Ok(h) => h,
        Err(e) => return fail_close(conn, &e),
    };
    let body_len = desc.byte_len();
    if body_len > shared.config.max_request_bytes {
        // Too large to skip even when healthy — same close as the
        // served path, but the busy hint tells the client what to fix
        // first (nothing: this request could never succeed here).
        return fail_close(
            conn,
            &Error::Unsupported(format!(
                "request claims {body_len} element bytes; this server accepts at most {}",
                shared.config.max_request_bytes
            )),
        );
    }
    discard_body(conn, body_len)?;
    shared.metrics.shed.inc();
    fail_continue(conn, &shared.busy())
}

/// Shed a `DECOMPRESS` under load; same framing discipline as
/// [`shed_compress`].
fn shed_decompress(conn: &mut Conn<'_>, shared: &Shared) -> Result<Flow> {
    let len = protocol::read_u64(conn)?;
    let cap = protocol::stream_cap(shared.config.max_request_bytes as u64);
    let skippable = usize::try_from(len).ok().filter(|&l| l as u64 <= cap);
    let Some(len) = skippable else {
        return fail_close(
            conn,
            &Error::Unsupported(format!(
                "message declares {len} bytes but this endpoint accepts at most {cap}"
            )),
        );
    };
    discard_body(conn, len)?;
    shared.metrics.shed.inc();
    fail_continue(conn, &shared.busy())
}

fn handle_compress(conn: &mut Conn<'_>, shared: &Shared, started: Instant) -> Result<Flow> {
    // A malformed header desyncs framing: reply, then close.
    let (name, desc, block_elems) = match protocol::read_compress_head(conn) {
        Ok(h) => h,
        Err(e) => return fail_close(conn, &e),
    };
    let body_len = desc.byte_len();
    if body_len > shared.config.max_request_bytes {
        // Cannot skip a body this large — typed reply, then close.
        return fail_close(
            conn,
            &Error::Unsupported(format!(
                "request claims {body_len} element bytes; this server accepts at most {}",
                shared.config.max_request_bytes
            )),
        );
    }
    let Ok(block_elems) = usize::try_from(block_elems) else {
        discard_body(conn, body_len)?;
        return fail_continue(
            conn,
            &Error::BadDescriptor("block size exceeds the address space".into()),
        );
    };
    if block_elems == 0 {
        discard_body(conn, body_len)?;
        return fail_continue(
            conn,
            &Error::BadDescriptor("block size must be at least 1 element".into()),
        );
    }
    let Some(codec) = shared.registry.get(&name) else {
        discard_body(conn, body_len)?;
        return fail_continue(conn, &shared.registry.unknown(&name));
    };

    let mut writer = match FrameWriter::new(
        Vec::new(),
        codec,
        desc,
        block_elems,
        Some(Arc::clone(&shared.pool)),
    ) {
        Ok(w) => w.max_in_flight(shared.config.max_inflight_per_conn),
        Err(e) => {
            discard_body(conn, body_len)?;
            return fail_continue(conn, &e);
        }
    };

    // Stream the element bytes from the socket into the engine, taking
    // whatever the socket has each round and flushing already-finished
    // blocks while the client is quiet — a trickling sender must not pin
    // completed job slots away from other connections. A codec refusal
    // mid-stream still consumes the rest of the body so the next request
    // on this connection parses cleanly.
    let mut chunk = vec![0u8; BODY_CHUNK.min(body_len.max(1))];
    let mut remaining = body_len;
    let mut refusal: Option<Error> = None;
    while remaining > 0 {
        let take = chunk.len().min(remaining);
        let got = conn.read_some(&mut chunk[..take], || {
            if refusal.is_none() {
                if let Err(e) = writer.flush_ready() {
                    refusal = Some(e);
                }
            }
        })?;
        if got == 0 {
            return Err(Error::Corrupt("connection closed mid-message".into()));
        }
        remaining -= got;
        if refusal.is_none() {
            if let Err(e) = writer.write(&chunk[..got]) {
                refusal = Some(e);
            }
        }
    }
    if let Some(e) = refusal {
        return fail_continue(conn, &e);
    }
    // The body is off the socket; what remains is draining the engine
    // (finish collects the in-flight blocks) and writing the reply.
    shared
        .metrics
        .phase_decode
        .record_duration(started.elapsed());
    let engine_started = Instant::now();
    match writer.finish() {
        Ok(body) => {
            shared
                .metrics
                .phase_engine
                .record_duration(engine_started.elapsed());
            // Count before replying: once the client has read this reply,
            // a stats snapshot must already include the request.
            conn.count_ok();
            shared.metrics.note_codec(&name, started.elapsed());
            let write_started = Instant::now();
            protocol::write_ok_reply(conn, &body)?;
            shared
                .metrics
                .phase_reply_write
                .record_duration(write_started.elapsed());
            Ok(Flow::Continue)
        }
        Err(e) => fail_continue(conn, &e),
    }
}

fn handle_decompress(conn: &mut Conn<'_>, shared: &Shared, started: Instant) -> Result<Flow> {
    // An implausible declared length (or a truncated body) breaks framing:
    // typed reply, then close. The cap here is on *compressed stream*
    // bytes, with expansion headroom over the raw-byte cap so a stream
    // this very server produced from an in-cap COMPRESS always fits
    // ([`protocol::stream_cap`]); the decoded-size claim gate below still
    // bounds the real allocation.
    let cap = usize::try_from(protocol::stream_cap(shared.config.max_request_bytes as u64))
        .unwrap_or(usize::MAX);
    let body = match protocol::read_sized(conn, cap) {
        Ok(b) => b,
        Err(e) => return fail_close(conn, &e),
    };
    shared
        .metrics
        .phase_decode
        .record_duration(started.elapsed());

    // The FCB3 prologue names the codec and shape; everything after this
    // point consumed the body already, so errors keep the connection.
    let (name, desc, _block_elems) = {
        let mut cursor = &body[..];
        match fcbench_core::frame::decode_stream_header(&mut cursor) {
            Ok(h) => h,
            Err(e) => return fail_continue(conn, &e),
        }
    };
    let Some(codec) = shared.registry.get(&name) else {
        return fail_continue(conn, &shared.registry.unknown(&name));
    };
    let claim = desc.byte_len();
    if claim > shared.config.max_request_bytes {
        return fail_continue(
            conn,
            &Error::Unsupported(format!(
                "stream claims {claim} decoded bytes; this server accepts at most {}",
                shared.config.max_request_bytes
            )),
        );
    }

    let reader = match FrameReader::new(&body[..], codec, Some(Arc::clone(&shared.pool))) {
        Ok(r) => r.max_in_flight(shared.config.max_inflight_per_conn),
        Err(e) => return fail_continue(conn, &e),
    };
    let mut reader = reader;
    // No up-front claim-sized reservation: a 40-byte body with a cap-sized
    // decoded claim must not pin max_request_bytes of memory before a
    // single block has actually decoded. Doubling growth tracks delivered
    // blocks the way read_sized tracks delivered bytes.
    let mut reply = Vec::new();
    if let Err(e) = fcbench_core::frame::put_desc(&desc, &mut reply) {
        return fail_continue(conn, &e);
    }
    let engine_started = Instant::now();
    loop {
        match reader.next_block() {
            Ok(Some(block)) => reply.extend_from_slice(block),
            Ok(None) => break,
            Err(e) => return fail_continue(conn, &e),
        }
    }
    shared
        .metrics
        .phase_engine
        .record_duration(engine_started.elapsed());
    conn.count_ok();
    shared.metrics.note_codec(&name, started.elapsed());
    let write_started = Instant::now();
    protocol::write_ok_reply(conn, &reply)?;
    shared
        .metrics
        .phase_reply_write
        .record_duration(write_started.elapsed());
    Ok(Flow::Continue)
}

fn handle_list_codecs(conn: &mut Conn<'_>, shared: &Shared) -> Result<Flow> {
    let listings: Vec<CodecListing> = shared
        .registry
        .iter()
        .map(|e| CodecListing {
            name: e.name().to_string(),
            thread_scalable: e.codec().info().platform == Platform::Cpu,
            block_capable: e.is_block_capable(),
        })
        .collect();
    let body = match protocol::encode_listings(&listings) {
        Ok(b) => b,
        Err(e) => return fail_continue(conn, &e),
    };
    conn.count_ok();
    protocol::write_ok_reply(conn, &body)?;
    Ok(Flow::Continue)
}

fn handle_stats_v2(conn: &mut Conn<'_>, shared: &Shared) -> Result<Flow> {
    // Snapshot first so a STATS_V2 reply never counts itself, then count
    // before replying like every other verb. The body carries the whole
    // registry — pool, frame-stream, and serve metrics, with sparse
    // histogram buckets.
    let body = match protocol::encode_stats_v2(&shared.metrics.registry.snapshot()) {
        Ok(b) => b,
        Err(e) => return fail_continue(conn, &e),
    };
    conn.count_ok();
    protocol::write_ok_reply(conn, &body)?;
    Ok(Flow::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::codec::{CodecClass, CodecInfo, Community, PrecisionSupport};
    use fcbench_core::{Compressor, DataDesc, FloatData};

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
        let codecs = CodecRegistry::new().with(Fake("a")).with(Fake("b"));
        let registry = Arc::new(Registry::new());
        let metrics = ServeMetrics::new(&registry, &codecs);
        let active = metrics.connection_opened();
        metrics.bytes_in.add(100);
        metrics.bytes_out.add(40);
        metrics.requests_ok.inc();
        metrics.note_codec("b", Duration::from_micros(5));
        metrics.note_codec("nope", Duration::from_micros(5)); // ignored: never reached a codec
        metrics.requests_failed.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.bytes.in"), Some(100));
        assert_eq!(snap.counter("serve.bytes.out"), Some(40));
        assert_eq!(snap.counter("serve.requests.ok"), Some(1));
        assert_eq!(snap.counter("serve.requests.failed"), Some(1));
        assert_eq!(snap.counter("serve.connections.accepted"), Some(1));
        assert_eq!(snap.gauge("serve.connections.active"), Some(1));
        assert_eq!(snap.counter("serve.requests.codec.a"), Some(0));
        assert_eq!(snap.counter("serve.requests.codec.b"), Some(1));
        assert_eq!(snap.counter("serve.requests.codec.nope"), None);
        drop(active);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("serve.connections.active"), Some(0));
    }

    #[test]
    fn active_gauge_cannot_leak_past_its_guard() {
        let codecs = CodecRegistry::new().with(Fake("a"));
        let registry = Arc::new(Registry::new());
        let metrics = ServeMetrics::new(&registry, &codecs);
        let active = || registry.snapshot().gauge("serve.connections.active");
        {
            let _a = metrics.connection_opened();
            let _b = metrics.connection_opened();
            assert_eq!(active(), Some(2));
        }
        assert_eq!(active(), Some(0));
        let accepted = registry.snapshot().counter("serve.connections.accepted");
        assert_eq!(accepted, Some(2));
    }
}
