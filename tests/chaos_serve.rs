//! End-to-end resilience of the `FCS1` serve path under injected faults
//! and hostile peers: seeded `fp1:` fault plans between client and server
//! (every outcome a typed error or a correct round trip, the server keeps
//! serving), deadlines that turn silent peers into typed errors instead of
//! hangs (client read/write timeouts, server handshake and idle reaping,
//! reply-write deadlines), and load shedding that refuses excess data
//! requests with `ERR_BUSY` + retry-after — which the client's
//! `RetryPolicy` then turns into an eventual success, all visible on the
//! `serve.requests.shed` / `serve.timeouts.*` / `client.retries` counters
//! and consistent between `STATS_V2` and the server's in-process view.

use fcbench::core::fault::{FaultPlan, FaultyIo, Rng};
use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::telemetry::Registry;
use fcbench::core::{frame, Domain, Error, FloatData};
use fcbench::serve::{
    protocol, Client, ClientConfig, RetryPolicy, RunningServer, ServeConfig, Server,
};
use fcbench_bench::codecs::paper_registry;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Benign two-decimal telemetry every codec accepts.
fn decimal_data(n: usize, phase: f64) -> FloatData {
    let vals: Vec<f64> = (0..n)
        .map(|i| ((20.0 + (i as f64 * 0.37 + phase).sin()) * 100.0).round() / 100.0)
        .collect();
    FloatData::from_f64(&vals, vec![n], Domain::TimeSeries).unwrap()
}

fn start_server(pool: PoolConfig, config: ServeConfig) -> RunningServer {
    let registry = Arc::new(paper_registry());
    let pool = Arc::new(WorkerPool::new(pool));
    Server::bind("127.0.0.1:0", registry, pool, config)
        .expect("bind loopback")
        .spawn()
}

/// Poll a telemetry counter until it reaches `want` or the budget runs out.
fn wait_for_counter(registry: &Arc<Registry>, name: &str, want: u64, budget: Duration) -> u64 {
    let started = Instant::now();
    loop {
        let got = registry.counter(name).get();
        if got >= want || started.elapsed() >= budget {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------------
// Client deadlines: a silent or dead peer is a typed error, never a hang.
// ---------------------------------------------------------------------------

/// Satellite regression: the client installs its socket deadlines, so a
/// server that accepts and then never speaks fails the handshake with a
/// typed error within the configured read timeout.
#[test]
fn silent_server_times_out_instead_of_hanging() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        // Accept and hold the socket open, reading nothing, saying nothing.
        let sock = listener.accept().map(|(s, _)| s);
        std::thread::sleep(Duration::from_secs(4));
        drop(sock);
    });

    let config = ClientConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ClientConfig::default()
    };
    let started = Instant::now();
    let result = Client::connect_with(addr, config);
    let elapsed = started.elapsed();
    match result {
        Ok(_) => panic!("handshake against a mute server cannot succeed"),
        Err(Error::Io(_)) => {}
        Err(other) => panic!("expected a typed I/O timeout, got: {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(3),
        "timed out in {elapsed:?}, not within the configured deadline's order"
    );
    hold.join().expect("holder thread");
}

// ---------------------------------------------------------------------------
// Server-side reaping: handshake and idle deadlines.
// ---------------------------------------------------------------------------

/// A socket that connects and never sends its `HELLO` is reaped on the
/// (short) handshake deadline — counted on `serve.timeouts.idle` — instead
/// of pinning a handler thread for the full idle window.
#[test]
fn handshake_deadline_reaps_preconnect_sockets() {
    let running = start_server(
        PoolConfig::with_threads(1),
        ServeConfig {
            handshake_deadline: Duration::from_millis(120),
            idle_poll: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    let handle = running.handle();

    let stream = TcpStream::connect(running.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("deadline");
    // Send nothing. The server must close on us.
    let mut probe = [0u8; 1];
    let got = (&stream).read(&mut probe).expect("clean EOF, not an error");
    assert_eq!(got, 0, "server hangs up on a handshake that never comes");
    let reaped = wait_for_counter(
        handle.telemetry(),
        "serve.timeouts.idle",
        1,
        Duration::from_secs(2),
    );
    assert!(reaped >= 1, "reap is counted on serve.timeouts.idle");
    running.shutdown().expect("shutdown");
}

/// A handshaken connection that goes quiet at a request boundary is reaped
/// after the idle window.
#[test]
fn idle_connections_are_reaped_at_the_boundary() {
    let running = start_server(
        PoolConfig::with_threads(1),
        ServeConfig {
            idle_timeout: Duration::from_millis(150),
            idle_poll: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    let handle = running.handle();

    let mut stream = TcpStream::connect(running.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("deadline");
    stream
        .write_all(&protocol::client_hello())
        .expect("send hello");
    protocol::read_reply(&mut stream).expect("hello reply");

    // Now say nothing. The keep-alive window expires and the server
    // closes cleanly (nothing is half-sent at a boundary).
    let mut probe = [0u8; 1];
    let got = (&stream).read(&mut probe).expect("clean EOF, not an error");
    assert_eq!(got, 0, "idle connection reaped");
    let reaped = wait_for_counter(
        handle.telemetry(),
        "serve.timeouts.idle",
        1,
        Duration::from_secs(2),
    );
    assert!(reaped >= 1, "reap is counted on serve.timeouts.idle");
    running.shutdown().expect("shutdown");
}

/// A peer that sends a request and then refuses to read its (large) reply
/// trips the write deadline: `serve.timeouts.write` counts it and the
/// connection dies instead of blocking a handler forever.
#[test]
fn unresponsive_reader_trips_the_write_deadline() {
    let running = start_server(
        PoolConfig::with_threads(1),
        ServeConfig {
            write_deadline: Duration::from_millis(200),
            idle_poll: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    let handle = running.handle();

    // Incompressible payload: the reply is at least as large as the body,
    // far past what loopback socket buffers absorb.
    let n = 1 << 20;
    let mut rng = Rng::new(0xD00D);
    let vals: Vec<f64> = (0..n)
        .map(|_| f64::from_bits(rng.next_u64() | 0x3FF0_0000_0000_0000))
        .collect();
    let data = FloatData::from_f64(&vals, vec![n], Domain::TimeSeries).expect("data");

    let mut stream = TcpStream::connect(running.addr()).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .expect("client write deadline");
    stream
        .write_all(&protocol::client_hello())
        .expect("send hello");
    protocol::read_reply(&mut stream).expect("hello reply");

    let mut req = vec![protocol::VERB_COMPRESS];
    frame::put_name("gorilla", &mut req).expect("name");
    frame::put_desc(data.desc(), &mut req).expect("desc");
    req.extend_from_slice(&(1u64 << 16).to_le_bytes());
    stream.write_all(&req).expect("header");
    stream.write_all(data.bytes()).expect("body");
    stream.flush().expect("flush");
    // ... and never read the reply.

    let tripped = wait_for_counter(
        handle.telemetry(),
        "serve.timeouts.write",
        1,
        Duration::from_secs(10),
    );
    assert!(
        tripped >= 1,
        "stuck reply write counted on serve.timeouts.write"
    );
    drop(stream);
    running.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------------
// Load shedding + client retries.
// ---------------------------------------------------------------------------

/// Hold one `COMPRESS` in flight by stalling mid-body on a raw socket.
/// Returns the socket (dropping it releases the slot early).
fn stalled_compress(addr: SocketAddr) -> TcpStream {
    let data = decimal_data(100, 0.0);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&protocol::client_hello())
        .expect("send hello");
    protocol::read_reply(&mut stream).expect("hello reply");
    let mut req = vec![protocol::VERB_COMPRESS];
    frame::put_name("gorilla", &mut req).expect("name");
    frame::put_desc(data.desc(), &mut req).expect("desc");
    req.extend_from_slice(&64u64.to_le_bytes());
    stream.write_all(&req).expect("header");
    // Eight bytes of an 800-byte body, then silence: the handler is now
    // parked in its body read, holding an admission slot.
    stream.write_all(&data.bytes()[..8]).expect("partial body");
    stream.flush().expect("flush");
    stream
}

/// The overload smoke from the issue: past the admission threshold the
/// server sheds with a typed `ERR_BUSY` carrying its retry-after hint, a
/// retrying client eventually gets served, and every leg of the story is
/// on the counters — `serve.requests.shed`, `serve.timeouts.read` (the
/// staller's demise), `client.retries` — with `STATS_V2` and the
/// in-process view telling one consistent story.
#[test]
fn overload_sheds_busy_and_retrying_clients_recover() {
    let running = start_server(
        PoolConfig::with_threads(1).queue_depth(2),
        ServeConfig {
            shed_max_inflight: 1,
            busy_retry_after: Duration::from_millis(30),
            stall_limit: Duration::from_millis(1500),
            idle_poll: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    let addr = running.addr();
    let handle = running.handle();

    // Saturate the single admission slot.
    let staller = stalled_compress(addr);
    std::thread::sleep(Duration::from_millis(150));

    // A plain client (no retries) sees the typed busy refusal, hint intact.
    let mut plain = Client::connect(addr).expect("connect");
    let data = decimal_data(300, 1.0);
    match plain.compress("gorilla", &data, 64) {
        Err(Error::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 30),
        other => panic!("expected ERR_BUSY while saturated, got {other:?}"),
    }

    // A retrying client rides out the saturation: the staller is reaped on
    // its stall limit (counting serve.timeouts.read), the slot frees, and
    // a later attempt succeeds.
    let client_telemetry = Arc::new(Registry::new());
    let config = ClientConfig {
        retry: RetryPolicy {
            max_retries: 12,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(250),
            jitter_seed: 7,
        },
        telemetry: Some(Arc::clone(&client_telemetry)),
        ..ClientConfig::default()
    };
    let mut retrying = Client::connect_with(addr, config).expect("connect");
    let compressed = retrying
        .compress("gorilla", &data, 64)
        .expect("retries outlast the saturation");
    let restored = retrying.decompress(&compressed).expect("roundtrip");
    assert_eq!(restored.bytes(), data.bytes(), "byte-exact after retries");

    assert!(retrying.retries() >= 1, "at least one retry happened");
    assert_eq!(
        client_telemetry.counter("client.retries").get(),
        retrying.retries(),
        "client.retries mirrors the local count"
    );

    let shed = handle.telemetry().counter("serve.requests.shed").get();
    assert!(
        shed >= 2,
        "both clients were shed at least once, got {shed}"
    );
    let read_timeouts = wait_for_counter(
        handle.telemetry(),
        "serve.timeouts.read",
        1,
        Duration::from_secs(3),
    );
    assert!(read_timeouts >= 1, "the staller was reaped mid-body");

    // The wire exposition tells the same story: the shed refusals are
    // failures there too.
    let v2 = retrying.stats_v2().expect("stats v2");
    assert_eq!(v2.counter("serve.requests.shed"), Some(shed));
    let failed = v2.counter("serve.requests.failed").expect("failed counter");
    assert!(failed >= shed, "every shed is a failed request");
    assert_eq!(
        handle.telemetry().counter("serve.requests.failed").get(),
        failed,
        "no failures happened since the snapshot"
    );

    drop(staller);
    drop(plain);
    drop(retrying);
    running.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------------
// Seeded fault plans over full serve round trips.
// ---------------------------------------------------------------------------

/// The chaos server every proxied case talks to, bound once.
fn chaos_server() -> SocketAddr {
    static SERVER: std::sync::OnceLock<RunningServer> = std::sync::OnceLock::new();
    SERVER
        .get_or_init(|| {
            start_server(
                PoolConfig::with_threads(2),
                ServeConfig {
                    // Keep worst-case cases bounded: a desynced peer is
                    // dropped after a short stall, not 30s.
                    stall_limit: Duration::from_secs(2),
                    idle_poll: Duration::from_millis(20),
                    ..ServeConfig::default()
                },
            )
        })
        .addr()
}

/// Copy bytes from `src` to `dst` until EOF or a fault, then shut both
/// underlying sockets down so neither peer can block on the dead path.
fn pump(mut src: impl Read, mut dst: impl Write, a: TcpStream, b: TcpStream) {
    let mut buf = [0u8; 512];
    loop {
        match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if dst.write_all(&buf[..n]).and_then(|()| dst.flush()).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

/// A one-connection TCP proxy that forwards through `FaultyIo` in both
/// directions: the request path runs under `plan`, the reply path under a
/// plan derived from the next seed. Any injected fault tears the whole
/// path down — from the client's side, indistinguishable from a crashed
/// or partitioned server.
fn fault_proxy(upstream: SocketAddr, plan: FaultPlan) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        let Ok((client, _)) = listener.accept() else {
            return;
        };
        let Ok(server) = TcpStream::connect(upstream) else {
            let _ = client.shutdown(Shutdown::Both);
            return;
        };
        let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
            return;
        };
        let (Ok(c3), Ok(s3)) = (client.try_clone(), server.try_clone()) else {
            return;
        };
        let reply_plan = FaultPlan::from_seed(plan.seed().wrapping_add(1));
        std::thread::spawn(move || {
            pump(client, FaultyIo::new(server, plan), c2, s2);
        });
        std::thread::spawn(move || {
            pump(
                FaultyIo::new(s3.try_clone().expect("clone"), reply_plan),
                c3.try_clone().expect("clone"),
                c3,
                s3,
            );
        });
    });
    addr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole chaos property on the serve path: under **any** seeded
    /// fault plan injected into the connection, a round trip either
    /// succeeds byte-exactly or fails with a typed error — never a hang,
    /// never a panic — and the server is still serving fresh connections
    /// immediately afterwards.
    #[test]
    fn seeded_fault_plans_over_serve_roundtrips(seed in any::<u64>()) {
        let plan = FaultPlan::from_seed(seed);
        plan.note_seed();
        let upstream = chaos_server();
        let proxy = fault_proxy(upstream, plan.clone());

        let data = decimal_data(160, (seed % 17) as f64);
        let config = ClientConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            ..ClientConfig::default()
        };
        let outcome = Client::connect_with(proxy, config).and_then(|mut c| {
            let compressed = c.compress("gorilla", &data, 64)?;
            c.decompress(&compressed)
        });
        // An Err outcome is typed by construction: it came back through
        // `Result`. Only a success has more to prove.
        if let Ok(restored) = outcome {
            prop_assert_eq!(
                restored.bytes(),
                data.bytes(),
                "{}: a successful round trip must be byte-exact",
                plan.seed_string()
            );
        }

        // The server shrugged the fault off: a direct connection serves.
        let mut direct = Client::connect(upstream)
            .unwrap_or_else(|e| panic!("{}: server must keep accepting: {e}", plan.seed_string()));
        let compressed = direct
            .compress("gorilla", &data, 64)
            .unwrap_or_else(|e| panic!("{}: server must keep serving: {e}", plan.seed_string()));
        let restored = direct
            .decompress(&compressed)
            .unwrap_or_else(|e| panic!("{}: server must keep serving: {e}", plan.seed_string()));
        prop_assert_eq!(restored.bytes(), data.bytes());
    }
}
