//! `fcbench-serve` integration: many concurrent loopback clients sharing
//! ONE warm `WorkerPool` engine — byte-exact compress→decompress round
//! trips across all 14 registered codecs, no deadlock even on a nearly
//! starved pool — and hostile inputs (garbage handshake, truncated
//! streams, petabyte-claiming records) that fail their request with a
//! typed error while the server keeps serving everyone else.

use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::{frame, Domain, Error, FloatData};
use fcbench::serve::{protocol, Client, RunningServer, ServeConfig, Server};
use fcbench_bench::codecs::paper_registry;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

/// Benign two-decimal telemetry every codec (including BUFF) accepts.
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

#[test]
fn concurrent_clients_share_one_engine_with_byte_exact_roundtrips() {
    // A deliberately tight engine: 2 workers, 4 job slots, while 14
    // clients stream concurrently. The per-connection in-flight cap plus
    // the drain-own-oldest discipline must keep this deadlock-free.
    let running = start_server(
        PoolConfig::with_threads(2).queue_depth(4),
        ServeConfig {
            max_inflight_per_conn: 2,
            ..ServeConfig::default()
        },
    );
    let addr = running.addr();

    let names = paper_registry().names();
    assert_eq!(names.len(), 14);
    let workers: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let name = name.to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let data = decimal_data(700 + 13 * i, i as f64);
                // Mixed verbs on every connection: compress, then
                // decompress the result, then sanity-query the catalogue.
                let compressed = client
                    .compress(&name, &data, 64)
                    .unwrap_or_else(|e| panic!("{name}: compress: {e}"));
                let restored = client
                    .decompress(&compressed)
                    .unwrap_or_else(|e| panic!("{name}: decompress: {e}"));
                assert_eq!(restored.bytes(), data.bytes(), "{name}: byte-exact");
                assert_eq!(restored.desc(), data.desc(), "{name}: descriptor");
                let listed = client.list_codecs().expect("list");
                assert!(listed.iter().any(|l| l.name == name), "{name} listed");
                data.bytes().len()
            })
        })
        .collect();
    let mut raw_bytes = 0usize;
    for w in workers {
        raw_bytes += w.join().expect("client thread");
    }

    let telemetry = running.handle().telemetry().snapshot();
    // 14 compress + 14 decompress + 14 list = 42 successful requests.
    assert_eq!(telemetry.counter("serve.requests.ok"), Some(42));
    assert_eq!(telemetry.counter("serve.requests.failed"), Some(0));
    assert_eq!(telemetry.counter("serve.connections.accepted"), Some(14));
    let bytes_in = telemetry.counter("serve.bytes.in").unwrap_or(0);
    assert!(
        bytes_in as usize > raw_bytes,
        "bytes_in {bytes_in} must exceed the raw payloads {raw_bytes}"
    );
    assert!(telemetry.counter("serve.bytes.out").unwrap_or(0) > 0);
    // Every codec served exactly one compress and one decompress.
    for name in &names {
        let count = telemetry.counter(&format!("serve.requests.codec.{name}"));
        assert_eq!(count, Some(2), "{name} request count");
    }
    // ...and every row's blocks, the GPU-simulated ones included, ran as
    // jobs on the shared pool.
    for name in &names {
        let jobs = telemetry
            .histogram(&format!("pool.exec.codec.{name}"))
            .map_or(0, |h| h.count());
        assert!(jobs >= 2, "{name}: {jobs} pool jobs");
    }
    running.shutdown().expect("graceful shutdown");
}

#[test]
fn eight_clients_hammer_one_codec_on_a_starved_pool() {
    // All clients on the same codec, saturating a 1-thread
    // 2-slot engine from 8 directions with several round trips each.
    let running = start_server(
        PoolConfig::with_threads(1).queue_depth(2),
        ServeConfig {
            max_inflight_per_conn: 1,
            ..ServeConfig::default()
        },
    );
    let addr = running.addr();
    let workers: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3 {
                    let data = decimal_data(400 + 31 * i + round, (i + round) as f64);
                    let restored = client
                        .roundtrip("chimp128", &data, 32)
                        .unwrap_or_else(|e| panic!("client {i} round {round}: {e}"));
                    assert_eq!(restored.bytes(), data.bytes(), "client {i} round {round}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let stats = running.handle().telemetry().snapshot();
    assert_eq!(stats.counter("serve.requests.ok"), Some(8 * 3 * 2));
    running.shutdown().expect("graceful shutdown");
}

#[test]
fn hostile_inputs_fail_the_request_not_the_server() {
    let running = start_server(
        PoolConfig::with_threads(2),
        ServeConfig {
            max_request_bytes: 1 << 20,
            ..ServeConfig::default()
        },
    );
    let addr = running.addr();
    let data = decimal_data(500, 0.0);

    // 1. Garbage handshake: a typed protocol error, that connection only.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(b"GARBAG").expect("write garbage hello");
        let err = protocol::read_reply(&mut raw).expect_err("garbage magic must fail");
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    }

    // 1b. An unknown verb — including 4, reserved since the fixed-layout
    //     counters reply was retired for STATS_V2: a typed protocol error,
    //     that connection only.
    for verb in [4u8, 0xEE] {
        let mut client = Client::connect(addr).expect("connect");
        let err = client
            .send_raw(&[verb])
            .expect_err("unknown verb must fail");
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("unknown request verb")),
            "got {err:?}"
        );
    }

    // 2. Unknown codec: the typed registry error crosses the wire with the
    //    available-name listing, and the SAME connection keeps serving.
    {
        let mut client = Client::connect(addr).expect("connect");
        let err = client
            .compress("zstd-22", &data, 64)
            .expect_err("unknown codec must fail");
        match &err {
            Error::UnknownCodec {
                requested,
                available,
            } => {
                assert_eq!(requested, "zstd-22");
                assert_eq!(available.len(), 14);
                assert!(available.iter().any(|n| n == "gorilla"));
            }
            other => panic!("expected UnknownCodec, got {other:?}"),
        }
        let compressed = client
            .compress("gorilla", &data, 64)
            .expect("same connection serves the next request");
        assert_eq!(
            client.decompress(&compressed).unwrap().bytes(),
            data.bytes()
        );
    }

    // 2b. An oversized-but-honest request: the handshake advertised the
    //     server's cap, so the client refuses locally with the typed error
    //     instead of streaming a body the server would cut off — and the
    //     connection stays usable.
    {
        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(client.server_max_request_bytes(), 1 << 20);
        let big = decimal_data(200_000, 0.0); // 1.6 MB > the 1 MiB cap
        let err = client
            .compress("gorilla", &big, 4096)
            .expect_err("oversized request must fail");
        assert!(matches!(err, Error::Unsupported(_)), "got {err:?}");
        let restored = client.roundtrip("gorilla", &data, 64).unwrap();
        assert_eq!(restored.bytes(), data.bytes());
    }

    // 3. Petabyte-claiming COMPRESS record: 2^50 doubles claimed. The
    //    server must refuse before reserving anything; the connection
    //    closes (the body cannot be skipped) but the server lives on.
    {
        let mut client = Client::connect(addr).expect("connect");
        let huge = fcbench::core::DataDesc::new(
            fcbench::core::Precision::Double,
            vec![1usize << 50],
            Domain::Hpc,
        )
        .unwrap();
        let mut req = vec![protocol::VERB_COMPRESS];
        frame::put_name("gorilla", &mut req).unwrap();
        frame::put_desc(&huge, &mut req).unwrap();
        req.extend_from_slice(&64u64.to_le_bytes());
        let err = client.send_raw(&req).expect_err("petabyte claim must fail");
        assert!(matches!(err, Error::Unsupported(_)), "got {err:?}");
    }

    // 4. Petabyte-claiming DECOMPRESS length prefix.
    {
        let mut client = Client::connect(addr).expect("connect");
        let mut req = vec![protocol::VERB_DECOMPRESS];
        req.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = client.send_raw(&req).expect_err("absurd length must fail");
        assert!(matches!(err, Error::Unsupported(_)), "got {err:?}");
    }

    // 5. FCB3 stream truncated mid-payload: typed error, same connection
    //    then completes a real request (the body was length-prefixed, so
    //    framing held).
    {
        let mut client = Client::connect(addr).expect("connect");
        let compressed = client.compress("gorilla", &data, 64).expect("compress");
        let cut = &compressed[..compressed.len() - 7];
        let err = client
            .decompress(cut)
            .expect_err("truncated stream must fail");
        assert!(
            matches!(err, Error::Corrupt(_) | Error::Io(_)),
            "got {err:?}"
        );
        let restored = client
            .decompress(&compressed)
            .expect("same connection serves the intact stream");
        assert_eq!(restored.bytes(), data.bytes());
    }

    // 6. FCB3 stream whose prologue claims a huge decoded size from a tiny
    //    body: refused by the whole-stream claim gate, connection survives.
    {
        let mut client = Client::connect(addr).expect("connect");
        let huge = fcbench::core::DataDesc::new(
            fcbench::core::Precision::Double,
            vec![1usize << 40],
            Domain::Hpc,
        )
        .unwrap();
        let prologue = fcbench::core::frame::encode_stream_header("gorilla", &huge, 64).unwrap();
        let err = client
            .decompress(&prologue)
            .expect_err("huge decode claim must fail");
        assert!(matches!(err, Error::Unsupported(_)), "got {err:?}");
        let restored = client.roundtrip("chimp128", &data, 64).unwrap();
        assert_eq!(restored.bytes(), data.bytes());
    }

    // After all that abuse the server still serves fresh connections, and
    // the failures were counted.
    let mut client = Client::connect(addr).expect("connect");
    let restored = client.roundtrip("gorilla", &data, 64).expect("roundtrip");
    assert_eq!(restored.bytes(), data.bytes());
    let stats = client.stats_v2().expect("stats");
    let failed = stats.counter("serve.requests.failed").unwrap_or(0);
    assert!(failed >= 8, "failed requests counted: {failed}");
    assert!(stats.counter("serve.requests.ok").unwrap_or(0) >= 8);
    drop(client);
    running.shutdown().expect("graceful shutdown");
}

#[test]
fn compress_header_fields_are_checked_with_typed_replies() {
    let running = start_server(PoolConfig::with_threads(1), ServeConfig::default());
    let data = decimal_data(100, 0.0);
    let compress = |block_elems: u64| {
        let mut req = vec![protocol::VERB_COMPRESS];
        frame::put_name("gorilla", &mut req).unwrap();
        frame::put_desc(data.desc(), &mut req).unwrap();
        req.extend_from_slice(&block_elems.to_le_bytes());
        req.extend_from_slice(data.bytes());
        req
    };
    let mut client = Client::connect(running.addr()).expect("connect");
    // A zero block size is refused after the body is consumed, so the same
    // connection then serves a real round trip.
    let err = client.send_raw(&compress(0)).expect_err("zero block size");
    assert!(matches!(err, Error::BadDescriptor(_)), "got {err:?}");
    let restored = client.roundtrip("gorilla", &data, 64).expect("roundtrip");
    assert_eq!(restored.bytes(), data.bytes());
    // u64::MAX is wider than a 32-bit address space (refused the same way);
    // on a 64-bit host it is one block holding every element.
    let reply = client.send_raw(&compress(u64::MAX));
    if usize::try_from(u64::MAX).is_ok() {
        let stream = reply.expect("a one-block stream");
        assert_eq!(client.decompress(&stream).unwrap().bytes(), data.bytes());
    } else {
        assert!(matches!(reply, Err(Error::BadDescriptor(_))), "{reply:?}");
    }
    let restored = client.roundtrip("gorilla", &data, 64).expect("roundtrip");
    assert_eq!(restored.bytes(), data.bytes());

    // A zero-extent dimension is corrupt, like no dimensions at all: the
    // header cannot be trusted, so the reply closes the connection.
    for dims in [&[0u64][..], &[]] {
        let mut client = Client::connect(running.addr()).expect("connect");
        let mut req = vec![protocol::VERB_COMPRESS];
        frame::put_name("gorilla", &mut req).unwrap();
        req.extend_from_slice(&[1, 1, dims.len() as u8]);
        for d in dims.iter().chain(&[64]) {
            req.extend_from_slice(&d.to_le_bytes());
        }
        let err = client.send_raw(&req).expect_err("corrupt descriptor");
        assert!(matches!(err, Error::Corrupt(_)), "{dims:?}: got {err:?}");
    }
    running.shutdown().expect("graceful shutdown");
}

#[test]
fn mid_body_disconnects_count_as_failed_requests_and_server_survives() {
    let running = start_server(PoolConfig::with_threads(1), ServeConfig::default());
    let addr = running.addr();
    let failed = || {
        running
            .handle()
            .telemetry()
            .counter("serve.requests.failed")
            .get()
    };
    let before = failed();
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&protocol::client_hello()).expect("hello");
        protocol::read_reply(&mut raw).expect("handshake reply");
        let data = decimal_data(512, 0.0);
        let mut req = vec![protocol::VERB_COMPRESS];
        frame::put_name("gorilla", &mut req).unwrap();
        frame::put_desc(data.desc(), &mut req).unwrap();
        req.extend_from_slice(&64u64.to_le_bytes());
        req.extend_from_slice(&data.bytes()[..100]); // partial body...
        raw.write_all(&req).expect("partial request");
    } // ...then vanish mid-body.
      // The handler hits EOF mid-body and must book the in-flight request
      // as failed (it consumed server work and got no reply).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while failed() == before {
        assert!(
            std::time::Instant::now() < deadline,
            "mid-body disconnect was never counted as a failed request"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // And the server keeps serving fresh connections.
    let mut client = Client::connect(addr).expect("connect");
    let data = decimal_data(300, 1.0);
    let restored = client.roundtrip("gorilla", &data, 64).expect("roundtrip");
    assert_eq!(restored.bytes(), data.bytes());
    drop(client);
    running.shutdown().expect("graceful shutdown");
}

#[test]
fn own_compress_output_decompresses_back_despite_expansion() {
    // Incompressible input makes codecs EXPAND: the compressed stream is
    // larger than the raw bytes that produced it. The DECOMPRESS gate
    // must leave headroom over max_request_bytes (protocol::stream_cap)
    // or a server could emit streams it then refuses to take back.
    let raw_cap = 64 * 1024;
    let running = start_server(
        PoolConfig::with_threads(2),
        ServeConfig {
            max_request_bytes: raw_cap,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(running.addr()).expect("connect");
    // Mantissa-noise doubles (LCG bits, exponent pinned to stay finite)
    // that XOR-based codecs cannot shrink; raw size == the cap exactly.
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let vals: Vec<f64> = (0..raw_cap / 8)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            f64::from_bits((state & !(0x7FFu64 << 52)) | (1023u64 << 52))
        })
        .collect();
    let data = FloatData::from_f64(&vals, vec![vals.len()], Domain::Hpc).unwrap();
    let wire = client.compress("gorilla", &data, 64).expect("compress");
    assert!(
        wire.len() > raw_cap,
        "test premise: the stream must expand past the raw cap (got {} <= {raw_cap})",
        wire.len()
    );
    let restored = client.decompress(&wire).expect(
        "a stream this server produced from an in-cap request must decompress back through it",
    );
    assert_eq!(restored.bytes(), data.bytes());

    // Worst legal framing overhead: block_elems = 1 puts an 8-byte record
    // length on every 8-byte block — roughly 2x before the codec even
    // runs. Still the server's own output, still must round-trip.
    let wire = client
        .compress("gorilla", &data, 1)
        .expect("single-element blocks are legal");
    assert!(wire.len() > 2 * raw_cap, "premise: ~2x framing expansion");
    let restored = client
        .decompress(&wire)
        .expect("worst-case block size must still round-trip");
    assert_eq!(restored.bytes(), data.bytes());
    drop(client);
    running.shutdown().expect("graceful shutdown");
}

#[test]
fn compressed_streams_interoperate_with_local_frame_io() {
    // What the server returns is a plain FCB3 stream: a local FrameReader
    // decodes it, and a locally written stream decompresses server-side.
    let running = start_server(PoolConfig::with_threads(2), ServeConfig::default());
    let addr = running.addr();
    let registry = paper_registry();
    let gorilla = registry.get("gorilla").expect("registered codec");
    let data = decimal_data(900, 1.5);

    let mut client = Client::connect(addr).expect("connect");
    let served = client.compress("gorilla", &data, 128).expect("compress");
    let mut reader =
        fcbench::core::FrameReader::new(&served[..], Arc::clone(&gorilla), None).expect("reader");
    let mut local = Vec::new();
    while let Some(block) = reader.next_block().expect("local decode") {
        local.extend_from_slice(block);
    }
    assert_eq!(local, data.bytes());

    let mut writer = fcbench::core::FrameWriter::new(
        Vec::new(),
        Arc::clone(&gorilla),
        data.desc().clone(),
        128,
        None,
    )
    .expect("writer");
    writer.write(data.bytes()).expect("write");
    let local_stream = writer.finish().expect("finish");
    let restored = client.decompress(&local_stream).expect("server decode");
    assert_eq!(restored.bytes(), data.bytes());

    drop(client);
    running.shutdown().expect("graceful shutdown");
}

#[test]
fn stats_v2_carries_layered_latency_histograms_over_the_wire() {
    let running = start_server(PoolConfig::with_threads(2), ServeConfig::default());
    let addr = running.addr();

    let mut client = Client::connect(addr).expect("connect");
    let data = decimal_data(600, 0.3);
    for _ in 0..4 {
        let restored = client.roundtrip("gorilla", &data, 64).expect("roundtrip");
        assert_eq!(restored.bytes(), data.bytes());
    }
    let v2 = client.stats_v2().expect("stats v2");

    // The serving counters ride the registry body, and agree with the
    // in-process view of the same handles. (The snapshot is taken before
    // the STATS_V2 request counts itself.)
    assert_eq!(v2.counter("serve.requests.ok"), Some(8));
    assert_eq!(v2.counter("serve.requests.codec.gorilla"), Some(8));
    assert_eq!(v2.gauge("serve.connections.active"), Some(1));
    let local = running.handle().telemetry().snapshot();
    assert_eq!(
        local.counter("serve.requests.ok"),
        Some(9),
        "the STATS_V2 request has counted by now"
    );
    assert_eq!(local.counter("serve.requests.failed"), Some(0));

    // Serve-layer latency histograms crossed the wire with usable
    // quantiles: 4 compress + 4 decompress requests were timed.
    let compress = v2.histogram("serve.request.compress").expect("histogram");
    assert_eq!(compress.count(), 4);
    assert!(compress.p99() >= compress.p50());
    assert!(compress.max() > 0);
    assert_eq!(
        v2.histogram("serve.request.decompress")
            .expect("histogram")
            .count(),
        4
    );
    let codec_hist = v2
        .histogram("serve.request.codec.gorilla")
        .expect("per-codec histogram");
    assert_eq!(codec_hist.count(), 8);

    // Engine metrics from the layers below ride the same body: gorilla's
    // blocks, like every codec's, crossed the worker pool.
    assert!(v2.counter("pool.drain.stalls").is_some());
    assert!(v2.histogram("pool.exec").expect("pool.exec").count() > 0);
    assert!(
        v2.histogram("pool.exec.codec.gorilla")
            .expect("per-codec pool histogram")
            .count()
            > 0
    );
    assert!(v2.histogram("pool.queue_wait").expect("queue wait").count() > 0);

    // Phase breakdown sums to less than the verb totals measured around it.
    let engine = v2.histogram("serve.phase.engine").expect("engine phase");
    assert_eq!(engine.count(), 8);

    drop(client);
    running.shutdown().expect("graceful shutdown");
}
