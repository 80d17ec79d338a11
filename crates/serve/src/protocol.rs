//! The `FCS1` wire protocol shared by [`Server`](crate::Server) and
//! [`Client`](crate::Client).
//!
//! `FCS1` is a small length-prefixed binary protocol over TCP (all integers
//! little-endian). A connection opens with a handshake, then carries any
//! number of requests in sequence:
//!
//! ```text
//! client hello     magic "FCS1" + u16 version
//! server reply     status u8 (0 = ok) + u64 body len + body
//!                  (ok body: magic "FCS1" + u16 negotiated version)
//!
//! request          verb u8, then verb-specific header/payload:
//!   1 COMPRESS     the FCB3 prologue after its magic (`fcbench_core::frame`):
//!                  u8 name len + codec name, descriptor, u64 block elems;
//!                  then exactly desc.byte_len() raw element bytes
//!   2 DECOMPRESS   u64 stream len, then an FCB3 stream (self-describing:
//!                  its prologue names the codec, shape, and block size)
//!   3 LIST_CODECS  (no payload)
//!   4              reserved (refused as an unknown verb)
//!   5 STATS_V2     (no payload)
//!
//! descriptor       u8 precision (0 single / 1 double), u8 domain (0..=3),
//!                  u8 ndims, ndims x u64 dims (the FCB3 prologue's)
//!
//! reply            status u8 + u64 body len + body
//!   COMPRESS ok    the compressed FCB3 stream
//!   DECOMPRESS ok  descriptor, then the raw element bytes
//!   LIST_CODECS ok u16 count, per codec: u8 name len + name + u8 flags
//!                  (bit 0 thread-scalable, i.e. a CPU method; bit 1
//!                  block-capable)
//!   STATS_V2 ok    the server's full telemetry registry snapshot:
//!                  u16 counter count + (u16 name len + name + u64) each,
//!                  u16 gauge count   + (u16 name len + name + u64) each,
//!                  u16 histogram count + per histogram: u16 name len +
//!                  name + u64 total count + u64 sum + u64 max + u16
//!                  nonzero-bucket count + (u16 bucket index + u64 bucket
//!                  count) each — sparse, so an idle histogram costs a
//!                  few bytes, not its full 1312-bucket table
//!   error          status is an error code; body is the UTF-8 message,
//!                  except UNKNOWN_CODEC whose body is structured so the
//!                  client rebuilds the typed error (u16 requested len +
//!                  requested + u16 count + (u16 len + name) each), and
//!                  BUSY (code 8) whose body leads with a u64 retry-after
//!                  hint in milliseconds (then the message) — the server
//!                  shed the request under load; retry after the hint
//! ```
//!
//! Every error is a *request* failure: the server replies and (whenever the
//! request body was fully consumed, so framing is intact) keeps serving the
//! connection. Only unrecoverable framing — garbage handshake, unknown
//! verb, a body too large to skip — closes the connection, and never the
//! server.

#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use fcbench_core::{frame, wire, DataDesc, Error, Result};
use fcbench_telemetry::{HistogramSnapshot, Snapshot};
use std::io::{Read, Write};
use std::sync::Arc;

/// Protocol magic, first on the wire in both directions.
pub(crate) const MAGIC: &[u8; 4] = b"FCS1";

/// Protocol version spoken by this build.
pub(crate) const VERSION: u16 = 1;

/// Request verbs.
pub const VERB_COMPRESS: u8 = 1;
pub const VERB_DECOMPRESS: u8 = 2;
pub(crate) const VERB_LIST_CODECS: u8 = 3;
// Verb 4 is reserved (an earlier stats verb used it, so it is never
// reassigned) and is refused like any unknown verb.
pub(crate) const VERB_STATS_V2: u8 = 5;

/// Reply status codes. `0` is success; everything else maps onto a
/// [`fcbench_core::Error`] variant on the client side.
pub(crate) const STATUS_OK: u8 = 0;
pub(crate) const ERR_PROTOCOL: u8 = 1;
pub(crate) const ERR_UNKNOWN_CODEC: u8 = 2;
pub(crate) const ERR_BAD_DESCRIPTOR: u8 = 3;
pub(crate) const ERR_UNSUPPORTED: u8 = 4;
pub(crate) const ERR_CORRUPT: u8 = 5;
pub(crate) const ERR_WORKER_PANIC: u8 = 6;
pub(crate) const ERR_IO: u8 = 7;
/// The server shed the request under load; the body carries a u64
/// retry-after hint (milliseconds) followed by the display message.
pub(crate) const ERR_BUSY: u8 = 8;

/// Ceiling a client accepts for one reply body (a compressed stream never
/// legitimately expands a request beyond the reader-side record caps).
pub(crate) const MAX_REPLY_BYTES: usize = 1 << 30;

/// The `DECOMPRESS` stream-byte ceiling implied by a raw-byte ceiling.
///
/// `COMPRESS` caps *raw element bytes* at `max_request_bytes`, but a codec
/// may expand incompressible input, and the `FCB3` framing adds per-block
/// record headers — so a stream the server itself produced from an in-cap
/// request can exceed `max_request_bytes`. The worst legal case is
/// `block_elems = 1`: one record per element, where the frame layer's own
/// decode gate tolerates up to 8x per-block payload expansion plus an
/// 8-byte record length per 8-byte block — ≤ 9x the raw bytes overall.
/// Capping at that bound (plus a fixed prologue allowance) keeps every
/// stream this server could produce from an in-cap request decompressible
/// on the same server, while costing nothing real: stream bytes are read
/// incrementally as they arrive ([`read_sized`]), and the stream's
/// *decoded-size* claim — the allocation that matters — is still gated at
/// `max_request_bytes`. Both endpoints use this one formula: the server to
/// size `read_sized`, the client to refuse locally.
pub(crate) fn stream_cap(max_request_bytes: u64) -> u64 {
    max_request_bytes.saturating_mul(9).saturating_add(1 << 16)
}

/// The typed error for a failed message read: running out of bytes is a
/// truncated message, anything else an I/O failure.
fn read_error(e: std::io::Error) -> Error {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        Error::Corrupt("connection closed mid-message".into())
    } else {
        Error::Io(e.to_string())
    }
}

/// Read exactly `buf.len()` bytes, mapping I/O failures to typed errors.
pub(crate) fn read_exact<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<()> {
    src.read_exact(buf).map_err(read_error)
}

/// A name or descriptor parsed out of an in-memory reply body through the
/// shared `Read`-based codec: running out of bytes there is a malformed
/// body, not an I/O failure.
pub(crate) fn in_body<T>(parsed: Result<T>) -> Result<T> {
    parsed.map_err(|e| match e {
        Error::Io(_) => Error::Corrupt("reply body truncated".into()),
        other => other,
    })
}

pub(crate) fn read_u8<R: Read>(src: &mut R) -> Result<u8> {
    let mut b = [0u8; 1];
    read_exact(src, &mut b)?;
    Ok(b[0])
}

pub(crate) fn read_u16<R: Read>(src: &mut R) -> Result<u16> {
    let mut b = [0u8; 2];
    read_exact(src, &mut b)?;
    Ok(u16::from_le_bytes(b))
}

pub(crate) fn read_u64<R: Read>(src: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    read_exact(src, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Read a length-prefixed buffer, rejecting declared lengths above `cap`
/// before allocating for them; the buffer grows as bytes actually arrive
/// ([`wire::read_growing`]), so a 9-byte request *claiming* a huge (but
/// in-cap) body cannot pin that allocation while sending nothing.
pub(crate) fn read_sized<R: Read>(src: &mut R, cap: usize) -> Result<Vec<u8>> {
    let len = read_u64(src)?;
    let len = usize::try_from(len)
        .ok()
        .filter(|&l| l <= cap)
        .ok_or_else(|| {
            Error::Unsupported(format!(
                "message declares {len} bytes but this endpoint accepts at most {cap}"
            ))
        })?;
    let mut buf = Vec::new();
    wire::read_growing(src, len, &mut buf).map_err(read_error)?;
    Ok(buf)
}

/// The `COMPRESS` request head: the verb, then the `FCB3` prologue after
/// its magic. The block size goes out unchecked — the server answers a bad
/// one with a typed reply.
pub(crate) fn compress_head(codec: &str, desc: &DataDesc, block_elems: u64) -> Result<Vec<u8>> {
    let mut head = vec![VERB_COMPRESS];
    frame::put_name(codec, &mut head)?;
    frame::put_desc(desc, &mut head)?;
    head.extend_from_slice(&block_elems.to_le_bytes());
    Ok(head)
}

/// Read a `COMPRESS` head after its verb: `(codec, descriptor, block elems)`.
pub(crate) fn read_compress_head<R: Read>(src: &mut R) -> Result<(String, DataDesc, u64)> {
    let name = frame::read_name(src)?;
    let desc = frame::read_desc(src)?;
    Ok((name, desc, read_u64(src)?))
}

/// The client hello: magic plus the version the client speaks.
pub fn client_hello() -> [u8; 6] {
    let mut h = [0u8; 6];
    h[..4].copy_from_slice(MAGIC);
    h[4..].copy_from_slice(&VERSION.to_le_bytes());
    h
}

/// Validate a client hello; returns the client's version.
pub(crate) fn check_client_hello(hello: &[u8; 6]) -> Result<u16> {
    if &hello[..4] != MAGIC {
        return Err(Error::Corrupt(format!(
            "bad protocol magic {:?} (expected {MAGIC:?})",
            &hello[..4]
        )));
    }
    let version = u16::from_le_bytes([hello[4], hello[5]]);
    if version != VERSION {
        return Err(Error::Unsupported(format!(
            "protocol version {version} is not supported (server speaks {VERSION})"
        )));
    }
    Ok(version)
}

/// Body of the server's OK handshake reply: the echoed hello plus the
/// server's request-size ceiling, so clients can refuse oversized
/// requests with a typed error *before* streaming a body the server will
/// only cut off.
pub(crate) fn hello_body(max_request_bytes: u64) -> Vec<u8> {
    let mut body = client_hello().to_vec();
    body.extend_from_slice(&max_request_bytes.to_le_bytes());
    body
}

/// Validate the server's handshake body; returns the negotiated version
/// and the server's advertised request-size ceiling.
pub(crate) fn check_hello_body(body: &[u8]) -> Result<(u16, u64)> {
    if body.len() != 14 {
        return Err(Error::Corrupt("handshake reply has a wrong length".into()));
    }
    let hello = body
        .first_chunk::<6>()
        .ok_or_else(|| Error::Corrupt("handshake reply has a wrong length".into()))?;
    let version = check_client_hello(hello)?;
    let max = fcbench_core::wire::le_u64(body, 6)?;
    Ok((version, max))
}

/// The wire status code for an error.
pub(crate) fn error_code(err: &Error) -> u8 {
    match err {
        Error::UnknownCodec { .. } => ERR_UNKNOWN_CODEC,
        Error::BadDescriptor(_) => ERR_BAD_DESCRIPTOR,
        Error::Unsupported(_) | Error::UnsupportedPrecision { .. } => ERR_UNSUPPORTED,
        Error::WorkerPanic(_) => ERR_WORKER_PANIC,
        Error::Io(_) => ERR_IO,
        Error::Busy { .. } => ERR_BUSY,
        Error::Corrupt(_)
        | Error::ChecksumMismatch { .. }
        | Error::LosslessViolation { .. }
        | Error::NameTooLong { .. }
        | Error::TooManyDims { .. } => ERR_CORRUPT,
    }
}

/// `n` as a little-endian u16, saturated at `u16::MAX`: the encoders cut
/// every u16-counted list and string to that many entries.
fn sat16(n: usize) -> [u8; 2] {
    u16::try_from(n).unwrap_or(u16::MAX).to_le_bytes()
}

/// Encode an error reply body. [`Error::UnknownCodec`] is structured so the
/// client reconstructs the typed error (with the available-codec listing);
/// every other code carries its display message.
pub(crate) fn encode_error_body(err: &Error) -> Vec<u8> {
    match err {
        Error::UnknownCodec {
            requested,
            available,
        } => {
            let mut body = Vec::new();
            body.extend_from_slice(&sat16(requested.len()));
            body.extend(requested.bytes().take(u16::MAX as usize));
            body.extend_from_slice(&sat16(available.len()));
            for name in available.iter().take(u16::MAX as usize) {
                body.extend_from_slice(&sat16(name.len()));
                body.extend(name.bytes().take(u16::MAX as usize));
            }
            body
        }
        Error::Busy { retry_after_ms } => {
            let mut body = Vec::new();
            body.extend_from_slice(&retry_after_ms.to_le_bytes());
            body.extend_from_slice(err.to_string().as_bytes());
            body
        }
        other => other.to_string().into_bytes(),
    }
}

/// Rebuild the typed error from a non-OK reply.
pub(crate) fn decode_error(code: u8, body: &[u8]) -> Error {
    if code == ERR_UNKNOWN_CODEC {
        if let Some(err) = decode_unknown_codec(body) {
            return err;
        }
        return Error::Corrupt("malformed unknown-codec reply".into());
    }
    if code == ERR_BUSY {
        // Structured: the retry-after hint leads, the display message
        // trails (and is ignored — the typed error regenerates it).
        return match body.first_chunk::<8>() {
            Some(ms) => Error::Busy {
                retry_after_ms: u64::from_le_bytes(*ms),
            },
            None => Error::Corrupt("malformed busy reply".into()),
        };
    }
    let msg = String::from_utf8_lossy(body).into_owned();
    match code {
        ERR_PROTOCOL | ERR_CORRUPT => Error::Corrupt(msg),
        ERR_BAD_DESCRIPTOR => Error::BadDescriptor(msg),
        ERR_UNSUPPORTED => Error::Unsupported(msg),
        ERR_WORKER_PANIC => Error::WorkerPanic(msg),
        ERR_IO => Error::Io(msg),
        other => Error::Corrupt(format!("unknown error code {other}: {msg}")),
    }
}

fn decode_unknown_codec(body: &[u8]) -> Option<Error> {
    let mut src = body;
    let take_str = |src: &mut &[u8]| -> Option<String> {
        let len = usize::from(read_u16(src).ok()?);
        if src.len() < len {
            return None;
        }
        let (head, rest) = src.split_at(len);
        let s = String::from_utf8(head.to_vec()).ok()?;
        *src = rest;
        Some(s)
    };
    let requested = take_str(&mut src)?;
    let count = usize::from(read_u16(&mut src).ok()?);
    // lint: claim-checked(count is u16-bounded, at most 65535 entries)
    let mut available = Vec::with_capacity(count);
    for _ in 0..count {
        available.push(take_str(&mut src)?);
    }
    src.is_empty().then_some(Error::UnknownCodec {
        requested,
        available,
    })
}

/// One row of a `LIST_CODECS` reply: the codec name plus the registry
/// capabilities a client cares about when picking a method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecListing {
    pub name: String,
    /// Is this a CPU method (Table 1's platform split)? Every codec's
    /// blocks run on the server's pool; the flag keeps its wire name.
    pub thread_scalable: bool,
    /// Is the codec driven block-at-a-time (Table 10's set)?
    pub block_capable: bool,
}

const FLAG_THREAD_SCALABLE: u8 = 1;
const FLAG_BLOCK_CAPABLE: u8 = 2;

/// Encode a `LIST_CODECS` reply body. Errors (`NameTooLong`) rather than
/// silently truncating a name the client would then decode differently.
pub(crate) fn encode_listings(listings: &[CodecListing]) -> Result<Vec<u8>> {
    let mut body = Vec::new();
    body.extend_from_slice(&sat16(listings.len()));
    for l in listings.iter().take(u16::MAX as usize) {
        frame::put_name(&l.name, &mut body)?;
        let mut flags = 0u8;
        if l.thread_scalable {
            flags |= FLAG_THREAD_SCALABLE;
        }
        if l.block_capable {
            flags |= FLAG_BLOCK_CAPABLE;
        }
        body.push(flags);
    }
    Ok(body)
}

/// Decode a `LIST_CODECS` reply body.
pub(crate) fn decode_listings(body: &[u8]) -> Result<Vec<CodecListing>> {
    let mut src = body;
    let count = usize::from(read_u16(&mut src)?);
    // lint: claim-checked(count is u16-bounded, at most 65535 small rows)
    let mut listings = Vec::with_capacity(count);
    for _ in 0..count {
        let name = in_body(frame::read_name(&mut src))?;
        let flags = read_u8(&mut src)?;
        listings.push(CodecListing {
            name,
            thread_scalable: flags & FLAG_THREAD_SCALABLE != 0,
            block_capable: flags & FLAG_BLOCK_CAPABLE != 0,
        });
    }
    if !src.is_empty() {
        return Err(Error::Corrupt("trailing bytes after codec listing".into()));
    }
    Ok(listings)
}

/// Append a u16-length-prefixed metric name (registry names compose
/// dotted paths and codec labels, so the codec-name u8 limit is too
/// tight here).
fn encode_metric_name(name: &str, out: &mut Vec<u8>) -> Result<()> {
    let len = u16::try_from(name.len()).map_err(|_| Error::NameTooLong { len: name.len() })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    Ok(())
}

/// Read a u16-length-prefixed UTF-8 metric name from a slice (bounds are
/// checked against real bytes; nothing is reserved for the claim).
fn take_metric_name(src: &mut &[u8]) -> Result<Arc<str>> {
    let len = usize::from(read_u16(src)?);
    if src.len() < len {
        return Err(Error::Corrupt("metric name truncated".into()));
    }
    let (head, rest) = src.split_at(len);
    let name =
        std::str::from_utf8(head).map_err(|_| Error::Corrupt("metric name is not UTF-8".into()))?;
    *src = rest;
    Ok(Arc::from(name))
}

/// Bound a declared row count by the bytes actually present: each row
/// occupies at least `min_row_bytes` on the wire, so a count beyond
/// `remaining / min_row_bytes` is hostile or corrupt — reject it before
/// reserving anything for it.
fn plausible_rows(count: usize, remaining: usize, min_row_bytes: usize) -> Result<usize> {
    if count > remaining / min_row_bytes.max(1) {
        return Err(Error::Corrupt(format!(
            "stats body claims {count} rows in {remaining} bytes"
        )));
    }
    Ok(count)
}

/// Encode a `STATS_V2` reply body from a registry [`Snapshot`].
/// Histograms ride sparse — only non-empty buckets — so an idle
/// histogram costs a few bytes instead of its full bucket table.
pub(crate) fn encode_stats_v2(snap: &Snapshot) -> Result<Vec<u8>> {
    let mut body = Vec::new();
    for rows in [&snap.counters, &snap.gauges] {
        body.extend_from_slice(&sat16(rows.len()));
        for (name, v) in rows.iter().take(u16::MAX as usize) {
            encode_metric_name(name, &mut body)?;
            body.extend_from_slice(&v.to_le_bytes());
        }
    }
    body.extend_from_slice(&sat16(snap.histograms.len()));
    for (name, h) in snap.histograms.iter().take(u16::MAX as usize) {
        encode_metric_name(name, &mut body)?;
        body.extend_from_slice(&h.count().to_le_bytes());
        body.extend_from_slice(&h.sum().to_le_bytes());
        body.extend_from_slice(&h.max().to_le_bytes());
        let rows = h.nonzero_len().min(u16::MAX as usize);
        body.extend_from_slice(&sat16(rows));
        for (i, c) in h.nonzero_buckets().take(rows) {
            // A bucket index is structurally < NUM_BUCKETS (1312); an
            // impossible one becomes u16::MAX, which decode rejects.
            body.extend_from_slice(&sat16(i));
            body.extend_from_slice(&c.to_le_bytes());
        }
    }
    Ok(body)
}

/// Decode a `STATS_V2` reply body into the registry's own [`Snapshot`],
/// so a client holds the same type an in-process caller gets from
/// `Registry::snapshot` — full [`HistogramSnapshot`]s included, from which
/// it takes its own quantiles or merges across servers. Every declared count is bounded by
/// the bytes actually present (`plausible_rows`) before any
/// reservation, bucket indices are range-checked by
/// [`HistogramSnapshot::from_sparse`], and the declared total must agree
/// with the bucket counts — corrupt wire data becomes a typed error,
/// never an allocation or a panic.
pub(crate) fn decode_stats_v2(body: &[u8]) -> Result<Snapshot> {
    let mut src = body;
    let mut out = Snapshot::default();
    // Scalar row: 2-byte name length + 8-byte value, at minimum.
    for dst in [&mut out.counters, &mut out.gauges] {
        let count = plausible_rows(usize::from(read_u16(&mut src)?), src.len(), 10)?;
        dst.reserve(count);
        for _ in 0..count {
            let name = take_metric_name(&mut src)?;
            dst.push((name, read_u64(&mut src)?));
        }
    }
    // Histogram row: 2-byte name length + three u64s + 2-byte bucket count.
    let count = plausible_rows(usize::from(read_u16(&mut src)?), src.len(), 28)?;
    out.histograms.reserve(count);
    for _ in 0..count {
        let name = take_metric_name(&mut src)?;
        let total = read_u64(&mut src)?;
        let sum = read_u64(&mut src)?;
        let max = read_u64(&mut src)?;
        let rows = plausible_rows(usize::from(read_u16(&mut src)?), src.len(), 10)?;
        let mut pairs = Vec::with_capacity(rows);
        for _ in 0..rows {
            let i = read_u16(&mut src)?;
            pairs.push((i, read_u64(&mut src)?));
        }
        let snap = HistogramSnapshot::from_sparse(&pairs, sum, max)
            .ok_or_else(|| Error::Corrupt("histogram bucket index out of range".into()))?;
        if snap.count() != total {
            return Err(Error::Corrupt(
                "histogram bucket counts disagree with the declared total".into(),
            ));
        }
        out.histograms.push((name, snap));
    }
    if !src.is_empty() {
        return Err(Error::Corrupt("trailing bytes after stats_v2 body".into()));
    }
    Ok(out)
}

/// Write an OK reply frame around `body`.
pub(crate) fn write_ok_reply<W: Write>(sink: &mut W, body: &[u8]) -> Result<()> {
    fcbench_core::fault::fail_point("serve.reply_write")?;
    sink.write_all(&[STATUS_OK])?;
    sink.write_all(&(body.len() as u64).to_le_bytes())?;
    sink.write_all(body)?;
    sink.flush()?;
    Ok(())
}

/// Write an error reply frame for `err`.
pub(crate) fn write_err_reply<W: Write>(sink: &mut W, err: &Error) -> Result<()> {
    let body = encode_error_body(err);
    sink.write_all(&[error_code(err)])?;
    sink.write_all(&(body.len() as u64).to_le_bytes())?;
    sink.write_all(&body)?;
    sink.flush()?;
    Ok(())
}

/// Read one reply frame: the OK body on success, the decoded typed error on
/// a non-OK status. Bodies above `MAX_REPLY_BYTES` are refused; a client
/// that has handshaken with a server advertising a larger request cap
/// should use `read_reply_capped` with the matching `stream_cap`.
pub fn read_reply<R: Read>(src: &mut R) -> Result<Vec<u8>> {
    read_reply_capped(src, MAX_REPLY_BYTES)
}

/// [`read_reply`] with an explicit body ceiling — a `COMPRESS` reply from a
/// server whose `max_request_bytes` is near [`MAX_REPLY_BYTES`] can
/// legitimately exceed the default (expansion headroom, [`stream_cap`]),
/// and refusing it without reading would leave the unread body desyncing
/// every later frame on the connection.
pub(crate) fn read_reply_capped<R: Read>(src: &mut R, cap: usize) -> Result<Vec<u8>> {
    let status = read_u8(src)?;
    let body = read_sized(src, cap)?;
    if status == STATUS_OK {
        Ok(body)
    } else {
        Err(decode_error(status, &body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_head_is_the_fcb3_prologue_after_its_magic() {
        // Hand-assembled: verb, name, f64 + observation + 3 dims, the dims,
        // then 64 elements per block.
        let mut frozen = vec![VERB_COMPRESS, 7];
        frozen.extend_from_slice(b"gorilla");
        frozen.extend_from_slice(&[1, 2, 3]);
        for v in [3u64, 5, 7, 64] {
            frozen.extend_from_slice(&v.to_le_bytes());
        }
        let desc = DataDesc::new(
            fcbench_core::Precision::Double,
            vec![3, 5, 7],
            fcbench_core::Domain::Observation,
        )
        .unwrap();
        let head = compress_head("gorilla", &desc, 64).unwrap();
        assert_eq!(head, frozen);
        let prologue = frame::encode_stream_header("gorilla", &desc, 64).unwrap();
        assert_eq!(head[1..], prologue[4..]);
        let back = read_compress_head(&mut &head[1..]).unwrap();
        assert_eq!(back, ("gorilla".to_string(), desc, 64));
    }

    #[test]
    fn handshake_round_trips_and_rejects_garbage() {
        assert_eq!(check_client_hello(&client_hello()).unwrap(), VERSION);
        assert_eq!(
            check_hello_body(&hello_body(1 << 26)).unwrap(),
            (VERSION, 1 << 26)
        );
        assert!(check_hello_body(&hello_body(7)[..6]).is_err());
        let mut bad = client_hello();
        bad[0] = b'X';
        assert!(matches!(check_client_hello(&bad), Err(Error::Corrupt(_))));
        let mut wrong_version = client_hello();
        wrong_version[4] = 0xEE;
        wrong_version[5] = 0xEE;
        assert!(matches!(
            check_client_hello(&wrong_version),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_codec_errors_survive_the_wire_typed() {
        let err = Error::UnknownCodec {
            requested: "zstd-22".into(),
            available: vec!["gorilla".into(), "chimp128".into(), "pfpc".into()],
        };
        let code = error_code(&err);
        assert_eq!(code, ERR_UNKNOWN_CODEC);
        let back = decode_error(code, &encode_error_body(&err));
        assert_eq!(back, err);
    }

    #[test]
    fn busy_errors_carry_their_retry_hint_typed() {
        let err = Error::Busy { retry_after_ms: 75 };
        assert_eq!(error_code(&err), ERR_BUSY);
        let body = encode_error_body(&err);
        // The hint leads so clients parse it without touching the text.
        assert_eq!(&body[..8], &75u64.to_le_bytes());
        assert_eq!(decode_error(ERR_BUSY, &body), err);
        // A truncated busy body degrades to a typed Corrupt, not a panic.
        assert!(matches!(
            decode_error(ERR_BUSY, &body[..4]),
            Error::Corrupt(_)
        ));
        // And through a full reply frame.
        let mut wire = Vec::new();
        write_err_reply(&mut wire, &err).unwrap();
        assert_eq!(read_reply(&mut &wire[..]).unwrap_err(), err);
    }

    #[test]
    fn other_errors_map_to_stable_codes() {
        for (err, code) in [
            (Error::Corrupt("x".into()), ERR_CORRUPT),
            (Error::BadDescriptor("x".into()), ERR_BAD_DESCRIPTOR),
            (Error::Unsupported("x".into()), ERR_UNSUPPORTED),
            (Error::WorkerPanic("x".into()), ERR_WORKER_PANIC),
            (Error::Io("x".into()), ERR_IO),
        ] {
            assert_eq!(error_code(&err), code);
            let back = decode_error(code, &encode_error_body(&err));
            assert_eq!(error_code(&back), code);
            assert!(back.to_string().contains('x'));
        }
    }

    #[test]
    fn codec_listings_round_trip() {
        let listings = vec![
            CodecListing {
                name: "gorilla".into(),
                thread_scalable: true,
                block_capable: true,
            },
            CodecListing {
                name: "gfc".into(),
                thread_scalable: false,
                block_capable: false,
            },
        ];
        let wire = encode_listings(&listings).unwrap();
        assert_eq!(decode_listings(&wire).unwrap(), listings);
        assert!(decode_listings(&wire[..5]).is_err());
        let long = vec![CodecListing {
            name: "x".repeat(256),
            thread_scalable: false,
            block_capable: false,
        }];
        assert!(matches!(
            encode_listings(&long),
            Err(Error::NameTooLong { len: 256 })
        ));
    }

    #[test]
    fn replies_round_trip() {
        let mut wire = Vec::new();
        write_ok_reply(&mut wire, b"payload").unwrap();
        assert_eq!(read_reply(&mut &wire[..]).unwrap(), b"payload");

        let mut wire = Vec::new();
        write_err_reply(&mut wire, &Error::BadDescriptor("bad dims".into())).unwrap();
        let err = read_reply(&mut &wire[..]).unwrap_err();
        assert!(matches!(err, Error::BadDescriptor(m) if m.contains("bad dims")));
    }

    #[test]
    fn stream_cap_covers_worst_case_legal_expansion_and_saturates() {
        // A stream produced from a cap-sized raw request must fit back
        // through the DECOMPRESS gate even at block_elems = 1 (8-byte
        // record header per 8-byte block) with the frame layer's maximum
        // tolerated 8x per-block payload expansion: ≤ 9x overall.
        let raw_cap = 64u64 * 1024 * 1024;
        assert!(stream_cap(raw_cap) >= raw_cap * 9);
        // Tiny caps still leave room for the stream prologue alone.
        assert!(stream_cap(16) > 16 * 9 + 64);
        // No overflow at the extreme.
        assert_eq!(stream_cap(u64::MAX), u64::MAX);
    }

    #[test]
    fn stats_v2_round_trips_quantiles_through_the_wire() {
        let reg = fcbench_telemetry::Registry::new();
        reg.counter("serve.requests.ok").add(41);
        reg.gauge("serve.connections.active").add(3);
        let h = reg.histogram("serve.request.compress");
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        let wire = encode_stats_v2(&reg.snapshot()).unwrap();
        let back = decode_stats_v2(&wire).unwrap();
        assert_eq!(back.counter("serve.requests.ok"), Some(41));
        assert_eq!(back.gauge("serve.connections.active"), Some(3));
        let hist = back.histogram("serve.request.compress").unwrap();
        assert_eq!(hist.count(), 5);
        assert_eq!(
            hist.max(),
            reg.snapshot()
                .histogram("serve.request.compress")
                .unwrap()
                .max()
        );
        // Quantiles survive intact: the client recomputes them from the
        // same buckets the server holds.
        assert_eq!(
            hist.p99(),
            reg.snapshot()
                .histogram("serve.request.compress")
                .unwrap()
                .p99()
        );
        assert!(back.histogram("no.such.metric").is_none());
    }

    #[test]
    fn stats_v2_rejects_hostile_claims_before_allocating() {
        // A body declaring 65535 counters with no bytes behind them.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            decode_stats_v2(&wire),
            Err(Error::Corrupt(m)) if m.contains("rows")
        ));

        // An out-of-range bucket index inside an otherwise valid body.
        let mut wire = Vec::new();
        wire.extend_from_slice(&0u16.to_le_bytes()); // counters
        wire.extend_from_slice(&0u16.to_le_bytes()); // gauges
        wire.extend_from_slice(&1u16.to_le_bytes()); // one histogram
        wire.extend_from_slice(&1u16.to_le_bytes());
        wire.push(b'h');
        wire.extend_from_slice(&1u64.to_le_bytes()); // total
        wire.extend_from_slice(&5u64.to_le_bytes()); // sum
        wire.extend_from_slice(&5u64.to_le_bytes()); // max
        wire.extend_from_slice(&1u16.to_le_bytes()); // one bucket row
        wire.extend_from_slice(&u16::MAX.to_le_bytes()); // index 65535 >= NUM_BUCKETS
        wire.extend_from_slice(&1u64.to_le_bytes());
        assert!(matches!(
            decode_stats_v2(&wire),
            Err(Error::Corrupt(m)) if m.contains("bucket index")
        ));

        // Bucket counts that disagree with the declared total.
        let mut wire = Vec::new();
        wire.extend_from_slice(&0u16.to_le_bytes());
        wire.extend_from_slice(&0u16.to_le_bytes());
        wire.extend_from_slice(&1u16.to_le_bytes());
        wire.extend_from_slice(&1u16.to_le_bytes());
        wire.push(b'h');
        wire.extend_from_slice(&9u64.to_le_bytes()); // claims 9 samples
        wire.extend_from_slice(&5u64.to_le_bytes());
        wire.extend_from_slice(&5u64.to_le_bytes());
        wire.extend_from_slice(&1u16.to_le_bytes());
        wire.extend_from_slice(&3u16.to_le_bytes());
        wire.extend_from_slice(&1u64.to_le_bytes()); // buckets hold 1
        assert!(matches!(
            decode_stats_v2(&wire),
            Err(Error::Corrupt(m)) if m.contains("disagree")
        ));
    }

    #[test]
    fn oversized_reply_lengths_are_rejected_before_allocation() {
        let mut wire = vec![STATUS_OK];
        wire.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_reply(&mut &wire[..]),
            Err(Error::Unsupported(_))
        ));
    }
}
