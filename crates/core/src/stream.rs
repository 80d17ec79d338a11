//! Streaming frame I/O: compress and decompress datasets chunk-by-chunk
//! through the [`WorkerPool`] engine, so neither the raw data nor the
//! compressed frame ever needs to be fully resident.
//!
//! The on-wire format is the [`FCB3` layout](crate::frame): block lengths
//! are inlined ahead of each payload so a writer can emit records as blocks
//! finish compressing.
//!
//! [`FrameWriter`] accepts element bytes in arbitrary-sized chunks, carves
//! them into fixed-size blocks, and fans the blocks out to a pool (when one
//! is attached): at most `queue_depth` blocks are in flight, which bounds
//! the writer's footprint regardless of dataset size. [`FrameReader`]
//! mirrors it with bounded read-ahead, yielding decoded blocks in stream
//! order. Both run inline (no pool, zero extra threads) when constructed
//! without an engine. Both are framing policies over the [block
//! pumps](WriterPump) every stream in the workspace runs on.
//!
//! ```
//! use fcbench_core::stream::{FrameReader, FrameWriter};
//! use fcbench_core::{DataDesc, Domain, FloatData, Precision};
//! # use fcbench_core::{codec::{CodecClass, CodecInfo, Community, Platform, PrecisionSupport},
//! #                    Compressor, Result};
//! # use std::sync::Arc;
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
//! let codec: Arc<dyn Compressor> = Arc::new(Store);
//! let values: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.5).collect();
//! let data = FloatData::from_f64(&values, vec![values.len()], Domain::Hpc).unwrap();
//!
//! // Compress chunk-by-chunk into any io::Write sink.
//! let mut writer =
//!     FrameWriter::new(Vec::new(), Arc::clone(&codec), data.desc().clone(), 1024, None).unwrap();
//! for chunk in data.bytes().chunks(333) {
//!     writer.write(chunk).unwrap();
//! }
//! let encoded = writer.finish().unwrap();
//!
//! // Decode block-by-block from any io::Read source.
//! let mut reader = FrameReader::new(&encoded[..], codec, None).unwrap();
//! let mut restored = Vec::new();
//! while let Some(block) = reader.next_block().unwrap() {
//!     restored.extend_from_slice(block);
//! }
//! assert_eq!(restored, data.bytes());
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

use crate::blocks::{plausible_payload_cap, MAX_UPFRONT_RESERVE};
use crate::codec::Compressor;
use crate::data::{DataDesc, FloatData, Precision};
use crate::error::{Error, Result};
use crate::frame::{decode_stream_header, encode_stream_header};
use crate::pool::{Window, WorkerPool};
use crate::wire::read_growing;
use fcbench_telemetry::{Counter, InflightGauge};
use std::io::{Read, Write};
use std::ops::Deref;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Checksummed record framing
// ---------------------------------------------------------------------------
//
// The FCDB2 on-disk container (crate `fcbench-dbsim`) frames every record —
// column headers, compressed chunks, commit directories — as
//
// ```text
// tag        u8
// body len   u64 LE
// body       …
// crc32      u32 LE   (over tag + len + body)
// ```
//
// so a reader can tell a torn tail from committed data. The helpers live
// here, next to the frame streaming they mirror, because the framing is not
// container-specific: any append-style file format in the workspace can use
// them.

/// The CRC-32 (IEEE 802.3) polynomial, bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Independent checksum lanes of the braided kernel, each fed one
/// little-endian 8-byte word per block (zlib's `N`). Four to eight lanes
/// all run at about 2.4x the slice-by-16 kernel this replaced on x86-64,
/// within noise of one another.
const BRAID_LANES: usize = 6;

/// Bytes one braided step consumes: one word per lane.
const BRAID_BLOCK: usize = BRAID_LANES * 8;

/// Inputs shorter than this take the byte loop alone. The braid's closing
/// fold costs one block of byte steps, so it needs a block to run in
/// parallel before it can pay for itself.
const BRAID_MIN: usize = 2 * BRAID_BLOCK;

/// `p * x mod P`, reflected (bit 31 is the `x^0` coefficient).
const fn times_x(p: u32) -> u32 {
    if p & 1 != 0 {
        (p >> 1) ^ CRC32_POLY
    } else {
        p >> 1
    }
}

/// `x^n mod P`, reflected.
const fn x_pow_mod(n: usize) -> u32 {
    let mut p = 1u32 << 31;
    let mut i = 0;
    while i < n {
        p = times_x(p);
        i += 1;
    }
    p
}

/// `a * b mod P`, reflected: a GF(2) shift-and-add over the bits of `a`,
/// stepping `b` by one power of `x` per bit.
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut p = 0u32;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = times_x(b);
        m >>= 1;
    }
    p
}

/// The classic byte-at-a-time table: `CRC32_TABLE[b]` is the state change
/// one byte `b` makes. Drives the short inputs, the tail, and the fold that
/// closes the braid.
static CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0u32;
    while i < 256 {
        table[i as usize] = mul_mod(i << 24, x_pow_mod(32));
        i += 1;
    }
    table
};

/// zlib's braid tables (`crc32.c`, 1.2.12 and later), built at compile time:
/// `CRC32_BRAID[k][b]` is what byte `b`, at byte `k` of a lane's word,
/// contributes to that lane's state one block later. Eight tables, 8 KiB.
static CRC32_BRAID: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let shift = x_pow_mod((BRAID_BLOCK + 3 - k) * 8);
        let mut i = 0u32;
        while i < 256 {
            tables[k][i as usize] = mul_mod(i << 24, shift);
            i += 1;
        }
        k += 1;
    }
    tables
};

#[inline(always)]
fn le_word(w: &[u8]) -> u64 {
    u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]])
}

/// One lane's word advanced a whole block: eight independent lookups.
#[inline(always)]
fn braid_word(w: u64) -> u32 {
    CRC32_BRAID[0][(w & 0xFF) as usize]
        ^ CRC32_BRAID[1][((w >> 8) & 0xFF) as usize]
        ^ CRC32_BRAID[2][((w >> 16) & 0xFF) as usize]
        ^ CRC32_BRAID[3][((w >> 24) & 0xFF) as usize]
        ^ CRC32_BRAID[4][((w >> 32) & 0xFF) as usize]
        ^ CRC32_BRAID[5][((w >> 40) & 0xFF) as usize]
        ^ CRC32_BRAID[6][((w >> 48) & 0xFF) as usize]
        ^ CRC32_BRAID[7][(w >> 56) as usize]
}

/// The state after eight byte steps over the little-endian word `w`.
#[inline(always)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "eight 8-bit shifts leave only table entries, all below 2^32"
)]
fn crc32_word(mut w: u64) -> u32 {
    for _ in 0..8 {
        w = (w >> 8) ^ u64::from(CRC32_TABLE[(w & 0xFF) as usize]);
    }
    w as u32
}

/// Fold whole blocks into state `s`: every block but the last runs the six
/// lanes independently, so their lookups overlap instead of queueing behind
/// one another; the last block folds the lanes back into one state, a word
/// at a time.
fn crc32_braid(s: u32, blocks: &[u8]) -> u32 {
    let mut blocks = blocks.chunks_exact(BRAID_BLOCK);
    let Some(last) = blocks.next_back() else {
        return s;
    };
    let mut lanes = [0u32; BRAID_LANES];
    lanes[0] = s;
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = braid_word(u64::from(*lane) ^ le_word(word));
        }
    }
    lanes
        .iter()
        .zip(last.chunks_exact(8))
        .fold(0, |c, (&lane, word)| {
            crc32_word(u64::from(lane ^ c) ^ le_word(word))
        })
}

/// Incremental CRC-32 (IEEE) hasher over byte slices.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum: whole 48-byte blocks through
    /// the braided kernel (every stored FCDB2 byte passes through here once
    /// on write and once on read), then the byte loop for the tail and for
    /// inputs under two blocks.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        let mut tail = bytes;
        if bytes.len() >= BRAID_MIN {
            let (blocks, rest) = bytes.split_at(bytes.len() - bytes.len() % BRAID_BLOCK);
            s = crc32_braid(s, blocks);
            tail = rest;
        }
        for &b in tail {
            s = CRC32_TABLE[((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
        }
        self.state = s;
    }

    /// The checksum of everything folded in so far (the hasher stays usable).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Framing bytes around a record body: 1 tag + 8 length + 4 checksum.
pub(crate) const RECORD_OVERHEAD: u64 = 13;

/// Write one framed record to `sink`. The body is supplied in `parts` so a
/// caller can prepend a small header to a large payload without
/// concatenating them first; the checksum streams over the parts, so the
/// call allocates nothing. Returns the total bytes emitted
/// (`RECORD_OVERHEAD` + body length).
pub fn put_record<W: Write>(sink: &mut W, tag: u8, parts: &[&[u8]]) -> Result<u64> {
    let body_len: u64 = parts.iter().map(|p| p.len() as u64).sum();
    let mut head = [0u8; 9];
    head[0] = tag;
    head[1..9].copy_from_slice(&body_len.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&head);
    sink.write_all(&head)?;
    for part in parts {
        crc.update(part);
        sink.write_all(part)?;
    }
    sink.write_all(&crc.finish().to_le_bytes())?;
    Ok(RECORD_OVERHEAD + body_len)
}

/// A framed record parsed back out of a byte buffer.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    pub tag: u8,
    pub body: &'a [u8],
    /// Offset one past the record's trailing checksum.
    pub end: usize,
}

/// Why [`frame_record`] or [`FramedRecord::verify`] could not return a
/// valid record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordCheck {
    /// The buffer ends before the record does (a torn write, or not a
    /// record at all).
    Truncated,
    /// The record is complete but its stored checksum does not match.
    Mismatch { stored: u32, computed: u32 },
}

/// A record whose framing [`frame_record`] found inside the buffer; its
/// checksum is not compared until [`FramedRecord::verify`].
#[derive(Debug, Clone, Copy)]
pub struct FramedRecord<'a> {
    /// The record's fields, unverified: read them only to decide whether the
    /// record is worth verifying, and hand out nothing before it is.
    pub unverified: RecordView<'a>,
    /// Tag, length and body: what the stored checksum covers.
    covered: &'a [u8],
    stored: u32,
}

impl<'a> FramedRecord<'a> {
    /// Compare the stored checksum with the framed bytes' own.
    pub fn verify(&self) -> std::result::Result<RecordView<'a>, RecordCheck> {
        let computed = crc32(self.covered);
        if computed != self.stored {
            return Err(RecordCheck::Mismatch {
                stored: self.stored,
                computed,
            });
        }
        Ok(self.unverified)
    }
}

/// Locate the framed record starting at `bytes[pos..]` without checksumming
/// it: the length field is bounds-checked against the buffer, so a hostile
/// length claims nothing. Fails only with [`RecordCheck::Truncated`].
pub fn frame_record(
    bytes: &[u8],
    pos: usize,
) -> std::result::Result<FramedRecord<'_>, RecordCheck> {
    let head_end = pos.checked_add(9).ok_or(RecordCheck::Truncated)?;
    let head = bytes.get(pos..head_end).ok_or(RecordCheck::Truncated)?;
    let body_len = crate::wire::le_u64(head, 1).map_err(|_| RecordCheck::Truncated)?;
    let body_len = usize::try_from(body_len).map_err(|_| RecordCheck::Truncated)?;
    let body_start = pos + 9;
    let body_end = body_start
        .checked_add(body_len)
        .ok_or(RecordCheck::Truncated)?;
    let end = body_end.checked_add(4).ok_or(RecordCheck::Truncated)?;
    if end > bytes.len() {
        return Err(RecordCheck::Truncated);
    }
    let stored = crate::wire::le_u32(bytes, body_end).map_err(|_| RecordCheck::Truncated)?;
    Ok(FramedRecord {
        unverified: RecordView {
            tag: head[0],
            body: &bytes[body_start..body_end],
            end,
        },
        covered: &bytes[pos..body_end],
        stored,
    })
}

// ---------------------------------------------------------------------------
// Block pumps
// ---------------------------------------------------------------------------
//
// Every stream moves fixed-size blocks through the engine the same way, so
// the two pumps do it once (inline when built without a pool), and each
// stream type — `FrameWriter`/`FrameReader` below, `ContainerWriter`/
// `ColumnCursor` in `fcbench-dbsim` — is a framing policy over one: it says
// where a block's bytes go (an emit closure) or come from (a payload
// closure). A pump's first error abandons its in-flight jobs; after it, a
// reader pump and a writer pump on a pool refuse every later call.

/// The writer pump: element bytes fed in pieces of any size are carved into
/// blocks, compressed through a bounded window on the pool, and emitted
/// with their element counts in stream order. Whole blocks go from the
/// caller's slice straight to the engine; only a block that straddles two
/// pieces is copied into the accumulator.
pub struct WriterPump<P> {
    codec: Arc<dyn Compressor>,
    pool: Option<P>,
    /// Bytes per full block, and the partial-block accumulator.
    bpb: usize,
    buf: Vec<u8>,
    bdesc: DataDesc,
    window: Window<usize>,
    /// Inline mode: the block as a container, and its payload.
    scratch: FloatData,
    payload: Vec<u8>,
}

impl<P: Deref<Target = WorkerPool>> WriterPump<P> {
    /// Blocks of `block_elems` elements shaped like `desc`, compressed by
    /// `codec`; the in-flight depth reports into `inflight`.
    pub fn new(
        codec: Arc<dyn Compressor>,
        pool: Option<P>,
        desc: &DataDesc,
        block_elems: usize,
        inflight: InflightGauge,
    ) -> Self {
        let mut pump = WriterPump {
            codec,
            pool,
            bpb: 0,
            buf: Vec::new(),
            bdesc: DataDesc {
                precision: desc.precision,
                dims: vec![0],
                domain: desc.domain,
            },
            window: Window::new(inflight, None),
            scratch: FloatData::scratch(),
            payload: Vec::new(),
        };
        pump.reshape(desc.precision, block_elems);
        pump
    }

    /// Carve later bytes into `block_elems`-element blocks of `precision`
    /// (a container's next column); call it after [`finish`](Self::finish).
    pub fn reshape(&mut self, precision: Precision, block_elems: usize) {
        self.bdesc.precision = precision;
        self.bpb = block_elems.max(1).saturating_mul(precision.bytes());
    }

    /// Cap the blocks in flight on the pool (at least 1).
    pub fn set_max_in_flight(&mut self, cap: usize) {
        self.window.set_max_in_flight(cap);
    }

    /// Fold the outcome of a policy's own step into the pump's state.
    pub fn settle<R>(&mut self, r: Result<R>) -> Result<R> {
        self.window.settle(r)
    }

    /// Feed the next piece; blocks are emitted as they finish compressing.
    pub fn write(
        &mut self,
        mut bytes: &[u8],
        mut emit: impl FnMut(&[u8], usize) -> Result<()>,
    ) -> Result<()> {
        while !bytes.is_empty() {
            if self.buf.is_empty() && bytes.len() >= self.bpb {
                let (block, rest) = bytes.split_at(self.bpb);
                self.push(Some(block), &mut emit)?;
                bytes = rest;
            } else {
                let (head, rest) = bytes.split_at((self.bpb - self.buf.len()).min(bytes.len()));
                self.buf.extend_from_slice(head);
                bytes = rest;
                if self.buf.len() == self.bpb {
                    self.push(None, &mut emit)?;
                }
            }
        }
        Ok(())
    }

    /// Emit the blocks that have already finished compressing, without
    /// waiting on the others; returns how many.
    pub(crate) fn flush_ready(
        &mut self,
        mut emit: impl FnMut(&[u8], usize) -> Result<()>,
    ) -> Result<usize> {
        let mut flushed = 0usize;
        while self.window.pop_ready(&mut emit)?.is_some() {
            flushed += 1;
        }
        Ok(flushed)
    }

    /// Compress the short tail block, if any, and emit every block still in
    /// flight, leaving the pump empty for another run.
    pub fn finish(&mut self, mut emit: impl FnMut(&[u8], usize) -> Result<()>) -> Result<()> {
        if !self.buf.is_empty() {
            self.push(None, &mut emit)?;
        }
        while self.window.pop(&mut emit)?.is_some() {}
        Ok(())
    }

    /// Compress `block` (the accumulator's when `None`): into the window,
    /// which emits its oldest blocks to make room, or inline, emitted now.
    fn push(
        &mut self,
        block: Option<&[u8]>,
        emit: &mut impl FnMut(&[u8], usize) -> Result<()>,
    ) -> Result<()> {
        let buf = std::mem::take(&mut self.buf);
        let block = block.unwrap_or(&buf);
        let elems = block.len() / self.bdesc.precision.bytes();
        self.bdesc.dims[0] = elems;
        let (codec, bdesc) = (&self.codec, &self.bdesc);
        let r = match self.pool.as_deref() {
            Some(pool) => self
                .window
                .push_compress(pool, codec, bdesc, block, elems, emit),
            None => self.scratch.refill_from_slice(bdesc, block).and_then(|()| {
                let n = codec.compress_into(&self.scratch, &mut self.payload)?;
                emit(&self.payload[..n], elems)
            }),
        };
        self.buf = buf;
        self.buf.clear();
        r
    }
}

/// The reader pump: a stream's blocks, decoded with a bounded read-ahead on
/// the pool and handed back in stream order.
///
/// The payload closure is given a block's index and descriptor and an
/// empty buffer, and fills the buffer with that block's payload: over a
/// byte stream it reads the record, over random-access storage it copies
/// the chunk. On the pool the buffer is the input of a job slot already
/// acquired for the block, so a payload is asked for once, only when a
/// slot is there for it, and lands in the slot with one copy; inline it is
/// the pump's own record buffer.
///
/// While the closure runs, the pump holds that one acquired, unqueued
/// slot. Every pooled source today is in memory (a frame slice, a
/// `Pipeline` frame, a buffered DECOMPRESS body, a container image), so
/// none pins a slot on I/O; a source that blocks — a socket — pins one for
/// as long as it blocks.
pub struct ReaderPump<P> {
    codec: Arc<dyn Compressor>,
    pool: Option<P>,
    /// Elements in the stream, and per block (the last may be short).
    elems: usize,
    block_elems: usize,
    /// Blocks submitted, and blocks handed out.
    submitted: usize,
    collected: usize,
    window: Window,
    bdesc: DataDesc,
    /// The inline record buffer, the block [`next`](Self::next) handed out
    /// last, and the inline decode target.
    record: Vec<u8>,
    current: Vec<u8>,
    scratch: FloatData,
}

impl<P: Deref<Target = WorkerPool>> ReaderPump<P> {
    /// Data shaped like `desc` in `block_elems`-element blocks, decoded by
    /// `codec`; the read-ahead depth reports into `inflight`, and waits on
    /// unfinished decodes count into `stalls`.
    pub fn new(
        codec: Arc<dyn Compressor>,
        pool: Option<P>,
        desc: &DataDesc,
        block_elems: usize,
        inflight: InflightGauge,
        stalls: Option<Counter>,
    ) -> Self {
        ReaderPump {
            codec,
            pool,
            elems: desc.elements(),
            block_elems: block_elems.max(1),
            submitted: 0,
            collected: 0,
            window: Window::new(inflight, stalls),
            bdesc: DataDesc {
                precision: desc.precision,
                dims: vec![0],
                domain: desc.domain,
            },
            record: Vec::new(),
            current: Vec::new(),
            scratch: FloatData::scratch(),
        }
    }

    /// Cap the read-ahead at `cap` blocks in flight (at least 1).
    pub fn set_max_in_flight(&mut self, cap: usize) {
        self.window.set_max_in_flight(cap);
    }

    /// The next block's element bytes, or `None` after the final block; the
    /// slice lives until the next call.
    pub fn next(
        &mut self,
        payload: impl FnMut(usize, &DataDesc, &mut Vec<u8>) -> Result<()>,
    ) -> Result<Option<&[u8]>> {
        let mut current = std::mem::take(&mut self.current);
        current.clear();
        let r = self.next_into(&mut current, payload);
        self.current = current;
        Ok(r?.then_some(&self.current))
    }

    /// [`next`](Self::next), appending the bytes to `out` straight from
    /// where they were decoded; `false` after the final block.
    pub fn next_into(
        &mut self,
        out: &mut Vec<u8>,
        mut payload: impl FnMut(usize, &DataDesc, &mut Vec<u8>) -> Result<()>,
    ) -> Result<bool> {
        self.window.check()?;
        let r = (|| {
            let nblocks = self.elems.div_ceil(self.block_elems);
            if self.collected == nblocks {
                return Ok(false);
            }
            let Some(pool) = self.pool.as_deref() else {
                self.bdesc.dims[0] = self.block_len(self.collected);
                self.record.clear();
                payload(self.collected, &self.bdesc, &mut self.record)?;
                crate::blocks::check_decode_claim(&self.bdesc, self.record.len())?;
                self.codec
                    .decompress_into(&self.record, &self.bdesc, &mut self.scratch)?;
                if self.scratch.bytes().len() != self.bdesc.byte_len() {
                    return Err(Error::Corrupt("block decoded to a wrong size".into()));
                }
                out.extend_from_slice(self.scratch.bytes());
                self.collected += 1;
                return Ok(true);
            };
            // Top the read-ahead up until the window declines a block.
            while self.submitted < nblocks {
                let i = self.submitted;
                self.bdesc.dims[0] = self.block_len(i);
                let (codec, bdesc, window) = (&self.codec, &self.bdesc, &mut self.window);
                let fill = |buf: &mut Vec<u8>| payload(i, bdesc, buf);
                if !window.try_push_decompress(pool, codec, bdesc, fill, ())? {
                    break;
                }
                self.submitted += 1;
            }
            self.window
                .pop(|block, ()| {
                    out.extend_from_slice(block);
                    Ok(())
                })?
                .ok_or_else(|| Error::Corrupt("block pump lost its read-ahead".into()))?;
            self.collected += 1;
            Ok(true)
        })();
        self.window.settle(r)
    }

    /// Element count of block `i`.
    fn block_len(&self, i: usize) -> usize {
        let start = i.saturating_mul(self.block_elems).min(self.elems);
        self.block_elems.min(self.elems - start)
    }
}

/// The in-flight gauge `name` of `pool`'s registry (detached inline).
fn pool_gauge(pool: Option<&Arc<WorkerPool>>, name: &str) -> InflightGauge {
    pool.map_or_else(InflightGauge::detached, |p| {
        InflightGauge::attached(p.telemetry().gauge(name))
    })
}

/// Streaming `FCB3` encoder; see the [module docs](self): a [`WriterPump`]
/// whose blocks go to the sink as records.
pub struct FrameWriter<W: Write> {
    sink: W,
    /// Reports into the pool-wide `stream.writer.blocks_in_flight` gauge.
    pump: WriterPump<Arc<WorkerPool>>,
    /// Element bytes the descriptor declares, and those accepted so far.
    total: usize,
    consumed: usize,
}

impl<W: Write> FrameWriter<W> {
    /// Start a stream for data shaped like `desc`, compressed by `codec` in
    /// `block_elems`-element blocks, fanned out on `pool` when given. The
    /// prologue is written to `sink` immediately.
    pub fn new(
        mut sink: W,
        codec: Arc<dyn Compressor>,
        desc: DataDesc,
        block_elems: usize,
        pool: Option<Arc<WorkerPool>>,
    ) -> Result<Self> {
        let block_elems = block_elems.max(1);
        let prologue = encode_stream_header(codec.info().name, &desc, block_elems)?;
        sink.write_all(&prologue)?;
        let inflight = pool_gauge(pool.as_ref(), "stream.writer.blocks_in_flight");
        let pump = WriterPump::new(codec, pool, &desc, block_elems, inflight);
        let total = desc.byte_len();
        Ok(FrameWriter {
            sink,
            pump,
            total,
            consumed: 0,
        })
    }

    /// Cap the number of blocks this writer may have in flight on a shared
    /// pool at once (see [`WriterPump::set_max_in_flight`]). Inline writers
    /// (no pool) ignore it.
    #[must_use]
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.pump.set_max_in_flight(cap);
        self
    }

    /// Feed the next chunk of little-endian element bytes. Chunks may be
    /// any size (they need not align with blocks or even elements); full
    /// blocks are compressed and their records emitted as they form.
    ///
    /// On error the writer abandons its in-flight jobs (releasing their
    /// pool slots immediately) and the stream is unusable; drop it.
    pub fn write(&mut self, bytes: &[u8]) -> Result<()> {
        let r = crate::fault::fail_point("frame.write").and_then(|()| {
            if bytes.len() > self.total - self.consumed {
                return Err(Error::BadDescriptor(format!(
                    "stream overflow: descriptor declares {} bytes but {} were written",
                    self.total,
                    self.consumed + bytes.len()
                )));
            }
            self.consumed += bytes.len();
            let sink = &mut self.sink;
            self.pump
                .write(bytes, |payload, _| put_block(sink, payload))
        });
        // An errored writer must not pin the engine for other sessions.
        self.pump.settle(r)
    }

    /// Emit records for in-flight blocks that have already finished
    /// compressing, without waiting on unfinished ones. Returns how many
    /// records were written. Callers that block on a slow input source
    /// (a network server reading a trickling client) call this while they
    /// wait, so completed jobs release their pool slots to other streams
    /// instead of staying pinned until the next `write`.
    ///
    /// On error the writer abandons its in-flight jobs and is unusable,
    /// like [`write`](Self::write).
    pub fn flush_ready(&mut self) -> Result<usize> {
        let sink = &mut self.sink;
        self.pump.flush_ready(|payload, _| put_block(sink, payload))
    }

    /// Emit the tail block, drain the pool, flush the sink, and return it.
    /// Errors if fewer element bytes were written than the descriptor
    /// declares (in-flight jobs are abandoned on any error — the writer is
    /// consumed either way).
    pub fn finish(mut self) -> Result<W> {
        if self.consumed != self.total {
            return Err(Error::BadDescriptor(format!(
                "stream ended after {} of {} element bytes",
                self.consumed, self.total
            )));
        }
        let sink = &mut self.sink;
        self.pump.finish(|payload, _| put_block(sink, payload))?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Emit one block record — payload length, then the payload — to `sink`.
fn put_block<W: Write>(sink: &mut W, payload: &[u8]) -> Result<()> {
    sink.write_all(&(payload.len() as u64).to_le_bytes())?;
    sink.write_all(payload)?;
    Ok(())
}

/// Read the next block record into `payload` — the [`ReaderPump`] payload
/// closure over `src` — rejecting implausibly long declared lengths before
/// allocating for them.
fn read_record<R: Read>(src: &mut R, block: &DataDesc, payload: &mut Vec<u8>) -> Result<()> {
    let mut le = [0u8; 8];
    src.read_exact(&mut le)?;
    let len = u64::from_le_bytes(le);
    let raw = block.byte_len();
    let len = usize::try_from(len)
        .ok()
        .filter(|&l| l <= plausible_payload_cap(raw))
        .ok_or_else(|| {
            Error::Corrupt(format!(
                "block record claims {len} payload bytes for a {raw}-byte block"
            ))
        })?;
    read_growing(src, len, payload)?;
    Ok(())
}

/// Streaming `FCB3` decoder; see the [module docs](self): a [`ReaderPump`]
/// whose payloads are the source's records.
pub struct FrameReader<R: Read> {
    src: R,
    desc: DataDesc,
    /// Reports into the pool-wide `stream.reader.blocks_in_flight` gauge and
    /// counts the caller's waits on blocks the read-ahead had not finished
    /// decoding in `stream.reader.read_ahead.stalls`.
    pump: ReaderPump<Arc<WorkerPool>>,
}

impl<R: Read> FrameReader<R> {
    /// Read and validate the stream prologue. The stream must have been
    /// written by `codec` (by name); block decoding fans out on `pool`
    /// when given.
    pub fn new(
        mut src: R,
        codec: Arc<dyn Compressor>,
        pool: Option<Arc<WorkerPool>>,
    ) -> Result<Self> {
        let (name, desc, block_elems) = decode_stream_header(&mut src)?;
        if name != codec.info().name {
            return Err(Error::Corrupt(format!(
                "stream was written by codec {:?} but {:?} was asked to decode it",
                name,
                codec.info().name
            )));
        }
        let inflight = pool_gauge(pool.as_ref(), "stream.reader.blocks_in_flight");
        let stalls = pool
            .as_ref()
            .map(|p| p.telemetry().counter("stream.reader.read_ahead.stalls"));
        let pump = ReaderPump::new(codec, pool, &desc, block_elems, inflight, stalls);
        Ok(FrameReader { src, desc, pump })
    }

    /// Cap this reader's decode read-ahead at `cap` in-flight blocks — the
    /// reader-side twin of [`FrameWriter::max_in_flight`]. Inline readers
    /// (no pool) ignore it.
    #[must_use]
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.pump.set_max_in_flight(cap);
        self
    }

    /// The stream's data descriptor.
    pub fn desc(&self) -> &DataDesc {
        &self.desc
    }

    /// Elements per block (the tail block may be short).
    pub fn block_elems(&self) -> usize {
        self.pump.block_elems
    }

    /// Total number of blocks in the stream.
    pub fn blocks_total(&self) -> usize {
        self.desc.elements().div_ceil(self.pump.block_elems)
    }

    /// Decode and return the next block's element bytes in stream order, or
    /// `None` after the final block. The returned slice lives until the
    /// next call. Any error fails the reader sticky: the read-ahead is
    /// abandoned (recycling its pool slots) and later calls refuse.
    pub fn next_block(&mut self) -> Result<Option<&[u8]>> {
        let src = &mut self.src;
        self.pump.next(|_, block, buf| read_record(src, block, buf))
    }

    /// Decode every remaining block into `out` (for a fresh reader: the
    /// whole dataset). Convenience for callers that do want the data
    /// resident; the bounded-memory path is [`next_block`](Self::next_block).
    pub fn read_to_end(&mut self, out: &mut FloatData) -> Result<()> {
        if self.pump.collected != 0 {
            return Err(Error::Unsupported(
                "read_to_end requires a fresh reader (blocks were already consumed)".into(),
            ));
        }
        let (desc, src, pump) = (&self.desc, &mut self.src, &mut self.pump);
        out.refill(desc, |bytes| {
            // lint: claim-checked(reservation clamped to MAX_UPFRONT_RESERVE)
            bytes.reserve(desc.byte_len().min(MAX_UPFRONT_RESERVE));
            while pump.next_into(bytes, |_, block, buf| read_record(src, block, buf))? {}
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Domain, Precision};
    use crate::pool::PoolConfig;
    use crate::testing::{HeaderedStore, Store};

    fn codec() -> Arc<dyn Compressor> {
        Arc::new(HeaderedStore)
    }

    fn sample(n: usize) -> FloatData {
        let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.31 - 7.5).collect();
        FloatData::from_f64(&vals, vec![n], Domain::TimeSeries).unwrap()
    }

    fn encode(
        data: &FloatData,
        block: usize,
        pool: Option<Arc<WorkerPool>>,
        chunk: usize,
    ) -> Vec<u8> {
        let mut w =
            FrameWriter::new(Vec::new(), codec(), data.desc().clone(), block, pool).unwrap();
        for c in data.bytes().chunks(chunk) {
            w.write(c).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_trips_inline_and_pooled_with_odd_chunking() {
        let n = 777;
        let data = sample(n);
        for block in [1usize, n - 1, n, n + 1, 64] {
            for pool_threads in [0usize, 2, 8] {
                let pool = (pool_threads > 0)
                    .then(|| Arc::new(WorkerPool::new(PoolConfig::with_threads(pool_threads))));
                // Chunk sizes that are not element-aligned.
                for chunk in [1usize, 13, 4096] {
                    let bytes = encode(&data, block, pool.clone(), chunk);
                    let mut r = FrameReader::new(&bytes[..], codec(), pool.clone()).unwrap();
                    assert_eq!(r.desc(), data.desc());
                    assert_eq!(r.blocks_total(), n.div_ceil(block.max(1)));
                    let mut restored = Vec::new();
                    while let Some(b) = r.next_block().unwrap() {
                        restored.extend_from_slice(b);
                    }
                    assert_eq!(
                        restored,
                        data.bytes(),
                        "block {block} pool {pool_threads} chunk {chunk}"
                    );
                    assert!(r.next_block().unwrap().is_none());
                }
            }
        }
    }

    #[test]
    fn read_to_end_restores_the_container() {
        let data = sample(300);
        let bytes = encode(&data, 64, None, 999);
        let mut r = FrameReader::new(&bytes[..], codec(), None).unwrap();
        let mut out = FloatData::scratch();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.bytes(), data.bytes());
        assert_eq!(out.desc(), data.desc());
        // Not fresh any more.
        assert!(r.read_to_end(&mut out).is_err());
    }

    #[test]
    fn short_stream_is_rejected_at_finish() {
        let data = sample(100);
        let mut w = FrameWriter::new(Vec::new(), codec(), data.desc().clone(), 32, None).unwrap();
        w.write(&data.bytes()[..400]).unwrap();
        assert!(matches!(w.finish(), Err(Error::BadDescriptor(_))));
    }

    #[test]
    fn overlong_write_is_rejected() {
        let data = sample(10);
        let mut w = FrameWriter::new(Vec::new(), codec(), data.desc().clone(), 4, None).unwrap();
        w.write(data.bytes()).unwrap();
        assert!(matches!(w.write(&[0u8; 1]), Err(Error::BadDescriptor(_))));
    }

    #[test]
    fn reader_rejects_wrong_codec_and_bad_magic() {
        let data = sample(50);
        let bytes = encode(&data, 16, None, 4096);
        assert!(FrameReader::new(&bytes[..], Arc::new(Store), None).is_err());

        let mut bad = bytes.clone();
        bad[3] = b'9';
        assert!(FrameReader::new(&bad[..], codec(), None).is_err());
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let data = sample(120);
        let bytes = encode(&data, 32, None, 4096);
        // Truncate at several depths: prologue, mid-record, mid-payload.
        for cut in [0usize, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut r = match FrameReader::new(&bytes[..cut], codec(), None) {
                Ok(r) => r,
                Err(_) => continue, // prologue truncation already failed
            };
            let mut result = Ok(());
            while match r.next_block() {
                Ok(Some(_)) => true,
                Ok(None) => false,
                Err(e) => {
                    result = Err(e);
                    false
                }
            } {}
            assert!(result.is_err(), "cut {cut} must surface an error");
        }

        // A record claiming an implausibly large payload is rejected
        // before allocation.
        let prologue_len = {
            let mut cursor = &bytes[..];
            crate::frame::decode_stream_header(&mut cursor).unwrap();
            bytes.len() - cursor.len()
        };
        let mut hostile = bytes[..prologue_len].to_vec();
        hostile.extend_from_slice(&u64::MAX.to_le_bytes());
        hostile.extend_from_slice(&[0u8; 16]);
        let mut r = FrameReader::new(&hostile[..], codec(), None).unwrap();
        assert!(matches!(r.next_block(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn reader_fails_sticky_after_a_corrupt_block() {
        let data = sample(300);
        let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2)));
        let bytes = encode(&data, 50, Some(Arc::clone(&pool)), 4096);
        let prologue_len = {
            let mut cursor = &bytes[..];
            crate::frame::decode_stream_header(&mut cursor).unwrap();
            bytes.len() - cursor.len()
        };
        // Corrupt the payloads of the first two records (flip the hstore
        // markers); with read-ahead, both failing jobs are in flight at
        // once — repeated reads must be typed errors, never a panic.
        let len0 =
            u64::from_le_bytes(bytes[prologue_len..prologue_len + 8].try_into().unwrap()) as usize;
        let mut bad = bytes.clone();
        bad[prologue_len + 8] ^= 0xFF;
        bad[prologue_len + 8 + len0 + 8] ^= 0xFF;

        let mut r = FrameReader::new(&bad[..], codec(), Some(pool)).unwrap();
        assert!(matches!(r.next_block(), Err(Error::Corrupt(_))));
        for _ in 0..3 {
            assert!(matches!(r.next_block(), Err(Error::Corrupt(_))));
        }
    }

    #[test]
    fn single_precision_streams_round_trip() {
        let vals: Vec<f32> = (0..500).map(|i| i as f32 * 0.25).collect();
        let data = FloatData::from_f32(&vals, vec![500], Domain::Observation).unwrap();
        assert_eq!(data.desc().precision, Precision::Single);
        let bytes = encode(&data, 7, None, 11);
        let mut r = FrameReader::new(&bytes[..], codec(), None).unwrap();
        let mut out = FloatData::scratch();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.bytes(), data.bytes());
    }

    #[test]
    fn flush_ready_emits_finished_blocks_without_blocking() {
        let data = sample(512);
        let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2)));
        let mut w = FrameWriter::new(
            Vec::new(),
            codec(),
            data.desc().clone(),
            32,
            Some(Arc::clone(&pool)),
        )
        .unwrap();
        w.write(&data.bytes()[..2048]).unwrap();
        // Once the pool has executed the submitted jobs, flush_ready emits
        // their records without waiting on anything.
        pool.drain();
        let flushed = w.flush_ready().unwrap();
        assert!(flushed > 0, "finished blocks must flush");
        assert_eq!(w.flush_ready().unwrap(), 0, "nothing left in flight");
        // The stream is still perfectly usable afterwards.
        w.write(&data.bytes()[2048..]).unwrap();
        let encoded = w.finish().unwrap();
        let mut r = FrameReader::new(&encoded[..], codec(), Some(pool)).unwrap();
        let mut restored = Vec::new();
        while let Some(b) = r.next_block().unwrap() {
            restored.extend_from_slice(b);
        }
        assert_eq!(restored, data.bytes());
    }

    #[test]
    fn in_flight_caps_round_trip_and_share_a_tiny_pool() {
        // Two streams capped at 1 job each share a 2-slot pool: neither can
        // pin both slots, so interleaving their writes cannot deadlock.
        let n = 400;
        let data = sample(n);
        let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2)));
        let mut a = FrameWriter::new(
            Vec::new(),
            codec(),
            data.desc().clone(),
            16,
            Some(Arc::clone(&pool)),
        )
        .unwrap()
        .max_in_flight(1);
        let mut b = FrameWriter::new(
            Vec::new(),
            codec(),
            data.desc().clone(),
            16,
            Some(Arc::clone(&pool)),
        )
        .unwrap()
        .max_in_flight(1);
        for chunk in data.bytes().chunks(128) {
            a.write(chunk).unwrap();
            b.write(chunk).unwrap();
        }
        for encoded in [a.finish().unwrap(), b.finish().unwrap()] {
            let mut r = FrameReader::new(&encoded[..], codec(), Some(Arc::clone(&pool)))
                .unwrap()
                .max_in_flight(1);
            let mut restored = Vec::new();
            while let Some(block) = r.next_block().unwrap() {
                restored.extend_from_slice(block);
            }
            assert_eq!(restored, data.bytes());
        }
    }

    /// The bit-at-a-time definition of CRC-32 (IEEE): the oracle the
    /// braided kernel is held to, sharing none of its tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut s = 0xFFFF_FFFFu32;
        for &b in bytes {
            s ^= b as u32;
            for _ in 0..8 {
                s = (s >> 1) ^ (0xEDB8_8320 & (s & 1).wrapping_neg());
            }
        }
        s ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Deterministic bytes that repeat no short pattern.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Every length from the byte loop alone through six braid blocks plus
    /// every tail, at every start offset within a word: the threshold, the
    /// fold after one unbraided block, and each later block count.
    #[test]
    fn crc32_braided_kernel_matches_the_bitwise_definition() {
        let max = 6 * BRAID_BLOCK + 47;
        let buf = noise(max + 8);
        for start in 0..8 {
            for len in 0..=max {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    /// Cuts inside a braid block, so each piece ends on a partial block and
    /// the next one starts braiding mid-stream from a carried state.
    #[test]
    fn crc32_incremental_cuts_inside_braid_blocks() {
        let buf = noise(20 * BRAID_BLOCK + 13);
        let want = crc32_bitwise(&buf);
        for cut in [1, BRAID_BLOCK / 2, BRAID_MIN + 5, 7 * BRAID_BLOCK + 29] {
            let mut h = Crc32::new();
            for piece in buf.chunks(cut) {
                h.update(piece);
            }
            assert_eq!(h.finish(), want, "pieces of {cut}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Random bytes through the byte loop: every length under the braid
        /// threshold, at every alignment of the first byte.
        #[test]
        fn crc32_kernel_matches_the_bitwise_definition(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 96usize),
        ) {
            for start in 0..16 {
                for len in 0..=80 {
                    let s = &buf[start..start + len];
                    assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
                }
            }
        }

        /// Incremental hashing agrees with one-shot, however the input splits.
        #[test]
        fn crc32_incremental_updates_equal_the_one_shot(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600usize),
            cuts in proptest::collection::vec(0usize..600, 0..6usize),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(buf.len())).collect();
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut at = 0;
            for cut in cuts {
                h.update(&buf[at..cut]);
                at = cut;
            }
            h.update(&buf[at..]);
            assert_eq!(h.finish(), crc32(&buf));
            assert_eq!(h.finish(), crc32_bitwise(&buf));
        }
    }

    /// The record at `bytes[pos..]`, framed and then verified.
    fn check_record(bytes: &[u8], pos: usize) -> std::result::Result<RecordView<'_>, RecordCheck> {
        frame_record(bytes, pos)?.verify()
    }

    #[test]
    fn framed_records_round_trip_in_parts() {
        let mut buf = Vec::new();
        let n = put_record(&mut buf, 7, &[b"hello ", b"", b"world"]).unwrap();
        assert_eq!(n, buf.len() as u64);
        assert_eq!(n, RECORD_OVERHEAD + 11);
        let rec = check_record(&buf, 0).expect("valid record");
        assert_eq!(rec.tag, 7);
        assert_eq!(rec.body, b"hello world");
        assert_eq!(rec.end, buf.len());
        let first_end = rec.end;

        // Multi-part framing is byte-identical to single-part framing.
        let mut single = Vec::new();
        put_record(&mut single, 7, &[b"hello world"]).unwrap();
        assert_eq!(buf, single);

        // Back-to-back records parse sequentially.
        put_record(&mut buf, 9, &[&[0xAA; 300]]).unwrap();
        let second = check_record(&buf, first_end).expect("second record");
        assert_eq!(second.tag, 9);
        assert_eq!(second.body.len(), 300);
        assert_eq!(second.end, buf.len());
    }

    #[test]
    fn torn_and_corrupt_records_are_distinguished() {
        let mut buf = Vec::new();
        put_record(&mut buf, 2, &[&[0x5A; 64]]).unwrap();
        // Every truncation is Truncated, never a panic or a false accept.
        for cut in 0..buf.len() {
            assert_eq!(
                check_record(&buf[..cut], 0).unwrap_err(),
                RecordCheck::Truncated,
                "cut {cut}"
            );
        }
        // Any single flipped body/header bit is a checksum mismatch.
        for i in [0usize, 5, 9, 40] {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            match check_record(&bad, 0) {
                Err(RecordCheck::Mismatch { stored, computed }) => {
                    assert_ne!(stored, computed)
                }
                // Flipping a length byte makes the record claim more than
                // the buffer holds instead.
                Err(RecordCheck::Truncated) => assert!((1..9).contains(&i)),
                Ok(_) => panic!("flipped byte {i} accepted"),
            }
        }
        // A length claiming far past the buffer is rejected before any
        // checksum work, as is a start past the end.
        let mut hostile = vec![1u8];
        hostile.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            check_record(&hostile, 0).unwrap_err(),
            RecordCheck::Truncated
        );
        assert!(check_record(&buf, buf.len()).is_err());
    }
}
