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
//! without an engine.
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

use crate::codec::Compressor;
use crate::data::{DataDesc, FloatData};
use crate::error::{Error, Result};
use crate::frame::{decode_stream_header, encode_stream_header};
use crate::pool::{Window, WorkerPool};
use fcbench_telemetry::InflightGauge;
use std::io::{Read, Write};
use std::sync::Arc;

/// Ceiling on one block record's declared payload length, as a multiple of
/// the block's raw byte size: no real codec expands a block anywhere near
/// 8x, so a stream claiming more is hostile or corrupt and is rejected
/// before the reader allocates for it.
const MAX_RECORD_EXPANSION: usize = 8;

/// Slack added to the record ceiling for codec headers on tiny blocks.
const RECORD_SLACK: usize = 4096;

/// Cap on the speculative upfront reservation when decoding a whole stream
/// into memory.
const MAX_UPFRONT_RESERVE: usize = 16 * 1024 * 1024;

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

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) slice-by-16 lookup
/// tables, built at compile time so the hasher has no runtime setup and no
/// allocation. `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC32_TABLES[k][b]` is the checksum state after byte `b` followed by `k`
/// zero bytes, which is what lets sixteen input bytes fold in one step.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The four table lookups one little-endian input word contributes to a
/// slice-by-16 step; `hi` is the table of the word's lowest-addressed byte.
#[inline(always)]
fn crc32_word(word: u32, hi: usize) -> u32 {
    CRC32_TABLES[hi][(word & 0xFF) as usize]
        ^ CRC32_TABLES[hi - 1][((word >> 8) & 0xFF) as usize]
        ^ CRC32_TABLES[hi - 2][((word >> 16) & 0xFF) as usize]
        ^ CRC32_TABLES[hi - 3][(word >> 24) as usize]
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

    /// Fold `bytes` into the running checksum: sixteen bytes per step
    /// (every stored FCDB2 byte passes through here once on write and once
    /// on read, so this loop bounds the container's throughput), then the
    /// byte-at-a-time loop for the tail.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ s;
            let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
            let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
            s = crc32_word(w0, 15) ^ crc32_word(w1, 11) ^ crc32_word(w2, 7) ^ crc32_word(w3, 3);
        }
        for &b in blocks.remainder() {
            s = CRC32_TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
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
pub const RECORD_OVERHEAD: u64 = 13;

/// Write one framed record to `sink`. The body is supplied in `parts` so a
/// caller can prepend a small header to a large payload without
/// concatenating them first; the checksum streams over the parts, so the
/// call allocates nothing. Returns the total bytes emitted
/// ([`RECORD_OVERHEAD`] + body length).
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

/// Why [`check_record`] could not return a valid record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordCheck {
    /// The buffer ends before the record does (a torn write, or not a
    /// record at all).
    Truncated,
    /// The record is complete but its stored checksum does not match.
    Mismatch { stored: u32, computed: u32 },
}

/// Validate the framed record starting at `bytes[pos..]`. The length field
/// is bounds-checked against the buffer **before** the checksum runs, so a
/// hostile length claims nothing.
pub fn check_record(bytes: &[u8], pos: usize) -> std::result::Result<RecordView<'_>, RecordCheck> {
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
    let computed = crc32(&bytes[pos..body_end]);
    if computed != stored {
        return Err(RecordCheck::Mismatch { stored, computed });
    }
    Ok(RecordView {
        tag: head[0],
        body: &bytes[body_start..body_end],
        end,
    })
}

/// [`check_record`] collapsed to an `Option` for scanners that only care
/// whether a valid record starts at `pos`.
pub fn take_record(bytes: &[u8], pos: usize) -> Option<RecordView<'_>> {
    check_record(bytes, pos).ok()
}

/// Streaming `FCB3` encoder; see the [module docs](self).
pub struct FrameWriter<W: Write> {
    sink: W,
    codec: Arc<dyn Compressor>,
    pool: Option<Arc<WorkerPool>>,
    desc: DataDesc,
    esize: usize,
    /// Bytes per full block (saturating; at least one element).
    bpb: usize,
    /// Partial-block accumulator.
    buf: Vec<u8>,
    /// In-flight pool jobs, in stream order; reports into the pool-wide
    /// `stream.writer.blocks_in_flight` gauge (unused without a pool).
    window: Window,
    /// Reusable per-block descriptor.
    bdesc: DataDesc,
    /// Inline-mode scratch input container.
    scratch: FloatData,
    /// Inline-mode payload buffer.
    payload: Vec<u8>,
    /// Element bytes accepted so far.
    consumed: usize,
    /// Bytes emitted to the sink so far.
    written: u64,
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
        let esize = desc.precision.bytes();
        let bdesc = DataDesc {
            precision: desc.precision,
            dims: vec![0],
            domain: desc.domain,
        };
        let inflight = pool.as_ref().map_or_else(InflightGauge::detached, |p| {
            InflightGauge::attached(p.telemetry().gauge("stream.writer.blocks_in_flight"))
        });
        Ok(FrameWriter {
            sink,
            codec,
            pool,
            esize,
            bpb: block_elems.saturating_mul(esize),
            buf: Vec::new(),
            window: Window::new(inflight, None),
            bdesc,
            scratch: FloatData::scratch(),
            payload: Vec::new(),
            consumed: 0,
            written: prologue.len() as u64,
            desc,
        })
    }

    /// Cap the number of blocks this writer may have in flight on a shared
    /// pool at once (see [`Window::set_max_in_flight`]). Inline writers (no
    /// pool) ignore it.
    #[must_use]
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.window.set_max_in_flight(cap);
        self
    }

    /// Element bytes accepted so far.
    pub fn bytes_consumed(&self) -> usize {
        self.consumed
    }

    /// Bytes emitted to the sink so far (more may still be in flight).
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Feed the next chunk of little-endian element bytes. Chunks may be
    /// any size (they need not align with blocks or even elements); full
    /// blocks are compressed and their records emitted as they form.
    ///
    /// On error the writer abandons its in-flight jobs (releasing their
    /// pool slots immediately) and the stream is unusable; drop it.
    pub fn write(&mut self, bytes: &[u8]) -> Result<()> {
        let r = crate::fault::fail_point("frame.write").and_then(|()| self.write_inner(bytes));
        // An errored writer must not pin the engine for other sessions.
        self.window.settle(r)
    }

    fn write_inner(&mut self, mut bytes: &[u8]) -> Result<()> {
        let total = self.desc.byte_len();
        if bytes.len() > total - self.consumed {
            return Err(Error::BadDescriptor(format!(
                "stream overflow: descriptor declares {total} bytes but {} were written",
                self.consumed + bytes.len()
            )));
        }
        self.consumed += bytes.len();
        while !bytes.is_empty() {
            // Whole blocks straight from the caller's chunk, no copy into
            // the accumulator.
            if self.buf.is_empty() && bytes.len() >= self.bpb {
                let (block, rest) = bytes.split_at(self.bpb);
                self.emit_block(block)?;
                bytes = rest;
                continue;
            }
            let need = self.bpb - self.buf.len();
            let take = need.min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            self.buf.extend_from_slice(head);
            bytes = rest;
            if self.buf.len() == self.bpb {
                let full = std::mem::take(&mut self.buf);
                self.emit_block(&full)?;
                self.buf = full;
                self.buf.clear();
            }
        }
        Ok(())
    }

    /// Compress one block (full, or the short tail) and emit / enqueue it.
    fn emit_block(&mut self, block: &[u8]) -> Result<()> {
        debug_assert!(!block.is_empty() && block.len() % self.esize == 0);
        self.bdesc.dims[0] = block.len() / self.esize;
        match self.pool.as_deref() {
            Some(pool) => self.window.push_compress(
                pool,
                &self.codec,
                &self.bdesc,
                block,
                (),
                |payload, ()| put_block(&mut self.sink, &mut self.written, payload),
            ),
            None => {
                self.scratch.refill_from_slice(&self.bdesc, block)?;
                let n = self.codec.compress_into(&self.scratch, &mut self.payload)?;
                put_block(&mut self.sink, &mut self.written, &self.payload[..n])
            }
        }
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
        let mut flushed = 0usize;
        while self
            .window
            .pop_ready(|payload, ()| put_block(&mut self.sink, &mut self.written, payload))?
            .is_some()
        {
            flushed += 1;
        }
        Ok(flushed)
    }

    /// Emit the tail block, drain the pool, flush the sink, and return it.
    /// Errors if fewer element bytes were written than the descriptor
    /// declares (in-flight jobs are abandoned on any error — the writer is
    /// consumed either way).
    pub fn finish(mut self) -> Result<W> {
        if self.consumed != self.desc.byte_len() {
            return Err(Error::BadDescriptor(format!(
                "stream ended after {} of {} element bytes",
                self.consumed,
                self.desc.byte_len()
            )));
        }
        if !self.buf.is_empty() {
            let tail = std::mem::take(&mut self.buf);
            self.emit_block(&tail)?;
        }
        while self
            .window
            .pop(|payload, ()| put_block(&mut self.sink, &mut self.written, payload))?
            .is_some()
        {}
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Emit one block record — payload length, then the payload — to `sink`.
fn put_block<W: Write>(sink: &mut W, written: &mut u64, payload: &[u8]) -> Result<()> {
    sink.write_all(&(payload.len() as u64).to_le_bytes())?;
    sink.write_all(payload)?;
    *written += 8 + payload.len() as u64;
    Ok(())
}

/// Where [`FrameReader::advance`] left the block it just decoded.
enum BlockHome {
    /// Inline mode: in `FrameReader::scratch`, the codec's decode target.
    Scratch,
    /// Pool mode: appended to the caller's buffer straight from the
    /// engine's slot.
    Appended,
}

/// Streaming `FCB3` decoder; see the [module docs](self).
pub struct FrameReader<R: Read> {
    src: R,
    codec: Arc<dyn Compressor>,
    pool: Option<Arc<WorkerPool>>,
    desc: DataDesc,
    block_elems: usize,
    nblocks: usize,
    /// Blocks whose records were read and submitted.
    submitted: usize,
    /// `payload` holds block `submitted`'s record, read but not yet
    /// submitted (the pool was saturated by other sessions).
    record_ready: bool,
    /// Blocks handed to the caller.
    collected: usize,
    /// The read-ahead jobs in flight, and the reader's sticky failure (in
    /// both modes): once a block errors, later reads refuse instead of
    /// yielding blocks out of order. Reports into the pool-wide
    /// `stream.reader.blocks_in_flight` gauge and counts the times the
    /// caller had to wait on a block the read-ahead had not finished
    /// decoding in `stream.reader.read_ahead.stalls`.
    window: Window,
    bdesc: DataDesc,
    /// Reusable compressed-record buffer.
    payload: Vec<u8>,
    /// Pool mode: the block most recently handed out by `next_block`.
    current: Vec<u8>,
    /// Inline mode: the reusable decode target.
    scratch: FloatData,
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
        let nblocks = desc.elements().div_ceil(block_elems);
        let bdesc = DataDesc {
            precision: desc.precision,
            dims: vec![0],
            domain: desc.domain,
        };
        let inflight = pool.as_ref().map_or_else(InflightGauge::detached, |p| {
            InflightGauge::attached(p.telemetry().gauge("stream.reader.blocks_in_flight"))
        });
        let stalls = pool
            .as_ref()
            .map(|p| p.telemetry().counter("stream.reader.read_ahead.stalls"));
        Ok(FrameReader {
            src,
            codec,
            pool,
            block_elems,
            nblocks,
            submitted: 0,
            record_ready: false,
            collected: 0,
            window: Window::new(inflight, stalls),
            bdesc,
            payload: Vec::new(),
            current: Vec::new(),
            scratch: FloatData::scratch(),
            desc,
        })
    }

    /// Cap this reader's decode read-ahead at `cap` in-flight blocks — the
    /// reader-side twin of [`FrameWriter::max_in_flight`]. Inline readers
    /// (no pool) ignore it.
    #[must_use]
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.window.set_max_in_flight(cap);
        self
    }

    /// The stream's data descriptor.
    pub fn desc(&self) -> &DataDesc {
        &self.desc
    }

    /// Elements per block (the tail block may be short).
    pub fn block_elems(&self) -> usize {
        self.block_elems
    }

    /// Total number of blocks in the stream.
    pub fn blocks_total(&self) -> usize {
        self.nblocks
    }

    /// Element count of block `i`.
    fn block_len(&self, i: usize) -> usize {
        let total = self.desc.elements();
        let start = i.saturating_mul(self.block_elems).min(total);
        self.block_elems.min(total - start)
    }

    /// Read the next block record into `self.payload`, rejecting
    /// implausibly long declared lengths before allocating for them.
    fn read_record(&mut self, block_idx: usize) -> Result<()> {
        let mut be = [0u8; 8];
        self.src.read_exact(&mut be)?;
        let len = u64::from_le_bytes(be);
        let raw = self
            .block_len(block_idx)
            .saturating_mul(self.desc.precision.bytes());
        let cap = raw
            .saturating_mul(MAX_RECORD_EXPANSION)
            .saturating_add(RECORD_SLACK);
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= cap)
            .ok_or_else(|| {
                Error::Corrupt(format!(
                    "block record claims {len} payload bytes for a {raw}-byte block"
                ))
            })?;
        // Grow the buffer as payload bytes actually arrive (1 MiB steps)
        // rather than reserving the full claim up front: a hostile record
        // that declares hundreds of megabytes but delivers nothing must
        // fail at EOF having committed one step, not the whole claim.
        // Memory tracks delivered bytes, the same discipline as bounded
        // length-prefixed reads elsewhere.
        const STEP: usize = 1 << 20;
        self.payload.clear();
        let mut filled = 0usize;
        while filled < len {
            let step = STEP.min(len - filled);
            self.payload.resize(filled + step, 0);
            self.src.read_exact(&mut self.payload[filled..])?;
            filled += step;
        }
        Ok(())
    }

    /// Decode and return the next block's element bytes in stream order, or
    /// `None` after the final block. The returned slice lives until the
    /// next call.
    pub fn next_block(&mut self) -> Result<Option<&[u8]>> {
        let mut current = std::mem::take(&mut self.current);
        current.clear();
        let home = self.advance(&mut current);
        self.current = current;
        Ok(match home? {
            None => None,
            Some(BlockHome::Scratch) => Some(self.scratch.bytes()),
            Some(BlockHome::Appended) => Some(&self.current),
        })
    }

    /// Decode the next block, appending its element bytes to `out` in pool
    /// mode and leaving them in `scratch` inline (see [`BlockHome`]). Any
    /// error fails the reader sticky: the read-ahead is abandoned
    /// (recycling its pool slots) and later calls refuse.
    fn advance(&mut self, out: &mut Vec<u8>) -> Result<Option<BlockHome>> {
        self.window.check()?;
        let r = self.advance_inner(out);
        self.window.settle(r)
    }

    fn advance_inner(&mut self, out: &mut Vec<u8>) -> Result<Option<BlockHome>> {
        if self.collected == self.nblocks {
            return Ok(None);
        }
        let Some(pool) = self.pool.clone() else {
            self.read_record(self.collected)?;
            self.bdesc.dims[0] = self.block_len(self.collected);
            crate::blocks::check_decode_claim(&self.bdesc, self.payload.len())?;
            self.codec
                .decompress_into(&self.payload, &self.bdesc, &mut self.scratch)?;
            if self.scratch.bytes().len() != self.bdesc.byte_len() {
                return Err(Error::Corrupt("block decoded to a wrong size".into()));
            }
            self.collected += 1;
            return Ok(Some(BlockHome::Scratch));
        };
        // Keep the read-ahead window full. When the window declines a
        // block (it is full, or the pool is saturated while we hold
        // tickets) the top-up just ends: the record already read off `src`
        // waits in `payload` for the next call.
        while self.submitted < self.nblocks {
            let i = self.submitted;
            if !self.record_ready {
                self.read_record(i)?;
                self.record_ready = true;
            }
            self.bdesc.dims[0] = self.block_len(i);
            if !self.window.try_push_decompress(
                &pool,
                &self.codec,
                &self.bdesc,
                &self.payload,
                (),
            )? {
                break;
            }
            self.submitted += 1;
            self.record_ready = false;
        }
        self.window
            .pop(|decoded, ()| {
                out.extend_from_slice(decoded);
                Ok(())
            })?
            .ok_or_else(|| Error::Corrupt("stream reader lost its read-ahead".into()))?;
        self.collected += 1;
        Ok(Some(BlockHome::Appended))
    }

    /// Decode every remaining block into `out` (for a fresh reader: the
    /// whole dataset). Convenience for callers that do want the data
    /// resident; the bounded-memory path is [`next_block`](Self::next_block).
    pub fn read_to_end(&mut self, out: &mut FloatData) -> Result<()> {
        if self.collected != 0 {
            return Err(Error::Unsupported(
                "read_to_end requires a fresh reader (blocks were already consumed)".into(),
            ));
        }
        let desc = self.desc.clone();
        out.refill(&desc, |bytes| {
            // lint: claim-checked(reservation clamped to MAX_UPFRONT_RESERVE)
            bytes.reserve(desc.byte_len().min(MAX_UPFRONT_RESERVE));
            while let Some(home) = self.advance(bytes)? {
                if let BlockHome::Scratch = home {
                    bytes.extend_from_slice(self.scratch.bytes());
                }
            }
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
        let before = w.bytes_written();
        let flushed = w.flush_ready().unwrap();
        assert!(flushed > 0, "finished blocks must flush");
        assert!(w.bytes_written() > before);
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
    /// table-driven kernel is held to, sharing none of its tables.
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Every length that exercises zero to five 16-byte steps plus every
        /// tail, at every alignment of the first byte.
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

    #[test]
    fn framed_records_round_trip_in_parts() {
        let mut buf = Vec::new();
        let n = put_record(&mut buf, 7, &[b"hello ", b"", b"world"]).unwrap();
        assert_eq!(n, buf.len() as u64);
        assert_eq!(n, RECORD_OVERHEAD + 11);
        let rec = take_record(&buf, 0).expect("valid record");
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
        let second = take_record(&buf, first_end).expect("second record");
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
        assert!(take_record(&buf, buf.len()).is_none());
    }

    #[test]
    fn writer_reports_progress() {
        let data = sample(100);
        let mut w = FrameWriter::new(Vec::new(), codec(), data.desc().clone(), 25, None).unwrap();
        assert_eq!(w.bytes_consumed(), 0);
        let prologue = w.bytes_written();
        assert!(prologue > 0);
        w.write(data.bytes()).unwrap();
        assert_eq!(w.bytes_consumed(), data.bytes().len());
        assert!(w.bytes_written() > prologue);
        let out = w.finish().unwrap();
        assert!(!out.is_empty());
    }
}
