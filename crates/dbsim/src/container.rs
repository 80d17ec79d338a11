//! `FCDB2`: streaming, append-friendly chunked columnar container — the
//! on-disk half of the paper's simulated database (§5.1.2, Figure 4).
//!
//! Mirrors how HDF5 stores a dataset: data arranged by field (column),
//! each column split into fixed-element **chunks** (disk pages), each
//! chunk passed through a compression filter. The reader can fetch and
//! decompress chunks independently, which is what the Table 11 "read"
//! primitive measures.
//!
//! `FCDB2` is a record *log*: chunks stream to the sink as they finish
//! compressing, the directory trails the data it describes, and a
//! checksummed commit footer marks the last commit point (durable once the
//! caller syncs the file; see [`ContainerWriter::commit`]). Writing holds
//! at most the in-flight compression window in memory, and a torn write
//! loses only the records after the last commit.
//!
//! File layout (little-endian), built on the shared
//! [record framing](fcbench_core::stream::put_record):
//!
//! ```text
//! prologue:
//!   magic "FCD2"        4 bytes
//!   codec name          u8 len + bytes
//!   crc32               u32  (over the preceding prologue bytes)
//! records, each framed as `tag u8 | body len u64 | body | crc32 u32`:
//!   COLUMN (tag 1)      name u8 len + bytes | precision u8 | chunk elems u32
//!   CHUNK  (tag 2)      elems u32 | compressed payload
//!   COMMIT (tag 3)      directory of every column/chunk written so far:
//!                         column count u32, then per column
//!                           name u8 len + bytes | precision u8 | rows u64
//!                           chunk elems u32 | chunk count u32
//!                           per chunk: offset u64 | payload len u64 | elems u32
//! locator (after every COMMIT record):
//!   magic "FC2C"        4 bytes
//!   commit offset       u64  (file offset of the COMMIT record)
//!   crc32               u32  (over the preceding locator bytes)
//! ```
//!
//! A **commit point** is a valid `COMMIT` record; the locator is only a
//! fast path for finding the last one without scanning. [`read_container`]
//! first tries the trailing locator and, when the tail is torn, scans
//! forward from the prologue validating record checksums, resuming from
//! the last valid commit and reporting how many uncommitted records were
//! dropped as [`RecoveryOutcome::Recovered`]. Corruption *inside* the
//! committed region (a chunk record whose checksum fails while the
//! directory referencing it is valid) is an error, not a recovery —
//! recovery is for torn tails only.

use fcbench_core::pool::{Window, WorkerPool};
use fcbench_core::stream::{check_record, crc32, put_record, take_record, RecordCheck};
use fcbench_core::wire;
use fcbench_core::{Compressor, DataDesc, Domain, Error, Precision, Result};
use fcbench_telemetry::{Counter, Histogram, InflightGauge};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Magic of the `FCDB2` layout.
const MAGIC: &[u8; 4] = b"FCD2";
/// Magic of the commit locator written after every `COMMIT` record.
const LOCATOR_MAGIC: &[u8; 4] = b"FC2C";
/// Size of a commit locator: magic + commit offset + crc32.
const LOCATOR_BYTES: usize = 16;

/// Record tags.
const TAG_COLUMN: u8 = 1;
const TAG_CHUNK: u8 = 2;
const TAG_COMMIT: u8 = 3;

/// Directory bytes per chunk entry: offset u64 + payload len u64 + elems u32.
const CHUNK_DIR_BYTES: usize = 20;
/// Directory bytes per column beyond its name and chunk table.
const COLUMN_DIR_BYTES: usize = 18;

/// Ceiling on a directory's declared chunk payload length, as a multiple
/// of the chunk's raw byte size (the container twin of the `FCB3` stream's
/// record-expansion gate): no real codec expands a chunk anywhere near 8x,
/// so a directory claiming more is hostile or corrupt and is rejected
/// before anything is reserved for it.
const MAX_CHUNK_EXPANSION: usize = 8;

/// Slack added to the chunk ceiling for codec headers on tiny chunks.
const CHUNK_SLACK: usize = 4096;

/// Cap on the speculative upfront reservation when decoding a whole column
/// into memory; beyond it, memory grows as decoded bytes actually arrive.
const MAX_UPFRONT_RESERVE: usize = 16 * 1024 * 1024;

/// Buffer between a container writer and its file. A page record is larger
/// than `BufWriter`'s 8 KiB default, which would turn every page into two
/// `write(2)` calls (the buffered record head, then the payload bypassing
/// the buffer); at 1 MiB whole runs of records leave in one.
const WRITE_BUFFER_BYTES: usize = 1 << 20;

/// `sink` behind the container's write buffer.
fn buffered<W: Write>(sink: W) -> std::io::BufWriter<W> {
    std::io::BufWriter::with_capacity(WRITE_BUFFER_BYTES, sink)
}

/// One column to be written.
pub struct ColumnData {
    pub name: String,
    pub precision: Precision,
    /// Raw little-endian element bytes.
    pub bytes: Vec<u8>,
}

impl ColumnData {
    pub fn from_f64(name: impl Into<String>, values: &[f64]) -> Self {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        ColumnData {
            name: name.into(),
            precision: Precision::Double,
            bytes,
        }
    }

    pub fn from_f32(name: impl Into<String>, values: &[f32]) -> Self {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        ColumnData {
            name: name.into(),
            precision: Precision::Single,
            bytes,
        }
    }

    pub fn rows(&self) -> usize {
        self.bytes.len() / self.precision.bytes()
    }
}

fn precision_byte(p: Precision) -> u8 {
    match p {
        Precision::Single => 0,
        Precision::Double => 1,
    }
}

/// Write the `FCDB2` prologue; returns its byte length.
fn write_prologue<W: Write>(sink: &mut W, codec_name: &str) -> Result<u64> {
    let name = codec_name.as_bytes();
    if name.len() > 255 {
        return Err(Error::NameTooLong { len: name.len() });
    }
    let mut pro = Vec::with_capacity(9 + name.len());
    pro.extend_from_slice(MAGIC);
    pro.push(name.len() as u8);
    pro.extend_from_slice(name);
    let crc = crc32(&pro);
    pro.extend_from_slice(&crc.to_le_bytes());
    sink.write_all(&pro)?;
    Ok(pro.len() as u64)
}

/// The locator bytes for a `COMMIT` record at `commit_offset`.
fn locator(commit_offset: u64) -> [u8; LOCATOR_BYTES] {
    let mut loc = [0u8; LOCATOR_BYTES];
    loc[..4].copy_from_slice(LOCATOR_MAGIC);
    loc[4..12].copy_from_slice(&commit_offset.to_le_bytes());
    let crc = crc32(&loc[..12]).to_le_bytes();
    loc[12..].copy_from_slice(&crc);
    loc
}

/// Directory metadata of one written column.
struct ColumnMeta {
    name: String,
    precision: Precision,
    chunk_elems: u32,
    rows: u64,
    chunks: Vec<ChunkMeta>,
}

/// Directory metadata of one written chunk record.
struct ChunkMeta {
    /// File offset of the chunk's record (its framing tag byte).
    offset: u64,
    payload_len: u64,
    elems: u32,
}

/// The metadata entry of the column the writer's `open` flag says is being
/// written. `begin_column` pushes the entry and raises the flag together,
/// so a miss means the writer's own state went inconsistent — reported as
/// a typed error rather than a panic in the serving path.
fn open_column(columns: &[ColumnMeta]) -> Result<&ColumnMeta> {
    columns
        .last()
        .ok_or_else(|| Error::Unsupported("internal: open flag set with no column entry".into()))
}

fn open_column_mut(columns: &mut [ColumnMeta]) -> Result<&mut ColumnMeta> {
    columns
        .last_mut()
        .ok_or_else(|| Error::Unsupported("internal: open flag set with no column entry".into()))
}

/// Serialize the cumulative commit directory.
fn encode_directory(columns: &[ColumnMeta]) -> Vec<u8> {
    let body: usize = columns
        .iter()
        .map(|c| COLUMN_DIR_BYTES + c.name.len() + c.chunks.len() * CHUNK_DIR_BYTES)
        .sum();
    let mut dir = Vec::with_capacity(4 + body);
    dir.extend_from_slice(&(columns.len() as u32).to_le_bytes());
    for col in columns {
        dir.push(col.name.len() as u8);
        dir.extend_from_slice(col.name.as_bytes());
        dir.push(precision_byte(col.precision));
        dir.extend_from_slice(&col.rows.to_le_bytes());
        dir.extend_from_slice(&col.chunk_elems.to_le_bytes());
        dir.extend_from_slice(&(col.chunks.len() as u32).to_le_bytes());
        for ch in &col.chunks {
            dir.extend_from_slice(&ch.offset.to_le_bytes());
            dir.extend_from_slice(&ch.payload_len.to_le_bytes());
            dir.extend_from_slice(&ch.elems.to_le_bytes());
        }
    }
    dir
}

/// The record side of a [`ContainerWriter`]: the sink, how far it has got,
/// and the directory the next commit writes.
struct RecordLog<W> {
    sink: W,
    /// Bytes emitted to the sink so far (more may still be in flight).
    written: u64,
    /// Records emitted since the last commit (COLUMN and CHUNK alike).
    uncommitted: u64,
    /// Directory metadata of every column so far (commits are cumulative).
    columns: Vec<ColumnMeta>,
}

impl<W: Write> RecordLog<W> {
    /// Emit one chunk record and log its directory metadata.
    fn put_chunk(&mut self, elems: u32, payload: &[u8]) -> Result<()> {
        let rec = put_record(&mut self.sink, TAG_CHUNK, &[&elems.to_le_bytes(), payload])?;
        let col = open_column_mut(&mut self.columns)?;
        col.chunks.push(ChunkMeta {
            offset: self.written,
            payload_len: payload.len() as u64,
            elems,
        });
        col.rows += elems as u64;
        self.written += rec;
        self.uncommitted += 1;
        Ok(())
    }
}

/// Streaming `FCDB2` encoder: columns are declared with
/// [`begin_column`](Self::begin_column), fed element bytes in
/// arbitrary-sized chunks with [`write`](Self::write), and committed with
/// [`commit`](Self::commit). Full chunks are compressed as jobs on the
/// [`WorkerPool`] engine (with `FrameWriter`-style bounded in-flight
/// submission) and their records emitted in page order as they finish, so
/// the writer's footprint is bounded by the in-flight window — never by
/// the container size. A codec that fails or panics on a page surfaces as
/// that page's typed error ([`Error::WorkerPanic`] for a panic).
///
/// On any error the writer abandons its in-flight jobs (releasing their
/// pool slots immediately) and is unusable; drop it. The file then ends in
/// a torn tail that [`read_container`] recovers past.
pub struct ContainerWriter<'a, W: Write> {
    log: RecordLog<W>,
    pool: &'a WorkerPool,
    codec: &'a Arc<dyn Compressor>,
    /// Commits emitted so far.
    commits: u64,
    /// Whether the last of `log.columns` is still accepting bytes.
    open: bool,
    /// Partial-chunk accumulator for the open column.
    buf: Vec<u8>,
    /// In-flight pool jobs, in chunk order (never spanning columns), each
    /// tagged with its element count.
    window: Window<u32>,
    /// Reusable per-chunk descriptor.
    bdesc: DataDesc,
    /// Commit latency (`dbsim.container.commit`), spanning the column
    /// close, directory emit, locator, and sink flush.
    m_commit: Histogram,
    /// Commits emitted (`dbsim.container.commits`).
    m_commits: Counter,
    /// Records covered by commits (`dbsim.container.records.committed`).
    m_records: Counter,
}

impl<'a, W: Write> ContainerWriter<'a, W> {
    /// Start a container on `sink` whose pages `codec` compresses on
    /// `pool`; the prologue is written immediately.
    pub fn new(mut sink: W, pool: &'a WorkerPool, codec: &'a Arc<dyn Compressor>) -> Result<Self> {
        let written = write_prologue(&mut sink, codec.info().name)?;
        let reg = crate::metrics::registry();
        Ok(ContainerWriter {
            log: RecordLog {
                sink,
                written,
                uncommitted: 0,
                columns: Vec::new(),
            },
            pool,
            codec,
            commits: 0,
            open: false,
            buf: Vec::new(),
            window: Window::new(InflightGauge::detached(), None),
            bdesc: DataDesc::new(Precision::Double, vec![1], Domain::Database)?,
            m_commit: reg.histogram("dbsim.container.commit"),
            m_commits: reg.counter("dbsim.container.commits"),
            m_records: reg.counter("dbsim.container.records.committed"),
        })
    }

    /// Cap the number of chunks this writer may have in flight on a shared
    /// pool at once (see [`Window::set_max_in_flight`]).
    #[must_use]
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.window.set_max_in_flight(cap);
        self
    }

    /// Bytes emitted to the sink so far.
    pub fn bytes_written(&self) -> u64 {
        self.log.written
    }

    /// Records emitted since the last commit — what a crash right now
    /// would lose.
    pub fn uncommitted_records(&self) -> u64 {
        self.log.uncommitted
    }

    /// Open a new column (closing the previous one, if any): `chunk_elems`
    /// is the page size in elements, the Table 10 variable.
    pub fn begin_column(
        &mut self,
        name: impl Into<String>,
        precision: Precision,
        chunk_elems: usize,
    ) -> Result<()> {
        let r = self.begin_column_inner(name.into(), precision, chunk_elems);
        self.window.settle(r)
    }

    fn begin_column_inner(
        &mut self,
        name: String,
        precision: Precision,
        chunk_elems: usize,
    ) -> Result<()> {
        if name.len() > 255 {
            return Err(Error::NameTooLong { len: name.len() });
        }
        if chunk_elems == 0 || chunk_elems > u32::MAX as usize {
            return Err(Error::BadDescriptor(format!(
                "chunk size {chunk_elems} is outside 1..=u32::MAX elements"
            )));
        }
        self.end_column_inner()?;
        let nlen = [name.len() as u8];
        let prec = [precision_byte(precision)];
        let ce = (chunk_elems as u32).to_le_bytes();
        let rec = put_record(
            &mut self.log.sink,
            TAG_COLUMN,
            &[&nlen, name.as_bytes(), &prec, &ce],
        )?;
        self.log.written += rec;
        self.log.uncommitted += 1;
        self.bdesc.precision = precision;
        self.log.columns.push(ColumnMeta {
            name,
            precision,
            chunk_elems: chunk_elems as u32,
            rows: 0,
            chunks: Vec::new(),
        });
        self.open = true;
        Ok(())
    }

    /// Feed the next chunk of little-endian element bytes for the open
    /// column. Chunks may be any size (they need not align with pages or
    /// even elements); full pages are compressed and their records emitted
    /// as they form.
    pub fn write(&mut self, bytes: &[u8]) -> Result<()> {
        let r = self.write_inner(bytes);
        self.window.settle(r)
    }

    fn write_inner(&mut self, mut bytes: &[u8]) -> Result<()> {
        if !self.open {
            return Err(Error::Unsupported(
                "container writer has no open column (call begin_column first)".into(),
            ));
        }
        let col = open_column(&self.log.columns)?;
        let cbytes = (col.chunk_elems as usize).saturating_mul(col.precision.bytes());
        while !bytes.is_empty() {
            // Whole pages straight from the caller's chunk, no copy into
            // the accumulator.
            if self.buf.is_empty() && bytes.len() >= cbytes {
                let (chunk, rest) = bytes.split_at(cbytes);
                self.emit_chunk(chunk)?;
                bytes = rest;
                continue;
            }
            let need = cbytes - self.buf.len();
            let take = need.min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            self.buf.extend_from_slice(head);
            bytes = rest;
            if self.buf.len() == cbytes {
                let full = std::mem::take(&mut self.buf);
                self.emit_chunk(&full)?;
                self.buf = full;
                self.buf.clear();
            }
        }
        Ok(())
    }

    /// Submit one page (full, or the short tail) to the engine, emitting
    /// the records of the oldest finished pages whenever the window is full.
    fn emit_chunk(&mut self, chunk: &[u8]) -> Result<()> {
        let esize = open_column(&self.log.columns)?.precision.bytes();
        debug_assert!(!chunk.is_empty() && chunk.len() % esize == 0);
        let elems = (chunk.len() / esize) as u32;
        self.bdesc.dims[0] = chunk.len() / esize;
        self.window.push_compress(
            self.pool,
            self.codec,
            &self.bdesc,
            chunk,
            elems,
            |payload, elems| self.log.put_chunk(elems, payload),
        )
    }

    /// Close the open column: emit the short tail page (if any) and drain
    /// the in-flight window so the column's directory metadata is complete.
    /// A no-op when no column is open.
    pub fn end_column(&mut self) -> Result<()> {
        let r = self.end_column_inner();
        self.window.settle(r)
    }

    fn end_column_inner(&mut self) -> Result<()> {
        if !self.open {
            return Ok(());
        }
        if !self.buf.is_empty() {
            let esize = open_column(&self.log.columns)?.precision.bytes();
            if self.buf.len() % esize != 0 {
                return Err(Error::BadDescriptor(format!(
                    "column ended mid-element: {} trailing bytes with {esize}-byte elements",
                    self.buf.len() % esize
                )));
            }
            let tail = std::mem::take(&mut self.buf);
            let r = self.emit_chunk(&tail);
            self.buf = tail;
            self.buf.clear();
            r?;
        }
        while self
            .window
            .pop(|payload, elems| self.log.put_chunk(elems, payload))?
            .is_some()
        {}
        self.open = false;
        Ok(())
    }

    /// Close the open column, then emit the cumulative directory as a
    /// `COMMIT` record plus its locator and flush the sink. Every record
    /// reaches the sink in order and before the commit that names it, but
    /// the writer promises no durability of its own: surviving a crash
    /// takes the caller's sync of the file ([`write_container_pooled`]
    /// does one `sync_all` at the end). A reader recovering a torn file
    /// resumes from the newest commit point it can validate.
    pub fn commit(&mut self) -> Result<()> {
        let r = self.commit_inner();
        self.window.settle(r)
    }

    fn commit_inner(&mut self) -> Result<()> {
        fcbench_core::fault::fail_point("container.commit")?;
        let _span = self.m_commit.start_span();
        self.end_column_inner()?;
        let log = &mut self.log;
        let dir = encode_directory(&log.columns);
        let commit_offset = log.written;
        log.written += put_record(&mut log.sink, TAG_COMMIT, &[&dir])?;
        log.sink.write_all(&locator(commit_offset))?;
        log.written += LOCATOR_BYTES as u64;
        self.m_records.add(log.uncommitted);
        self.m_commits.inc();
        log.uncommitted = 0;
        self.commits += 1;
        log.sink.flush()?;
        Ok(())
    }

    /// Commit any uncommitted records and return the sink. (A container
    /// that never committed gets its first commit here, so every finished
    /// container has at least one commit point — even an empty one.)
    pub fn finish(mut self) -> Result<W> {
        if self.log.uncommitted > 0 || self.commits == 0 {
            self.commit_inner()?;
        }
        Ok(self.log.sink)
    }
}

/// Write `columns` to `path`, each page compressed by `codec` as a job on
/// `pool`: up to `queue_depth` pages are in flight at once, collected in
/// page order. `chunk_elems` is the page size in elements (the Table 10
/// variable). The file is synced once, after the last commit.
pub fn write_container_pooled(
    path: &Path,
    pool: &WorkerPool,
    codec: &Arc<dyn Compressor>,
    columns: &[ColumnData],
    chunk_elems: usize,
) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = ContainerWriter::new(buffered(file), pool, codec)?;
    for col in columns {
        w.begin_column(col.name.clone(), col.precision, chunk_elems)?;
        w.write(&col.bytes)?;
    }
    let sink = w.finish()?;
    let file = sink.into_inner().map_err(|e| Error::Io(e.to_string()))?;
    file.sync_all()?;
    Ok(())
}

/// A column read back from disk (still compressed). The chunk payloads are
/// not copied out of the file: the column holds the container's image —
/// once, shared with the table's other columns — and a verified range of it
/// per chunk, handed out by [`chunk`](Self::chunk) and
/// [`chunks`](Self::chunks).
#[derive(Debug)]
pub struct CompressedColumn {
    pub name: String,
    pub precision: Precision,
    pub rows: usize,
    pub chunk_elems: usize,
    /// The bytes every chunk range points into.
    image: Arc<Vec<u8>>,
    /// Compressed chunk payloads as ranges of `image`, each checked to lie
    /// inside it when the column was built.
    chunks: Vec<Range<usize>>,
}

/// A parsed container (I/O done, decode pending).
#[derive(Debug)]
pub struct CompressedTable {
    pub codec_name: String,
    pub columns: Vec<CompressedColumn>,
}

/// How [`read_container`] arrived at the table it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The trailing commit locator validated and every byte is accounted
    /// for: the file is exactly what its writer finished.
    Clean,
    /// The file ends in a torn write. The reader resumed from the last
    /// valid commit point, dropping `dropped_records` uncommitted records
    /// (complete-but-uncommitted records, plus one for a partial tail
    /// record when present).
    Recovered { dropped_records: u64 },
}

/// A parsed container together with its [`RecoveryOutcome`].
#[derive(Debug)]
pub struct ContainerRead {
    pub table: CompressedTable,
    pub outcome: RecoveryOutcome,
}

impl ContainerRead {
    /// `true` when the file was exactly what its writer finished.
    pub fn is_clean(&self) -> bool {
        self.outcome == RecoveryOutcome::Clean
    }
}

/// Read the container file: this is the Table 11 **file I/O** primitive
/// (bytes land in memory; nothing is decompressed yet). A torn tail is
/// recovered, not errored — check [`ContainerRead::outcome`].
pub fn read_container(path: &Path) -> Result<ContainerRead> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    parse_image(Arc::new(bytes))
}

/// [`read_container`] over an in-memory image (exposed so recovery tests
/// can truncate at arbitrary byte boundaries without touching disk). The
/// table keeps its own copy of `bytes`.
pub fn parse_container(bytes: &[u8]) -> Result<ContainerRead> {
    parse_image(Arc::new(bytes.to_vec()))
}

/// Parse a container image the returned table then owns: its columns
/// borrow their chunk payloads from it instead of copying them out.
fn parse_image(image: Arc<Vec<u8>>) -> Result<ContainerRead> {
    let read = parse_records(&image)?;
    note_outcome(&read.outcome);
    Ok(read)
}

/// Count how a parse resolved: `dbsim.recovery.clean` / `.recovered` tally
/// outcomes, and `dbsim.recovery.dropped_records` accumulates the records
/// lost to torn tails.
fn note_outcome(outcome: &RecoveryOutcome) {
    let reg = crate::metrics::registry();
    match outcome {
        RecoveryOutcome::Clean => reg.counter("dbsim.recovery.clean").inc(),
        RecoveryOutcome::Recovered { dropped_records } => {
            reg.counter("dbsim.recovery.recovered").inc();
            reg.counter("dbsim.recovery.dropped_records")
                .add(*dropped_records);
        }
    }
}

/// Validate the prologue; returns the codec name and the offset of the
/// first record. Truncation here is an error, not a recovery — no commit
/// point can exist in a file without a complete prologue.
fn parse_prologue(bytes: &[u8]) -> Result<(String, usize)> {
    if bytes.len() < 4 {
        return Err(Error::Corrupt("container prologue truncated".into()));
    }
    if &bytes[..4] != MAGIC {
        return Err(Error::Corrupt("bad container magic".into()));
    }
    let nlen = usize::from(
        *bytes
            .get(4)
            .ok_or_else(|| Error::Corrupt("container prologue truncated".into()))?,
    );
    let crc_at = 5 + nlen;
    let end = crc_at + 4;
    if bytes.len() < end {
        return Err(Error::Corrupt("container prologue truncated".into()));
    }
    let stored = wire::le_u32(bytes, crc_at)?;
    let computed = crc32(&bytes[..crc_at]);
    if stored != computed {
        return Err(Error::ChecksumMismatch {
            context: "container prologue".into(),
            stored,
            computed,
        });
    }
    let codec_name = String::from_utf8(bytes[5..crc_at].to_vec())
        .map_err(|_| Error::Corrupt("codec name not UTF-8".into()))?;
    Ok((codec_name, end))
}

/// Fast path: the last [`LOCATOR_BYTES`] of the file are a valid locator
/// whose `COMMIT` record validates and closes the file exactly. Returns
/// the commit directory when so.
fn valid_trailing_locator(bytes: &[u8], body_start: usize) -> Option<&[u8]> {
    if bytes.len() < body_start + LOCATOR_BYTES {
        return None;
    }
    let loc = &bytes[bytes.len() - LOCATOR_BYTES..];
    if &loc[..4] != LOCATOR_MAGIC {
        return None;
    }
    let stored = wire::le_u32(loc, 12).ok()?;
    if crc32(&loc[..12]) != stored {
        return None;
    }
    let offset = usize::try_from(wire::le_u64(loc, 4).ok()?).ok()?;
    if offset < body_start {
        return None;
    }
    let rec = take_record(bytes, offset)?;
    if rec.tag != TAG_COMMIT || rec.end + LOCATOR_BYTES != bytes.len() {
        return None;
    }
    Some(rec.body)
}

fn parse_records(image: &Arc<Vec<u8>>) -> Result<ContainerRead> {
    let bytes = image.as_slice();
    let (codec_name, body_start) = parse_prologue(bytes)?;

    if let Some(dir) = valid_trailing_locator(bytes, body_start) {
        let columns = load_directory(image, dir, body_start)?;
        return Ok(ContainerRead {
            table: CompressedTable {
                codec_name,
                columns,
            },
            outcome: RecoveryOutcome::Clean,
        });
    }

    // Torn tail: scan forward from the prologue, validating record
    // checksums, and resume from the last commit point that validates.
    let mut pos = body_start;
    let mut last_commit: Option<&[u8]> = None;
    let mut since_commit: u64 = 0;
    let mut torn_tail = false;
    while pos < bytes.len() {
        match take_record(bytes, pos) {
            Some(rec) if rec.tag == TAG_COMMIT => {
                last_commit = Some(rec.body);
                since_commit = 0;
                // The writer put a locator right after this commit; skip
                // it — including a torn prefix of it at EOF, which loses
                // nothing (the commit record alone is the commit point).
                let expect = locator(pos as u64);
                let avail = &bytes[rec.end..];
                let k = avail.len().min(LOCATOR_BYTES);
                if avail[..k] == expect[..k] {
                    pos = rec.end + k;
                } else {
                    pos = rec.end;
                }
            }
            Some(rec) => {
                since_commit += 1;
                pos = rec.end;
            }
            None => {
                torn_tail = true;
                break;
            }
        }
    }
    let dropped_records = since_commit + u64::from(torn_tail);
    let columns = match last_commit {
        Some(dir) => load_directory(image, dir, body_start)?,
        // No commit ever made it to disk: recover to the empty container.
        None => Vec::new(),
    };
    Ok(ContainerRead {
        table: CompressedTable {
            codec_name,
            columns,
        },
        outcome: RecoveryOutcome::Recovered { dropped_records },
    })
}

/// Materialize the columns a commit directory describes, cross-validating
/// every claim against the chunk records it references. Every count is
/// bounded by real bytes **before** anything is reserved for it — a
/// directory claiming petabytes backed by a tiny file is a typed error,
/// never an allocation. A chunk's range of `image` is recorded only after
/// its record's checksum and every directory claim about it have passed, so
/// nothing unverified is ever handed out.
fn load_directory(
    image: &Arc<Vec<u8>>,
    dir: &[u8],
    body_start: usize,
) -> Result<Vec<CompressedColumn>> {
    let bytes = image.as_slice();
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        let s = dir
            .get(*pos..*pos + n)
            .ok_or_else(|| Error::Corrupt("commit directory truncated".into()))?;
        *pos += n;
        Ok(s)
    };
    let ncols = wire::len32(wire::le_u32(take(&mut pos, 4)?, 0)?);
    if ncols > dir.len() / COLUMN_DIR_BYTES {
        return Err(Error::Corrupt(format!(
            "directory claims {ncols} columns in {} bytes",
            dir.len()
        )));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let nlen = usize::from(take(&mut pos, 1)?[0]);
        let name = String::from_utf8(take(&mut pos, nlen)?.to_vec())
            .map_err(|_| Error::Corrupt("column name not UTF-8".into()))?;
        let precision = match take(&mut pos, 1)?[0] {
            0 => Precision::Single,
            1 => Precision::Double,
            b => return Err(Error::Corrupt(format!("bad precision byte {b}"))),
        };
        let esize = precision.bytes();
        let rows = usize::try_from(wire::le_u64(take(&mut pos, 8)?, 0)?)
            .map_err(|_| Error::Corrupt("row count does not fit in memory".into()))?;
        let chunk_elems = wire::len32(wire::le_u32(take(&mut pos, 4)?, 0)?);
        let nchunks = wire::len32(wire::le_u32(take(&mut pos, 4)?, 0)?);
        if chunk_elems == 0 {
            return Err(Error::Corrupt("zero chunk size".into()));
        }
        if nchunks != rows.div_ceil(chunk_elems) {
            return Err(Error::Corrupt(format!(
                "directory claims {nchunks} chunks for {rows} rows at {chunk_elems} elems/chunk"
            )));
        }
        // The chunk table must be backed by real directory bytes before the
        // chunk list is reserved.
        if dir.len().saturating_sub(pos) < nchunks.saturating_mul(CHUNK_DIR_BYTES) {
            return Err(Error::Corrupt("directory chunk table truncated".into()));
        }
        let mut chunks = Vec::with_capacity(nchunks);
        let mut remaining = rows;
        for _ in 0..nchunks {
            let offset = usize::try_from(wire::le_u64(take(&mut pos, 8)?, 0)?)
                .map_err(|_| Error::Corrupt("chunk offset outside the file".into()))?;
            let payload_len = usize::try_from(wire::le_u64(take(&mut pos, 8)?, 0)?)
                .map_err(|_| Error::Corrupt("chunk payload length does not fit".into()))?;
            let elems = wire::len32(wire::le_u32(take(&mut pos, 4)?, 0)?);
            if elems != remaining.min(chunk_elems) {
                return Err(Error::Corrupt(
                    "chunk element count disagrees with the row count".into(),
                ));
            }
            // Claim plausibility, both directions, before touching the
            // record: payload within the expansion ceiling for the chunk's
            // raw size, and raw size within the decode-claim ceiling for
            // the payload (the codec-level gate every decode enforces).
            let raw = elems.saturating_mul(esize);
            if payload_len
                > raw
                    .saturating_mul(MAX_CHUNK_EXPANSION)
                    .saturating_add(CHUNK_SLACK)
            {
                return Err(Error::Corrupt(format!(
                    "directory claims {payload_len} payload bytes for a {raw}-byte chunk"
                )));
            }
            let cdesc = DataDesc::new(precision, vec![elems], Domain::Database)?;
            fcbench_core::blocks::check_decode_claim(&cdesc, payload_len)?;
            if offset < body_start || offset >= bytes.len() {
                return Err(Error::Corrupt("chunk offset outside the file".into()));
            }
            let rec = match check_record(bytes, offset) {
                Ok(rec) => rec,
                Err(RecordCheck::Truncated) => {
                    return Err(Error::Corrupt("committed chunk record truncated".into()))
                }
                Err(RecordCheck::Mismatch { stored, computed }) => {
                    return Err(Error::ChecksumMismatch {
                        context: format!("chunk record at offset {offset}"),
                        stored,
                        computed,
                    })
                }
            };
            if rec.tag != TAG_CHUNK || rec.body.len() < 4 {
                return Err(Error::Corrupt(
                    "directory points at something that is not a chunk record".into(),
                ));
            }
            let rec_elems = wire::len32(wire::le_u32(rec.body, 0)?);
            if rec_elems != elems || rec.body.len() - 4 != payload_len {
                return Err(Error::Corrupt(
                    "chunk record disagrees with the directory".into(),
                ));
            }
            // The payload is the record body past its `elems u32`; the body
            // ends where the record's trailing checksum begins.
            let payload_end = rec.end - 4;
            chunks.push(payload_end - payload_len..payload_end);
            remaining -= elems;
        }
        columns.push(CompressedColumn {
            name,
            precision,
            rows,
            chunk_elems,
            image: Arc::clone(image),
            chunks,
        });
    }
    if pos != dir.len() {
        return Err(Error::Corrupt("trailing bytes in commit directory".into()));
    }
    Ok(columns)
}

impl CompressedColumn {
    /// A column over already-compressed chunk payloads that live in memory
    /// rather than in a container file (fixtures): the payloads are packed
    /// into an image of the column's own.
    pub fn from_chunks<C: AsRef<[u8]>>(
        name: impl Into<String>,
        precision: Precision,
        rows: usize,
        chunk_elems: usize,
        chunks: &[C],
    ) -> Self {
        let mut image = Vec::with_capacity(chunks.iter().map(|c| c.as_ref().len()).sum());
        let ranges = chunks
            .iter()
            .map(|c| {
                let start = image.len();
                image.extend_from_slice(c.as_ref());
                start..image.len()
            })
            .collect();
        CompressedColumn {
            name: name.into(),
            precision,
            rows,
            chunk_elems,
            image: Arc::new(image),
            chunks: ranges,
        }
    }

    /// The compressed payload of chunk `i` (panics when `i` is out of
    /// range, like slice indexing).
    pub fn chunk(&self, i: usize) -> &[u8] {
        &self.image[self.chunks[i].clone()]
    }

    /// The compressed chunk payloads, in column order.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.chunks.iter().map(|r| &self.image[r.clone()])
    }

    /// An independent pooled reading cursor over this column; any number
    /// of cursors (over the same or different columns, from the same or
    /// different tables) can share one engine concurrently.
    pub fn cursor<'a>(
        &'a self,
        pool: &'a WorkerPool,
        codec: &Arc<dyn Compressor>,
    ) -> Result<ColumnCursor<'a>> {
        let reg = crate::metrics::registry();
        Ok(ColumnCursor {
            col: self,
            pool,
            codec: Arc::clone(codec),
            bdesc: DataDesc::new(self.precision, vec![1], Domain::Database)?,
            submitted: 0,
            collected: 0,
            remaining_submit: self.rows,
            window: Window::new(
                InflightGauge::attached(reg.gauge("dbsim.cursor.chunks_in_flight")),
                Some(reg.counter("dbsim.cursor.read_ahead.stalls")),
            ),
            current: Vec::new(),
        })
    }

    /// Decode every chunk with `codec` — the Table 11 **decode** primitive —
    /// as jobs on `pool`, collected in page order.
    pub fn decode_pooled(
        &self,
        pool: &WorkerPool,
        codec: &Arc<dyn Compressor>,
    ) -> Result<ColumnData> {
        let esize = self.precision.bytes();
        // lint: claim-checked(reservation clamped to MAX_UPFRONT_RESERVE)
        let mut bytes =
            Vec::with_capacity(self.rows.saturating_mul(esize).min(MAX_UPFRONT_RESERVE));
        let mut cursor = self.cursor(pool, codec)?;
        while cursor.next_chunk_into(&mut bytes)? {}
        if bytes.len() != self.rows * esize {
            return Err(Error::Corrupt("reassembled column size mismatch".into()));
        }
        Ok(ColumnData {
            name: self.name.clone(),
            precision: self.precision,
            bytes,
        })
    }

    /// Total compressed bytes of this column.
    pub fn compressed_bytes(&self) -> usize {
        self.chunks.iter().map(|r| r.len()).sum()
    }
}

/// An independent pooled decode cursor over one [`CompressedColumn`]: a
/// bounded read-ahead of chunks is kept in flight on the shared engine and
/// decoded pages come back in column order. Cursors follow the engine's
/// saturation discipline (never block in submit while holding tickets), so
/// any number of concurrent readers — the paper's database serving many
/// scans at once — can share one pool without deadlocking it.
pub struct ColumnCursor<'a> {
    col: &'a CompressedColumn,
    pool: &'a WorkerPool,
    codec: Arc<dyn Compressor>,
    bdesc: DataDesc,
    /// Chunks submitted to the engine.
    submitted: usize,
    /// Chunks handed to the caller.
    collected: usize,
    /// Rows not yet covered by submitted chunks.
    remaining_submit: usize,
    /// The read-ahead jobs in flight, and the cursor's sticky failure: once
    /// a chunk errors, later reads refuse instead of yielding pages out of
    /// order. Reports into `dbsim.cursor.chunks_in_flight` (released on
    /// drop even if the cursor is abandoned mid-column) and counts the
    /// times the caller had to wait on a decode that hadn't finished in
    /// `dbsim.cursor.read_ahead.stalls` — read-ahead not keeping up.
    window: Window,
    /// The page most recently handed out by `next_chunk`.
    current: Vec<u8>,
}

impl ColumnCursor<'_> {
    /// Cap this cursor's decode read-ahead at `cap` in-flight chunks (see
    /// [`Window::set_max_in_flight`]).
    #[must_use]
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.window.set_max_in_flight(cap);
        self
    }

    /// Chunks not yet handed to the caller.
    pub fn chunks_remaining(&self) -> usize {
        self.col.chunks.len() - self.collected
    }

    /// Decode and return the next page's element bytes in column order, or
    /// `None` after the final chunk. The returned slice lives until the
    /// next call.
    pub fn next_chunk(&mut self) -> Result<Option<&[u8]>> {
        let mut current = std::mem::take(&mut self.current);
        current.clear();
        let r = self.next_chunk_into(&mut current);
        self.current = current;
        Ok(r?.then_some(self.current.as_slice()))
    }

    /// [`next_chunk`](Self::next_chunk) appending the page's element bytes
    /// to `out` straight from the engine's slot, with no stop in the
    /// cursor; `false` after the final chunk.
    fn next_chunk_into(&mut self, out: &mut Vec<u8>) -> Result<bool> {
        self.window.check()?;
        let r = self.advance(out);
        self.window.settle(r)
    }

    fn advance(&mut self, out: &mut Vec<u8>) -> Result<bool> {
        if self.collected == self.col.chunks.len() {
            return Ok(false);
        }
        // Keep the read-ahead window full; when the window declines a chunk
        // (it is full, or the pool is saturated while we hold tickets) the
        // top-up just ends.
        while self.submitted < self.col.chunks.len() {
            let elems = self.remaining_submit.min(self.col.chunk_elems);
            if elems == 0 {
                return Err(Error::Corrupt("more chunks than rows".into()));
            }
            self.bdesc.dims[0] = elems;
            let payload = self.col.chunk(self.submitted);
            if !self
                .window
                .try_push_decompress(self.pool, &self.codec, &self.bdesc, payload, ())?
            {
                break;
            }
            self.submitted += 1;
            self.remaining_submit -= elems;
        }
        if self.submitted == self.col.chunks.len() && self.remaining_submit != 0 {
            return Err(Error::Corrupt("chunks do not cover all rows".into()));
        }
        self.window
            .pop(|decoded, ()| {
                out.extend_from_slice(decoded);
                Ok(())
            })?
            .ok_or_else(|| Error::Corrupt("column cursor lost its read-ahead".into()))?;
        self.collected += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::pool::PoolConfig;
    use fcbench_core::{CodecClass, CodecInfo, Community, FloatData, Platform, PrecisionSupport};

    struct StoreCodec;

    impl Compressor for StoreCodec {
        fn info(&self) -> CodecInfo {
            CodecInfo {
                name: "store",
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

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fcbench-dbsim-{}-{name}", std::process::id()))
    }

    /// A small engine and the store codec, for tests that need some pool.
    fn store_engine() -> (WorkerPool, Arc<dyn Compressor>) {
        (
            WorkerPool::new(PoolConfig::with_threads(2)),
            Arc::new(StoreCodec),
        )
    }

    #[test]
    fn container_round_trip() {
        let path = tmp("rt");
        let a: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f32> = (0..500).map(|i| i as f32).collect();
        let cols = vec![
            ColumnData::from_f64("price", &a),
            ColumnData::from_f32("qty", &b),
        ];
        let (pool, codec) = store_engine();
        write_container_pooled(&path, &pool, &codec, &cols, 128).unwrap();

        let read = read_container(&path).unwrap();
        assert!(read.is_clean());
        let table = read.table;
        assert_eq!(table.codec_name, "store");
        assert_eq!(table.columns.len(), 2);
        assert_eq!(table.columns[0].rows, 1000);
        assert_eq!(table.columns[1].rows, 500);
        // 1000 rows at 128 elems/chunk => 8 chunks.
        assert_eq!(table.columns[0].chunks().len(), 8);

        let col0 = table.columns[0].decode_pooled(&pool, &codec).unwrap();
        assert_eq!(col0.bytes, cols[0].bytes);
        let col1 = table.columns[1].decode_pooled(&pool, &codec).unwrap();
        assert_eq!(col1.bytes, cols[1].bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ragged_last_chunk() {
        let path = tmp("ragged");
        let a: Vec<f64> = (0..130).map(|i| i as f64).collect();
        let (pool, codec) = store_engine();
        let cols = [ColumnData::from_f64("x", &a)];
        write_container_pooled(&path, &pool, &codec, &cols, 64).unwrap();
        let table = read_container(&path).unwrap().table;
        assert_eq!(table.columns[0].chunks().len(), 3); // 64 + 64 + 2
        let col = table.columns[0].decode_pooled(&pool, &codec).unwrap();
        assert_eq!(col.rows(), 130);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incremental_writes_and_commits_append() {
        // Feed a column in dribbles across chunk boundaries, commit, then
        // append a second column and commit again: the trailing commit
        // sees both.
        let path = tmp("incr");
        let a: Vec<f64> = (0..777).map(|i| i as f64 * 0.25).collect();
        let b: Vec<f32> = (0..333).map(|i| i as f32).collect();
        let a_bytes = ColumnData::from_f64("a", &a).bytes;
        let b_bytes = ColumnData::from_f32("b", &b).bytes;

        let (pool, codec) = store_engine();
        let file = std::fs::File::create(&path).unwrap();
        let mut w = ContainerWriter::new(std::io::BufWriter::new(file), &pool, &codec).unwrap();
        w.begin_column("a", Precision::Double, 100).unwrap();
        for piece in a_bytes.chunks(13) {
            w.write(piece).unwrap();
        }
        w.commit().unwrap();
        assert_eq!(w.uncommitted_records(), 0);
        w.begin_column("b", Precision::Single, 50).unwrap();
        w.write(&b_bytes).unwrap();
        w.finish().unwrap();

        let read = read_container(&path).unwrap();
        assert!(read.is_clean());
        assert_eq!(read.table.columns.len(), 2);
        for (col, want) in read.table.columns.iter().zip([a_bytes, b_bytes]) {
            assert_eq!(col.decode_pooled(&pool, &codec).unwrap().bytes, want);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tails_recover_and_committed_corruption_errors() {
        let path = tmp("torn");
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (pool, codec) = store_engine();
        let cols = [ColumnData::from_f64("x", &a)];
        write_container_pooled(&path, &pool, &codec, &cols, 32).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Bad magic is an error — there is nothing to recover toward. That
        // includes the magic of the retired directory-first layout.
        for magic in [b"ZCD2", b"FCDB"] {
            let mut bad = good.clone();
            bad[..4].copy_from_slice(magic);
            assert!(matches!(
                parse_container(&bad),
                Err(Error::Corrupt(m)) if m == "bad container magic"
            ));
        }

        // Shaving the locator's last byte tears the tail but loses no
        // committed data: the commit record itself still validates.
        let read = parse_container(&good[..good.len() - 1]).unwrap();
        assert_eq!(
            read.outcome,
            RecoveryOutcome::Recovered { dropped_records: 0 }
        );
        let col = &read.table.columns[0];
        assert_eq!(
            col.decode_pooled(&pool, &codec).unwrap().bytes,
            cols[0].bytes
        );

        // Garbage appended after the locator is a torn (unparseable) tail.
        let mut extra = good.clone();
        extra.push(0);
        let read = parse_container(&extra).unwrap();
        assert_eq!(
            read.outcome,
            RecoveryOutcome::Recovered { dropped_records: 1 }
        );

        // A bit flip inside a committed chunk record is corruption, not a
        // torn tail: typed checksum error.
        let mut flipped = good.clone();
        let first_chunk = take_record(&good, {
            // prologue: 4 + 1 + "store" + 4 crc; first record is COLUMN.
            let body_start = 4 + 1 + 5 + 4;
            take_record(&good, body_start).unwrap().end
        })
        .unwrap();
        assert_eq!(first_chunk.tag, TAG_CHUNK);
        let body_mid = (first_chunk.end - first_chunk.body.len() / 2) - 2;
        flipped[body_mid] ^= 0x40;
        assert!(matches!(
            parse_container(&flipped),
            Err(Error::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_misuse_is_rejected() {
        let (pool, codec) = store_engine();
        let mut w = ContainerWriter::new(Vec::new(), &pool, &codec).unwrap();
        // No open column.
        assert!(matches!(w.write(&[0u8; 8]), Err(Error::Unsupported(_))));
        // Bad page sizes.
        assert!(w.begin_column("x", Precision::Double, 0).is_err());
        // Mid-element tail.
        w.begin_column("x", Precision::Double, 4).unwrap();
        w.write(&[0u8; 9]).unwrap();
        assert!(matches!(w.end_column(), Err(Error::BadDescriptor(_))));
    }

    #[test]
    fn cursor_streams_pages_in_order_with_tiny_caps() {
        let path = tmp("cursor");
        let a: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let cols = [ColumnData::from_f64("x", &a)];
        let pool = WorkerPool::new(PoolConfig::with_threads(2).queue_depth(3));
        let codec: Arc<dyn Compressor> = Arc::new(StoreCodec);
        write_container_pooled(&path, &pool, &codec, &cols, 64).unwrap();
        let table = read_container(&path).unwrap().table;

        let col = &table.columns[0];
        let mut cursor = col.cursor(&pool, &codec).unwrap().max_in_flight(1);
        assert_eq!(cursor.chunks_remaining(), col.chunks().len());
        let mut restored = Vec::new();
        while let Some(page) = cursor.next_chunk().unwrap() {
            restored.extend_from_slice(page);
        }
        assert_eq!(restored, cols[0].bytes);
        assert_eq!(cursor.chunks_remaining(), 0);
        assert!(cursor.next_chunk().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    /// The columns of the golden image: f64 and f32, each ending in a
    /// short tail page at 4 elements per page.
    fn golden_columns() -> [ColumnData; 2] {
        let price: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.25).collect();
        let qty: Vec<f32> = (0..6).map(|i| i as f32 * 1.5).collect();
        [
            ColumnData::from_f64("price", &price),
            ColumnData::from_f32("qty", &qty),
        ]
    }

    #[test]
    fn the_format_is_frozen_against_a_golden_image() {
        // One commit per column, through the store codec on a 3-worker
        // engine: pages finish out of order but their records land in page
        // order, so the image is bit-identical to the one captured from a
        // single-threaded write.
        let cols = golden_columns();
        let pool = WorkerPool::new(PoolConfig::with_threads(3));
        let codec: Arc<dyn Compressor> = Arc::new(StoreCodec);
        let mut w = ContainerWriter::new(Vec::new(), &pool, &codec).unwrap();
        for col in &cols {
            w.begin_column(col.name.clone(), col.precision, 4).unwrap();
            w.write(&col.bytes).unwrap();
            w.commit().unwrap();
        }
        let image = w.finish().unwrap();

        // Captured from the same writes at the commit before the checksum
        // kernel, the writer and the reader were rebuilt for speed.
        let golden: &[u8] = include_bytes!("../tests/data/golden_v2.fcdb");
        assert_eq!(image, golden);

        let read = parse_container(golden).unwrap();
        assert_eq!(read.outcome, RecoveryOutcome::Clean);
        assert_eq!(read.table.columns.len(), 2);
        for (col, orig) in read.table.columns.iter().zip(&cols) {
            assert_eq!(col.chunks().len(), orig.rows().div_ceil(4));
            assert_eq!(col.decode_pooled(&pool, &codec).unwrap().bytes, orig.bytes);
        }
    }

    /// Stores pages verbatim, except a page that starts with -1.0: that one
    /// is refused with a typed error or panics, compressing or decompressing.
    enum MarkedPage {
        Refused,
        Panics,
    }

    impl MarkedPage {
        fn check(&self, page: &[u8]) -> Result<()> {
            if page.starts_with(&(-1.0f64).to_le_bytes()) {
                match self {
                    MarkedPage::Refused => return Err(Error::Unsupported("refused page".into())),
                    MarkedPage::Panics => panic!("marked page"),
                }
            }
            Ok(())
        }
    }

    impl Compressor for MarkedPage {
        fn info(&self) -> CodecInfo {
            StoreCodec.info()
        }
        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            self.check(data.bytes())?;
            StoreCodec.compress_into(data, out)
        }
        fn decompress_into(
            &self,
            payload: &[u8],
            desc: &DataDesc,
            out: &mut FloatData,
        ) -> Result<()> {
            self.check(payload)?;
            StoreCodec.decompress_into(payload, desc, out)
        }
    }

    #[test]
    fn a_failed_pooled_job_never_emits_a_record() {
        // Five 8-element pages; the third one fails in its worker while
        // the two after it are already in flight.
        let mut a: Vec<f64> = (0..40).map(|i| i as f64).collect();
        a[16] = -1.0;
        let pool = WorkerPool::new(PoolConfig::with_threads(2).queue_depth(8));
        let codec: Arc<dyn Compressor> = Arc::new(MarkedPage::Refused);
        let mut out = Vec::new();
        let mut w = ContainerWriter::new(&mut out, &pool, &codec).unwrap();
        w.begin_column("x", Precision::Double, 8).unwrap();
        w.write(&ColumnData::from_f64("x", &a).bytes).unwrap();
        assert!(matches!(w.end_column(), Err(Error::Unsupported(_))));
        drop(w);

        // The sink holds the COLUMN record and the two pages before the
        // failure, whole, and nothing of the failed or abandoned jobs.
        assert_eq!(record_tags(&out), [TAG_COLUMN, TAG_CHUNK, TAG_CHUNK]);
    }

    /// The tags of the records after the store codec's prologue, each
    /// required to be whole and valid.
    fn record_tags(image: &[u8]) -> Vec<u8> {
        let mut pos = 4 + 1 + 5 + 4;
        let mut tags = Vec::new();
        while pos < image.len() {
            let rec = take_record(image, pos).expect("only whole, valid records");
            tags.push(rec.tag);
            pos = rec.end;
        }
        tags
    }

    #[test]
    fn a_codec_panic_is_a_typed_error_on_write_and_decode() {
        // Five 8-element pages; the third one panics in its worker.
        let mut a: Vec<f64> = (0..40).map(|i| i as f64).collect();
        a[16] = -1.0;
        let bytes = ColumnData::from_f64("x", &a).bytes;
        let pool = WorkerPool::new(PoolConfig::with_threads(2).queue_depth(8));
        let panicking: Arc<dyn Compressor> = Arc::new(MarkedPage::Panics);
        let mut out = Vec::new();
        let mut w = ContainerWriter::new(&mut out, &pool, &panicking).unwrap();
        w.begin_column("x", Precision::Double, 8).unwrap();
        w.write(&bytes).unwrap();
        assert!(matches!(w.end_column(), Err(Error::WorkerPanic(_))));
        drop(w);
        // As for a refused page: only the whole records before it.
        assert_eq!(record_tags(&out), [TAG_COLUMN, TAG_CHUNK, TAG_CHUNK]);

        // The same page written by a codec that does not panic decodes to
        // a typed error under one that does, and the engine keeps serving.
        let store: Arc<dyn Compressor> = Arc::new(StoreCodec);
        let mut w = ContainerWriter::new(Vec::new(), &pool, &store).unwrap();
        w.begin_column("x", Precision::Double, 8).unwrap();
        w.write(&bytes).unwrap();
        let image = w.finish().unwrap();
        let col = &parse_container(&image).unwrap().table.columns[0];
        assert!(matches!(
            col.decode_pooled(&pool, &panicking),
            Err(Error::WorkerPanic(_))
        ));
        assert_eq!(col.decode_pooled(&pool, &store).unwrap().bytes, bytes);
    }

    /// Counts the writes that get past the container's buffer.
    #[derive(Debug, Default)]
    struct CountingSink {
        writes: u64,
        bytes: u64,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes += buf.len() as u64;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn page_records_reach_the_file_in_buffer_sized_writes() {
        // Two 64 Ki-row f64 columns at the paper's 4096-element page: 32
        // page records of 32 KiB each.
        let a: Vec<f64> = (0..65536).map(|i| i as f64 * 0.5).collect();
        let bytes = ColumnData::from_f64("a", &a).bytes;
        let (pool, codec) = store_engine();
        let mut w = ContainerWriter::new(buffered(CountingSink::default()), &pool, &codec).unwrap();
        for name in ["a", "b"] {
            w.begin_column(name, Precision::Double, 4096).unwrap();
            w.write(&bytes).unwrap();
        }
        let sink = w.finish().unwrap().into_inner().unwrap();
        assert!(sink.bytes > 2 * bytes.len() as u64);
        assert!(
            sink.writes <= sink.bytes / (1 << 20) + 4,
            "{} writes for {} stored bytes",
            sink.writes,
            sink.bytes
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_container(Path::new("/nonexistent/fcbench-xyz")).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}
