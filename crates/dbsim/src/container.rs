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
//! A **commit point** is a `COMMIT` record whose checksum passes.
//! [`read_container`] has one path: it frames the records forward from the
//! prologue, verifies each once, and loads the newest commit point whose
//! directory and chunks all validate: the trailing locator's commit
//! ([`RecoveryOutcome::Clean`]; the locator reaches past a destroyed
//! record header) or an older one ([`RecoveryOutcome::Recovered`]). It
//! errors only when no commit point validates, and returns the empty
//! table only when the walk meets no commit record before EOF or a torn
//! tail.

use fcbench_core::blocks::{plausible_payload_cap, MAX_UPFRONT_RESERVE};
use fcbench_core::pool::WorkerPool;
use fcbench_core::stream::{
    crc32, frame_record, put_record, ReaderPump, RecordCheck, RecordView, WriterPump,
};
use fcbench_core::sync::{lock, wait, Condvar, Mutex};
use fcbench_core::wire;
use fcbench_core::{Compressor, DataDesc, Domain, Error, Precision, Result};
use fcbench_telemetry::{Counter, Histogram, InflightGauge};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

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

/// The metadata entry of the column the writer's `fed` count says is being
/// written. `begin_column` pushes the entry and starts the count together,
/// so a miss means the writer's own state went inconsistent — reported as
/// a typed error rather than a panic in the serving path.
fn open_column_mut(columns: &mut [ColumnMeta]) -> Result<&mut ColumnMeta> {
    columns
        .last_mut()
        .ok_or_else(|| Error::Unsupported("internal: column open with no column entry".into()))
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
        dir.push(u8::from(col.precision));
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
    /// Emit one chunk record and log its directory metadata (`elems` is at
    /// most the column's `u32` page size).
    fn put_chunk(&mut self, payload: &[u8], elems: usize) -> Result<()> {
        let elems = elems as u32;
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
/// [`commit`](Self::commit): a [`WriterPump`] on the [`WorkerPool`]
/// engine whose pages go to the file as chunk records, in page order as
/// they finish, so the writer's footprint is bounded by the in-flight
/// window — never by the container size. A codec that fails or panics on
/// a page surfaces as that page's typed error ([`Error::WorkerPanic`] for a
/// panic).
///
/// On any error the writer abandons its in-flight jobs (releasing their
/// pool slots immediately) and is unusable; drop it. The file then ends in
/// a torn tail that [`read_container`] recovers past.
pub struct ContainerWriter<'a, W: Write> {
    log: RecordLog<W>,
    /// Commits emitted so far.
    commits: u64,
    /// Element bytes fed to the last of `log.columns` while it is still
    /// accepting them; `None` once it is closed.
    fed: Option<usize>,
    /// The open column's pages (in-flight pages never span columns);
    /// reports into `dbsim.container.chunks_in_flight`.
    pump: WriterPump<&'a WorkerPool>,
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
        let inflight = InflightGauge::attached(reg.gauge("dbsim.container.chunks_in_flight"));
        let desc = DataDesc::new(Precision::Double, vec![1], Domain::Database)?;
        Ok(ContainerWriter {
            log: RecordLog {
                sink,
                written,
                uncommitted: 0,
                columns: Vec::new(),
            },
            commits: 0,
            fed: None,
            pump: WriterPump::new(Arc::clone(codec), Some(pool), &desc, 1, inflight),
            m_commit: reg.histogram("dbsim.container.commit"),
            m_commits: reg.counter("dbsim.container.commits"),
            m_records: reg.counter("dbsim.container.records.committed"),
        })
    }

    /// Cap the number of chunks this writer may have in flight on a shared
    /// pool at once (see [`WriterPump::set_max_in_flight`]).
    #[must_use]
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.pump.set_max_in_flight(cap);
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
        self.pump.settle(r)
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
        self.end_column()?;
        let nlen = [name.len() as u8];
        let prec = [u8::from(precision)];
        let ce = (chunk_elems as u32).to_le_bytes();
        let rec = put_record(
            &mut self.log.sink,
            TAG_COLUMN,
            &[&nlen, name.as_bytes(), &prec, &ce],
        )?;
        self.log.written += rec;
        self.log.uncommitted += 1;
        self.pump.reshape(precision, chunk_elems);
        self.log.columns.push(ColumnMeta {
            name,
            precision,
            chunk_elems: chunk_elems as u32,
            rows: 0,
            chunks: Vec::new(),
        });
        self.fed = Some(0);
        Ok(())
    }

    /// Feed the next chunk of little-endian element bytes for the open
    /// column. Chunks may be any size (they need not align with pages or
    /// even elements); full pages are compressed and their records emitted
    /// as they form.
    pub fn write(&mut self, bytes: &[u8]) -> Result<()> {
        let r = match self.fed.as_mut() {
            Some(fed) => {
                *fed += bytes.len();
                let log = &mut self.log;
                self.pump
                    .write(bytes, |payload, elems| log.put_chunk(payload, elems))
            }
            None => Err(Error::Unsupported(
                "container writer has no open column (call begin_column first)".into(),
            )),
        };
        self.pump.settle(r)
    }

    /// Close the open column: emit the short tail page (if any) and drain
    /// the in-flight pages so the column's directory metadata is complete.
    /// A no-op when no column is open.
    fn end_column(&mut self) -> Result<()> {
        let Some(fed) = self.fed else {
            return Ok(());
        };
        let esize = open_column_mut(&mut self.log.columns)?.precision.bytes();
        if fed % esize != 0 {
            return Err(Error::BadDescriptor(format!(
                "column ended mid-element: {} trailing bytes with {esize}-byte elements",
                fed % esize
            )));
        }
        let log = &mut self.log;
        self.pump
            .finish(|payload, elems| log.put_chunk(payload, elems))?;
        self.fed = None;
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
        self.pump.settle(r)
    }

    fn commit_inner(&mut self) -> Result<()> {
        fcbench_core::fault::fail_point("container.commit")?;
        let _span = self.m_commit.start_span();
        self.end_column()?;
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
/// variable). The file is synced once, after the last commit: that
/// `sync_all` is the only durability point.
///
/// While pages are still compressing, one helper thread pushes what has
/// already reached the file toward stable storage (a `sync_data` after
/// each spill of the write buffer), so the final `sync_all` waits only for
/// the tail. An earlier sync makes a prefix durable sooner, and every
/// prefix already recovers. The helper's first error is returned (a write
/// error wins over it); the helper is joined on every path.
pub fn write_container_pooled(
    path: &Path,
    pool: &WorkerPool,
    codec: &Arc<dyn Compressor>,
    columns: &[ColumnData],
    chunk_elems: usize,
) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let to_sync = file.try_clone()?;
    let reg = crate::metrics::registry();
    let syncs = reg.counter("dbsim.container.syncs_behind");
    let behind = BehindSync::new();
    std::thread::scope(|s| {
        let helper = std::thread::Builder::new()
            .name("fcdb2-sync-behind".into())
            .spawn_scoped(s, || behind.run(&to_sync, &syncs))?;
        let stop = StopOnDrop(&behind);
        let written = write_columns(
            SpillSignal {
                file,
                behind: &behind,
            },
            pool,
            codec,
            columns,
            chunk_elems,
        );
        let tail = Instant::now();
        drop(stop);
        let synced = helper
            .join()
            .unwrap_or_else(|_| Err(Error::WorkerPanic("container sync-behind thread".into())));
        let file = written?;
        synced?;
        file.sync_all()?;
        reg.histogram("dbsim.container.sync")
            .record_duration(tail.elapsed());
        Ok(())
    })
}

/// The body of [`write_container_pooled`]: every column through one
/// [`ContainerWriter`] into `sink`'s file, which comes back unsynced.
fn write_columns(
    sink: SpillSignal<'_>,
    pool: &WorkerPool,
    codec: &Arc<dyn Compressor>,
    columns: &[ColumnData],
    chunk_elems: usize,
) -> Result<std::fs::File> {
    let mut w = ContainerWriter::new(buffered(sink), pool, codec)?;
    for col in columns {
        w.begin_column(col.name.clone(), col.precision, chunk_elems)?;
        w.write(&col.bytes)?;
    }
    let sink = w.finish()?;
    let sink = sink.into_inner().map_err(|e| Error::Io(e.to_string()))?;
    Ok(sink.file)
}

/// The file under a container write's buffer: every write that reaches it
/// raises the [`BehindSync`] signal.
struct SpillSignal<'b> {
    file: std::fs::File,
    behind: &'b BehindSync,
}

impl Write for SpillSignal<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.file.write(buf)?;
        self.behind.raise();
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

/// Write-behind for one container file. A spill raises `pending`; one
/// helper thread ([`run`](Self::run)) clears it and runs one `sync_data`,
/// so the raises that land while a sync runs merge into the next one.
/// There is no timer and no threshold: the write buffer's spills are the
/// clock.
struct BehindSync {
    wake: Mutex<Wake>,
    cv: Condvar,
}

/// What the helper is owed: a sync, or the end.
#[derive(Default)]
struct Wake {
    pending: bool,
    stopped: bool,
}

impl BehindSync {
    fn new() -> Self {
        BehindSync {
            wake: Mutex::new(Wake::default()),
            cv: Condvar::new(),
        }
    }

    /// Bytes reached the file since the helper last looked.
    fn raise(&self) {
        let mut wake = lock(&self.wake);
        if !wake.pending {
            wake.pending = true;
            self.cv.notify_one();
        }
    }

    /// The helper thread: `sync_data` on `file` per batch of raises until
    /// stopped, counting each into `syncs`; the first error ends it.
    fn run(&self, file: &std::fs::File, syncs: &Counter) -> Result<()> {
        loop {
            let mut wake = lock(&self.wake);
            while !wake.pending && !wake.stopped {
                wake = wait(&self.cv, wake);
            }
            if wake.stopped {
                return Ok(());
            }
            wake.pending = false;
            drop(wake);
            fcbench_core::fault::fail_point("container.sync_behind")?;
            file.sync_data()?;
            syncs.inc();
        }
    }
}

/// Stops the [`BehindSync`] helper when dropped: once its current sync
/// (if any) returns, it ends, and a raise it has not started on is dropped
/// (the caller's `sync_all` covers it). Dropped on every path out of the
/// write, an unwinding one included, so the scope's join cannot hang.
struct StopOnDrop<'b>(&'b BehindSync);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        lock(&self.0.wake).stopped = true;
        self.0.cv.notify_one();
    }
}

/// A column read back from disk (still compressed). The chunk payloads are
/// not copied out of the file: the column holds the container's image —
/// once, shared with the table's other columns — and a verified range of it
/// per chunk, handed out by [`chunks`](Self::chunks).
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
    /// The table is the commit the trailing locator names: the file ends
    /// where its writer's last commit left it.
    Clean,
    /// The table is an older commit point: the newest one whose directory
    /// and chunks all validate, behind a torn tail or damaged records.
    /// `dropped_records` counts the records framed after it, plus one when
    /// the forward walk stopped before the end of the file (a partial tail
    /// record, or one that is not a container record).
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
/// (bytes land in memory; nothing is decompressed yet). A torn tail, or
/// damage an older commit point predates, is recovered, not errored —
/// check [`ContainerRead::outcome`].
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

/// Count how a parse resolved: `dbsim.recovery.clean` / `.recovered` tally
/// outcomes, and `dbsim.recovery.dropped_records` accumulates the records
/// lost to torn tails and damage.
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

/// The records framed forward from the prologue, each verified once.
struct Walk {
    /// Each record's offset and checksum verdict, in file order: one
    /// fixed-size entry per record, so bounded by the file's length.
    records: Vec<(usize, std::result::Result<(), RecordCheck>)>,
    /// `None` at EOF; else whether the walk stopped at a record that frames
    /// but is not a container record (a zeroed page, say), rather than at
    /// one running past EOF (a torn tail, or a destroyed header).
    stop: Option<bool>,
}

impl Walk {
    /// Frame the records from `body_start` on, skipping each `COMMIT`'s
    /// locator, up to the first that does not frame or is not a container
    /// record; then verify every one, on every core above
    /// [`wire::PARALLEL_BYTES`] (the engine's workers are idle while a
    /// container is read).
    fn new(bytes: &[u8], body_start: usize) -> Walk {
        let (mut records, mut framed, mut pos) = (Vec::new(), 0, body_start);
        let stop = loop {
            if pos == bytes.len() {
                break None;
            }
            let rec = match frame_record(bytes, pos).map(|r| r.unverified) {
                Ok(rec) if matches!(rec.tag, TAG_COLUMN | TAG_CHUNK | TAG_COMMIT) => rec,
                other => break Some(other.is_ok()),
            };
            records.push((pos, Ok(())));
            framed += rec.end - pos;
            // A torn prefix of the locator at EOF loses nothing: the commit
            // record alone is the commit point.
            let tail = &bytes[rec.end..];
            let k = tail.len().min(LOCATOR_BYTES);
            let located = rec.tag == TAG_COMMIT && tail[..k] == locator(pos as u64)[..k];
            pos = rec.end + if located { k } else { 0 };
        };
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        wire::fan_out(&mut records, framed, threads, |_, (at, verdict)| {
            *verdict = frame_record(bytes, *at).and_then(|r| r.verify()).map(drop);
        });
        Walk { records, stop }
    }

    /// The record at `offset` with its checksum verdict: the walk's when it
    /// framed a record there, otherwise verified on the spot.
    fn record<'a>(
        &self,
        bytes: &'a [u8],
        offset: usize,
    ) -> std::result::Result<RecordView<'a>, RecordCheck> {
        let framed = frame_record(bytes, offset)?;
        match self.records.binary_search_by_key(&offset, |r| r.0) {
            Ok(i) => self.records[i].1.map(|()| framed.unverified),
            Err(_) => framed.verify(),
        }
    }

    /// Recovery to the commit at `offset`: the records framed after it are
    /// dropped, plus one if the walk stopped short of EOF.
    fn recovered_to(&self, offset: usize) -> RecoveryOutcome {
        let after = self.records.len() - self.records.partition_point(|r| r.0 <= offset);
        RecoveryOutcome::Recovered {
            dropped_records: after as u64 + u64::from(self.stop.is_some()),
        }
    }
}

/// The `COMMIT` record (offset, directory) the file's last
/// [`LOCATOR_BYTES`] name, when they are the locator its writer put there
/// and the record validates and ends right before them.
fn trailing_commit<'a>(
    bytes: &'a [u8],
    body_start: usize,
    walk: &Walk,
) -> Option<(usize, &'a [u8])> {
    let loc = bytes.len().checked_sub(LOCATOR_BYTES)?;
    let offset = wire::le_u64(bytes, loc + 4).ok()?;
    let at = usize::try_from(offset).ok()?;
    if at < body_start || bytes[loc..] != locator(offset)[..] {
        return None;
    }
    let rec = walk.record(bytes, at).ok()?;
    (rec.tag == TAG_COMMIT && rec.end == loc).then_some((at, rec.body))
}

/// Parse a container image the returned table then owns (its columns
/// borrow their chunk payloads from it), on the one read path: the commit
/// points are every `COMMIT` the walk framed whose checksum passes, plus
/// the trailing locator's. Newest first, the first whose directory and
/// chunks all load is the table; if none loads, the newest one's error is.
fn parse_image(image: Arc<Vec<u8>>) -> Result<ContainerRead> {
    let bytes = image.as_slice();
    let (codec_name, body_start) = parse_prologue(bytes)?;
    let walk = Walk::new(bytes, body_start);
    let mut points: Vec<(usize, &[u8])> = walk
        .records
        .iter()
        .filter_map(|&(at, _)| {
            let rec = walk.record(bytes, at).ok()?;
            (rec.tag == TAG_COMMIT).then_some((at, rec.body))
        })
        .collect();
    let located = trailing_commit(bytes, body_start, &walk);
    points.extend(located);
    points.sort_unstable_by_key(|p| p.0);
    points.dedup_by_key(|p| p.0);
    let mut newest_error = None;
    let (columns, outcome) = loop {
        let Some((at, dir)) = points.pop() else {
            if let Some(e) = newest_error {
                return Err(e);
            }
            // The table is empty only when the walk shows no commit record:
            // none framed (a failed one included), and none possibly hidden
            // past a framed record that is not a container record.
            if walk.stop == Some(true) || walk.records.iter().any(|r| bytes[r.0] == TAG_COMMIT) {
                return Err(Error::Corrupt("no commit record validates".into()));
            }
            break (Vec::new(), walk.recovered_to(0));
        };
        let outcome = match located {
            Some((l, _)) if l == at => RecoveryOutcome::Clean,
            _ => walk.recovered_to(at),
        };
        match load_directory(&image, dir, body_start, &walk) {
            Ok(columns) => break (columns, outcome),
            Err(e) => newest_error = newest_error.or(Some(e)),
        }
    };
    note_outcome(&outcome);
    Ok(ContainerRead {
        table: CompressedTable {
            codec_name,
            columns,
        },
        outcome,
    })
}

/// What a chunk record's [`RecordCheck`] failure means for a committed
/// chunk at `offset`.
fn chunk_record_error(offset: usize, check: RecordCheck) -> Error {
    match check {
        RecordCheck::Truncated => Error::Corrupt("committed chunk record truncated".into()),
        RecordCheck::Mismatch { stored, computed } => Error::ChecksumMismatch {
            context: format!("chunk record at offset {offset}"),
            stored,
            computed,
        },
    }
}

/// Materialize the columns a commit directory describes, cross-validating
/// every claim against the chunk records it references. Every count is
/// bounded by real bytes **before** anything is reserved for it — a
/// directory claiming petabytes backed by a tiny file is a typed error,
/// never an allocation. Each chunk record's checksum verdict (the walk's,
/// or computed on the spot for an offset the walk did not frame) is read
/// before the record's fields, so the first error is the one a sequential
/// walk would meet, and nothing unverified is ever handed out.
fn load_directory(
    image: &Arc<Vec<u8>>,
    dir: &[u8],
    body_start: usize,
    walk: &Walk,
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
        let precision = Precision::try_from(take(&mut pos, 1)?[0])?;
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
            if payload_len > plausible_payload_cap(raw) {
                return Err(Error::Corrupt(format!(
                    "directory claims {payload_len} payload bytes for a {raw}-byte chunk"
                )));
            }
            let cdesc = DataDesc::new(precision, vec![elems], Domain::Database)?;
            fcbench_core::blocks::check_decode_claim(&cdesc, payload_len)?;
            if offset < body_start || offset >= bytes.len() {
                return Err(Error::Corrupt("chunk offset outside the file".into()));
            }
            let rec = walk
                .record(bytes, offset)
                .map_err(|c| chunk_record_error(offset, c))?;
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
    /// The compressed payload of chunk `i` (panics when `i` is out of
    /// range, like slice indexing).
    pub(crate) fn chunk(&self, i: usize) -> &[u8] {
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
        if self.chunk_elems == 0 || self.chunks.len() != self.rows.div_ceil(self.chunk_elems) {
            return Err(Error::Corrupt(format!(
                "{} chunks cannot hold {} rows at {} elems/chunk",
                self.chunks.len(),
                self.rows,
                self.chunk_elems
            )));
        }
        let reg = crate::metrics::registry();
        let desc = DataDesc {
            precision: self.precision,
            dims: vec![self.rows],
            domain: Domain::Database,
        };
        Ok(ColumnCursor {
            col: self,
            pump: ReaderPump::new(
                Arc::clone(codec),
                Some(pool),
                &desc,
                self.chunk_elems,
                InflightGauge::attached(reg.gauge("dbsim.cursor.chunks_in_flight")),
                Some(reg.counter("dbsim.cursor.read_ahead.stalls")),
            ),
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
    /// The read-ahead over the column's chunks, and the cursor's sticky
    /// failure. Reports into `dbsim.cursor.chunks_in_flight` (released on
    /// drop even if the cursor is abandoned mid-column) and counts the
    /// times the caller had to wait on a decode that hadn't finished in
    /// `dbsim.cursor.read_ahead.stalls` — read-ahead not keeping up.
    pump: ReaderPump<&'a WorkerPool>,
}

impl ColumnCursor<'_> {
    /// Cap this cursor's decode read-ahead at `cap` in-flight chunks (see
    /// [`ReaderPump::set_max_in_flight`]).
    #[must_use]
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.pump.set_max_in_flight(cap);
        self
    }

    /// Decode and return the next page's element bytes in column order, or
    /// `None` after the final chunk. The returned slice lives until the
    /// next call.
    pub fn next_chunk(&mut self) -> Result<Option<&[u8]>> {
        let col = self.col;
        self.pump.next(|i, _, _| Ok(Some(col.chunk(i))))
    }

    /// [`next_chunk`](Self::next_chunk) appending the page's element bytes
    /// to `out` straight from the engine's slot, with no stop in the
    /// cursor; `false` after the final chunk.
    fn next_chunk_into(&mut self, out: &mut Vec<u8>) -> Result<bool> {
        let col = self.col;
        self.pump.next_into(out, |i, _, _| Ok(Some(col.chunk(i))))
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

    /// The record at `bytes[pos..]`, framed and then verified.
    fn check_record(bytes: &[u8], pos: usize) -> std::result::Result<RecordView<'_>, RecordCheck> {
        frame_record(bytes, pos)?.verify()
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
        assert_eq!(col.bytes, cols[0].bytes);
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
        let first_chunk = check_record(&good, {
            // prologue: 4 + 1 + "store" + 4 crc; first record is COLUMN.
            let body_start = 4 + 1 + 5 + 4;
            check_record(&good, body_start).unwrap().end
        })
        .unwrap();
        assert_eq!(first_chunk.tag, TAG_CHUNK);
        let body_mid = (first_chunk.end - first_chunk.body.len() / 2) - 2;
        flipped[body_mid] ^= 0x40;
        assert!(matches!(
            parse_container(&flipped),
            Err(Error::ChecksumMismatch { .. })
        ));

        // So is a bit flip in the only commit record: a file that holds a
        // commit record never reads as the empty table.
        let mut bad_commit = good.clone();
        bad_commit[good.len() - LOCATOR_BYTES - 6] ^= 0x01;
        assert!(matches!(
            parse_container(&bad_commit),
            Err(Error::Corrupt(_))
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
        assert!(matches!(w.commit(), Err(Error::BadDescriptor(_))));
    }

    #[test]
    fn the_image_does_not_depend_on_how_writes_are_split() {
        // An f64 and an f32 column, each ending in a short tail page of 16
        // elements: written in pieces of 1 and 7 bytes, and of a page less
        // one, a page and a page more one, the image is bit-identical to the
        // one written whole.
        let a: Vec<f64> = (0..100).map(|i| i as f64 * 0.75 - 3.0).collect();
        let b: Vec<f32> = (0..45).map(|i| i as f32 * 1.25).collect();
        let cols = [ColumnData::from_f64("a", &a), ColumnData::from_f32("b", &b)];
        let (pool, codec) = store_engine();
        let image = |k: usize| {
            let mut w = ContainerWriter::new(Vec::new(), &pool, &codec).unwrap();
            for col in &cols {
                let page = 16 * col.precision.bytes();
                let piece = [col.bytes.len(), 1, 7, page - 1, page, page + 1][k];
                w.begin_column(col.name.clone(), col.precision, 16).unwrap();
                for bytes in col.bytes.chunks(piece) {
                    w.write(bytes).unwrap();
                }
            }
            w.finish().unwrap()
        };
        let whole = image(0);
        for k in 1..6 {
            assert!(image(k) == whole, "piece size #{k} changed the image");
        }
        let table = parse_container(&whole).unwrap().table;
        for (col, orig) in table.columns.iter().zip(&cols) {
            assert_eq!(col.decode_pooled(&pool, &codec).unwrap().bytes, orig.bytes);
        }
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
        let mut restored = Vec::new();
        while let Some(page) = cursor.next_chunk().unwrap() {
            restored.extend_from_slice(page);
        }
        assert_eq!(restored, cols[0].bytes);
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
            let rows = orig.bytes.len() / orig.precision.bytes();
            assert_eq!(col.chunks().len(), rows.div_ceil(4));
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
        assert!(matches!(w.commit(), Err(Error::Unsupported(_))));
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
            let rec = check_record(image, pos).expect("only whole, valid records");
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
        assert!(matches!(w.commit(), Err(Error::WorkerPanic(_))));
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
    fn a_pooled_write_is_the_writers_image() {
        // Three 2 MiB columns: six write-buffer spills, so syncs run
        // behind the pages that are still compressing.
        let cols: Vec<ColumnData> = (0..3)
            .map(|c| {
                let v: Vec<f64> = (0..1 << 18)
                    .map(|i| (i as f64 * 0.37 + c as f64).sin())
                    .collect();
                ColumnData::from_f64(format!("c{c}"), &v)
            })
            .collect();
        let (pool, codec) = store_engine();
        for page in [4096, 65536] {
            let mut w = ContainerWriter::new(Vec::new(), &pool, &codec).unwrap();
            for col in &cols {
                w.begin_column(col.name.clone(), col.precision, page)
                    .unwrap();
                w.write(&col.bytes).unwrap();
            }
            let image = w.finish().unwrap();

            let path = tmp(&format!("behind-{page}"));
            write_container_pooled(&path, &pool, &codec, &cols, page).unwrap();
            let file = std::fs::read(&path).unwrap();
            assert!(file == image, "{page}-element pages: the file differs");
            let read = read_container(&path).unwrap();
            assert_eq!(read.outcome, RecoveryOutcome::Clean);
            assert_eq!(read.table.columns.len(), cols.len());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_failed_page_ends_a_pooled_write_and_its_sync_thread() {
        // A refused page 3 MiB into a 4 MiB column, after three spills:
        // the page's own error comes back (the sync thread is stopped and
        // joined, not left waiting), and nothing was committed.
        let mut a: Vec<f64> = (0..1 << 19).map(|i| i as f64).collect();
        a[3 << 17] = -1.0;
        let pool = WorkerPool::new(PoolConfig::with_threads(2));
        let codec: Arc<dyn Compressor> = Arc::new(MarkedPage::Refused);
        let path = tmp("behind-failed-page");
        let cols = [ColumnData::from_f64("x", &a)];
        let err = write_container_pooled(&path, &pool, &codec, &cols, 4096).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
        let read = read_container(&path).unwrap();
        assert!(matches!(read.outcome, RecoveryOutcome::Recovered { .. }));
        assert!(read.table.columns.is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// The directory walk as it was before verification fanned out: each
    /// chunk's checksum compared in turn, before the checks that read its
    /// fields. The reference `load_directory`'s errors are held to.
    fn load_directory_sequential(
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
                if payload_len > plausible_payload_cap(raw) {
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

    /// `image` with the commit directory's entry for the chunk record at
    /// `offset` passed through `edit` (offset, payload length, elems), and
    /// the commit record's checksum recomputed so the directory is still
    /// the valid commit point.
    fn with_directory_entry(image: &[u8], offset: usize, edit: impl Fn(&mut [u8])) -> Vec<u8> {
        let mut out = image.to_vec();
        let loc = out.len() - LOCATOR_BYTES;
        let commit = wire::len64(wire::le_u64(&out, loc + 4).unwrap());
        let rec = check_record(&out, commit).unwrap();
        let (body_start, body_end) = (rec.end - 4 - rec.body.len(), rec.end - 4);
        let key = (offset as u64).to_le_bytes();
        let at = (body_start..body_end - CHUNK_DIR_BYTES)
            .find(|&p| out[p..p + 8] == key)
            .expect("directory entry for the chunk");
        edit(&mut out[at..at + CHUNK_DIR_BYTES]);
        let crc = crc32(&out[commit..body_end]);
        out[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn fanned_out_verification_returns_the_sequential_error() {
        // Two 2 MiB columns of 4 Ki-element pages: 128 chunk records, well
        // over the fan-out threshold, so the checksums run on every core.
        let (pool, codec) = store_engine();
        let a: Vec<f64> = (0..262_144).map(|i| i as f64 * 0.5).collect();
        let bytes = ColumnData::from_f64("a", &a).bytes;
        let mut w = ContainerWriter::new(Vec::new(), &pool, &codec).unwrap();
        for name in ["a", "b"] {
            w.begin_column(name, Precision::Double, 4096).unwrap();
            w.write(&bytes).unwrap();
        }
        let image = w.finish().unwrap();
        assert!(image.len() > 2 * wire::PARALLEL_BYTES);
        let table = parse_container(&image).unwrap().table;
        // Each page's record starts 13 bytes before its payload: 1 tag,
        // 8 length, 4 elems.
        let offsets: Vec<usize> = table
            .columns
            .iter()
            .flat_map(|c| c.chunks.iter().map(|r| r.start - 13))
            .collect();
        let n = offsets.len();
        assert_eq!(n, 128);

        // Against the reference walk over the same (possibly edited) image.
        let sequential = |img: &[u8]| {
            let img = Arc::new(img.to_vec());
            let (_, body_start) = parse_prologue(&img).unwrap();
            let loc = img.len() - LOCATOR_BYTES;
            let commit = wire::len64(wire::le_u64(&img, loc + 4).unwrap());
            let dir = check_record(&img, commit).expect("committed").body;
            load_directory_sequential(&img, dir, body_start).map(|_| ())
        };
        let verdict = |img: &[u8]| {
            let got = parse_container(img).map(|_| ()).unwrap_err();
            assert_eq!(Err(got.clone()), sequential(img));
            got
        };
        let mismatch_context = |e: Error| match e {
            Error::ChecksumMismatch { context, .. } => context,
            other => panic!("{other:?}"),
        };
        let at = |chunk: usize| format!("chunk record at offset {}", offsets[chunk]);
        let flip = |img: &mut Vec<u8>, chunk: usize| img[offsets[chunk] + 13 + 100] ^= 0x10;

        // One late chunk.
        let mut one = image.clone();
        flip(&mut one, n - 2);
        assert_eq!(mismatch_context(verdict(&one)), at(n - 2));

        // Two chunks in different fan-out runs: the earlier one.
        let mut two = image.clone();
        flip(&mut two, 1);
        flip(&mut two, n - 2);
        assert_eq!(mismatch_context(verdict(&two)), at(1));

        // A checksum failure and a bad directory claim: whichever the walk
        // meets first. The claim is either one the walk checks before it
        // frames the record (elems) or one it checks after (payload length).
        let bad_elems = |e: &mut [u8]| e[16] ^= 1;
        let bad_len = |e: &mut [u8]| e[8] ^= 1;
        for edit in [&bad_elems as &dyn Fn(&mut [u8]), &bad_len] {
            for (i, j) in [(3, n - 5), (n - 5, 3)] {
                let mut img = with_directory_entry(&image, offsets[j], edit);
                flip(&mut img, i);
                if i < j {
                    assert_eq!(mismatch_context(verdict(&img)), at(i));
                } else {
                    assert!(matches!(verdict(&img), Error::Corrupt(_)));
                }
            }
        }
        // Both on one chunk: its elems claim is checked before its checksum,
        // its payload length after.
        let mut img = with_directory_entry(&image, offsets[7], bad_elems);
        flip(&mut img, 7);
        assert!(matches!(verdict(&img), Error::Corrupt(_)));
        let mut img = with_directory_entry(&image, offsets[7], bad_len);
        flip(&mut img, 7);
        assert_eq!(mismatch_context(verdict(&img)), at(7));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_container(Path::new("/nonexistent/fcbench-xyz")).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}
