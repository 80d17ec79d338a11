//! Chunked, block-parallel compression pipeline — a thin façade over the
//! persistent [`WorkerPool`] execution engine.
//!
//! [`Pipeline`] splits a [`FloatData`] element stream into fixed-size blocks
//! (the discipline FCBench applies to its ndzip/GPU methods and the Table 10
//! page study), compresses the blocks independently, and emits the
//! self-describing [`FCB3` frame](crate::frame). Decompression reverses the
//! process and reassembles the exact original bytes. It is the
//! whole-buffer form of the streaming [`FrameWriter`] / [`FrameReader`]
//! pair — the same code, the same bytes — and is itself a [`Compressor`]
//! (frame out, frame in), so the runner and the scaling sweep drive a
//! block-decomposed codec exactly as they drive a bare one.
//!
//! A pipeline built with [`Pipeline::new`] or [`Pipeline::with_codec`] runs
//! its blocks inline on the caller's thread. One built with
//! [`Pipeline::with_pool`] **submits them to that long-lived
//! [`WorkerPool`]** rather than to per-call scoped threads, so worker
//! scratch — slot buffers, codec thread-locals such as chimp's window
//! state — reaches steady state across calls instead of being rebuilt each
//! time, and many pipelines share one warm engine. Every codec runs this way,
//! CPU or GPU-simulated: a codec that fans its own chunks out does so
//! inside the block it was handed, under the one
//! [`fan_out`](crate::wire::fan_out) rule, which keeps a default-sized
//! block on the worker that runs it.
//!
//! For datasets that should never be fully resident, use the stream pair
//! directly — see [`Pipeline::frame_writer`] and
//! [`Pipeline::frame_reader`].
//!
//! ```
//! use fcbench_core::{CodecRegistry, Domain, FloatData, Pipeline, PoolConfig, WorkerPool};
//! use std::sync::Arc;
//! # use fcbench_core::{codec::{CodecClass, CodecInfo, Community, Platform, PrecisionSupport},
//! #                    Compressor, DataDesc, Result};
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
//! let values: Vec<f64> = (0..200_000).map(|i| (i as f64).sin()).collect();
//! let data = FloatData::from_f64(&values, vec![values.len()], Domain::TimeSeries).unwrap();
//!
//! // Inline: every block runs on the caller's thread.
//! let registry = CodecRegistry::new().with(Store);
//! let inline = Pipeline::new(&registry, "store").unwrap().block_elems(64 * 1024);
//! let frame = inline.compress(&data).unwrap();
//!
//! // On a shared engine: the same frame, its blocks run by four workers.
//! let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(4)));
//! let pooled = Pipeline::with_pool(Arc::new(Store), pool).block_elems(64 * 1024);
//! assert_eq!(pooled.compress(&data).unwrap(), frame);
//! assert_eq!(pooled.decompress(&frame).unwrap().bytes(), data.bytes());
//! ```

use crate::codec::{CodecInfo, Compressor};
use crate::data::{DataDesc, FloatData};
use crate::error::{Error, Result};
use crate::pool::WorkerPool;
use crate::registry::CodecRegistry;
use crate::stream::{FrameReader, FrameWriter};
use std::sync::Arc;

/// Default elements per block: 64 Ki elements, the paper's bitshuffle/nvCOMP
/// working-set scale.
pub(crate) const DEFAULT_BLOCK_ELEMS: usize = 64 * 1024;

/// A configured block-parallel compression pipeline around one codec.
pub struct Pipeline {
    codec: Arc<dyn Compressor>,
    block_elems: usize,
    /// The engine its blocks run on; `None` runs them inline.
    pool: Option<Arc<WorkerPool>>,
}

impl Pipeline {
    /// Build an inline pipeline around the registered codec `name`.
    pub fn new(registry: &CodecRegistry, name: &str) -> Result<Self> {
        Ok(Self::with_codec(registry.require(name)?))
    }

    /// Build an inline pipeline around an explicit codec handle.
    pub fn with_codec(codec: Arc<dyn Compressor>) -> Self {
        Pipeline {
            codec,
            block_elems: DEFAULT_BLOCK_ELEMS,
            pool: None,
        }
    }

    /// Build a pipeline whose blocks run on an existing [`WorkerPool`] —
    /// the way to drive many codecs through a single warm engine. A
    /// one-worker pool is not used: its blocks run inline, as
    /// [`with_codec`](Self::with_codec)'s do.
    pub fn with_pool(codec: Arc<dyn Compressor>, pool: Arc<WorkerPool>) -> Self {
        Pipeline {
            pool: (pool.threads() > 1).then_some(pool),
            ..Self::with_codec(codec)
        }
    }

    /// Set the block size in elements (clamped to at least 1).
    #[must_use]
    pub fn block_elems(mut self, elems: usize) -> Self {
        self.block_elems = elems.max(1);
        self
    }

    /// Compress `data` into `out` (contents replaced, capacity reused).
    /// Returns the frame length.
    pub fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        out.clear();
        let mut writer = self.frame_writer(data.desc(), &mut *out)?;
        writer.write(data.bytes())?;
        writer.finish()?;
        Ok(out.len())
    }

    /// Decode an `FCB3` frame produced by this pipeline's codec into a
    /// freshly allocated container.
    pub fn decompress(&self, frame: &[u8]) -> Result<FloatData> {
        let mut out = FloatData::scratch();
        self.decompress_into(frame, &mut out)?;
        Ok(out)
    }

    /// Decode an `FCB3` frame into a reusable container.
    ///
    /// The frame's block size takes precedence over the pipeline's
    /// configured one — frames are self-describing. Every declared size in
    /// the frame is untrusted: per-block output claims are gated against
    /// payload plausibility before any codec runs, and output memory is
    /// reserved incrementally, so a tiny hostile frame cannot force a huge
    /// allocation. `frame` must be exactly one frame: a truncated one and
    /// one followed by further bytes are both [`Error::Corrupt`].
    pub fn decompress_into(&self, frame: &[u8], out: &mut FloatData) -> Result<()> {
        self.decode(frame, None, out)
    }

    /// [`decompress_into`](Self::decompress_into), refusing up front a
    /// frame that describes data other than `expect`.
    fn decode(&self, frame: &[u8], expect: Option<&DataDesc>, out: &mut FloatData) -> Result<()> {
        let mut src = frame;
        let decoded = self.frame_reader(&mut src).and_then(|mut reader| {
            if let Some(want) = expect.filter(|want| *want != reader.desc()) {
                return Err(Error::Corrupt(format!(
                    "frame describes {:?} but {want:?} was asked for",
                    reader.desc()
                )));
            }
            reader.read_to_end(out)
        });
        match decoded {
            // The source is a slice: the only I/O failure it has is running
            // out of bytes.
            Err(Error::Io(e)) => Err(Error::Corrupt(format!("frame truncated: {e}"))),
            Err(e) => Err(e),
            Ok(()) if !src.is_empty() => Err(Error::Corrupt(format!(
                "{} trailing bytes after final block",
                src.len()
            ))),
            Ok(()) => Ok(()),
        }
    }

    /// A streaming `FCB3` writer over this pipeline's codec, block size, and
    /// engine: element bytes go in chunk-by-chunk, compressed block records
    /// come out on `sink`, and the dataset is never fully resident.
    pub fn frame_writer<W: std::io::Write>(
        &self,
        desc: &DataDesc,
        sink: W,
    ) -> Result<FrameWriter<W>> {
        FrameWriter::new(
            sink,
            Arc::clone(&self.codec),
            desc.clone(),
            self.block_elems,
            self.pool.clone(),
        )
    }

    /// A streaming `FCB3` reader over this pipeline's codec and engine;
    /// decoded blocks come out in stream order, read-ahead bounded by the
    /// engine's queue depth.
    pub fn frame_reader<R: std::io::Read>(&self, src: R) -> Result<FrameReader<R>> {
        FrameReader::new(src, Arc::clone(&self.codec), self.pool.clone())
    }
}

/// A pipeline is a codec whose payload is the whole `FCB3` frame: the
/// measured compressed size includes the frame's prologue and per-block
/// length fields — the container accounting the Table 10 block study wants.
impl Compressor for Pipeline {
    fn info(&self) -> CodecInfo {
        self.codec.info()
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        Pipeline::compress_into(self, data, out)
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        self.decode(payload, Some(desc), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Domain;
    use crate::pool::PoolConfig;
    use crate::registry::CodecRegistry;
    use crate::testing::{info, HeaderedStore};

    fn registry() -> CodecRegistry {
        CodecRegistry::new().with(HeaderedStore)
    }

    /// `codec`'s pipeline at `threads` workers: inline at one, on a fresh
    /// pool of `threads` workers above.
    fn at_threads(codec: Arc<dyn Compressor>, threads: usize) -> Pipeline {
        if threads == 1 {
            Pipeline::with_codec(codec)
        } else {
            let pool = WorkerPool::new(PoolConfig::with_threads(threads));
            Pipeline::with_pool(codec, Arc::new(pool))
        }
    }

    fn sample(n: usize) -> FloatData {
        let vals: Vec<f64> = (0..n)
            .map(|i| match i % 7 {
                0 => f64::NAN,
                1 => -0.0,
                2 => 5e-324,
                _ => i as f64 * 0.37,
            })
            .collect();
        FloatData::from_f64(&vals, vec![n], Domain::TimeSeries).unwrap()
    }

    #[test]
    fn unknown_codec_is_a_typed_error() {
        assert!(matches!(
            Pipeline::new(&registry(), "nope"),
            Err(Error::UnknownCodec { requested, available })
                if requested == "nope" && !available.is_empty()
        ));
    }

    #[test]
    fn round_trips_across_block_sizes_and_threads() {
        let n = 1000;
        let data = sample(n);
        for block in [1usize, n - 1, n, n + 1, 64 * 1024] {
            for threads in [1usize, 2, 8] {
                let p = at_threads(Arc::new(HeaderedStore), threads).block_elems(block);
                let frame = p.compress(&data).unwrap();
                let back = p.decompress(&frame).unwrap();
                assert_eq!(
                    back.bytes(),
                    data.bytes(),
                    "block {block} x threads {threads}"
                );
                assert_eq!(back.desc(), data.desc());
            }
        }
    }

    #[test]
    fn repeated_calls_reuse_one_engine() {
        let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(4)));
        let p = Pipeline::with_pool(Arc::new(HeaderedStore), Arc::clone(&pool)).block_elems(64);
        let data = sample(1000);
        let mut frame = Vec::new();
        let mut out = FloatData::scratch();
        for _ in 0..5 {
            p.compress_into(&data, &mut frame).unwrap();
            p.decompress_into(&frame, &mut out).unwrap();
            assert_eq!(out.bytes(), data.bytes());
        }
        // 5 rounds x ceil(1000/64) blocks x (compress + decompress).
        assert_eq!(pool.jobs_completed(), 5 * 2 * 16);
    }

    #[test]
    fn shared_pool_drives_multiple_pipelines() {
        let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2)));
        let a = Pipeline::with_pool(Arc::new(HeaderedStore), Arc::clone(&pool)).block_elems(32);
        let b = Pipeline::with_pool(Arc::new(HeaderedStore), Arc::clone(&pool)).block_elems(96);
        let data = sample(500);
        let fa = a.compress(&data).unwrap();
        let fb = b.compress(&data).unwrap();
        assert_eq!(a.decompress(&fa).unwrap().bytes(), data.bytes());
        assert_eq!(b.decompress(&fb).unwrap().bytes(), data.bytes());
        assert_eq!(pool.threads_spawned(), 2);
    }

    #[test]
    fn pipeline_makes_progress_on_a_nearly_exhausted_shared_pool() {
        // Another session pins 3 of the 4 slots (jobs completed but never
        // collected). A pipeline streaming many blocks through the single
        // remaining slot must drain its own jobs rather than deadlock in
        // submit.
        let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2).queue_depth(4)));
        let codec: Arc<dyn Compressor> = Arc::new(HeaderedStore);
        let data = sample(500);
        let hostages: Vec<_> = (0..3)
            .map(|_| {
                pool.submit_compress(&codec, data.desc(), data.bytes())
                    .unwrap()
            })
            .collect();
        pool.drain();

        let p = Pipeline::with_pool(Arc::new(HeaderedStore), Arc::clone(&pool)).block_elems(32);
        let frame = p.compress(&data).unwrap();
        assert_eq!(p.decompress(&frame).unwrap().bytes(), data.bytes());

        // The streaming writer/reader obey the same discipline.
        let mut w = p.frame_writer(data.desc(), Vec::new()).unwrap();
        w.write(data.bytes()).unwrap();
        let stored = w.finish().unwrap();
        let mut r = p.frame_reader(&stored[..]).unwrap();
        let mut out = FloatData::scratch();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.bytes(), data.bytes());

        for t in hostages {
            t.collect(|_| ()).unwrap();
        }
    }

    #[test]
    fn huge_block_size_saturates_instead_of_overflowing() {
        // block_elems * esize would overflow usize; both the compress and
        // decompress paths must saturate to a single full-buffer block.
        let data = sample(100);
        for threads in [1usize, 4] {
            let p = at_threads(Arc::new(HeaderedStore), threads).block_elems(usize::MAX);
            let frame = p.compress(&data).unwrap();
            let back = p.decompress(&frame).unwrap();
            assert_eq!(back.bytes(), data.bytes());
        }
    }

    /// Mimics the production codecs' habit of reserving the descriptor's
    /// full byte length before decoding anything — the reason hostile
    /// descriptors must be rejected before the codec is handed one.
    struct ReservingStore;

    impl Compressor for ReservingStore {
        fn info(&self) -> CodecInfo {
            info("rstore")
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
            out.refill(desc, |bytes| {
                bytes.reserve(desc.byte_len());
                bytes.extend_from_slice(payload);
                Ok(())
            })
        }
    }

    #[test]
    fn implausible_declared_size_errors_without_huge_allocation() {
        // A ~50-byte hostile frame declaring 2^50 doubles (8 PB) must fail
        // with a typed error before the codec can reserve the claimed size.
        for threads in [1usize, 8] {
            let p = at_threads(Arc::new(ReservingStore), threads);
            let mut f = Vec::new();
            f.extend_from_slice(b"FCB3");
            f.push(6);
            f.extend_from_slice(b"rstore");
            f.push(1); // double
            f.push(1); // time series
            f.push(1); // ndims
            f.extend_from_slice(&(1u64 << 50).to_le_bytes()); // dims[0]
            f.extend_from_slice(&(1u64 << 50).to_le_bytes()); // block elems -> 1 block
            let payload = [1u8, 2, 3, 4, 5, 6, 7, 8];
            f.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            f.extend_from_slice(&payload);
            assert!(matches!(p.decompress(&f), Err(Error::Corrupt(_))));
        }
    }

    #[test]
    fn buffers_are_reusable_across_calls() {
        let p = at_threads(Arc::new(HeaderedStore), 2).block_elems(64);
        let mut frame_buf = Vec::new();
        let mut out = FloatData::scratch();
        for n in [10usize, 500, 129] {
            let data = sample(n);
            let len = p.compress_into(&data, &mut frame_buf).unwrap();
            assert_eq!(len, frame_buf.len());
            p.decompress_into(&frame_buf, &mut out).unwrap();
            assert_eq!(out.bytes(), data.bytes());
        }
    }

    #[test]
    fn rejects_foreign_and_corrupt_frames() {
        let r = registry();
        let p = Pipeline::new(&r, "hstore").unwrap().block_elems(16);
        let data = sample(64);
        let frame = p.compress(&data).unwrap();

        // Codec-name byte flipped -> foreign-codec error.
        let mut foreign = frame.clone();
        foreign[4 + 1] ^= 0x55; // first byte of the name "hstore"
        assert!(p.decompress(&foreign).is_err());

        // Truncations never panic.
        for cut in [0, 4, frame.len() / 2, frame.len() - 1] {
            assert!(p.decompress(&frame[..cut]).is_err());
        }

        // Corrupt the first block's 0xAB marker: the per-block decode error
        // must surface through both the inline and the engine path.
        let prologue = crate::frame::encode_stream_header("hstore", data.desc(), 16).unwrap();
        let mut bad = frame.clone();
        let first_payload_offset = prologue.len() + 8;
        assert_eq!(bad[first_payload_offset], 0xAB);
        bad[first_payload_offset] ^= 0xFF;
        assert!(p.decompress(&bad).is_err());
        let p8 = at_threads(Arc::new(HeaderedStore), 8).block_elems(16);
        assert!(p8.decompress(&bad).is_err());
    }
}
