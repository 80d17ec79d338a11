//! # fcbench-entropy
//!
//! Entropy-coding substrates for FCBench-rs, all implemented from scratch
//! (the benchmark's offline build permits no third-party compression
//! crates):
//!
//! - [`bits`] — word-at-a-time MSB-first bit writer/reader built on a
//!   64-bit accumulator (Gorilla/Chimp control streams, fpzip verbatim
//!   tails); the pre-rewrite byte-granular code survives as
//!   [`bits::reference`] for differential testing and the `bitstream`
//!   microbench;
//! - [`lz4`] — the LZ4 block format with greedy hash-table matching;
//! - [`lz77`] — configurable-window hash-chain LZ77 (SPDP's `LZa6`);
//! - [`huffman`] — canonical, length-limited Huffman over byte symbols;
//! - [`RangeEncoder`]/[`RangeDecoder`] — carry-less range coder +
//!   [`AdaptiveModel`]s (fpzip, Dzip);
//! - [`zzip`] — the zstd-class LZ77+Huffman codec used by
//!   `bitshuffle::zstd`'s backend.

// The bit engine's unaligned word I/O is all `from_be_bytes`/`to_be_bytes`
// on fixed arrays — it benches within noise of raw pointer loads, so the
// whole crate stays free of `unsafe` (CI's clippy -D warnings plus this
// attribute enforce it).
#![forbid(unsafe_code)]

pub mod bits;
pub mod huffman;
pub mod lz4;
pub mod lz77;
mod range;
pub mod zzip;

pub use bits::{BitReader, BitSink, BitWriter};
pub use range::{AdaptiveModel, RangeDecoder, RangeEncoder};
