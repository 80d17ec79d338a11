//! # fcbench-codecs-cpu
//!
//! Pure-Rust implementations of the eight CPU-based lossless floating-point
//! compressors surveyed in FCBench §3:
//!
//! | Codec | Paper § | Class | Parallel |
//! |---|---|---|---|
//! | [`Fpzip`] | 3.1 | Lorenzo + range coding | serial |
//! | [`Spdp`] | 3.2 | byte transforms + LZ77 | serial |
//! | [`Buff`] | 3.3 | bounded decimal delta, byte columns | serial |
//! | [`Gorilla`] | 3.4 | XOR delta | serial |
//! | [`Chimp`] | 3.5 | XOR + 128-value window | serial |
//! | [`Pfpc`] | 3.6 | FCM/DFCM hash prediction | threads |
//! | [`Bitshuffle`] | 3.7 | bit transpose + LZ4/zstd-class | threads |
//! | [`Ndzip`] | 3.8 | integer Lorenzo + transpose | threads |
//!
//! Every codec implements [`fcbench_core::Compressor`] and round-trips
//! bit-exactly (NaN payloads and signed zeros included). [`Predictor`] adds
//! the three single-predictor baseline rows (`last-value`, `last-stride`,
//! `dfcm`).
//!
//! The three threaded codecs — and the GPU crate's five — share one chunk
//! scaffold: the wire cursor and chunk directory of [`fcbench_core::wire`],
//! and [`common`]'s fan-out rule, nibble/residual packer and word views.
//! A payload's first contact with untrusted bytes is that cursor, never a
//! hand-rolled `pos + n`.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod bitshuffle;
mod buff;
mod chimp;
pub mod common;
mod fpzip;
mod gorilla;
pub mod ndzip;
mod pfpc;
mod predictor;
mod spdp;

pub use bitshuffle::{Backend, Bitshuffle};
pub use buff::{Buff, BuffView};
pub use chimp::Chimp;
pub use fpzip::Fpzip;
pub use gorilla::Gorilla;
pub use ndzip::Ndzip;
pub use pfpc::Pfpc;
pub use predictor::{Predictor, PredictorKind};
pub use spdp::Spdp;
