//! Block/page-based compression (§6.2.1, Table 10).
//!
//! Database systems compress per page; the paper measures how CR/CT/DT react
//! to 4 KB, 64 KB, and 8 MB block sizes. The block decomposition itself —
//! fixed-size blocks compressed independently, each length alongside its
//! payload so blocks can be decompressed (and in a database, fetched)
//! individually — is the [`FCB3` frame](crate::frame) a
//! [`Pipeline`](crate::Pipeline) produces. This module holds the
//! paper's block sizes and the plausibility gates every stored block passes
//! before it is read and before its codec runs.

use crate::data::DataDesc;
use crate::error::{Error, Result};

/// Paper's three studied block sizes.
pub const BLOCK_4K: usize = 4 * 1024;
/// 64 KB — the paper's default nvCOMP/bitshuffle-scale block.
pub const BLOCK_64K: usize = 64 * 1024;
/// 8 MB — the paper's large-block configuration.
pub const BLOCK_8M: usize = 8 * 1024 * 1024;

/// Cap on the speculative up-front reservation when a whole stream or
/// column is decoded into memory; past it, memory grows as decoded bytes
/// actually arrive.
pub const MAX_UPFRONT_RESERVE: usize = 16 * 1024 * 1024;

/// The most payload bytes a stored block of `raw_bytes` element bytes may
/// claim — an `FCB3` block record or an FCDB2 chunk alike: 8x its raw size,
/// plus 4 KiB for codec headers on tiny blocks. No real codec expands a
/// block anywhere near that, so a longer claim is hostile or corrupt and is
/// rejected before anything is read or reserved for it.
pub fn plausible_payload_cap(raw_bytes: usize) -> usize {
    raw_bytes.saturating_mul(8).saturating_add(4096)
}

/// Per-block ceiling on declared-output vs payload size. Codecs typically
/// reserve `desc.byte_len()` before decoding, so a block descriptor is
/// handed to the codec only after this check — bounding the allocation a
/// hostile container can force to this multiple of the bytes it actually
/// carries. Far above any real compression ratio (a 512 KiB block would
/// need a sub-byte payload to hit it).
const MAX_BLOCK_EXPANSION: usize = 1 << 20;

/// Typed rejection for a decode whose descriptor claims vastly more output
/// than its payload could plausibly decode to.
///
/// Codecs typically reserve `desc.byte_len()` before decoding anything, so
/// every `decompress_into` implementation calls this **before touching the
/// allocator** — a tiny hostile payload carrying a petabyte-claiming
/// descriptor (via a frame, a container directory, the runner, or a direct
/// codec call) gets a typed [`Error::Corrupt`] instead of forcing the
/// reservation. The ceiling is far above any real compression ratio: a
/// legitimate decode would need to expand a payload by over a million to
/// trip it.
pub fn check_decode_claim(desc: &DataDesc, payload_len: usize) -> Result<()> {
    if desc.byte_len() / MAX_BLOCK_EXPANSION > payload_len {
        return Err(Error::Corrupt(format!(
            "descriptor claims {} decoded bytes from a {payload_len}-byte payload",
            desc.byte_len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Compressor;
    use crate::data::{Domain, FloatData};
    use crate::pipeline::Pipeline;
    use crate::testing::HeaderedStore;
    use std::sync::Arc;

    /// `HeaderedStore` in `block_bytes`-byte blocks of f32, as a codec.
    fn blocked(block_bytes: usize) -> Pipeline {
        Pipeline::with_codec(Arc::new(HeaderedStore)).block_elems(block_bytes / 4)
    }

    fn sample(n: usize) -> FloatData {
        let vals: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        FloatData::from_f32(&vals, vec![n], Domain::TimeSeries).unwrap()
    }

    #[test]
    fn round_trip_exact_multiple() {
        let bc: &dyn Compressor = &blocked(16); // 4 f32 per block
        let data = sample(16);
        let payload = bc.compress(&data).unwrap();
        let back = bc.decompress(&payload, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
    }

    #[test]
    fn round_trip_ragged_tail() {
        let bc: &dyn Compressor = &blocked(16);
        for n in [1usize, 3, 5, 17, 31] {
            let data = sample(n);
            let payload = bc.compress(&data).unwrap();
            let back = bc.decompress(&payload, data.desc()).unwrap();
            assert_eq!(back.bytes(), data.bytes(), "n = {n}");
        }
    }

    #[test]
    fn small_blocks_cost_more_overhead() {
        let data = sample(1024);
        let small = blocked(16).compress(&data).unwrap();
        let large = blocked(4096).compress(&data).unwrap();
        // More blocks => more 2-byte headers + 8-byte length fields.
        assert!(small.len() > large.len());
    }

    #[test]
    fn rejects_corruption() {
        let bc: &dyn Compressor = &blocked(16);
        let data = sample(8);
        let payload = bc.compress(&data).unwrap();
        assert!(bc.decompress(&payload[..3], data.desc()).is_err());
        let mut trunc = payload.clone();
        trunc.truncate(payload.len() - 1);
        assert!(bc.decompress(&trunc, data.desc()).is_err());
        let mut extra = payload.clone();
        extra.push(0);
        assert!(bc.decompress(&extra, data.desc()).is_err());
        // As a codec the frame must describe the data that was asked for.
        assert!(bc.decompress(&payload, sample(9).desc()).is_err());
    }

    #[test]
    fn block_constants_match_paper() {
        assert_eq!(BLOCK_4K, 4096);
        assert_eq!(BLOCK_64K, 65536);
        assert_eq!(BLOCK_8M, 8 * 1024 * 1024);
    }
}
