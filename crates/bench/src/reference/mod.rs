//! The kernels the optimized code paths replaced, kept as oracles ([bit
//! I/O](bits), [LZ77](lz77) and [SPDP's front end](spdp_three_pass)
//! verbatim; [zzip's six-way chooser](zzip_six_way) rebuilt from the public
//! calls): differential tests here and in `tests/` prove the shipping code
//! byte-identical to them, and the benches time the speedups.

pub mod bits;
pub mod lz77;

use fcbench_entropy::lz77::Lz77Config;
use fcbench_entropy::{huffman, lz4};

/// zzip's frame for `input` as the chooser wrote it before the LZ77 gate:
/// all six candidate bodies built in full (LZ77 raw and Huffman-coded,
/// Huffman-only, stored, LZ4 raw and Huffman-coded), and the first strict
/// minimum in that mode order kept. `zzip::compress_with` must emit exactly
/// this frame whenever its gate lets the LZ77 search run, and whenever the
/// winner here is not an LZ77 mode.
pub fn zzip_six_way(input: &[u8], cfg: Lz77Config) -> Vec<u8> {
    let lz = fcbench_entropy::lz77::compress(input, cfg);
    let l4 = lz4::compress(input);
    let candidates = [
        huffman::encode(&lz),
        huffman::encode(input),
        input.to_vec(),
        l4.clone(),
        huffman::encode(&l4),
    ];
    let mut mode = 0u8;
    let mut body = lz;
    for (m, c) in (1u8..).zip(candidates) {
        if c.len() < body.len() {
            (mode, body) = (m, c);
        }
    }
    let mut frame = vec![0x5A, mode];
    frame.extend_from_slice(&(input.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// SPDP's front end before the fused pass: DIM8, LNVs2 and LNVs1 as three
/// full-size passes, one `push` per byte.
pub fn spdp_three_pass(data: &[u8]) -> Vec<u8> {
    let rows = data.len() / 8;
    let mut dim8 = Vec::with_capacity(data.len());
    for col in 0..8 {
        for row in 0..rows {
            dim8.push(data[row * 8 + col]);
        }
    }
    dim8.extend_from_slice(&data[rows * 8..]);
    let mut lnvs2 = Vec::with_capacity(dim8.len());
    for (i, &b) in dim8.iter().enumerate() {
        lnvs2.push(b.wrapping_sub(if i >= 2 { dim8[i - 2] } else { 0 }));
    }
    let mut lnvs1 = Vec::with_capacity(lnvs2.len());
    let mut last = 0u8;
    for &b in &lnvs2 {
        lnvs1.push(b.wrapping_sub(last));
        last = b;
    }
    lnvs1
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_codecs_cpu::Spdp;
    use fcbench_core::Compressor;

    #[test]
    fn spdp_corpus_payloads_are_reference_lz77_over_the_three_passes() {
        // The benchmark corpus under the three window ablation configs:
        // every payload is what the three passes and the reference LZ77
        // produce.
        let configs = [(1 << 12, 4), (1 << 16, 8), (1 << 20, 64)];
        for name in ["msg-bt", "citytemp", "acs-wht", "tpcDS-store"] {
            let spec = fcbench_datasets::find(name).expect("catalogued dataset");
            let data = fcbench_datasets::generate(&spec, 1 << 16);
            let staged = spdp_three_pass(data.bytes());
            for (window, chain_depth) in configs {
                let cfg = Lz77Config {
                    window,
                    chain_depth,
                };
                let payload = Spdp::with_lz_config(cfg).compress(&data).unwrap();
                assert_eq!(
                    payload,
                    lz77::compress(&staged, cfg),
                    "{name} window {window} depth {chain_depth}"
                );
            }
        }
    }
}
