//! Codec-kernel microbench: the recorded numbers behind the word-level
//! rewrites of the slow codec kernels. Measures the tiled bitshuffle
//! transpose (forward and inverse) against the 8-element-group kernel it
//! replaced, kept here as `groups`; the LZ4 matcher, which keeps each
//! slot's word beside its position and tests it first, against the epoch
//! matcher it replaced, which loaded each candidate's word back from the
//! input (`epoch_lz4`), on `msg-bt`'s bit-transposed blocks (gated); the
//! word-at-a-time lz77 hash-chain match finder against `reference::lz77`,
//! on bitshuffle-shaped inputs; the table-driven canonical-Huffman decoder
//! (zzip's entropy stage) against the bit-at-a-time walk it replaced, kept
//! here as `huffman_walk`; the braided CRC-32 behind every FCDB2 record
//! against a local byte-at-a-time loop (gated) and against the
//! slice-by-16 kernel it replaced (`crc32_slice16`, printed); and Gorilla's
//! one-test-per-value decoder against the field-by-field `BitReader` loop
//! it replaced (`gorilla_fieldwise`, printed); and SPDP's compressor —
//! fused front end, key-filtered lz77 — against its three full-size stage
//! passes and `reference::lz77` on `msg-bt` (gated); zzip's LZ77-gated
//! chooser against the chooser it replaced, which ran the LZ77 search on
//! every block, kept here as `priced_six_way`, on `msg-bt`'s bit-transposed
//! blocks (printed); and the `miranda3d` generator's draw-then-map pipeline
//! against the serial smooth-field generator it replaced, kept here as
//! `serial_field` (gated). Every row is best-of-N per side except SPDP's,
//! LZ4's and zzip's, the median of N interleaved pairs. The headline
//! acceptance number is the worst gated speedup, which must stay ≥ 2x;
//! `(info)` rows are printed, not gated.
//!
//! Runs as a plain `main` (`harness = false`): it prints one
//! table and exits, sized for a CI smoke budget. `FCBENCH_QUICK_BENCH=1`
//! shrinks the iteration counts.

use fcbench_bench::reference::{self, spdp_three_pass};
use fcbench_codecs_cpu::{bitshuffle, Gorilla, Spdp};
use fcbench_core::stream::crc32;
use fcbench_core::{Compressor, DataDesc, Domain, FloatData, Precision};
use fcbench_entropy::lz77::{self, Lz77Config};
use fcbench_entropy::{huffman, lz4, zzip, BitReader};
use std::hint::black_box;
use std::time::Instant;

fn quick() -> bool {
    std::env::var_os("FCBENCH_QUICK_BENCH").is_some_and(|v| v != "0")
}

/// Best-of-N wall time for `f`, in seconds.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// `kernel` and `reference` timed in `reps` interleaved pairs (their order
/// alternating), in seconds: the pair whose reference/kernel ratio is the
/// lower median. A level shift of a shared machine between two blocks of
/// reps moves both halves of a pair, not the ratio.
fn median_pair<K: FnMut(), R: FnMut()>(reps: usize, mut kernel: K, mut reference: R) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mut pairs: Vec<(f64, f64)> = (0..reps)
        .map(|rep| {
            if rep % 2 == 0 {
                let k = time(&mut kernel);
                (k, time(&mut reference))
            } else {
                let r = time(&mut reference);
                (time(&mut kernel), r)
            }
        })
        .collect();
    pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    pairs[(reps - 1) / 2]
}

struct Row {
    name: &'static str,
    new_s: f64,
    ref_s: f64,
    bytes: u64,
    gated: bool,
}

impl Row {
    fn print(&self) {
        let rate = |s: f64| self.bytes as f64 / s / 1e6;
        println!(
            "{:<34} {:>10.1} {:>10.1} {:>7.2}x{}",
            self.name,
            rate(self.new_s),
            rate(self.ref_s),
            self.ref_s / self.new_s,
            if self.gated { "" } else { "  (info)" },
        );
    }
}

/// Smooth f64 ramp serialized LE — the float-data shape bitshuffle sees.
fn ramp_bytes(n_bytes: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(n_bytes);
    let mut i = 0u64;
    while data.len() < n_bytes {
        let v = 300.0 + ((i % 365) as f64) * 0.1;
        data.extend_from_slice(&v.to_le_bytes());
        i += 1;
    }
    data.truncate(n_bytes);
    data
}

/// The transpose the tiled kernel replaced: every 8-element group, one
/// element-byte column at a time, gathered into a u64, 8x8 bit-transposed
/// and scattered over 8 bit planes (f64 first transposes the group's 8x8
/// byte matrix in three word rounds).
mod groups {
    fn transpose8(x: u64) -> u64 {
        let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
        let x = x ^ t ^ (t << 7);
        let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
        let x = x ^ t ^ (t << 14);
        let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
        x ^ t ^ (t << 28)
    }

    fn byte_transpose8x8(mut m: [u64; 8]) -> [u64; 8] {
        for i in 0..4 {
            let (a, b) = (m[i], m[i + 4]);
            m[i] = (a & 0x0000_0000_FFFF_FFFF) | (b << 32);
            m[i + 4] = (a >> 32) | (b & 0xFFFF_FFFF_0000_0000);
        }
        for i in [0usize, 1, 4, 5] {
            let (a, b) = (m[i], m[i + 2]);
            m[i] = (a & 0x0000_FFFF_0000_FFFF) | ((b & 0x0000_FFFF_0000_FFFF) << 16);
            m[i + 2] = ((a >> 16) & 0x0000_FFFF_0000_FFFF) | (b & 0xFFFF_0000_FFFF_0000);
        }
        for i in [0usize, 2, 4, 6] {
            let (a, b) = (m[i], m[i + 1]);
            m[i] = (a & 0x00FF_00FF_00FF_00FF) | ((b & 0x00FF_00FF_00FF_00FF) << 8);
            m[i + 1] = ((a >> 8) & 0x00FF_00FF_00FF_00FF) | (b & 0xFF00_FF00_FF00_FF00);
        }
        m
    }

    pub fn bit_transpose_into(data: &[u8], elems: usize, elem_bits: usize, out: &mut Vec<u8>) {
        let (esize, groups) = (elem_bits / 8, elems / 8);
        out.clear();
        out.resize(data.len(), 0);
        let mut scatter = |g: usize, k: usize, x: u64| {
            for (t, b) in transpose8(x).to_le_bytes().into_iter().enumerate() {
                out[(8 * k + t) * groups + g] = b;
            }
        };
        for (g, grp) in data.chunks_exact(8 * esize).enumerate() {
            if esize == 8 {
                let mut rows = [0u64; 8];
                for (j, r) in grp.chunks_exact(8).enumerate() {
                    rows[j] = u64::from_le_bytes(r.try_into().unwrap());
                }
                let cols = byte_transpose8x8(rows);
                for (k, &x) in cols.iter().enumerate() {
                    scatter(g, k, x);
                }
            } else {
                for k in 0..esize {
                    let x = (0..8).fold(0, |x, j| x | u64::from(grp[j * esize + k]) << (8 * j));
                    scatter(g, k, x);
                }
            }
        }
    }

    pub fn bit_untranspose_into(data: &[u8], elems: usize, elem_bits: usize, out: &mut Vec<u8>) {
        let (esize, groups) = (elem_bits / 8, elems / 8);
        out.clear();
        out.resize(data.len(), 0);
        for g in 0..groups {
            for k in 0..esize {
                let y = (0..8).fold(0, |y, t| {
                    y | u64::from(data[(8 * k + t) * groups + g]) << (8 * t)
                });
                for (j, b) in transpose8(y).to_le_bytes().into_iter().enumerate() {
                    out[g * 8 * esize + j * esize + k] = b;
                }
            }
        }
    }
}

fn bench_transpose(elems: usize, elem_bits: usize, reps: usize) -> (Row, Row) {
    let data = ramp_bytes(elems * elem_bits / 8);
    let (mut out, mut old) = (Vec::new(), Vec::new());
    let fwd_new = best_of(reps, || {
        bitshuffle::bit_transpose_into(&data, elems, elem_bits, &mut out);
        black_box(out.len());
    });
    let fwd_ref = best_of(reps, || {
        groups::bit_transpose_into(&data, elems, elem_bits, &mut old);
        black_box(old.len());
    });
    assert_eq!(out, old, "tiled and 8-group planes differ");
    let t = out.clone();
    let inv_new = best_of(reps, || {
        bitshuffle::bit_untranspose_into(&t, elems, elem_bits, &mut out);
        black_box(out.len());
    });
    let inv_ref = best_of(reps, || {
        groups::bit_untranspose_into(&t, elems, elem_bits, &mut old);
        black_box(old.len());
    });
    assert_eq!(out, old, "tiled and 8-group elements differ");
    let bytes = data.len() as u64;
    let (fname, iname) = if elem_bits == 32 {
        ("transpose f32 fwd", "transpose f32 inv")
    } else {
        ("transpose f64 fwd", "transpose f64 inv")
    };
    (
        Row {
            name: fname,
            new_s: fwd_new,
            ref_s: fwd_ref,
            bytes,
            gated: true,
        },
        Row {
            name: iname,
            new_s: inv_new,
            ref_s: inv_ref,
            bytes,
            gated: false,
        },
    )
}

/// LZ4's greedy matcher before the word-in-slot table: 64 Ki `u32` slots
/// of `base + pos + 1` against an epoch that each call advances by its
/// length, and a probe that tests the tag, then the window, then loads the
/// candidate's word back from the input to compare. Emits the same
/// sequences as `lz4::compress_into`.
mod epoch_lz4 {
    pub struct Table {
        slots: Vec<u32>,
        epoch: u32,
    }

    impl Table {
        pub fn new() -> Self {
            Self {
                slots: vec![0; 1 << 16],
                epoch: 0,
            }
        }
    }

    fn hash4(v: u32) -> usize {
        (v.wrapping_mul(2654435761) >> 16) as usize
    }

    fn word_at(data: &[u8], i: usize) -> Option<u32> {
        data.get(i..)
            .and_then(<[u8]>::first_chunk)
            .map(|w| u32::from_le_bytes(*w))
    }

    fn read_u64(data: &[u8], i: usize) -> u64 {
        match data.get(i..).and_then(|t| t.first_chunk::<8>()) {
            Some(w) => u64::from_le_bytes(*w),
            None => 0,
        }
    }

    fn length(out: &mut Vec<u8>, mut rest: usize) {
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }

    fn literals(out: &mut Vec<u8>, lits: &[u8], token_low: u8) {
        out.push((lits.len().min(15) as u8) << 4 | token_low);
        if lits.len() >= 15 {
            length(out, lits.len() - 15);
        }
        out.extend_from_slice(lits);
    }

    pub fn compress_into(input: &[u8], table: &mut Table, out: &mut Vec<u8>) {
        let n = input.len();
        out.clear();
        out.reserve(n / 2 + 16);
        if n < 13 {
            return literals(out, input, 0);
        }
        // A bench run feeds it far less than 4 GiB: the epoch never wraps.
        let base = table.epoch;
        table.epoch += n as u32;
        let slots = &mut table.slots;
        let (match_limit, mut anchor, mut i) = (n - 12, 0, 0);
        while i < match_limit {
            let Some(word) = word_at(input, i) else { break };
            let h = hash4(word);
            let seen = slots[h];
            slots[h] = base.wrapping_add((i + 1) as u32);
            let m = seen.wrapping_sub(base).wrapping_sub(1) as usize;
            let matched =
                seen > base && i.wrapping_sub(m) <= 65_535 && word_at(input, m) == Some(word);
            if !matched {
                i += 1;
                continue;
            }
            let max_len = n - 5 - i;
            let mut len = 4;
            while len + 8 <= max_len {
                let x = read_u64(input, m + len) ^ read_u64(input, i + len);
                if x != 0 {
                    len += (x.trailing_zeros() >> 3) as usize;
                    break;
                }
                len += 8;
            }
            while len < max_len && input[m + len] == input[i + len] {
                len += 1;
            }
            literals(out, &input[anchor..i], (len - 4).min(15) as u8);
            out.extend_from_slice(&((i - m) as u16).to_le_bytes());
            if len - 4 >= 15 {
                length(out, len - 4 - 15);
            }
            i += len;
            anchor = i;
            if i < match_limit {
                let p = i - 2;
                if let Some(w) = word_at(input, p) {
                    slots[hash4(w)] = base.wrapping_add((p + 1) as u32);
                }
            }
        }
        literals(out, &input[anchor..], 0);
    }
}

/// `elems` elements of `msg-bt` in 64 KiB blocks, each bit-transposed as
/// bitshuffle-lz4 and bitshuffle-zstd code them; and the raw byte count.
fn shuffled_msg_bt(elems: usize) -> (Vec<Vec<u8>>, u64) {
    let spec = fcbench_datasets::find("msg-bt").expect("catalogued dataset");
    let data = fcbench_datasets::generate(&spec, elems);
    let blocks = data
        .bytes()
        .chunks(64 << 10)
        .map(|b| bitshuffle::bit_transpose(b, b.len() / 8, 64))
        .collect();
    (blocks, data.bytes().len() as u64)
}

/// LZ4 over `msg-bt`'s bit-transposed 64 KiB blocks, a call per block, as
/// `bitshuffle-lz4` codes them, against [`epoch_lz4`]. Median of
/// interleaved pairs ([`median_pair`]). Gated: it read 2.85–3.20x over
/// five full runs on 2 shared vCPUs.
fn bench_lz4(elems: usize, reps: usize) -> Row {
    let (blocks, bytes) = shuffled_msg_bt(elems);
    let (mut out, mut old, mut table) = (Vec::new(), Vec::new(), epoch_lz4::Table::new());
    for block in &blocks {
        lz4::compress_into(block, &mut out);
        epoch_lz4::compress_into(block, &mut table, &mut old);
        assert_eq!(out, old, "word-in-slot and epoch matchers differ");
    }
    let (new_s, ref_s) = median_pair(
        reps,
        || {
            for block in &blocks {
                lz4::compress_into(black_box(block), &mut out);
                black_box(out.len());
            }
        },
        || {
            for block in &blocks {
                epoch_lz4::compress_into(black_box(block), &mut table, &mut old);
                black_box(old.len());
            }
        },
    );
    Row {
        name: "lz4 compress (bitshuffled msg-bt)",
        new_s,
        ref_s,
        bytes,
        gated: true,
    }
}

fn bench_lz77(name: &'static str, input: &[u8], cfg: Lz77Config, reps: usize) -> (Row, Row) {
    let mut out = Vec::new();
    let c_new = best_of(reps, || {
        lz77::compress_into(input, cfg, &mut out);
        black_box(out.len());
    });
    let c_ref = best_of(reps, || {
        black_box(reference::lz77::compress(input, cfg).len());
    });
    let stream = lz77::compress(input, cfg);
    let d_new = best_of(reps, || {
        black_box(lz77::decompress(&stream, input.len()).expect("valid").len());
    });
    let d_ref = best_of(reps, || {
        black_box(
            reference::lz77::decompress(&stream, input.len())
                .expect("valid")
                .len(),
        );
    });
    let bytes = input.len() as u64;
    (
        Row {
            name,
            new_s: c_new,
            ref_s: c_ref,
            bytes,
            gated: true,
        },
        Row {
            name: "lz77 decompress",
            new_s: d_new,
            ref_s: d_ref,
            bytes,
            gated: false,
        },
    )
}

/// Canonical-Huffman decode as it was before the lookup table: one bit per
/// step, checked against each length's code range. `None` where
/// `huffman::decode` errs.
fn huffman_walk(input: &[u8]) -> Option<Vec<u8>> {
    let (table, rest) = input.split_at_checked(128)?;
    let (count, bits) = rest.split_first_chunk::<4>()?;
    let mut lens = [0u8; 256];
    for (i, &pair) in table.iter().enumerate() {
        (lens[2 * i], lens[2 * i + 1]) = (pair >> 4, pair & 0x0F);
    }
    let count = u32::from_le_bytes(*count) as usize;
    let mut n_at = [0u32; 16];
    for &l in lens.iter().filter(|&&l| l > 0) {
        n_at[usize::from(l)] += 1;
    }
    let (mut first_code, mut first_idx) = ([0u32; 16], [0u32; 16]);
    let (mut code, mut idx) = (0u32, 0u32);
    for len in 1..16 {
        code <<= 1;
        (first_code[len], first_idx[len]) = (code, idx);
        code += n_at[len];
        idx += n_at[len];
    }
    let mut by_idx = Vec::new();
    for len in 1..16u8 {
        by_idx.extend((0..=255u8).filter(|&sym| lens[usize::from(sym)] == len));
    }
    if by_idx.is_empty() {
        return (count == 0).then(Vec::new);
    }
    let mut r = BitReader::new(bits);
    let mut out = Vec::with_capacity(count.min(8 * bits.len()));
    for _ in 0..count {
        let (mut code, mut len) = (0u32, 0usize);
        loop {
            code = (code << 1) | u32::from(r.read_bit()?);
            len += 1;
            if len > 15 {
                return None;
            }
            if n_at[len] > 0 && code >= first_code[len] && code < first_code[len] + n_at[len] {
                out.push(by_idx[(first_idx[len] + code - first_code[len]) as usize]);
                break;
            }
        }
    }
    Some(out)
}

/// Huffman decode of bit-transposed planes, the bytes zzip's entropy stage
/// sees on the bitshuffle-zstd row.
fn bench_huffman(planes: &[u8], reps: usize) -> Row {
    let stream = huffman::encode(planes);
    assert_eq!(huffman::decode(&stream).expect("valid stream"), planes);
    assert_eq!(huffman_walk(&stream).as_deref(), Some(planes));
    let new_s = best_of(reps, || {
        black_box(huffman::decode(black_box(&stream)).map(|d| d.len()).ok());
    });
    let ref_s = best_of(reps, || {
        black_box(huffman_walk(black_box(&stream)).map(|d| d.len()));
    });
    Row {
        name: "huffman decode",
        new_s,
        ref_s,
        bytes: planes.len() as u64,
        gated: true,
    }
}

/// The byte-at-a-time table loop: the floor under every CRC-32 kernel,
/// which the shipped one must keep beating so it cannot silently fall back.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut s = 0xFFFF_FFFFu32;
    for &b in bytes {
        s = SLICE16[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
    }
    s ^ 0xFFFF_FFFF
}

/// The slice-by-16 tables the braided kernel replaced: `SLICE16[k][b]` is
/// the state after byte `b` followed by `k` zero bytes.
static SLICE16: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
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

/// The slice-by-16 kernel `Crc32::update` was before the braid: sixteen
/// bytes per step, each step waiting on the last.
fn crc32_slice16(bytes: &[u8]) -> u32 {
    let word = |w: u32, hi: usize| {
        SLICE16[hi][(w & 0xFF) as usize]
            ^ SLICE16[hi - 1][((w >> 8) & 0xFF) as usize]
            ^ SLICE16[hi - 2][((w >> 16) & 0xFF) as usize]
            ^ SLICE16[hi - 3][(w >> 24) as usize]
    };
    let mut s = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ s;
        let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
        s = word(w0, 15) ^ word(w1, 11) ^ word(w2, 7) ^ word(w3, 3);
    }
    for &b in blocks.remainder() {
        s = SLICE16[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
    }
    s ^ 0xFFFF_FFFF
}

/// The braided `crc32` against one retained kernel over a `len`-byte buffer.
fn bench_crc32(
    name: &'static str,
    len: usize,
    reps: usize,
    reference: fn(&[u8]) -> u32,
    gated: bool,
) -> Row {
    let data = ramp_bytes(len);
    assert_eq!(crc32(&data), reference(&data));
    // Enough passes per timing that a 16 KiB buffer outlasts the clock.
    let passes = (4 << 20) / len;
    let new_s = best_of(reps, || {
        for _ in 0..passes {
            black_box(crc32(black_box(&data)));
        }
    });
    let ref_s = best_of(reps, || {
        for _ in 0..passes {
            black_box(reference(black_box(&data)));
        }
    });
    Row {
        name,
        new_s,
        ref_s,
        bytes: (passes * len) as u64,
        gated,
    }
}

/// Gorilla's f64 value decoder as it was before the one-test-per-value
/// loop: each field read and bounds-checked through a `BitReader`, each
/// value pushed through a closure. `None` where the codec errs.
fn gorilla_fieldwise(payload: &[u8]) -> Option<Vec<u8>> {
    let (count, stream) = payload.split_first_chunk::<8>()?;
    let count = u64::from_le_bytes(*count) as usize;
    let mut r = BitReader::new(stream);
    let mut out = Vec::with_capacity(count.min(8 * stream.len()) * 8);
    if count == 0 {
        return Some(out);
    }
    let mut prev = r.read_bits(64)?;
    out.extend_from_slice(&prev.to_le_bytes());
    let (mut win_tz, mut win_len) = (0u32, 64u32);
    for _ in 1..count {
        let ctrl = r.peek_bits(2);
        if ctrl & 0b10 == 0 {
            r.consume(1)?;
        } else {
            r.consume(2)?;
            let xor = if ctrl == 0b10 {
                r.read_bits(win_len)? << win_tz
            } else {
                let hdr = r.read_bits(11)?;
                let (lz, len) = ((hdr >> 6) as u32, (hdr & 0x3F) as u32 + 1);
                if lz + len > 64 {
                    return None;
                }
                (win_tz, win_len) = (64 - lz - len, len);
                r.read_bits(len)? << win_tz
            };
            prev ^= xor;
        }
        out.extend_from_slice(&prev.to_le_bytes());
    }
    Some(out)
}

/// Gorilla decode of `tpcH-order` pages of `page` elements (the column
/// store's table), shipped codec against `gorilla_fieldwise`.
fn bench_gorilla(name: &'static str, elems: usize, page: usize, reps: usize) -> Row {
    let spec = fcbench_datasets::find("tpcH-order").expect("catalogued dataset");
    let data = fcbench_datasets::generate(&spec, elems);
    let desc = DataDesc::new(Precision::Double, vec![page], Domain::Database).expect("page");
    let codec = Gorilla::new();
    let pages: Vec<(Vec<u8>, &[u8])> = data.bytes()[..elems / page * page * 8]
        .chunks_exact(page * 8)
        .map(|raw| {
            let page = FloatData::from_bytes(desc.clone(), raw.to_vec()).expect("page");
            (codec.compress(&page).expect("gorilla"), raw)
        })
        .collect();
    let mut out = FloatData::from_bytes(desc.clone(), vec![0; page * 8]).expect("page");
    for (payload, raw) in &pages {
        codec
            .decompress_into(payload, &desc, &mut out)
            .expect("valid");
        assert_eq!(out.bytes(), *raw);
        assert_eq!(gorilla_fieldwise(payload).as_deref(), Some(*raw));
    }
    let new_s = best_of(reps, || {
        for (payload, _) in &pages {
            codec
                .decompress_into(black_box(payload), &desc, &mut out)
                .expect("valid");
            black_box(out.bytes());
        }
    });
    let ref_s = best_of(reps, || {
        for (payload, _) in &pages {
            black_box(gorilla_fieldwise(black_box(payload)).map(|d| d.len()));
        }
    });
    Row {
        name,
        new_s,
        ref_s,
        bytes: (pages.len() * page * 8) as u64,
        gated: false,
    }
}

/// `Spdp::compress_into` on `msg-bt` against the three-pass front end and
/// `reference::lz77`, which emit the same payload: the median of
/// interleaved pairs ([`median_pair`]), since best-of blocks of ~50 ms
/// reps read 1.65–2.54x across full runs on a shared 2-vCPU VM.
fn bench_spdp(elems: usize, reps: usize) -> Row {
    let spec = fcbench_datasets::find("msg-bt").expect("catalogued dataset");
    let data = fcbench_datasets::generate(&spec, elems);
    let codec = Spdp::new();
    let mut out = Vec::new();
    codec.compress_into(&data, &mut out).expect("spdp");
    let staged = spdp_three_pass(data.bytes());
    assert_eq!(
        out,
        reference::lz77::compress(&staged, Lz77Config::fast()),
        "spdp and its three-pass reference differ"
    );
    let (new_s, ref_s) = median_pair(
        reps,
        || {
            codec
                .compress_into(black_box(&data), &mut out)
                .expect("spdp");
            black_box(out.len());
        },
        || {
            let staged = spdp_three_pass(black_box(data.bytes()));
            black_box(reference::lz77::compress(&staged, Lz77Config::fast()).len());
        },
    );
    Row {
        name: "spdp compress msg-bt",
        new_s,
        ref_s,
        bytes: data.bytes().len() as u64,
        gated: true,
    }
}

/// zzip's chooser before the LZ77 gate: the LZ77 and LZ4 candidates are
/// always built, the three Huffman candidates priced with
/// `huffman::encoded_len`, and only the first strict minimum in mode order
/// encoded. The staging buffers are reused across calls, as zzip's
/// per-thread scratch is.
fn priced_six_way(input: &[u8], cfg: Lz77Config, [lz, l4, huff]: &mut [Vec<u8>; 3]) -> Vec<u8> {
    lz77::compress_into(input, cfg, lz);
    lz4::compress_into(input, l4);
    let sizes = [
        lz.len(),
        huffman::encoded_len(lz),
        huffman::encoded_len(input),
        input.len(),
        l4.len(),
        huffman::encoded_len(l4),
    ];
    let mut mode = 0;
    for (m, &size) in sizes.iter().enumerate() {
        if size < sizes[mode] {
            mode = m;
        }
    }
    let body: &[u8] = match mode {
        0 => lz,
        1 => {
            huffman::encode_into(lz, huff);
            huff
        }
        2 => {
            huffman::encode_into(input, huff);
            huff
        }
        3 => input,
        4 => l4,
        _ => {
            huffman::encode_into(l4, huff);
            huff
        }
    };
    let mut out = Vec::with_capacity(10 + body.len());
    out.extend_from_slice(&[0x5A, mode as u8]);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// zzip over `msg-bt`'s 64 KiB blocks, bit-transposed as bitshuffle-zstd
/// codes them, against the chooser it replaced ([`priced_six_way`]); both
/// frames equal `reference::zzip_six_way`'s, which builds all six bodies.
/// Median of interleaved pairs ([`median_pair`]). Printed, not gated: it
/// read 1.84–2.04x over six full runs on 2 shared vCPUs, and 2.84–3.13x
/// over five once LZ4 kept each slot's word (the reference's LZ4
/// candidate got faster too, but it is a smaller share of its time).
fn bench_zzip(elems: usize, reps: usize) -> Row {
    let (blocks, bytes) = shuffled_msg_bt(elems);
    let cfg = Lz77Config {
        window: 1 << 16,
        chain_depth: 128,
    };
    let mut scratch: [Vec<u8>; 3] = Default::default();
    for block in &blocks {
        let oracle = reference::zzip_six_way(block, cfg);
        assert_eq!(
            zzip::compress_with(block, cfg),
            oracle,
            "zzip differs from the six-way oracle"
        );
        assert_eq!(
            priced_six_way(block, cfg, &mut scratch),
            oracle,
            "the priced chooser differs from the six-way oracle"
        );
    }
    let (new_s, ref_s) = median_pair(
        reps,
        || {
            for block in &blocks {
                black_box(zzip::compress_with(black_box(block), cfg).len());
            }
        },
        || {
            for block in &blocks {
                black_box(priced_six_way(black_box(block), cfg, &mut scratch).len());
            }
        },
    );
    Row {
        name: "zzip compress (bitshuffled msg-bt)",
        new_s,
        ref_s,
        bytes,
        gated: false,
    }
}

/// The smooth-field generator before the draw-then-map pipeline, for
/// `miranda3d` (4 decimals over [1, 1000], f32): four trig calls, a
/// `powi` and one Box–Muller normal per element on one thread, then the
/// `Vec<f64>` field, its quantized copy, its `Vec<f32>` narrowing and the
/// byte copy of that.
mod serial_field {
    use fcbench_core::{Domain, FloatData};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn gauss(rng: &mut SmallRng) -> f64 {
        let u1: f64 = rng.random_range(1e-12..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn round_dec(v: f64, d: u32) -> f64 {
        let s = 10f64.powi(d as i32);
        let r = (v * s).round() / s;
        if r == 0.0 {
            0.0
        } else {
            r
        }
    }

    pub fn miranda3d(dims: &[usize]) -> FloatData {
        // FNV-1a of the name, the generators' seed.
        let seed = b"miranda3d".iter().fold(0xcbf29ce484222325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        });
        let mut rng = SmallRng::seed_from_u64(seed);
        let (lo, hi) = (1.0, 1000.0);
        let (mid, span) = ((lo + hi) / 2.0, hi - lo);
        let (f1, f2, f3) = (
            rng.random_range(0.02..0.08),
            rng.random_range(0.02..0.08),
            rng.random_range(0.02..0.08),
        );
        let mut raw = Vec::with_capacity(dims.iter().product());
        for z in 0..dims[0] {
            for y in 0..dims[1] {
                for x in 0..dims[2] {
                    let base = (x as f64 * f1).sin()
                        + (y as f64 * f2).cos()
                        + (z as f64 * f3).sin()
                        + 0.5 * ((x + y) as f64 * f1 * 0.37).sin();
                    raw.push(mid + span * 0.13 * base + 0.001 * span * gauss(&mut rng));
                }
            }
        }
        let quantized: Vec<f64> = raw
            .into_iter()
            .map(|v| round_dec(v.clamp(lo, hi), 4))
            .collect();
        let v32: Vec<f32> = quantized.iter().map(|&v| v as f32).collect();
        FloatData::from_f32(&v32, dims.to_vec(), Domain::Hpc).expect("consistent dims")
    }
}

/// `fcbench_datasets::generate` on `miranda3d` against `serial_field`,
/// which produces the same bytes.
fn bench_generate(elems: usize, reps: usize) -> Row {
    let spec = fcbench_datasets::find("miranda3d").expect("catalogued dataset");
    let dims = spec.scaled_dims(elems);
    let data = fcbench_datasets::generate(&spec, elems);
    assert!(
        data == serial_field::miranda3d(&dims),
        "miranda3d and its serial reference differ"
    );
    let new_s = best_of(reps, || {
        black_box(fcbench_datasets::generate(black_box(&spec), elems));
    });
    let ref_s = best_of(reps, || {
        black_box(serial_field::miranda3d(black_box(&dims)));
    });
    Row {
        name: "generate miranda3d",
        new_s,
        ref_s,
        bytes: data.bytes().len() as u64,
        gated: true,
    }
}

fn main() {
    let elems = if quick() { 8192 } else { 65_536 };
    let reps = if quick() { 5 } else { 20 };

    println!("codec kernels vs the kernels they replaced (best of {reps}; spdp, lz4, zzip: median of {reps} pairs):");
    println!(
        "{:<34} {:>10} {:>10} {:>8}",
        "kernel", "new MB/s", "ref MB/s", "speedup"
    );

    let mut worst_gated = f64::INFINITY;
    let mut gate = |row: &Row| {
        if row.gated {
            worst_gated = worst_gated.min(row.ref_s / row.new_s);
        }
        row.print();
    };

    for elem_bits in [32usize, 64] {
        let (fwd, inv) = bench_transpose(elems, elem_bits, reps);
        gate(&fwd);
        gate(&inv);
    }

    // The lz77 kernel sees bit-transposed planes: long exponent runs plus
    // noisy mantissa lanes — the deep-chain profile bitshuffle-zstd pays
    // for. Bench exactly that shape at both effort levels.
    let raw = ramp_bytes(elems * 8);
    let shuffled = bitshuffle::bit_transpose(&raw, elems, 64);
    let deep = Lz77Config {
        window: 1 << 16,
        chain_depth: 128,
    };
    let (c, d) = bench_lz77("lz77 compress deep-chain", &shuffled, deep, reps);
    gate(&c);
    gate(&d);
    let (c, d) = bench_lz77("lz77 compress fast", &shuffled, Lz77Config::fast(), reps);
    gate(&c);
    gate(&d);
    gate(&bench_huffman(&shuffled, reps));

    // One FCDB2 page record and one steady-state buffer, against the byte
    // loop and against the slice-by-16 kernel the braid replaced.
    for (len, bytewise, sliced) in [
        (16 << 10, "crc32 16 KiB", "crc32 16 KiB vs slice-by-16"),
        (1 << 20, "crc32 1 MiB", "crc32 1 MiB vs slice-by-16"),
    ] {
        gate(&bench_crc32(bytewise, len, reps, crc32_bytewise, true));
        gate(&bench_crc32(sliced, len, reps, crc32_slice16, false));
    }

    // The column store's pages: 4 Ki elements (the paper's page) and 64 Ki.
    gate(&bench_gorilla(
        "gorilla decode 4Ki pages",
        16 * elems,
        4096,
        reps,
    ));
    gate(&bench_gorilla(
        "gorilla decode 64Ki page",
        16 * elems,
        65_536,
        reps,
    ));

    // SPDP's whole compressor, and bitshuffle-zstd's back end, on the
    // ladder corpus's HPC dataset.
    gate(&bench_spdp(4 * elems, reps));
    gate(&bench_lz4(4 * elems, reps));
    gate(&bench_zzip(4 * elems, reps));

    // The frame_stream rung's dataset, at sizes whose map fans out (2 and
    // 16 MiB of f32 output).
    gate(&bench_generate(
        if quick() { 1 << 19 } else { 1 << 22 },
        reps,
    ));

    println!("worst gated speedup: {worst_gated:.2}x (acceptance gate: >= 2x)");
    // The gate is real: the bench fails if a kernel regresses on any gated
    // row. Speedup is a same-process ratio, so uniform machine slowdown
    // cancels out; quick mode's small buffers get a noise margin (the 2x
    // acceptance number is the full-budget run).
    let floor = if quick() { 1.5 } else { 2.0 };
    if worst_gated < floor {
        eprintln!("kernels: a kernel fell below the {floor}x acceptance gate");
        std::process::exit(1);
    }
}
