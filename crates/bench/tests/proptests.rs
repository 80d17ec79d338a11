//! Property tests for the harness: rank invariants, Friedman consistency
//! and Mann-Whitney symmetry on arbitrary samples, and the entropy crate's
//! bit engine, LZ77 and zzip chooser held to `fcbench_bench::reference`.

use fcbench_bench::reference;
use fcbench_bench::stats::{average_ranks, cd_diagram, friedman_test, mann_whitney_u, rank_row};
use fcbench_codecs_cpu::Bitshuffle;
use fcbench_core::Compressor;
use fcbench_entropy::lz77::{self, Lz77Config};
use fcbench_entropy::{huffman, lz4, zzip};
use fcbench_entropy::{BitReader, BitSink};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (-1e6f64..1e6).prop_map(|v| (v * 100.0).round() / 100.0),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rank_sums_are_invariant(vals in finite_vec(1..50)) {
        let n = vals.len() as f64;
        for dir in [true, false] {
            let ranks = rank_row(&vals, dir);
            let sum: f64 = ranks.iter().sum();
            prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
            // Every rank is within [1, n].
            prop_assert!(ranks.iter().all(|&r| r >= 1.0 - 1e-9 && r <= n + 1e-9));
        }
    }

    #[test]
    fn rank_directions_mirror(vals in finite_vec(1..40)) {
        let hi = rank_row(&vals, true);
        let lo = rank_row(&vals, false);
        let n = vals.len() as f64;
        // For every element: rank_hi + rank_lo == n + 1 (ties included).
        for (a, b) in hi.iter().zip(lo.iter()) {
            prop_assert!((a + b - (n + 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn average_ranks_bounded(
        k in 2usize..6,
        n in 2usize..12,
        seed in any::<u64>(),
    ) {
        let mut x = seed | 1;
        let rows: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        ((x >> 40) % 1000) as f64
                    })
                    .collect()
            })
            .collect();
        let avg = average_ranks(&rows, true);
        let sum: f64 = avg.iter().sum();
        let expect = k as f64 * (k as f64 + 1.0) / 2.0;
        prop_assert!((sum - expect).abs() < 1e-6, "rank sums must be conserved");
        prop_assert!(avg.iter().all(|&r| r >= 1.0 - 1e-9 && r <= k as f64 + 1e-9));
    }

    #[test]
    fn friedman_p_values_are_probabilities(
        k in 2usize..6,
        n in 2usize..12,
        seed in any::<u64>(),
    ) {
        let mut x = seed | 1;
        let rows: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        ((x >> 40) % 97) as f64
                    })
                    .collect()
            })
            .collect();
        let r = friedman_test(&rows, true);
        prop_assert!(r.chi2 >= -1e-9);
        prop_assert!((0.0..=1.0).contains(&r.p_chi2));
        prop_assert!((0.0..=1.0).contains(&r.p_f));
    }

    #[test]
    fn mann_whitney_is_symmetric_and_bounded(
        a in finite_vec(1..30),
        b in finite_vec(1..30),
    ) {
        let r1 = mann_whitney_u(&a, &b);
        let r2 = mann_whitney_u(&b, &a);
        prop_assert!((r1.u - r2.u).abs() < 1e-9);
        prop_assert!((r1.p - r2.p).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&r1.p));
        // U is bounded by n1*n2/2 (we report the smaller of U1/U2).
        prop_assert!(r1.u <= a.len() as f64 * b.len() as f64 / 2.0 + 1e-9);
    }

    #[test]
    fn cd_diagram_cliques_are_well_formed(
        ranks in prop::collection::vec(1.0f64..14.0, 2..14),
        n_datasets in 10usize..40,
    ) {
        let names: Vec<String> = (0..ranks.len()).map(|i| format!("m{i}")).collect();
        let d = cd_diagram(&names, &ranks, n_datasets, 0.05);
        // Entries sorted ascending by rank.
        for w in d.entries.windows(2) {
            prop_assert!(w[0].avg_rank <= w[1].avg_rank);
        }
        // Cliques reference valid ranges and respect the CD width.
        for &(lo, hi) in &d.cliques {
            prop_assert!(lo < hi && hi < d.entries.len());
            prop_assert!(d.entries[hi].avg_rank - d.entries[lo].avg_rank < d.cd + 1e-9);
        }
    }
}

/// Mask a `(value, width)` pair so the value fits the field.
fn mask_fields(fields: &[(u64, u32)]) -> Vec<(u64, u32)> {
    fields
        .iter()
        .map(|&(v, n)| (if n == 64 { v } else { v & ((1u64 << n) - 1) }, n))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- differential tests: the u64-accumulator engine vs the retained
    // byte-granular reference implementation. The wire format must be
    // byte-identical in both directions for arbitrary programs.

    #[test]
    fn writer_matches_reference_byte_for_byte(
        fields in prop::collection::vec((any::<u64>(), 0u32..=64), 0..300),
        single_bits in prop::collection::vec(any::<bool>(), 0..64),
        align_every in 1usize..8,
    ) {
        let masked = mask_fields(&fields);
        let mut new_bytes = Vec::new();
        let mut new_w = BitSink::new(&mut new_bytes);
        let mut ref_w = reference::bits::BitWriter::new();
        for (i, &(v, n)) in masked.iter().enumerate() {
            new_w.push_bits(v, n);
            ref_w.push_bits(v, n);
            if i % align_every == 0 {
                new_w.align_byte();
                ref_w.align_byte();
            }
            prop_assert_eq!(new_w.bit_len(), ref_w.bit_len());
        }
        for &b in &single_bits {
            new_w.push_bit(b);
            ref_w.push_bit(b);
        }
        prop_assert_eq!(new_w.bit_len(), ref_w.bit_len());
        new_w.finish();
        prop_assert_eq!(new_bytes, ref_w.into_bytes());
    }

    #[test]
    fn sink_matches_reference_byte_for_byte(
        prefix in prop::collection::vec(any::<u8>(), 0..8),
        fields in prop::collection::vec((any::<u64>(), 0u32..=64), 0..300),
        align_every in 1usize..8,
    ) {
        let masked = mask_fields(&fields);
        let mut new_buf = prefix.clone();
        let mut ref_buf = prefix;
        {
            let mut new_s = BitSink::new(&mut new_buf);
            let mut ref_s = reference::bits::BitSink::new(&mut ref_buf);
            for (i, &(v, n)) in masked.iter().enumerate() {
                new_s.push_bits(v, n);
                ref_s.push_bits(v, n);
                if i % align_every == 0 {
                    new_s.push_bit(true);
                    ref_s.push_bit(true);
                    new_s.align_byte();
                    ref_s.align_byte();
                }
                prop_assert_eq!(new_s.bit_len(), ref_s.bit_len());
            }
        }
        prop_assert_eq!(new_buf, ref_buf);
    }

    #[test]
    fn reader_matches_reference_on_random_programs(
        bytes in prop::collection::vec(any::<u8>(), 0..40),
        // Per step: 0 = read_bit, 1..=64 = read_bits(n), 65 = align_byte.
        program in prop::collection::vec(0u32..=65, 0..120),
    ) {
        let mut new_r = BitReader::new(&bytes);
        let mut ref_r = reference::bits::BitReader::new(&bytes);
        for &step in &program {
            match step {
                0 => prop_assert_eq!(new_r.read_bit(), ref_r.read_bit()),
                65 => {
                    new_r.align_byte();
                    ref_r.align_byte();
                }
                n => {
                    // peek_bits must agree with a successful read_bits.
                    let peeked = new_r.peek_bits(n);
                    let got = new_r.read_bits(n);
                    prop_assert_eq!(got, ref_r.read_bits(n));
                    if let Some(v) = got {
                        prop_assert_eq!(peeked, v);
                    }
                }
            }
            prop_assert_eq!(new_r.position(), ref_r.position());
            prop_assert_eq!(new_r.remaining(), ref_r.remaining());
        }
    }

    #[test]
    fn aligned_runs_interleave_with_bit_fields(
        runs in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..12), any::<u64>(), 0u32..=64),
            0..20,
        ),
    ) {
        // Program: per run, an aligned byte blob then a bit field then
        // re-alignment. The sink's bulk path and the reference sink's
        // push_bits-per-byte path must produce identical streams, and the
        // reader's read_aligned_bytes must hand back the blobs verbatim.
        let mut new_buf = Vec::new();
        let mut ref_buf = Vec::new();
        {
            let mut new_s = BitSink::new(&mut new_buf);
            let mut ref_s = reference::bits::BitSink::new(&mut ref_buf);
            for (blob, v, n) in &runs {
                new_s.extend_aligned(blob);
                for &b in blob {
                    ref_s.push_bits(u64::from(b), 8);
                }
                let v = if *n == 64 { *v } else { v & ((1u64 << n) - 1) };
                new_s.push_bits(v, *n);
                ref_s.push_bits(v, *n);
                new_s.align_byte();
                ref_s.align_byte();
            }
        }
        prop_assert_eq!(&new_buf, &ref_buf);

        let mut r = BitReader::new(&new_buf);
        for (blob, v, n) in &runs {
            prop_assert_eq!(r.read_aligned_bytes(blob.len()), Some(blob.as_slice()));
            let v = if *n == 64 { *v } else { v & ((1u64 << n) - 1) };
            prop_assert_eq!(r.read_bits(*n), Some(v));
            r.align_byte();
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    // ---- differential: the word-at-a-time lz77 kernel vs the retained
    // byte-granular reference. Compressed streams must be byte-identical
    // and both decompressors must agree on arbitrary inputs.

    #[test]
    fn lz77_compress_matches_reference(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        for cfg in [Lz77Config::fast(), Lz77Config::thorough(),
                    Lz77Config { window: 64, chain_depth: 4 }] {
            let fast = lz77::compress(&data, cfg);
            let slow = reference::lz77::compress(&data, cfg);
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(lz77::decompress(&fast, data.len()).unwrap(), data.clone());
        }
    }

    #[test]
    fn lz77_compressible_matches_reference(
        runs in prop::collection::vec((any::<u8>(), 1usize..60), 0..200),
    ) {
        let mut data = Vec::new();
        for &(b, n) in &runs {
            data.extend(std::iter::repeat_n(b, n));
        }
        for cfg in [Lz77Config::fast(), Lz77Config::thorough()] {
            let fast = lz77::compress(&data, cfg);
            let slow = reference::lz77::compress(&data, cfg);
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(
                lz77::decompress(&fast, data.len()).unwrap(),
                reference::lz77::decompress(&fast, data.len()).unwrap()
            );
        }
    }

    #[test]
    fn lz77_decompress_agrees_with_reference_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..500),
        expected in 0usize..256,
    ) {
        let fast = lz77::decompress(&bytes, expected);
        let slow = reference::lz77::decompress(&bytes, expected);
        match (fast, slow) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "fast {a:?} vs reference {b:?}"),
        }
    }
}

/// Exhaustive (not property-based) boundary sweep: buffers of 0..=9 bytes,
/// every start offset, every width 1..=64. This walks the windowed
/// extractor across every final-partial-word shape — the exact territory
/// where an off-by-one in the refill/ninth-byte path would hide — and
/// checks it against the byte-granular reference reader bit for bit.
#[test]
fn read_bits_boundary_exhaustive() {
    for len in 0..=9usize {
        let bytes: Vec<u8> = (0..len)
            .map(|i| 0xA5u8.wrapping_mul(i as u8 + 1) ^ 0x3C)
            .collect();
        for start in 0..=len * 8 {
            for n in 1..=64u32 {
                let mut new_r = BitReader::new(&bytes);
                let mut ref_r = reference::bits::BitReader::new(&bytes);
                for _ in 0..start {
                    assert_eq!(new_r.read_bit(), ref_r.read_bit());
                }
                let peeked = new_r.peek_bits(n);
                let got = new_r.read_bits(n);
                assert_eq!(got, ref_r.read_bits(n), "len {len} start {start} n {n}");
                if let Some(v) = got {
                    assert_eq!(peeked, v, "peek/read mismatch at {len}/{start}/{n}");
                }
                assert_eq!(new_r.position(), ref_r.position());
                assert_eq!(new_r.remaining(), ref_r.remaining());
                // Aligning at (or past) the tail stays clamped in bounds.
                new_r.align_byte();
                assert!(new_r.position() <= bytes.len() * 8);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // ---- differential past the 64 KiB window: inputs of 64–200 KiB with
    // repeats planted around distance 65 536, over an alphabet small
    // enough that chains run deep, under the fast config, a
    // non-power-of-two window and the deep-chain bitshuffle config.

    #[test]
    fn lz77_window_edge_matches_reference(
        seed in any::<u64>(),
        len in 65_536usize..200_000,
        alphabet in 2u64..=256,
        plants in prop::collection::vec((0usize..200_000, 65_530usize..65_542, 4usize..64), 1..16),
    ) {
        let mut x = seed | 1;
        let mut data: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % alphabet) as u8
            })
            .collect();
        for &(at, dist, n) in &plants {
            let at = at % len;
            if at >= dist && at + n <= len {
                data.copy_within(at - dist..at - dist + n, at);
            }
        }
        for cfg in [
            Lz77Config::fast(),
            Lz77Config { window: 65_537, chain_depth: 3 },
            Lz77Config { window: 1 << 16, chain_depth: 128 },
        ] {
            let fast = lz77::compress(&data, cfg);
            prop_assert_eq!(&fast, &reference::lz77::compress(&data, cfg));
            prop_assert_eq!(lz77::decompress(&fast, data.len()).unwrap(), data.clone());
        }
    }
}

// ---- zzip's gated chooser vs the six-way oracle.

/// bitshuffle-zstd's match-stage configuration.
const BITSHUFFLE_ZZIP: Lz77Config = Lz77Config {
    window: 1 << 16,
    chain_depth: 128,
};

/// The smallest of zzip's four non-LZ77 bodies (Huffman-only, stored, LZ4
/// raw and LZ4 + Huffman), from the public calls.
fn cheap_best(input: &[u8]) -> usize {
    let l4 = lz4::compress(input);
    [
        huffman::encode(input).len(),
        input.len(),
        l4.len(),
        huffman::encode(&l4).len(),
    ]
    .into_iter()
    .min()
    .unwrap_or(0)
}

/// Whether zzip's documented gate runs the LZ77 search on `input`: the best
/// non-LZ77 body is at most 30 % of the input, or the input is under the
/// 440 bytes where the 132-byte Huffman table alone exceeds that share.
fn gate_open(input: &[u8]) -> bool {
    input.len() < 440 || cheap_best(input) * 100 <= 30 * input.len()
}

/// The zzip frame of every block of a bitshuffle-zstd payload
/// (`u32 nblocks | nblocks × u32 size | blocks`, each block
/// `u32 raw length | zzip frame`).
fn zzip_frames(payload: &[u8]) -> Vec<&[u8]> {
    let word = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let nblocks = word(0);
    let mut at = 4 + 4 * nblocks;
    (0..nblocks)
        .map(|k| {
            let block = &payload[at..at + word(4 + 4 * k)];
            at += block.len();
            &block[4..]
        })
        .collect()
}

/// Input whose segments are noise over a random alphabet, byte runs, and
/// copies of earlier bytes at random distances: both sides of the gate,
/// LZ77 wins included, and the short inputs below the search floor. Half
/// the inputs end in 66 000 bytes of full-alphabet noise and a copy of its
/// start, which only an LZ77 window past LZ4's 64 KiB can reach: there the
/// gate is closed where an LZ77 mode would win.
fn zzip_input() -> impl Strategy<Value = Vec<u8>> {
    let segments = prop::collection::vec((0u8..3, 1usize..3_000, any::<u64>()), 0..12);
    let long_copy = (any::<bool>(), 1usize..30_000, any::<u64>());
    (segments, long_copy).prop_map(|(segments, long_copy)| {
        let mut data: Vec<u8> = Vec::new();
        for (kind, len, seed) in segments {
            let mut x = seed | 1;
            let alphabet = seed % 256 + 1;
            for _ in 0..len {
                let byte = match kind {
                    0 => {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % alphabet) as u8
                    }
                    1 if !data.is_empty() => data[data.len() - 1 - (seed as usize % data.len())],
                    _ => seed as u8,
                };
                data.push(byte);
            }
        }
        if let (true, len, seed) = long_copy {
            let start = data.len();
            let mut x = seed | 1;
            data.extend((0..66_000).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            }));
            data.extend_from_within(start..start + len);
        }
        data
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The gated frame is the oracle's, except where the oracle's winner
    /// is an LZ77 mode (0 or 1) and the gate kept the search from running:
    /// then the frame is the best non-LZ77 body, which still round-trips
    /// and only gives up ratio.
    #[test]
    fn zzip_frames_match_the_six_way_oracle(data in zzip_input()) {
        for cfg in [Lz77Config::thorough(), BITSHUFFLE_ZZIP] {
            let gated = zzip::compress_with(&data, cfg);
            prop_assert_eq!(zzip::decompress(&gated).unwrap(), data.clone());
            let oracle = reference::zzip_six_way(&data, cfg);
            if gated != oracle {
                prop_assert!(oracle[1] <= 1, "oracle mode {} is not an LZ77 mode", oracle[1]);
                prop_assert!(!gate_open(&data), "the gate was open on {} bytes", data.len());
                prop_assert!(gated[1] >= 2 && gated.len() - 10 == cheap_best(&data));
                prop_assert!(gated.len() >= oracle.len());
            }
        }
    }
}

/// Every bitshuffle-zstd block's zzip frame over all 33 corpus datasets at
/// each of `sizes` elements is exactly the six-way oracle's: on the corpus
/// the gate never skips a search an LZ77 mode would have won. Each size
/// prints its blocks, the blocks the search ran on, the LZ77 wins and the
/// widest share of its block the best non-LZ77 body had on a win.
fn assert_corpus_frames_match_the_oracle(sizes: &[usize]) {
    let codec = Bitshuffle::zzip();
    let mut misses = Vec::new();
    for &n in sizes {
        let (mut blocks, mut searched, mut wins, mut widest_win) = (0, 0, 0, 0f64);
        for spec in fcbench_datasets::catalog() {
            let data = fcbench_datasets::generate(&spec, n);
            let payload = codec.compress(&data).expect("bitshuffle-zstd");
            for (k, frame) in zzip_frames(&payload).into_iter().enumerate() {
                let shuffled = zzip::decompress(frame).expect("frame decodes");
                let oracle = reference::zzip_six_way(&shuffled, BITSHUFFLE_ZZIP);
                blocks += 1;
                searched += usize::from(gate_open(&shuffled));
                if oracle[1] <= 1 {
                    wins += 1;
                    let share = cheap_best(&shuffled) as f64 / shuffled.len() as f64;
                    widest_win = widest_win.max(share);
                }
                if frame != oracle {
                    misses.push(format!("{} at {n} elements, block {k}", spec.name));
                }
            }
        }
        eprintln!(
            "{n} elements: {blocks} blocks, LZ77 searched on {searched}, \
             won {wins}, widest win at {widest_win:.4} of its block"
        );
    }
    assert!(
        misses.is_empty(),
        "frames differ from the oracle: {misses:#?}"
    );
}

/// The corpus check at 4 096, 65 536 and 200 000 elements; the widest LZ77
/// win, 0.2535 of its block, sits at 65 536.
#[test]
fn bitshuffle_zstd_frames_match_the_six_way_oracle_on_the_corpus() {
    assert_corpus_frames_match_the_oracle(&[4_096, 65_536, 200_000]);
}

/// The corpus check at 1 Mi and 4 Mi elements, too slow for tier-1: run it
/// with `cargo test --release -p fcbench-bench --test proptests --
/// --ignored --nocapture`.
#[test]
#[ignore = "release-only corpus check at 1 Mi and 4 Mi elements"]
fn bitshuffle_zstd_frames_match_the_six_way_oracle_on_the_large_corpus() {
    assert_corpus_frames_match_the_oracle(&[1 << 20, 1 << 22]);
}
