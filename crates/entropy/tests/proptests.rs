//! Property tests for the entropy substrates: every coder must be an
//! exact inverse pair on arbitrary byte strings, and decoders must reject
//! (not panic on) malformed streams.

use fcbench_entropy::bits::reference;
use fcbench_entropy::lz77::Lz77Config;
use fcbench_entropy::{huffman, lz4, lz77, zzip, AdaptiveModel, RangeDecoder, RangeEncoder};
use fcbench_entropy::{BitReader, BitSink, BitWriter};
use proptest::prelude::*;

/// Mask a `(value, width)` pair so the value fits the field.
fn mask_fields(fields: &[(u64, u32)]) -> Vec<(u64, u32)> {
    fields
        .iter()
        .map(|&(v, n)| (if n == 64 { v } else { v & ((1u64 << n) - 1) }, n))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bit_fields_round_trip(fields in prop::collection::vec((any::<u64>(), 1u32..=64), 0..200)) {
        let masked = mask_fields(&fields);
        let mut w = BitWriter::new();
        for &(v, n) in &masked {
            w.push_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &masked {
            prop_assert_eq!(r.read_bits(n), Some(v));
        }
    }

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
        let mut new_w = BitWriter::new();
        let mut ref_w = reference::BitWriter::new();
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
        prop_assert_eq!(new_w.into_bytes(), ref_w.into_bytes());
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
            let mut ref_s = reference::BitSink::new(&mut ref_buf);
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
        let mut ref_r = reference::BitReader::new(&bytes);
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
    fn peek_consume_equals_read(
        bytes in prop::collection::vec(any::<u8>(), 0..24),
        widths in prop::collection::vec(1u32..=64, 0..40),
    ) {
        let mut via_read = BitReader::new(&bytes);
        let mut via_peek = BitReader::new(&bytes);
        for &n in &widths {
            let read = via_read.read_bits(n);
            match read {
                Some(v) => {
                    prop_assert_eq!(via_peek.peek_bits(n), v);
                    prop_assert_eq!(via_peek.consume(n), Some(()));
                }
                None => {
                    prop_assert_eq!(via_peek.consume(n), None);
                    // Past-end peeks zero-pad: real prefix bits, zero tail.
                    let rem = via_peek.remaining() as u32;
                    let padded = via_peek.peek_bits(n);
                    if rem == 0 {
                        prop_assert_eq!(padded, 0);
                    } else {
                        let mut probe = via_peek.clone();
                        let prefix = probe.read_bits(rem).expect("remaining bits readable");
                        prop_assert_eq!(padded, prefix << (n - rem));
                    }
                }
            }
            prop_assert_eq!(via_peek.position(), via_read.position());
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
            let mut ref_s = reference::BitSink::new(&mut ref_buf);
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

    #[test]
    fn lz4_inverse_pair(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let c = lz4::compress(&data);
        prop_assert_eq!(lz4::decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn lz77_inverse_pair_both_configs(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        for cfg in [Lz77Config::fast(), Lz77Config::thorough()] {
            let c = lz77::compress(&data, cfg);
            prop_assert_eq!(lz77::decompress(&c, data.len()).unwrap(), data.clone());
        }
    }

    // ---- differential: the word-at-a-time lz77 kernel vs the retained
    // byte-granular reference. Compressed streams must be byte-identical
    // and both decompressors must agree on arbitrary inputs.

    #[test]
    fn lz77_compress_matches_reference(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        for cfg in [Lz77Config::fast(), Lz77Config::thorough(),
                    Lz77Config { window: 64, chain_depth: 4 }] {
            let fast = lz77::compress(&data, cfg);
            let slow = lz77::reference::compress(&data, cfg);
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
            let slow = lz77::reference::compress(&data, cfg);
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(
                lz77::decompress(&fast, data.len()).unwrap(),
                lz77::reference::decompress(&fast, data.len()).unwrap()
            );
        }
    }

    #[test]
    fn lz77_decompress_agrees_with_reference_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..500),
        expected in 0usize..256,
    ) {
        let fast = lz77::decompress(&bytes, expected);
        let slow = lz77::reference::decompress(&bytes, expected);
        match (fast, slow) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "fast {a:?} vs reference {b:?}"),
        }
    }

    #[test]
    fn huffman_inverse_pair(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let c = huffman::encode(&data);
        prop_assert_eq!(huffman::decode(&c).unwrap(), data);
    }

    #[test]
    fn zzip_inverse_pair(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let c = zzip::compress(&data);
        prop_assert_eq!(zzip::decompress(&c).unwrap(), data);
    }

    #[test]
    fn zzip_never_expands_beyond_header(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        // Stored mode bounds expansion at the 10-byte frame header.
        let c = zzip::compress(&data);
        prop_assert!(c.len() <= data.len() + 10);
    }

    #[test]
    fn range_coder_inverse_pair(
        symbols in prop::collection::vec(0usize..32, 0..2000),
    ) {
        let mut model = AdaptiveModel::new(32);
        let mut enc = RangeEncoder::new();
        for &s in &symbols {
            model.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let mut model = AdaptiveModel::new(32);
        let mut dec = RangeDecoder::new(&bytes);
        for &s in &symbols {
            prop_assert_eq!(model.decode(&mut dec), s);
        }
    }

    #[test]
    fn decoders_never_panic_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..500)) {
        let _ = lz4::decompress(&bytes, 64);
        let _ = lz77::decompress(&bytes, 64);
        let _ = huffman::decode(&bytes);
        let _ = zzip::decompress(&bytes);
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
                let mut ref_r = reference::BitReader::new(&bytes);
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
            prop_assert_eq!(&fast, &lz77::reference::compress(&data, cfg));
            prop_assert_eq!(lz77::decompress(&fast, data.len()).unwrap(), data.clone());
        }
    }
}
