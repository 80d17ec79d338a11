//! Property tests for the entropy substrates: every coder must be an
//! exact inverse pair on arbitrary byte strings, and decoders must reject
//! (not panic on) malformed streams. The differential properties against
//! the pre-rewrite kernels live with those kernels, in the bench crate.

use fcbench_entropy::lz77::Lz77Config;
use fcbench_entropy::{huffman, lz4, lz77, zzip, AdaptiveModel, RangeDecoder, RangeEncoder};
use fcbench_entropy::{BitReader, BitSink};
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
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        for &(v, n) in &masked {
            w.push_bits(v, n);
        }
        w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &masked {
            prop_assert_eq!(r.read_bits(n), Some(v));
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
