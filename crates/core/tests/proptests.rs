//! Property tests for the core substrate: the `FCB3` frame and its prologue
//! are exact inverses, and their decoders reject malformed input gracefully.

use fcbench_core::codec::{CodecClass, CodecInfo, Community, Platform, PrecisionSupport};
use fcbench_core::frame::{decode_stream_header, encode_stream_header};
use fcbench_core::{
    Compressor, DataDesc, Domain, Error, FloatData, FrameReader, FrameWriter, Pipeline, Precision,
    Result,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Trivial store codec used to exercise container plumbing.
struct Store;

impl Compressor for Store {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "store",
            year: 2024,
            community: Community::General,
            class: CodecClass::Delta,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        out.clear();
        out.extend_from_slice(data.bytes());
        Ok(out.len())
    }
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        out.refill_from_slice(desc, payload)
    }
}

/// Deterministic pseudo-random element bytes for `desc`.
fn arb_data(desc: &DataDesc, seed: u64) -> FloatData {
    let mut x = seed | 1;
    let bytes: Vec<u8> = (0..desc.byte_len())
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 56) as u8
        })
        .collect();
    FloatData::from_bytes(desc.clone(), bytes).unwrap()
}

/// `Store` in `block_elems`-element blocks.
fn blocked(block_elems: usize) -> Pipeline {
    Pipeline::with_codec(Arc::new(Store)).block_elems(block_elems)
}

fn arb_desc() -> impl Strategy<Value = DataDesc> {
    (
        prop::bool::ANY,
        prop::collection::vec(1usize..20, 1..4),
        0usize..4,
    )
        .prop_map(|(double, dims, dom)| {
            let precision = if double {
                Precision::Double
            } else {
                Precision::Single
            };
            DataDesc::new(precision, dims, Domain::ALL[dom]).expect("nonzero dims")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_are_exact_inverses(
        desc in arb_desc(),
        block_elems in 1usize..5000,
        name in "[a-z][a-z0-9-]{0,30}",
        tail in prop::collection::vec(any::<u8>(), 0..50),
    ) {
        // The prologue decoder returns what was encoded and consumes exactly
        // the prologue, whatever follows it.
        let mut framed = encode_stream_header(&name, &desc, block_elems).unwrap();
        let prologue_len = framed.len();
        framed.extend_from_slice(&tail);
        let mut src = &framed[..];
        let (codec, d, be) = decode_stream_header(&mut src).unwrap();
        prop_assert_eq!(codec, name);
        prop_assert_eq!(&d, &desc);
        prop_assert_eq!(be, block_elems);
        prop_assert_eq!(src, &framed[prologue_len..]);
    }

    #[test]
    fn frame_decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode_stream_header(&mut &bytes[..]);
        // Past the magic check, too.
        let mut framed = b"FCB3".to_vec();
        framed.extend_from_slice(&bytes);
        let _ = decode_stream_header(&mut &framed[..]);
    }

    #[test]
    fn frame_decoder_rejects_every_truncation(
        desc in arb_desc(),
        block_elems in 1usize..100,
    ) {
        let prologue = encode_stream_header("codec", &desc, block_elems).unwrap();
        for cut in 0..prologue.len() {
            prop_assert!(decode_stream_header(&mut &prologue[..cut]).is_err());
        }
    }

    #[test]
    fn chunked_frames_are_exact_inverses(
        desc in arb_desc(),
        block_elems in 1usize..64,
        chunk in 1usize..200,
        seed in any::<u64>(),
    ) {
        // Fed in arbitrary pieces, the writer emits ceil(n / block) records,
        // each block's bytes behind its own length, and the reader hands
        // the same blocks back.
        let data = arb_data(&desc, seed);
        let codec: Arc<dyn Compressor> = Arc::new(Store);
        let mut w =
            FrameWriter::new(Vec::new(), Arc::clone(&codec), desc.clone(), block_elems, None).unwrap();
        for piece in data.bytes().chunks(chunk) {
            w.write(piece).unwrap();
        }
        let framed = w.finish().unwrap();

        let bpb = block_elems * desc.precision.bytes();
        let mut expect = encode_stream_header("store", &desc, block_elems).unwrap();
        for block in data.bytes().chunks(bpb) {
            expect.extend_from_slice(&(block.len() as u64).to_le_bytes());
            expect.extend_from_slice(block);
        }
        prop_assert_eq!(&framed, &expect);

        let mut r = FrameReader::new(&framed[..], codec, None).unwrap();
        prop_assert_eq!(r.desc(), &desc);
        prop_assert_eq!(r.block_elems(), block_elems);
        prop_assert_eq!(r.blocks_total(), desc.elements().div_ceil(block_elems));
        for block in data.bytes().chunks(bpb) {
            prop_assert_eq!(r.next_block().unwrap(), Some(block));
        }
        prop_assert_eq!(r.next_block().unwrap(), None);
    }

    #[test]
    fn chunked_frame_decoder_rejects_every_truncation_and_garbage(
        desc in arb_desc(),
        block_elems in 1usize..32,
        seed in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let p = blocked(block_elems);
        // Garbage never panics (typed error or — astronomically unlikely —
        // a structurally valid frame).
        let _ = p.decompress(&garbage);

        let framed = p.compress(&arb_data(&desc, seed)).unwrap();
        for cut in 0..framed.len() {
            prop_assert!(matches!(p.decompress(&framed[..cut]), Err(Error::Corrupt(_))));
        }
    }

    #[test]
    fn hostile_headers_yield_typed_errors_never_panics(
        dim_bytes in prop::collection::vec(any::<u8>(), 8..64),
        plen in any::<u64>(),
    ) {
        // Hand-build a frame whose dims and lengths are hostile: dims
        // overflowing the element count, a block size and a payload length
        // beyond anything the buffer holds. Both entry points must produce
        // typed errors.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FCB3");
        bytes.push(5); // name len
        bytes.extend_from_slice(b"store");
        bytes.push(1); // precision double
        bytes.push(0); // domain HPC
        let ndims = (dim_bytes.len() / 8).min(255);
        bytes.push(ndims as u8);
        for c in dim_bytes.chunks_exact(8).take(ndims) {
            // Force huge dims: set the top bytes so products overflow.
            let mut d: [u8; 8] = c.try_into().unwrap();
            d[7] |= 0x80;
            bytes.extend_from_slice(&d);
        }
        bytes.extend_from_slice(&plen.to_le_bytes()); // block elems
        bytes.extend_from_slice(&plen.to_le_bytes()); // first payload len
        let r1 = decode_stream_header(&mut &bytes[..]);
        let r2 = blocked(64).decompress(&bytes);
        prop_assert!(matches!(r1, Err(Error::Corrupt(_) | Error::BadDescriptor(_))));
        prop_assert!(matches!(r2, Err(Error::Corrupt(_) | Error::BadDescriptor(_))));
    }

    #[test]
    fn pipeline_round_trips_any_block_thread_combination(
        desc in arb_desc(),
        block_elems in 1usize..64,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let data = arb_data(&desc, seed);
        let registry = fcbench_core::CodecRegistry::new().with(Store);
        let p = Pipeline::new(&registry, "store")
            .unwrap()
            .block_elems(block_elems)
            .threads(threads);
        let frame = p.compress(&data).unwrap();
        let back = p.decompress(&frame).unwrap();
        prop_assert_eq!(back.bytes(), data.bytes());
        prop_assert_eq!(back.desc(), data.desc());
    }

    #[test]
    fn block_container_round_trips_any_shape(
        desc in arb_desc(),
        block_bytes in 8usize..512,
        seed in any::<u64>(),
    ) {
        // The block container as a codec: blocks sized in bytes, the way
        // the Table 10 study names them.
        let data = arb_data(&desc, seed);
        let p = blocked((block_bytes / desc.precision.bytes()).max(1));
        let bc: &dyn Compressor = &p;
        let payload = bc.compress(&data).unwrap();
        let back = bc.decompress(&payload, &desc).unwrap();
        prop_assert_eq!(back.bytes(), data.bytes());
    }

    #[test]
    fn block_decoder_never_panics_on_garbage(
        desc in arb_desc(),
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        // Garbage behind a valid prologue, so the block records — not the
        // magic check — are what has to hold.
        let mut framed = encode_stream_header("store", &desc, 16).unwrap();
        framed.extend_from_slice(&bytes);
        let p = blocked(16);
        let bc: &dyn Compressor = &p;
        for payload in [&bytes, &framed] {
            if let Ok(out) = bc.decompress(payload, &desc) {
                prop_assert_eq!(out.bytes().len(), desc.byte_len());
            }
        }
    }
}
