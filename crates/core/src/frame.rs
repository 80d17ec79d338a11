//! The self-describing `FCB3` frame wrapped around compressed blocks.
//!
//! A frame carries everything needed to decompress without out-of-band
//! metadata: codec name, precision, dimensional extent, domain tag, and the
//! block decomposition. The element stream is split into fixed-size blocks
//! (the last may be short), each compressed independently — the block
//! decomposition FCBench applies to its ndzip/GPU methods and the Table 10
//! page study — and every block record carries its own length inline, so a
//! writer emits records as blocks finish compressing and neither side ever
//! needs the whole frame resident. There is one layout (all integers
//! little-endian); a single-shot frame is simply a one-block stream:
//!
//! ```text
//! magic            4 bytes  "FCB3"
//! codec name len   1 byte   n
//! codec name       n bytes  UTF-8
//! precision        1 byte   0 = single, 1 = double
//! domain           1 byte   0 = HPC, 1 = TS, 2 = OBS, 3 = DB
//! ndims            1 byte   d  (1..=255)
//! dims             8*d bytes
//! block elems      8 bytes  elements per block (>= 1)
//! per block:       8-byte payload len, then the payload
//!                  (block count is implied: ceil(elements / block elems))
//! ```
//!
//! This module owns the prologue (everything before the first block
//! record); [`crate::stream::FrameWriter`] / [`crate::stream::FrameReader`]
//! produce and consume the records, and [`crate::Pipeline`] is
//! the whole-buffer entry point over them. Its name and descriptor codec
//! ([`put_name`]/[`read_name`], [`put_desc`]/[`read_desc`]) is also the
//! `FCS1` service's: a `COMPRESS` header is this prologue after its magic,
//! and a `DECOMPRESS` reply leads with the descriptor. The precision byte
//! (`u8::from(Precision)`, `Precision::try_from(u8)`) is FCDB2's too.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::data::{DataDesc, Domain, Precision};
use crate::error::{Error, Result};
use crate::wire;
use std::io::Read;

const MAGIC: &[u8; 4] = b"FCB3";

/// Check that `name` and `desc` fit the frame header's single-byte length
/// fields. The benchmark runner calls this up front so an unencodable cell
/// is reported as a failure instead of panicking mid-campaign.
pub fn check_frame_params(name: &str, desc: &DataDesc) -> Result<()> {
    encode_stream_header(name, desc, 1).map(drop)
}

impl From<Precision> for u8 {
    fn from(p: Precision) -> u8 {
        match p {
            Precision::Single => 0,
            Precision::Double => 1,
        }
    }
}

impl TryFrom<u8> for Precision {
    type Error = Error;

    fn try_from(b: u8) -> Result<Precision> {
        Ok(match b {
            0 => Precision::Single,
            1 => Precision::Double,
            b => return Err(Error::Corrupt(format!("bad precision byte {b}"))),
        })
    }
}

/// Append a u8-length-prefixed UTF-8 codec name.
pub fn put_name(name: &str, out: &mut Vec<u8>) -> Result<()> {
    let len = u8::try_from(name.len()).map_err(|_| Error::NameTooLong { len: name.len() })?;
    out.push(len);
    out.extend_from_slice(name.as_bytes());
    Ok(())
}

/// Read a name written by [`put_name`].
pub fn read_name<R: Read>(src: &mut R) -> Result<String> {
    let mut len = [0u8; 1];
    src.read_exact(&mut len)?;
    // lint: claim-checked(len is u8-bounded, at most 255 bytes)
    let mut name = vec![0u8; usize::from(len[0])];
    src.read_exact(&mut name)?;
    String::from_utf8(name).map_err(|_| Error::Corrupt("codec name is not UTF-8".into()))
}

/// Append a data descriptor: precision, domain, ndims, then the dims.
pub fn put_desc(desc: &DataDesc, out: &mut Vec<u8>) -> Result<()> {
    let ndims = u8::try_from(desc.dims.len()).map_err(|_| Error::TooManyDims {
        ndims: desc.dims.len(),
    })?;
    let domain = match desc.domain {
        Domain::Hpc => 0,
        Domain::TimeSeries => 1,
        Domain::Observation => 2,
        Domain::Database => 3,
    };
    out.extend_from_slice(&[u8::from(desc.precision), domain, ndims]);
    for &d in &desc.dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    Ok(())
}

/// Read a descriptor written by [`put_desc`]. No dimensions, or a zero
/// extent, is [`Error::Corrupt`]; [`DataDesc::new`] then re-validates
/// with checked arithmetic, so an overflowing element count is a typed
/// error too.
pub fn read_desc<R: Read>(src: &mut R) -> Result<DataDesc> {
    let mut head = [0u8; 3];
    src.read_exact(&mut head)?;
    let [precision, domain, ndims] = head;
    let precision = Precision::try_from(precision)?;
    let domain = match domain {
        0 => Domain::Hpc,
        1 => Domain::TimeSeries,
        2 => Domain::Observation,
        3 => Domain::Database,
        b => return Err(Error::Corrupt(format!("bad domain byte {b}"))),
    };
    if ndims == 0 {
        return Err(Error::Corrupt("descriptor has zero dimensions".into()));
    }
    // lint: claim-checked(ndims is u8-bounded, at most 255 dims)
    let mut raw = vec![0u8; 8 * usize::from(ndims)];
    src.read_exact(&mut raw)?;
    let dims = (0..raw.len())
        .step_by(8)
        .map(|at| match wire::le_u64(&raw, at)? {
            0 => Err(Error::Corrupt(
                "descriptor has a zero-extent dimension".into(),
            )),
            d => usize::try_from(d)
                .map_err(|_| Error::Corrupt(format!("dimension {d} exceeds the address space"))),
        })
        .collect::<Result<Vec<usize>>>()?;
    DataDesc::new(precision, dims, domain)
}

/// Encode the `FCB3` prologue — everything before the first block record.
pub fn encode_stream_header(name: &str, desc: &DataDesc, block_elems: usize) -> Result<Vec<u8>> {
    if block_elems == 0 {
        return Err(Error::BadDescriptor("block_elems must be >= 1".into()));
    }
    let mut out = Vec::with_capacity(4 + 2 + name.len() + 3 + 8 * desc.dims.len() + 8);
    out.extend_from_slice(MAGIC);
    put_name(name, &mut out)?;
    put_desc(desc, &mut out)?;
    out.extend_from_slice(&(block_elems as u64).to_le_bytes());
    Ok(out)
}

/// Decode an `FCB3` prologue from `src`:
/// `(codec name, descriptor, block elems)`. Reads exactly the prologue
/// bytes, leaving `src` positioned at the first block record.
pub fn decode_stream_header<R: Read>(src: &mut R) -> Result<(String, DataDesc, usize)> {
    let mut magic = [0u8; 4];
    src.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(Error::Corrupt("bad magic (expected FCB3)".into()));
    }
    let codec = read_name(src)?;
    let desc = read_desc(src)?;
    let mut be = [0u8; 8];
    src.read_exact(&mut be)?;
    let block_elems = u64::from_le_bytes(be);
    let block_elems = usize::try_from(block_elems)
        .ok()
        .filter(|&b| b >= 1)
        .ok_or_else(|| Error::Corrupt(format!("bad block size {block_elems}")))?;
    Ok((codec, desc, block_elems))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecInfo, Compressor};
    use crate::data::FloatData;
    use crate::pipeline::Pipeline;
    use crate::pool::{PoolConfig, WorkerPool};
    use crate::stream::{FrameReader, FrameWriter};
    use crate::testing::{info, Store};
    use std::sync::Arc;

    /// Compresses all-zero blocks to nothing at all.
    struct Zeros;

    impl Compressor for Zeros {
        fn info(&self) -> CodecInfo {
            info("zeros")
        }
        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            assert!(data.bytes().iter().all(|&b| b == 0));
            out.clear();
            Ok(0)
        }
        fn decompress_into(
            &self,
            payload: &[u8],
            desc: &DataDesc,
            out: &mut FloatData,
        ) -> Result<()> {
            assert!(payload.is_empty());
            out.refill(desc, |bytes| {
                bytes.resize(desc.byte_len(), 0);
                Ok(())
            })
        }
    }

    fn desc() -> DataDesc {
        DataDesc::new(Precision::Double, vec![3, 5], Domain::TimeSeries).unwrap()
    }

    fn decode(bytes: &[u8]) -> Result<(String, DataDesc, usize)> {
        decode_stream_header(&mut &bytes[..])
    }

    /// A whole frame over `desc()`-shaped data in 4-element blocks.
    fn frame() -> (FloatData, Vec<u8>) {
        let vals: Vec<f64> = (0..15).map(|i| i as f64 * 1.5).collect();
        let data = FloatData::from_f64(&vals, vec![3, 5], Domain::TimeSeries).unwrap();
        let framed = Pipeline::with_codec(Arc::new(Store))
            .block_elems(4)
            .compress(&data)
            .unwrap();
        (data, framed)
    }

    #[test]
    fn round_trip() {
        let prologue = encode_stream_header("gorilla", &desc(), 7).unwrap();
        let mut src = &prologue[..];
        let (codec, d, block_elems) = decode_stream_header(&mut src).unwrap();
        assert_eq!(codec, "gorilla");
        assert_eq!(d, desc());
        assert_eq!(block_elems, 7);
        assert!(src.is_empty(), "reads exactly the prologue");
    }

    #[test]
    fn desc_round_trips_on_the_wire() {
        let desc = DataDesc::new(Precision::Double, vec![3, 5, 7], Domain::Observation).unwrap();
        let mut wire = Vec::new();
        put_desc(&desc, &mut wire).unwrap();
        let back = read_desc(&mut &wire[..]).unwrap();
        assert_eq!(back, desc);
    }

    #[test]
    fn hostile_desc_is_rejected_typed() {
        // Zero-extent dimension.
        let wire = [1u8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(read_desc(&mut &wire[..]), Err(Error::Corrupt(_))));
        // Overflowing element count: 2^63 x 2^63 doubles.
        let mut wire = vec![1u8, 0, 2];
        wire.extend_from_slice(&(1u64 << 63).to_le_bytes());
        wire.extend_from_slice(&(1u64 << 63).to_le_bytes());
        assert!(matches!(
            read_desc(&mut &wire[..]),
            Err(Error::BadDescriptor(_))
        ));
        // Bad precision byte.
        assert!(read_desc(&mut &[9u8, 0, 1][..]).is_err());
    }

    #[test]
    fn the_format_is_frozen_against_a_golden_image() {
        // Hand-assembled from the layout in the module docs: f64 and f32,
        // 4-element blocks, so each stream ends in a short tail block.
        fn golden(precision: u8, domain: u8, dims: &[u64], data: &FloatData) -> Vec<u8> {
            let mut g = Vec::new();
            g.extend_from_slice(b"FCB3");
            g.push(5);
            g.extend_from_slice(b"store");
            g.push(precision);
            g.push(domain);
            g.push(dims.len() as u8);
            for d in dims {
                g.extend_from_slice(&d.to_le_bytes());
            }
            g.extend_from_slice(&4u64.to_le_bytes());
            for block in data.bytes().chunks(4 * data.desc().precision.bytes()) {
                g.extend_from_slice(&(block.len() as u64).to_le_bytes());
                g.extend_from_slice(block);
            }
            g
        }
        let price: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.25).collect();
        let price = FloatData::from_f64(&price, vec![2, 5], Domain::Database).unwrap();
        let qty: Vec<f32> = (0..6).map(|i| i as f32 * 1.5).collect();
        let qty = FloatData::from_f32(&qty, vec![6], Domain::Observation).unwrap();
        let cases = [
            (golden(1, 3, &[2, 5], &price), price),
            (golden(0, 2, &[6], &qty), qty),
        ];
        let codec: Arc<dyn Compressor> = Arc::new(Store);
        let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2)));
        for (golden, data) in &cases {
            for engine in [None, Some(Arc::clone(&pool))] {
                let desc = data.desc().clone();
                let mut w =
                    FrameWriter::new(Vec::new(), Arc::clone(&codec), desc, 4, engine.clone())
                        .unwrap();
                w.write(data.bytes()).unwrap();
                assert_eq!(&w.finish().unwrap(), golden);

                let mut r = FrameReader::new(&golden[..], Arc::clone(&codec), engine).unwrap();
                let mut back = FloatData::scratch();
                r.read_to_end(&mut back).unwrap();
                assert_eq!(back.bytes(), data.bytes());
            }
            for p in [
                Pipeline::with_codec(Arc::clone(&codec)).block_elems(4),
                Pipeline::with_pool(Arc::clone(&codec), Arc::clone(&pool)).block_elems(4),
            ] {
                assert_eq!(&p.compress(data).unwrap(), golden);
                let back = p.decompress(golden).unwrap();
                assert_eq!(back.bytes(), data.bytes());
                assert_eq!(back.desc(), data.desc());
            }
        }
    }

    #[test]
    fn empty_payload_round_trip() {
        // A block record may carry a zero-length payload.
        let data = FloatData::from_f64(&[0.0; 10], vec![10], Domain::Hpc).unwrap();
        let p = Pipeline::with_codec(Arc::new(Zeros)).block_elems(4);
        let framed = p.compress(&data).unwrap();
        let prologue = encode_stream_header("zeros", data.desc(), 4).unwrap();
        assert_eq!(framed.len(), prologue.len() + 3 * 8);
        assert_eq!(p.decompress(&framed).unwrap().bytes(), data.bytes());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut prologue = encode_stream_header("x", &desc(), 1).unwrap();
        prologue[0] = b'Z';
        assert!(matches!(decode(&prologue), Err(Error::Corrupt(_))));
        // The retired single-shot and directory-first magics are foreign too.
        for old in [b'1', b'2'] {
            prologue[..4].copy_from_slice(&[b'F', b'C', b'B', old]);
            assert!(matches!(decode(&prologue), Err(Error::Corrupt(_))));
        }
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let prologue = encode_stream_header("gorilla", &desc(), 4).unwrap();
        for cut in 0..prologue.len() {
            assert!(
                decode(&prologue[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }
        // A whole frame in memory: cutting it anywhere — prologue, length
        // field, payload — is corruption, not an I/O failure.
        let (_, framed) = frame();
        let p = Pipeline::with_codec(Arc::new(Store));
        for cut in 0..framed.len() {
            assert!(
                matches!(p.decompress(&framed[..cut]), Err(Error::Corrupt(_))),
                "truncation to {cut} bytes must be Corrupt"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let (data, mut framed) = frame();
        let p = Pipeline::with_codec(Arc::new(Store));
        assert_eq!(p.decompress(&framed).unwrap().bytes(), data.bytes());
        framed.push(0xAA);
        assert!(matches!(p.decompress(&framed), Err(Error::Corrupt(_))));
    }

    #[test]
    fn rejects_bad_precision_and_domain_bytes() {
        let prologue = encode_stream_header("x", &desc(), 1).unwrap();
        // precision byte sits right after magic + name-len + name
        let ppos = 4 + 1 + 1;
        let mut bad = prologue.clone();
        bad[ppos] = 9;
        assert!(decode(&bad).is_err());
        let mut bad = prologue.clone();
        bad[ppos + 1] = 9;
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn hostile_prologue_fields_are_typed_errors() {
        let prologue = encode_stream_header("x", &desc(), 4).unwrap();
        let (name_at, ndims_at, dims_at) = (5, 8, 9);
        let block_elems_at = dims_at + 16;
        let corrupt = |at: usize, with: &[u8]| {
            let mut bad = prologue.clone();
            bad[at..at + with.len()].copy_from_slice(with);
            decode(&bad)
        };
        // Non-UTF-8 codec name.
        assert!(matches!(corrupt(name_at, &[0xFF]), Err(Error::Corrupt(_))));
        // No dimensions at all (the dims then read as the block size).
        assert!(matches!(corrupt(ndims_at, &[0]), Err(Error::Corrupt(_))));
        // A zero-extent dimension.
        assert!(matches!(
            corrupt(dims_at, &0u64.to_le_bytes()),
            Err(Error::Corrupt(_))
        ));
        // Dimensions whose product overflows the address space.
        assert!(corrupt(dims_at, &(u64::MAX / 2).to_le_bytes()).is_err());
        // A zero block size.
        assert!(matches!(
            corrupt(block_elems_at, &0u64.to_le_bytes()),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_params_are_typed_errors_not_panics() {
        let long = "x".repeat(256);
        assert!(matches!(
            encode_stream_header(&long, &desc(), 1),
            Err(Error::NameTooLong { len: 256 })
        ));
        let many = DataDesc::new(Precision::Single, vec![1; 300], Domain::Hpc).unwrap();
        assert!(matches!(
            encode_stream_header("x", &many, 1),
            Err(Error::TooManyDims { ndims: 300 })
        ));
        assert!(matches!(
            encode_stream_header("x", &desc(), 0),
            Err(Error::BadDescriptor(_))
        ));
        assert!(check_frame_params("x", &desc()).is_ok());
    }

    #[test]
    fn all_domains_and_precisions_encode() {
        for domain in Domain::ALL {
            for precision in [Precision::Single, Precision::Double] {
                let d = DataDesc::new(precision, vec![2, 2, 2], domain).unwrap();
                let prologue = encode_stream_header("c", &d, 3).unwrap();
                let (_, back, _) = decode(&prologue).unwrap();
                assert_eq!(back.domain, domain);
                assert_eq!(back.precision, precision);
            }
        }
    }

    #[test]
    fn chunked_round_trip() {
        // 10 elements in 4-element blocks => 3 blocks, the last one short.
        let vals: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let data = FloatData::from_f32(&vals, vec![10], Domain::Hpc).unwrap();
        let codec: Arc<dyn Compressor> = Arc::new(Store);
        let mut w =
            FrameWriter::new(Vec::new(), Arc::clone(&codec), data.desc().clone(), 4, None).unwrap();
        w.write(data.bytes()).unwrap();
        let framed = w.finish().unwrap();

        let mut r = FrameReader::new(&framed[..], codec, None).unwrap();
        assert_eq!(r.desc(), data.desc());
        assert_eq!(r.block_elems(), 4);
        assert_eq!(r.blocks_total(), 3);
        let mut lens = Vec::new();
        while let Some(block) = r.next_block().unwrap() {
            lens.push(block.len() / 4);
        }
        assert_eq!(lens, [4, 4, 2]);
    }

    #[test]
    fn chunked_rejects_wrong_block_count_and_truncation() {
        let (data, framed) = frame();
        let codec: Arc<dyn Compressor> = Arc::new(Store);
        // Too few blocks at encode time: the writer refuses to finish.
        let mut w =
            FrameWriter::new(Vec::new(), Arc::clone(&codec), data.desc().clone(), 4, None).unwrap();
        w.write(&data.bytes()[..64]).unwrap();
        assert!(matches!(w.finish(), Err(Error::BadDescriptor(_))));

        // Too few blocks at decode time: 15 elements need four 4-element
        // blocks; a frame that ends cleanly after the third is refused,
        // as is one with a fifth.
        let p = Pipeline::with_codec(codec);
        let last_record = 8 + 3 * 8;
        assert!(p.decompress(&framed[..framed.len() - last_record]).is_err());
        let mut extra = framed.clone();
        extra.extend_from_slice(&framed[framed.len() - last_record..]);
        assert!(p.decompress(&extra).is_err());
    }

    #[test]
    fn chunked_encode_into_reuses_buffer() {
        let (data, framed) = frame();
        let mut buf = vec![0xFF; 3];
        let n = Pipeline::with_codec(Arc::new(Store))
            .block_elems(4)
            .compress_into(&data, &mut buf)
            .unwrap();
        assert_eq!(n, buf.len());
        assert_eq!(buf, framed);
    }
}
