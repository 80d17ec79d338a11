//! Codecs shared by this crate's unit tests.

use crate::codec::{CodecClass, CodecInfo, Community, Compressor, Platform, PrecisionSupport};
use crate::data::{DataDesc, FloatData};
use crate::error::{Error, Result};

/// Table 1 metadata of a test codec called `name`.
pub(crate) fn info(name: &'static str) -> CodecInfo {
    CodecInfo {
        name,
        year: 2024,
        community: Community::General,
        class: CodecClass::Delta,
        platform: Platform::Cpu,
        parallel: false,
        precisions: PrecisionSupport::Both,
    }
}

/// Identity codec `store`: the payload is the element bytes.
pub(crate) struct Store;

impl Compressor for Store {
    fn info(&self) -> CodecInfo {
        info("store")
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

/// Store codec `hstore` with a 2-byte header per call, so block boundaries
/// and per-block overhead are observable and a flipped header byte is a
/// decode error.
pub(crate) struct HeaderedStore;

impl Compressor for HeaderedStore {
    fn info(&self) -> CodecInfo {
        info("hstore")
    }
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        out.clear();
        out.extend_from_slice(&[0xAB, 0xCD]);
        out.extend_from_slice(data.bytes());
        Ok(out.len())
    }
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        if payload.len() < 2 || payload[0] != 0xAB || payload[1] != 0xCD {
            return Err(Error::Corrupt("bad hstore header".into()));
        }
        out.refill_from_slice(desc, &payload[2..])
    }
}
