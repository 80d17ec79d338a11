//! Infallible little-endian wire readers and saturating length
//! conversions.
//!
//! Every byte that crosses a trust boundary — FCS1 requests, FCB frame
//! headers, FCDB container directories — is decoded through these helpers
//! instead of `slice[a..b].try_into().expect(..)` patterns: a truncated
//! buffer is a typed [`Error::Corrupt`], never a panic, and a length claim
//! wider than `usize` **saturates** rather than truncates. Saturation is
//! the security-correct direction: an absurd claim becomes `usize::MAX`
//! and fails *upward* into the plausibility gates
//! ([`check_decode_claim`](crate::blocks::check_decode_claim) and friends),
//! where a truncating `as` cast on a 32-bit target could wrap a hostile
//! 2^32+16 claim into a small, in-bounds, silently-wrong length.
//!
//! [`Cursor`] is the same discipline for a payload read front to back —
//! the shape every codec's `decompress_into` has — and carries the one
//! chunk directory the chunk-parallel codecs share: [`put_chunks`] writes
//! `count` `u32` sizes then the chunks, [`Cursor::take_chunks`] reads them
//! back as checked sub-slices, and [`Cursor::take_chunks_at_offsets`] is
//! the same slicer for ndzip-GPU's prefix-sum layout (paper §4.4).
//!
//! The chunks behind such a directory are coded independently, so they
//! are also the unit of parallel work. [`fan_out`] is the one rule for when
//! that work leaves the calling thread — inline up to [`PARALLEL_BYTES`] of
//! call input, otherwise on scoped threads — for the CPU codecs' chunks
//! and the GPU simulator's thread blocks alike, and [`code_chunks`] codes
//! chunks behind a [`put_chunks`] directory under it.
//!
//! Clippy's no-panic, wire-cast and indexing lints and `fcbench-analyze`'s
//! claim gate hold decode paths to these helpers.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::error::{Error, Result};

fn truncated(what: &str, pos: usize, len: usize) -> Error {
    Error::Corrupt(format!(
        "truncated wire field: {what} at offset {pos} needs more than the {len} bytes present"
    ))
}

/// Read a little-endian `u32` at `pos`, failing on a short buffer.
pub fn le_u32(buf: &[u8], pos: usize) -> Result<u32> {
    match buf.get(pos..).and_then(|t| t.first_chunk::<4>()) {
        Some(w) => Ok(u32::from_le_bytes(*w)),
        None => Err(truncated("u32", pos, buf.len())),
    }
}

/// Read a little-endian `u64` at `pos`, failing on a short buffer.
pub fn le_u64(buf: &[u8], pos: usize) -> Result<u64> {
    match buf.get(pos..).and_then(|t| t.first_chunk::<8>()) {
        Some(w) => Ok(u64::from_le_bytes(*w)),
        None => Err(truncated("u64", pos, buf.len())),
    }
}

/// A wire-claimed `u32` length as `usize`, saturating on narrow targets so
/// oversized claims fail upward into plausibility gates instead of
/// wrapping into small in-bounds values.
pub fn len32(v: u32) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// A wire-claimed `u64` length as `usize`, saturating (see [`len32`]).
pub fn len64(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Replace `buf`'s contents with exactly `len` bytes from `src`. The buffer
/// grows only as bytes arrive (`Read::take(len).read_to_end`), rather than
/// reserving `len` up front: a claim that delivers nothing fails at EOF
/// having committed what arrived, not the whole claim. Bytes are read into
/// the buffer's spare capacity, not over a zero-filled prefix. A stream
/// that ends short is [`UnexpectedEof`](std::io::ErrorKind::UnexpectedEof).
/// Callers gate `len` first and map the I/O error their own way.
pub fn read_growing<R: std::io::Read>(
    src: &mut R,
    len: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    use std::io::Read;
    buf.clear();
    let limit = u64::try_from(len).unwrap_or(u64::MAX);
    src.take(limit).read_to_end(buf)?;
    if buf.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("stream ended {} bytes into a {len}-byte read", buf.len()),
        ));
    }
    Ok(())
}

/// A bounds-checked forward reader over one codec's untrusted payload.
/// Every failure is an [`Error::Corrupt`] naming the codec and the field.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    codec: &'static str,
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub fn new(codec: &'static str, payload: &'a [u8]) -> Self {
        Cursor {
            codec,
            rest: payload,
        }
    }

    /// A typed error in this cursor's voice, for the codec's own checks.
    pub fn corrupt(&self, what: impl std::fmt::Display) -> Error {
        Error::Corrupt(format!("{}: {what}", self.codec))
    }

    /// The next `n` bytes, or "`field` truncated".
    pub fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8]> {
        match self.rest.split_at_checked(n) {
            Some((head, rest)) => {
                self.rest = rest;
                Ok(head)
            }
            None => Err(self.corrupt(format_args!(
                "{field} truncated: needs {n} bytes, {} left",
                self.rest.len()
            ))),
        }
    }

    /// Everything not yet read; the cursor is left empty.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    pub fn u8(&mut self, field: &str) -> Result<u8> {
        Ok(self.take(1, field)?.first().copied().unwrap_or_default())
    }

    /// A `u32` length or count as `usize`, through [`len32`]: a codec never
    /// holds a raw wire integer it could cast the truncating way.
    pub fn len32(&mut self, field: &str) -> Result<usize> {
        le_u32(self.take(4, field)?, 0).map(len32)
    }

    /// A `u64` length or count as `usize`, through [`len64`].
    pub fn len64(&mut self, field: &str) -> Result<usize> {
        le_u64(self.take(8, field)?, 0).map(len64)
    }

    /// The payload must end here.
    pub fn finish(self) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt(format_args!("{} trailing bytes", self.rest.len())))
        }
    }

    /// Read what [`put_chunks`] wrote: `count` `u32` sizes, then the chunks.
    /// The directory itself must be present before anything is sized by
    /// `count`, so a hostile count costs no more than the payload carries.
    pub fn take_chunks(&mut self, count: usize) -> Result<Vec<&'a [u8]>> {
        let dir = self.take(count.saturating_mul(4), "chunk directory")?;
        let mut chunks = Vec::with_capacity(count); // lint: claim-checked(4 * count bytes were just read)
        for k in 0..count {
            chunks.push(self.take(len32(le_u32(dir, 4 * k)?), "chunk")?);
        }
        Ok(chunks)
    }

    /// ndzip-GPU's directory (§4.4): `count` `u64` exclusive prefix sums of
    /// the chunk sizes, a `u64` body length, then the body. The offsets
    /// must start at 0, never decrease and stay inside the body, which the
    /// chunks cover exactly.
    pub fn take_chunks_at_offsets(&mut self, count: usize) -> Result<Vec<&'a [u8]>> {
        let dir = self.take(count.saturating_mul(8), "offset directory")?;
        let body_len = self.len64("body length")?;
        let body = self.take(body_len, "body")?;
        let mut chunks = Vec::with_capacity(count); // lint: claim-checked(8 * count bytes were just read)
        let mut start = match count {
            0 => 0,
            _ => len64(le_u64(dir, 0)?),
        };
        if start != 0 {
            return Err(self.corrupt("first chunk offset is not zero"));
        }
        for k in 1..=count {
            let end = if k < count {
                len64(le_u64(dir, 8 * k)?)
            } else {
                body_len
            };
            let chunk = body.get(start..end);
            chunks.push(chunk.ok_or_else(|| self.corrupt("chunk offsets leave the body"))?);
            start = end;
        }
        if start != body_len {
            return Err(self.corrupt("body holds bytes no chunk covers"));
        }
        Ok(chunks)
    }
}

/// Append `count` chunks behind a directory of `u32` sizes: the size slots
/// are reserved first, `fill(k, out)` appends chunk `k` straight onto
/// `out`, and its slot is patched once its length is known — no per-chunk
/// buffer unless the caller already has one to copy from.
pub fn put_chunks(
    out: &mut Vec<u8>,
    count: usize,
    mut fill: impl FnMut(usize, &mut Vec<u8>),
) -> Result<()> {
    let dir = out.len();
    out.resize(dir + 4 * count, 0);
    for k in 0..count {
        let start = out.len();
        fill(k, out);
        let size = out.len().checked_sub(start).map(u32::try_from);
        match (size, out.get_mut(dir + 4 * k..dir + 4 * k + 4)) {
            (Some(Ok(size)), Some(slot)) => slot.copy_from_slice(&size.to_le_bytes()),
            _ => {
                return Err(Error::Unsupported(format!(
                    "chunk {k} does not fit a u32 size"
                )))
            }
        }
    }
    Ok(())
}

/// Calls on at most this much input run their chunks on the calling
/// thread: the chunk layout — and so the stream — is the same either way,
/// and up to it a thread spawn costs more than the chunk work it would
/// carry. The blocks frame streams and containers hand a codec are at most
/// this size (a default 64 Ki-element f64 block is exactly it), so a codec
/// running inside a pool worker does not spawn threads of its own.
pub const PARALLEL_BYTES: usize = 512 * 1024;

/// How many threads a call over `input_bytes` in `slots` chunks may use.
fn workers(slots: usize, input_bytes: usize, threads: usize) -> usize {
    if input_bytes <= PARALLEL_BYTES {
        return 1;
    }
    threads.min(slots).max(1)
}

/// Run `f(k, &mut slots[k])` for every slot: inline up to
/// [`PARALLEL_BYTES`] of input, otherwise on `min(threads, slots)` scoped
/// threads that each take one contiguous run of slots.
pub fn fan_out<S: Send>(
    slots: &mut [S],
    input_bytes: usize,
    threads: usize,
    f: impl Fn(usize, &mut S) + Sync,
) {
    let workers = workers(slots.len(), input_bytes, threads);
    if workers == 1 {
        slots.iter_mut().enumerate().for_each(|(k, s)| f(k, s));
        return;
    }
    let per = slots.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, run) in slots.chunks_mut(per).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (k, s) in run.iter_mut().enumerate() {
                    f(w * per + k, s);
                }
            });
        }
    });
}

/// Code `count` chunks with `f(k, out)` behind a [`put_chunks`] directory.
/// Inline, each chunk is appended straight onto `out`; fanned out, each is
/// coded into its own buffer and the buffers appended in order — the bytes
/// are the same.
pub fn code_chunks(
    out: &mut Vec<u8>,
    count: usize,
    input_bytes: usize,
    threads: usize,
    f: impl Fn(usize, &mut Vec<u8>) + Sync,
) -> Result<()> {
    if workers(count, input_bytes, threads) == 1 {
        return put_chunks(out, count, f);
    }
    let mut coded = vec![Vec::new(); count];
    fan_out(&mut coded, input_bytes, threads, f);
    out.reserve(4 * count + coded.iter().map(Vec::len).sum::<usize>());
    put_chunks(out, count, |k, out| {
        out.extend_from_slice(coded.get(k).map_or(&[], Vec::as_slice))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_growing_holds_only_what_arrives() {
        // A huge claim that delivers five bytes fails short, its buffer
        // sized by the five bytes, not by the claim.
        let mut buf = Vec::new();
        let err = read_growing(&mut &[7u8; 5][..], usize::MAX, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(buf, [7; 5]);
        assert!(buf.capacity() < 4096, "capacity {}", buf.capacity());

        // An exact claim reads exactly its bytes, replacing the old ones
        // and leaving the rest of the stream unread.
        let mut src = &b"abcdefgh"[..];
        read_growing(&mut src, 6, &mut buf).unwrap();
        assert_eq!(buf, b"abcdef");
        assert_eq!(src, b"gh");
        read_growing(&mut src, 0, &mut buf).unwrap();
        assert!(buf.is_empty());
        let err = read_growing(&mut src, 3, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn fan_out_visits_every_slot_once_on_either_side_of_the_threshold() {
        let over = PARALLEL_BYTES + 1;
        for (input_bytes, threads) in [(0, 8), (over, 1), (over, 3)] {
            for n in [0usize, 1, 2, 7, 64] {
                let mut slots = vec![0usize; n];
                fan_out(&mut slots, input_bytes, threads, |k, s| *s += k + 1);
                let want: Vec<usize> = (1..=n).collect();
                assert_eq!(slots, want, "{input_bytes} bytes, {threads} threads");
            }
        }
        let main = std::thread::current().id();
        let mut ids = vec![main; 4];
        fan_out(&mut ids, PARALLEL_BYTES, 8, |_, id| {
            *id = std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == main), "at the threshold");
        fan_out(&mut ids, over, 8, |_, id| *id = std::thread::current().id());
        assert!(ids.iter().all(|&id| id != main), "above the threshold");
    }

    #[test]
    fn code_chunks_writes_the_same_bytes_inline_and_fanned_out() {
        let chunk = |k: usize, out: &mut Vec<u8>| out.extend(std::iter::repeat_n(k as u8, 3 * k));
        let (mut inline, mut fanned) = (vec![9u8], vec![9u8]);
        code_chunks(&mut inline, 5, 0, 4, chunk).unwrap();
        code_chunks(&mut fanned, 5, PARALLEL_BYTES + 1, 4, chunk).unwrap();
        assert_eq!(inline, fanned);
        let mut cur = Cursor::new("demo", &inline[1..]);
        let read = cur.take_chunks(5).unwrap();
        assert_eq!(read[4], [4u8; 12]);
        cur.finish().unwrap();
    }

    #[test]
    fn reads_at_offsets_and_fails_truncated() {
        let buf: Vec<u8> = (0u8..12).collect();
        assert_eq!(le_u32(&buf, 3).unwrap(), u32::from_le_bytes([3, 4, 5, 6]));
        assert_eq!(
            le_u64(&buf, 4).unwrap(),
            u64::from_le_bytes([4, 5, 6, 7, 8, 9, 10, 11])
        );
        assert!(le_u32(&buf, 9).is_err());
        assert!(le_u64(&buf, 5).is_err());
        // Offsets past the end (including overflow-prone ones) fail cleanly.
        assert!(le_u64(&buf, usize::MAX).is_err());
        assert!(le_u64(&[], 0).is_err());
    }

    #[test]
    fn cursor_reads_in_order_and_names_what_is_missing() {
        let buf = [7u8, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9, 9];
        let mut cur = Cursor::new("demo", &buf);
        assert_eq!(cur.u8("tag").unwrap(), 7);
        assert_eq!(cur.len32("count").unwrap(), 1);
        assert_eq!(cur.len64("words").unwrap(), 2);
        let err = cur.clone().take(3, "tail").unwrap_err().to_string();
        assert!(err.contains("demo: tail truncated"), "{err}");
        assert!(cur.clone().take(usize::MAX, "tail").is_err());
        assert!(cur.clone().finish().is_err(), "two bytes are unread");
        assert_eq!(cur.rest(), [9, 9]);
        cur.finish().unwrap();
    }

    #[test]
    fn chunk_directory_round_trips_and_rejects_every_truncation() {
        let parts: [&[u8]; 4] = [b"alpha", b"", b"be", b"gamma!"];
        let mut buf = vec![0xEE]; // a header byte before the directory
        put_chunks(&mut buf, parts.len(), |k, out| {
            out.extend_from_slice(parts[k])
        })
        .unwrap();
        let read = |bytes: &[u8]| {
            let mut cur = Cursor::new("demo", bytes);
            cur.u8("header")?;
            let chunks = cur.take_chunks(parts.len())?;
            cur.finish()
                .map(|()| chunks.iter().map(|c| c.to_vec()).collect::<Vec<_>>())
        };
        assert_eq!(read(&buf).unwrap(), parts);
        for cut in 0..buf.len() {
            assert!(read(&buf[..cut]).is_err(), "cut at {cut}");
        }
        // A count no payload could back fails before anything is reserved.
        assert!(Cursor::new("demo", &buf).take_chunks(usize::MAX).is_err());
        let mut inflated = buf.clone();
        inflated[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read(&inflated).is_err());
    }

    #[test]
    fn offset_directory_is_validated_into_the_same_slices() {
        let frame = |offsets: &[u64], body_len: u64, body: &[u8]| {
            let mut buf: Vec<u8> = offsets.iter().flat_map(|o| o.to_le_bytes()).collect();
            buf.extend_from_slice(&body_len.to_le_bytes());
            buf.extend_from_slice(body);
            buf
        };
        let read = |buf: &[u8], count| {
            let mut cur = Cursor::new("demo", buf);
            let chunks = cur.take_chunks_at_offsets(count)?;
            cur.finish().map(|()| chunks.concat())
        };
        let body = b"0123456789";
        assert_eq!(read(&frame(&[0, 4, 4], 10, body), 3).unwrap(), body);
        assert_eq!(read(&frame(&[], 0, b""), 0).unwrap(), b"");
        for (offsets, body_len) in [
            (&[0u64, 100][..], 10u64), // offset past the body
            (&[1, 4], 10),             // first offset not zero
            (&[0, 6, 4], 10),          // not monotone
            (&[0, 4], u64::MAX),       // body length past the payload
            (&[0, u64::MAX], 10),      // offset past everything
            (&[], 10),                 // a body no chunk covers
        ] {
            let buf = frame(offsets, body_len, body);
            assert!(
                read(&buf, offsets.len()).is_err(),
                "{offsets:?} / {body_len}"
            );
        }
    }

    #[test]
    fn lengths_convert_exactly_on_64_bit() {
        assert_eq!(len32(u32::MAX), u32::MAX as usize);
        assert_eq!(len64(7), 7);
        #[cfg(target_pointer_width = "64")]
        assert_eq!(len64(u64::MAX), u64::MAX as usize);
    }
}
