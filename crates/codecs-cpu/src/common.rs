//! The chunk scaffold shared by both codec crates.
//!
//! Every parallel method the paper surveys (§3.6–3.8, §4.1–4.4) cuts its
//! input into independent chunks, codes each, and stores them behind a
//! size directory. The directory, the cursor that reads it, and the one
//! rule for when chunk work leaves the calling thread
//! ([`fan_out`](fcbench_core::wire::fan_out) under
//! [`PARALLEL_BYTES`](fcbench_core::wire::PARALLEL_BYTES), which the GPU
//! simulator's thread blocks use too) live in [`fcbench_core::wire`]; this
//! module holds the rest of the mechanism, once:
//!
//! - [`pack_counted`] / [`unpack_counted`] — the 4-bit code + truncated
//!   residual coder of `pfpc`, `gfc` and `nvcomp-bitcomp`, generic over
//!   each codec's nibble alphabet (the `predictor` family uses the same
//!   coder without the two counts);
//! - [`begin_word_frame`] / [`read_word_frame`] — the `nwords | nchunks |
//!   tail_len` frame `pfpc` and `gfc` share;
//! - the word views: [`put_words`] and [`load_le`], and the crate's
//!   `u64_words` / `u32_words` iterators.
//!
//! The file is held to the no-panic and claim-gate lints (R001, R002).

use fcbench_core::wire::Cursor;
use fcbench_core::{DataDesc, Result};

/// Split `total` elements into per-thread chunk ranges of roughly equal size.
/// Returns at most `threads` non-empty `(start, end)` ranges.
pub(crate) fn chunk_ranges(total: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1);
    if total == 0 {
        return Vec::new();
    }
    let per = total.div_ceil(threads);
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    while start < total {
        let end = (start + per).min(total);
        out.push((start, end));
        start = end;
    }
    out
}

/// Effective dimensionality for codecs that cap at 3-D: higher-dimensional
/// extents collapse extra leading axes into the slowest one (matching how
/// fpzip/ndzip are driven with at most 3 dimensions in the paper).
pub(crate) fn effective_dims(desc: &DataDesc) -> Vec<usize> {
    let dims = &desc.dims;
    if dims.len() <= 3 {
        return dims.clone();
    }
    let lead: usize = dims[..dims.len() - 2].iter().product();
    vec![lead, dims[dims.len() - 2], dims[dims.len() - 1]]
}

/// Iterate little-endian `u64` bit-pattern words over a payload without
/// materialising a vector — the allocation-free feed for `compress_into`
/// hot paths. A trailing partial word is not visited.
pub(crate) fn u64_words(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    let word = |c: &[u8]| u64::from_le_bytes(c.first_chunk().copied().unwrap_or_default());
    bytes.chunks_exact(8).map(word)
}

/// Iterate little-endian `u32` bit-pattern words over a payload
/// (single-precision sibling of [`u64_words`]).
pub(crate) fn u32_words(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + '_ {
    let word = |c: &[u8]| u32::from_le_bytes(c.first_chunk().copied().unwrap_or_default());
    bytes.chunks_exact(4).map(word)
}

/// Append the low `esize` little-endian bytes of every word: the inverse
/// of [`load_le`] over `esize`-byte pieces.
pub fn put_words(words: &[u64], esize: usize, out: &mut Vec<u8>) {
    for w in words {
        out.extend_from_slice(&w.to_le_bytes()[..esize.min(8)]);
    }
}

/// A little-endian word from its low `bytes.len()` (at most 8) bytes.
pub fn load_le(bytes: &[u8]) -> u64 {
    let n = bytes.len().min(8);
    let mut le = [0u8; 8];
    le[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(le)
}

/// Code each whole `u64` word of `bytes` as a 4-bit code plus a residual
/// truncated to the width the code implies, appending `codes | residuals`
/// to `out` (two codes per byte, even word in the high nibble) and
/// returning the residual byte count. `code(word)` is the codec's
/// alphabet: it returns `(nibble, residual, residual bytes kept)`.
///
/// The code region is sized and written in place; each residual is one
/// 8-byte store truncated to its width.
#[inline]
pub(crate) fn pack_nibbles(
    bytes: &[u8],
    out: &mut Vec<u8>,
    mut code: impl FnMut(u64) -> (u8, u64, usize),
) -> usize {
    let count = bytes.len() / 8;
    let code_base = out.len();
    out.resize(code_base + count.div_ceil(2), 0);
    out.reserve(count * 8);
    let residual_base = out.len();
    for (i, word) in u64_words(bytes).enumerate() {
        let (nibble, residual, nbytes) = code(word);
        // The even word's store needs no load of the zeroed byte; the odd
        // word's read-modify-write hits the byte just stored.
        if i & 1 == 0 {
            out[code_base + i / 2] = nibble << 4;
        } else {
            out[code_base + i / 2] |= nibble;
        }
        let at = out.len();
        out.extend_from_slice(&residual.to_le_bytes());
        out.truncate(at + nbytes);
    }
    out.len() - residual_base
}

/// The nibble/residual coder behind its two counts: `u32 ncodes | u32
/// nresidual | codes | residuals` — one chunk of `pfpc` or `gfc`, one
/// `bitcomp` page. `code(word)` is the codec's alphabet: it returns
/// `(nibble, residual, residual bytes kept)`.
#[inline]
pub fn pack_counted(bytes: &[u8], out: &mut Vec<u8>, code: impl FnMut(u64) -> (u8, u64, usize)) {
    let base = out.len();
    out.extend_from_slice(&((bytes.len() / 8).div_ceil(2) as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    let nresidual = pack_nibbles(bytes, out, code) as u32;
    out[base + 4..base + 8].copy_from_slice(&nresidual.to_le_bytes());
}

/// Inverse of [`pack_nibbles`]: read `count` codes and `nresidual`
/// residual bytes from `cur` and hand each `(nibble, residual)` to `emit`.
/// `width(nibble)` is the residual bytes the codec's alphabet keeps for a
/// code, `None` for a nibble it never emits. The residual bytes must be
/// consumed exactly.
#[inline]
pub(crate) fn unpack_nibbles(
    cur: &mut Cursor<'_>,
    count: usize,
    nresidual: usize,
    width: impl Fn(u8) -> Option<usize>,
    mut emit: impl FnMut(u8, u64),
) -> Result<()> {
    let codes = cur.take(count.div_ceil(2), "nibble codes")?;
    let residuals = cur.take(nresidual, "residual bytes")?;
    let mut rpos = 0usize;
    for idx in 0..count {
        let nibble = if idx & 1 == 0 {
            codes[idx / 2] >> 4
        } else {
            codes[idx / 2] & 0x0F
        };
        let Some(nbytes) = width(nibble).filter(|&n| n <= 8) else {
            return Err(cur.corrupt("invalid code nibble"));
        };
        // One unaligned 8-byte load + mask covers every residual width;
        // the byte copy only runs for the last few residuals.
        let residual = match residuals.get(rpos..rpos + 8).and_then(|s| s.first_chunk()) {
            Some(w) if nbytes == 8 => u64::from_le_bytes(*w),
            Some(w) => u64::from_le_bytes(*w) & ((1u64 << (8 * nbytes)) - 1),
            None => match residuals.get(rpos..rpos + nbytes) {
                Some(low) => load_le(low),
                None => return Err(cur.corrupt("residual bytes run out")),
            },
        };
        rpos += nbytes;
        emit(nibble, residual);
    }
    if rpos != residuals.len() {
        return Err(cur.corrupt("trailing residual bytes"));
    }
    Ok(())
}

/// Inverse of [`pack_counted`] for a chunk of `count` words: each
/// `(nibble, residual)` goes to `emit`; `width(nibble)` is the residual
/// bytes the codec's alphabet keeps for a code, `None` for a nibble it
/// never emits.
#[inline]
pub fn unpack_counted(
    cur: &mut Cursor<'_>,
    count: usize,
    width: impl Fn(u8) -> Option<usize>,
    emit: impl FnMut(u8, u64),
) -> Result<()> {
    let ncodes = cur.len32("code count")?;
    let nresidual = cur.len32("residual count")?;
    if ncodes != count.div_ceil(2) {
        return Err(cur.corrupt("code count mismatch"));
    }
    unpack_nibbles(cur, count, nresidual, width, emit)
}

/// Start the frame `pfpc` and `gfc` share — `u64 nwords | u32 nchunks |
/// u8 tail_len`, then the chunk directory, the chunks, and the verbatim
/// sub-word tail. `out` is replaced by the header; the whole words of
/// `bytes` come back cut into at most `nchunks` balanced runs, beside the
/// tail.
pub fn begin_word_frame<'a>(
    out: &mut Vec<u8>,
    bytes: &'a [u8],
    nchunks: usize,
) -> (Vec<&'a [u8]>, &'a [u8]) {
    let (word_bytes, tail) = bytes.split_at(bytes.len() / 8 * 8);
    let ranges = chunk_ranges(word_bytes.len() / 8, nchunks);
    out.clear();
    out.extend_from_slice(&((word_bytes.len() / 8) as u64).to_le_bytes());
    out.extend_from_slice(&(ranges.len() as u32).to_le_bytes());
    out.push(tail.len() as u8);
    let runs = ranges.iter().map(|&(s, e)| &word_bytes[s * 8..e * 8]);
    (runs.collect(), tail)
}

/// Each chunk of a word frame beside the number of words it decodes to.
type WordChunks<'a> = Vec<(&'a [u8], usize)>;

/// Parse a [`begin_word_frame`] frame against the descriptor it must
/// decode to: each chunk with its word count, and the tail. The directory
/// is read — so the chunk count is backed by payload bytes — before
/// anything is sized by it.
pub fn read_word_frame<'a>(
    codec: &'static str,
    payload: &'a [u8],
    desc: &DataDesc,
) -> Result<(WordChunks<'a>, &'a [u8])> {
    let mut cur = Cursor::new(codec, payload);
    let nwords = cur.len64("word count")?;
    let nchunks = cur.len32("chunk count")?;
    let tail_len = usize::from(cur.u8("tail length")?);
    if nwords != desc.byte_len() / 8 || tail_len != desc.byte_len() % 8 {
        return Err(cur.corrupt(format_args!(
            "stream geometry ({nwords} words + {tail_len}) does not match descriptor"
        )));
    }
    let chunks = cur.take_chunks(nchunks)?;
    let ranges = chunk_ranges(nwords, nchunks.max(1));
    if ranges.len() != nchunks {
        return Err(cur.corrupt("chunk layout mismatch"));
    }
    let tail = cur.take(tail_len, "tail")?;
    cur.finish()?;
    let counts = ranges.iter().map(|&(s, e)| e - s);
    Ok((chunks.into_iter().zip(counts).collect(), tail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::{Domain, Precision};

    #[test]
    fn chunking_covers_everything_without_overlap() {
        for total in [0usize, 1, 7, 100, 4096, 4097] {
            for threads in [1usize, 2, 3, 8, 64] {
                let ranges = chunk_ranges(total, threads);
                let mut covered = 0;
                let mut prev_end = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, prev_end, "ranges must be contiguous");
                    assert!(e > s, "ranges must be non-empty");
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, total);
                assert!(ranges.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn chunking_is_balanced() {
        let ranges = chunk_ranges(100, 3);
        let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
        assert_eq!(sizes, vec![34, 34, 32]);
    }

    #[test]
    fn effective_dims_collapse() {
        let d = DataDesc::new(Precision::Single, vec![2, 3, 4, 5], Domain::Hpc).unwrap();
        assert_eq!(effective_dims(&d), vec![6, 4, 5]);
        let d3 = DataDesc::new(Precision::Single, vec![3, 4, 5], Domain::Hpc).unwrap();
        assert_eq!(effective_dims(&d3), vec![3, 4, 5]);
        let d1 = DataDesc::new(Precision::Single, vec![60], Domain::Hpc).unwrap();
        assert_eq!(effective_dims(&d1), vec![60]);
    }

    #[test]
    fn int_io_round_trip() {
        let words = [u64::from(1.5f32.to_bits()), 0x8000_0000, 0x7FC0_0001, 7];
        let mut bytes = Vec::new();
        put_words(&words, 4, &mut bytes);
        assert_eq!(bytes.len(), 16);
        assert_eq!(u32_words(&bytes).map(u64::from).collect::<Vec<_>>(), words);
        assert_eq!(
            bytes.chunks_exact(4).map(load_le).collect::<Vec<_>>(),
            words
        );
        assert_eq!(u64_words(&bytes).next(), Some(words[0] | words[1] << 32));
        assert_eq!(
            u64_words(&bytes[..15]).len(),
            1,
            "a partial word is not visited"
        );
        assert_eq!(load_le(&[0xCD, 0xAB]), 0xABCD);
        assert_eq!(load_le(&[]), 0);
    }

    #[test]
    fn nibble_packer_round_trips_every_width_and_rejects_bad_streams() {
        // Alphabet: the nibble is the leading-zero-byte count, 0..=8.
        let code = |w: u64| {
            let lzb = w.leading_zeros() / 8;
            (lzb as u8, w, 8 - lzb as usize)
        };
        let width = |n: u8| 8usize.checked_sub(n.into());
        let words: Vec<u64> = (0..=8)
            .map(|b| u64::MAX.checked_shr(8 * b).unwrap_or(0))
            .collect();
        let mut bytes = Vec::new();
        put_words(&words, 8, &mut bytes);
        let mut packed = Vec::new();
        pack_counted(&bytes, &mut packed, code);
        assert_eq!(
            packed.len(),
            8 + 5 + 36,
            "5 code bytes, 8+7+..+0 residual bytes"
        );

        let unpack = |stream: &[u8]| {
            let mut cur = Cursor::new("demo", stream);
            let mut got = Vec::new();
            unpack_counted(&mut cur, words.len(), width, |_, w| got.push(w))?;
            cur.finish().map(|()| got)
        };
        assert_eq!(unpack(&packed).unwrap(), words);
        for cut in 0..packed.len() {
            assert!(unpack(&packed[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = packed.clone();
        bad[8] = 0xF0; // 15 is not a leading-zero-byte count
        assert!(unpack(&bad).is_err());
        let mut longer = packed.clone();
        longer[4] += 1; // one residual byte more than the codes consume
        longer.push(0);
        assert!(unpack(&longer).is_err());
    }
}
