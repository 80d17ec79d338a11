//! LZ4 block-format codec, implemented from scratch.
//!
//! The block format follows the published LZ4 specification: a stream of
//! sequences, each `token | literal-length ext | literals | 2-byte offset |
//! match-length ext`, with the end-of-block rules (final sequence is
//! literals-only; the last 5 bytes are always literals; no match starts
//! within the last 12 bytes). Compression uses a 4-byte hash table with
//! greedy matching — the same strategy as the reference `LZ4_compress_default`.
//!
//! The table (`MatchTable`) is per thread and is never cleared per call:
//! each slot holds a position's 4-byte word (keyed by the call) beside an
//! epoch tag for the position. The scan compares the current word with the
//! slot's stored word first, and only on a hit checks that the slot is
//! this call's and within the 64 KiB window. Most probes miss on the word,
//! so the miss loop is a load, a compare and a store, with no read back
//! into the input.
//!
//! This is the dictionary backend of `bitshuffle::LZ4` (§3.7) and the
//! payload codec of the simulated `nvCOMP::LZ4` (§4.3).

use std::cell::RefCell;

/// Minimum match length in the LZ4 format.
const MIN_MATCH: usize = 4;
/// No match may start within this many bytes of the end.
const MF_LIMIT: usize = 12;
/// The final literals run must cover at least this many bytes.
const LAST_LITERALS: usize = 5;
/// Maximum back-reference distance (64 KB window).
const MAX_DISTANCE: usize = 65_535;

const HASH_LOG: u32 = 16;

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_LOG)) as usize
}

/// The little-endian 4-byte word at `data[i..]`, if there is one.
#[inline]
fn word_at(data: &[u8], i: usize) -> Option<u32> {
    data.get(i..)
        .and_then(<[u8]>::first_chunk)
        .map(|w| u32::from_le_bytes(*w))
}

/// In-bounds unaligned 8-byte little-endian load (callers guarantee
/// `i + 8 <= data.len()`; a short read yields 0, never a panic).
#[inline]
fn read_u64(data: &[u8], i: usize) -> u64 {
    match data.get(i..).and_then(|t| t.first_chunk::<8>()) {
        Some(w) => u64::from_le_bytes(*w),
        None => 0,
    }
}

/// The match finder's hash table, kept per thread and never cleared per
/// call. Each of its 64 Ki slots is a `u64` of `(key << 32) | tag`. The
/// tag is `base + pos + 1`, where `base` is the table's epoch when the
/// writing call began and `pos` a position in that call's input. Each call
/// advances the epoch by its input length, so every slot an earlier call
/// wrote has a tag at or below the current call's base and reads as empty.
/// The slots are zeroed only when the epoch would wrap `u32`.
///
/// The key is the little-endian 4-byte word at `pos`, XORed with `base`.
/// It lets a probe be decided by the slot it has already loaded: a slot
/// this call wrote at `m` holds the key of the word at `input[m..]`, so
/// comparing keys is the word test without a second, dependent load from
/// a random point of the input. Most probes fail that compare, so it comes
/// first, and only a key hit goes on to the tag and the window. The XOR
/// makes a slot an earlier call wrote for the same word fail the compare
/// too (its base differs) rather than pass it and fail the tag: where
/// blocks repeat each other's words, as `hdr-night`'s bit planes do, such
/// slots met 40 % of the probes. An empty slot (0) fails the tag whatever
/// its key matches.
struct MatchTable {
    slots: Vec<u64>,
    epoch: u32,
}

impl MatchTable {
    /// Claim the epoch range of an `n`-byte call and return its base. The
    /// epoch moves before the scan, so a call that unwinds cannot leave a
    /// slot above the next call's base.
    fn begin(&mut self, n: usize) -> u32 {
        self.slots.resize(1 << HASH_LOG, 0);
        let n = u32::try_from(n).ok();
        if let Some(end) = n.and_then(|n| self.epoch.checked_add(n)) {
            return std::mem::replace(&mut self.epoch, end);
        }
        // Wrap: start over from an empty table. An input past `u32::MAX`
        // bytes stores its positions truncated, so it leaves the epoch at
        // the top and the next call clears again.
        self.slots.fill(0);
        self.epoch = n.unwrap_or(u32::MAX);
        0
    }
}

/// The slot for `word` at `pos`, written by the call whose epoch base is
/// `base`.
#[inline]
fn slot(word: u32, base: u32, pos: usize) -> u64 {
    (u64::from(word ^ base) << 32) | u64::from(base.wrapping_add((pos + 1) as u32))
}

/// Probe the positions from `start` up to `limit`, storing each in its
/// slot, until one's slot holds a match: the key first, and only on a key
/// hit the tag (a slot above `base` was written by this call, at
/// `tag - base - 1`, for the same word) and the window. Returns the
/// position and its match.
///
/// Kept out of line so that the miss loop has the registers to itself
/// (inlined, it spilled the table pointer and `base` around the match
/// extension's counters), and walks `windows(4)` so no word load is
/// bounds-checked.
#[inline(never)]
fn probe(
    input: &[u8],
    slots: &mut [u64; 1 << HASH_LOG],
    base: u32,
    start: usize,
    limit: usize,
) -> Option<(usize, usize)> {
    let words = input.get(start..limit + 3)?.windows(4);
    for (i, bytes) in (start..).zip(words) {
        let Ok(bytes) = <[u8; 4]>::try_from(bytes) else {
            break;
        };
        let word = u32::from_le_bytes(bytes);
        let h = hash4(word);
        let seen = slots[h];
        slots[h] = slot(word, base, i);
        if (seen >> 32) as u32 == word ^ base {
            let tag = seen as u32;
            let m = tag.wrapping_sub(base).wrapping_sub(1) as usize;
            if tag > base && i.wrapping_sub(m) <= MAX_DISTANCE {
                return Some((i, m));
            }
        }
    }
    None
}

thread_local! {
    static LZ4_TABLE: RefCell<MatchTable> = const {
        RefCell::new(MatchTable { slots: Vec::new(), epoch: 0 })
    };
}

/// Compress `input` into LZ4 block format.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(input, &mut out);
    out
}

/// Like [`compress`] but into a caller-owned buffer (contents replaced,
/// capacity reused) — the zero-copy hot path.
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    out.clear();
    out.reserve(n / 2 + 16);
    if n == 0 {
        // A single empty-literals token terminates the block.
        out.push(0);
        return;
    }
    if n < MF_LIMIT + 1 {
        emit_final_literals(out, input);
        return;
    }

    let mut anchor = 0usize; // start of pending literals
    LZ4_TABLE.with_borrow_mut(|table| {
        let base = table.begin(n);
        // `begin` sized the table, so this never falls back to literals.
        let Ok(slots) = <&mut [u64; 1 << HASH_LOG]>::try_from(&mut table.slots[..]) else {
            return;
        };
        let match_limit = n - MF_LIMIT; // last position where a match may start
        let mut i = 0usize;

        while i < match_limit {
            let Some((at, m)) = probe(input, slots, base, i, match_limit) else {
                break;
            };
            i = at;

            // Extend the match forward a u64 word at a time, but never
            // into the last-literals zone.
            let max_len = n - LAST_LITERALS - i;
            let mut len = MIN_MATCH;
            while len + 8 <= max_len {
                let a = read_u64(input, m + len);
                let b = read_u64(input, i + len);
                let x = a ^ b;
                if x != 0 {
                    len += (x.trailing_zeros() >> 3) as usize;
                    break;
                }
                len += 8;
            }
            while len < max_len && input[m + len] == input[i + len] {
                len += 1;
            }

            emit_sequence(out, &input[anchor..i], (i - m) as u16, len);
            i += len;
            anchor = i;

            // Prime the table at the end of the match, as the reference does.
            if i < match_limit {
                let p = i.saturating_sub(2);
                if let Some(w) = word_at(input, p) {
                    slots[hash4(w)] = slot(w, base, p);
                }
            }
        }
    });

    emit_final_literals(out, &input[anchor..]);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    debug_assert!(match_len >= MIN_MATCH);
    debug_assert!(offset >= 1);
    let lit_len = literals.len();
    let ml_code = match_len - MIN_MATCH;

    let token_lit = lit_len.min(15) as u8;
    let token_ml = ml_code.min(15) as u8;
    out.push((token_lit << 4) | token_ml);

    if lit_len >= 15 {
        emit_length(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    if ml_code >= 15 {
        emit_length(out, ml_code - 15);
    }
}

fn emit_final_literals(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_len = literals.len();
    out.push((lit_len.min(15) as u8) << 4);
    if lit_len >= 15 {
        emit_length(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
}

#[inline]
fn emit_length(out: &mut Vec<u8>, mut rest: usize) {
    while rest >= 255 {
        out.push(255);
        rest -= 255;
    }
    out.push(rest as u8);
}

/// Error from [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lz4Error(pub String);

impl std::fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lz4: {}", self.0)
    }
}

impl std::error::Error for Lz4Error {}

/// Decompress an LZ4 block produced by [`compress`].
///
/// `expected_len` is the known decompressed size (the block format does not
/// embed it); output is validated against it.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, Lz4Error> {
    let mut out = Vec::new();
    decompress_into(input, expected_len, &mut out)?;
    Ok(out)
}

/// Like [`decompress`] but into a caller-owned buffer (contents replaced,
/// capacity reused).
pub fn decompress_into(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), Lz4Error> {
    out.clear();
    out.reserve(expected_len);
    let mut pos = 0usize;

    loop {
        let token = *input
            .get(pos)
            .ok_or_else(|| Lz4Error("truncated token".into()))?;
        pos += 1;

        // Literals.
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_length(input, &mut pos)?;
        }
        if pos + lit_len > input.len() {
            return Err(Lz4Error("literals overrun input".into()));
        }
        out.extend_from_slice(&input[pos..pos + lit_len]);
        pos += lit_len;

        if pos == input.len() {
            break; // final literals-only sequence
        }

        // Match.
        if pos + 2 > input.len() {
            return Err(Lz4Error("truncated offset".into()));
        }
        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 {
            return Err(Lz4Error("zero match offset".into()));
        }
        if offset > out.len() {
            return Err(Lz4Error(format!(
                "offset {offset} exceeds output length {}",
                out.len()
            )));
        }

        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_length(input, &mut pos)?;
        }
        match_len += MIN_MATCH;

        // Bulk match copy; offsets < match_len overlap and use doubling
        // self-extension (the copy source grows as the output grows).
        let start = out.len() - offset;
        if offset >= match_len {
            out.extend_from_within(start..start + match_len);
        } else {
            let mut remaining = match_len;
            while remaining > 0 {
                let avail = out.len() - start;
                let take = avail.min(remaining);
                out.extend_from_within(start..start + take);
                remaining -= take;
            }
        }
        if out.len() > expected_len {
            return Err(Lz4Error("output exceeds expected length".into()));
        }
    }

    if out.len() != expected_len {
        return Err(Lz4Error(format!(
            "decompressed {} bytes, expected {expected_len}",
            out.len()
        )));
    }
    Ok(())
}

#[inline]
fn read_length(input: &[u8], pos: &mut usize) -> Result<usize, Lz4Error> {
    let mut total = 0usize;
    loop {
        let b = *input
            .get(*pos)
            .ok_or_else(|| Lz4Error("truncated length extension".into()))?;
        *pos += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data, "round trip failed for {} bytes", data.len());
    }

    /// The matcher as it was before the epoch table: a table zeroed for
    /// every call, `pos + 1` per slot, 0 empty (its word-at-a-time match
    /// extension is written here a byte at a time; the length is the same).
    /// The oracle the shipped matcher must equal byte for byte.
    fn clearing_compress(input: &[u8]) -> Vec<u8> {
        let read_u32 =
            |i: usize| u32::from_le_bytes([input[i], input[i + 1], input[i + 2], input[i + 3]]);
        let n = input.len();
        let mut out = Vec::new();
        if n == 0 {
            out.push(0);
            return out;
        }
        if n < MF_LIMIT + 1 {
            emit_final_literals(&mut out, input);
            return out;
        }
        let mut table = vec![0u32; 1 << HASH_LOG];
        let mut anchor = 0usize;
        let match_limit = n - MF_LIMIT;
        let mut i = 0usize;
        while i < match_limit {
            let h = hash4(read_u32(i));
            let candidate = table[h] as usize;
            table[h] = (i + 1) as u32;
            let matched = candidate != 0
                && i - (candidate - 1) <= MAX_DISTANCE
                && read_u32(candidate - 1) == read_u32(i);
            if !matched {
                i += 1;
                continue;
            }
            let m = candidate - 1;
            let max_len = n - LAST_LITERALS - i;
            let mut len = MIN_MATCH;
            while len < max_len && input[m + len] == input[i + len] {
                len += 1;
            }
            emit_sequence(&mut out, &input[anchor..i], (i - m) as u16, len);
            i += len;
            anchor = i;
            if i < match_limit {
                let h2 = hash4(read_u32(i.saturating_sub(2)));
                table[h2] = (i.saturating_sub(2) + 1) as u32;
            }
        }
        emit_final_literals(&mut out, &input[anchor..]);
        out
    }

    /// Move this thread's epoch up to `epoch` (never down: a slot above
    /// the epoch would read as this call's).
    fn raise_epoch(epoch: u32) {
        LZ4_TABLE.with_borrow_mut(|t| {
            assert!(epoch >= t.epoch);
            t.epoch = epoch;
        });
    }

    /// Give this thread a table as it starts: no slots, epoch 0.
    fn fresh_table() {
        LZ4_TABLE.with_borrow_mut(|t| {
            *t = MatchTable {
                slots: Vec::new(),
                epoch: 0,
            }
        });
    }

    /// Compress on this thread, check the bytes against the oracle and the
    /// invariant that makes them equal: no slot above the epoch.
    fn assert_like_oracle(input: &[u8]) {
        assert_eq!(
            compress(input),
            clearing_compress(input),
            "{} bytes",
            input.len()
        );
        LZ4_TABLE.with_borrow(|t| {
            assert!(
                t.slots.iter().all(|&s| s as u32 <= t.epoch),
                "a slot above the epoch"
            );
        });
    }

    fn noise(n: usize, mut x: u32) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Float-like bytes with runs and repeats, as bit-transposed blocks are.
    fn planes(n: usize, seed: u32) -> Vec<u8> {
        let mut data = noise(n, seed);
        for (i, b) in data.iter_mut().enumerate() {
            if (i / 512) % 3 != 0 {
                *b = (i % 61) as u8;
            }
        }
        data
    }

    #[test]
    fn interleaved_calls_match_the_clearing_matcher() {
        let long = planes(60_000, 3);
        for input in [
            &long[..],
            &planes(700, 5),
            &[],
            &long[..],
            &long[..20_000],
            &noise(5_000, 9),
        ] {
            assert_like_oracle(input);
            round_trip(input);
        }
    }

    #[test]
    fn an_earlier_calls_slots_are_never_taken() {
        // `short` holds the word `w` twice: at 29, inside a match (a
        // position the scan skips), and at 48. The clearing matcher has no
        // slot for `w` at 48 and emits literals; an earlier call that put
        // `w` at 29 must not lend its slot, or 48 would match 29.
        let x = noise(16, 11);
        let y = noise(8, 13);
        let w = [x[13], x[14], x[15], y[0]];
        let mut short = [&x[..], &x, &y, &noise(8, 17), &w].concat();
        short.extend(noise(16, 19));
        assert_eq!(short[29..33], w);
        let mut longer = noise(300, 23);
        longer[29..33].copy_from_slice(&w);
        assert_like_oracle(&longer);
        assert_like_oracle(&short);
    }

    /// The `(position, offset)` of every match in an LZ4 block.
    fn matches(block: &[u8]) -> Vec<(usize, usize)> {
        let mut found = Vec::new();
        let (mut pos, mut at) = (0usize, 0usize);
        let length = |nibble: u8, pos: &mut usize| {
            let mut len = nibble as usize;
            if nibble == 15 {
                len += read_length(block, pos).expect("length");
            }
            len
        };
        loop {
            let token = block[pos];
            pos += 1;
            let lits = length(token >> 4, &mut pos);
            pos += lits;
            at += lits;
            if pos == block.len() {
                return found;
            }
            let offset = u16::from_le_bytes([block[pos], block[pos + 1]]) as usize;
            pos += 2;
            found.push((at, offset));
            at += length(token & 15, &mut pos) + MIN_MATCH;
        }
    }

    #[test]
    fn the_window_ends_at_65535_bytes() {
        // `w` recurs 65 535 bytes after itself and `v` 65 536 bytes after;
        // zero runs fill the gaps, so their slots are not overwritten in
        // between. The first may match and the second may not.
        let (d, w, v) = (65_535, 16, 32);
        let mut input = noise(36, 37);
        input.resize(w + d, 0);
        input.extend_from_within(w..w + 4);
        input.resize(v + d + 1, 0);
        input.extend_from_within(v..v + 4);
        input.extend(noise(32, 41));
        assert!(input.len() > 64 << 10);
        let oracle = clearing_compress(&input);
        let found = matches(&oracle);
        assert!(found.contains(&(w + d, d)), "{found:?}");
        assert!(found.iter().all(|&(at, _)| at != v + d + 1), "{found:?}");
        fresh_table();
        assert_like_oracle(&input);
        // Again over the slots the first call left, all stale now.
        assert_like_oracle(&input);
        round_trip(&input);
    }

    /// An input built from `(kind, scale, len, seed)` segments: a zero run,
    /// a copy of the bytes up to 70 000 back (past the window too) or
    /// noise, each of `1..=2^scale` bytes, cut at 200 000 bytes.
    fn build(segments: &[(u8, u32, u32, u32)]) -> Vec<u8> {
        let mut data: Vec<u8> = Vec::new();
        for &(kind, scale, len, seed) in segments {
            let len = len as usize % (1 << scale) + 1;
            match kind {
                0 => data.resize(data.len() + len, 0),
                1 if !data.is_empty() => {
                    let back = 1 + seed as usize % data.len().min(70_000);
                    for _ in 0..len {
                        data.push(data[data.len() - back]);
                    }
                }
                _ => data.extend(noise(len, seed | 1)),
            }
        }
        data.truncate(200_000);
        data
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// One to four inputs compressed one after another on this thread
        /// equal the clearing matcher's bytes: on the table the earlier
        /// cases left (mode 0), on a fresh one (1), and with the epoch
        /// raised so that input `wrap % len` wraps it (2). With `again`
        /// the last input runs twice, so the second call meets the
        /// first's slots for the same words. A third of the inputs start
        /// with a zero run: on a fresh or just-wrapped table, where the
        /// base is 0, a zero word matches an empty slot's key.
        #[test]
        fn call_sequences_match_the_clearing_matcher(
            inputs in proptest::collection::vec(
                proptest::collection::vec(
                    (0u8..3, 0u32..=17, proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>()),
                    1..12,
                ),
                1..=4,
            ),
            mode in 0u8..3,
            wrap in 0usize..4,
            again in proptest::prelude::any::<bool>(),
        ) {
            let mut inputs: Vec<Vec<u8>> = inputs.iter().map(|s| build(s)).collect();
            if again {
                inputs.extend(inputs.last().cloned());
            }
            if mode > 0 {
                fresh_table();
            }
            for (k, input) in inputs.iter().enumerate() {
                if mode == 2 && k == wrap % inputs.len() {
                    raise_epoch(u32::MAX - input.len() as u32 / 2);
                }
                assert_like_oracle(input);
            }
        }
    }

    #[test]
    fn the_table_clears_when_the_epoch_would_wrap() {
        let long = planes(5_000, 29);
        let short = planes(2_000, 31);
        // Fill the table, then land the next call exactly on u32::MAX, just
        // short of it, and on it already: each sequence crosses the wrap.
        assert_like_oracle(&long);
        for end_gap in [0, 100, 5_000] {
            raise_epoch(u32::MAX - 5_000 + end_gap);
            for input in [&long, &short, &long] {
                assert_like_oracle(input);
            }
        }
    }

    #[test]
    fn no_input_length_overflows_the_epoch() {
        let mut t = MatchTable {
            slots: Vec::new(),
            epoch: 7,
        };
        assert_eq!(t.begin(100), 7);
        assert_eq!(t.epoch, 107);
        // Past `u32::MAX` bytes the table clears and pins the epoch at the
        // top, so the next call clears again.
        t.slots[3] = 99;
        assert_eq!(t.begin(usize::MAX), 0);
        assert_eq!((t.epoch, t.slots[3]), (u32::MAX, 0));
        t.slots[3] = 99;
        assert_eq!(t.begin(13), 0);
        assert_eq!((t.epoch, t.slots[3]), (13, 0));
        assert_eq!(t.begin(u32::MAX as usize - 13), 13);
        assert_eq!(t.epoch, u32::MAX);
    }

    #[test]
    fn empty_input() {
        round_trip(&[]);
    }

    #[test]
    fn tiny_inputs() {
        for n in 1..=16 {
            let data: Vec<u8> = (0..n as u8).collect();
            round_trip(&data);
        }
    }

    #[test]
    fn highly_repetitive_compresses_well() {
        let data = vec![42u8; 10_000];
        let c = compress(&data);
        assert!(
            c.len() < 100,
            "repetitive data should shrink, got {}",
            c.len()
        );
        round_trip(&data);
    }

    #[test]
    fn incompressible_random_survives() {
        // xorshift-generated pseudo-random bytes
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn periodic_pattern() {
        let data: Vec<u8> = (0..20_000).map(|i| (i % 7) as u8).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        round_trip(&data);
    }

    #[test]
    fn overlapping_match_rle_case() {
        // "aaaa..." forces offset-1 overlapping copies.
        let mut data = vec![b'x'];
        data.extend(std::iter::repeat_n(b'a', 1000));
        round_trip(&data);
    }

    #[test]
    fn long_literal_runs_use_length_extensions() {
        // > 15 literals triggers the 255-extension path.
        let mut x = 99u32;
        let data: Vec<u8> = (0..600)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn long_matches_use_length_extensions() {
        let mut data = Vec::new();
        let unit: Vec<u8> = (0..64u8).collect();
        for _ in 0..100 {
            data.extend_from_slice(&unit);
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 8);
        round_trip(&data);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert!(decompress(&[], 10).is_err());
        // token promising literals beyond input
        assert!(decompress(&[0xF0], 100).is_err());
        // match offset of zero
        assert!(decompress(&[0x10, b'a', 0x00, 0x00], 100).is_err());
        // offset pointing before output start
        assert!(decompress(&[0x10, b'a', 0x05, 0x00], 100).is_err());
    }

    #[test]
    fn decompress_length_mismatch_detected() {
        let data = vec![7u8; 100];
        let c = compress(&data);
        assert!(decompress(&c, 99).is_err());
        assert!(decompress(&c, 101).is_err());
    }

    #[test]
    fn float_like_data() {
        // Little-endian f32 of a smooth ramp — typical bitshuffle input.
        let mut data = Vec::new();
        for i in 0..5000 {
            data.extend_from_slice(&(i as f32 * 0.001).to_le_bytes());
        }
        round_trip(&data);
    }
}
