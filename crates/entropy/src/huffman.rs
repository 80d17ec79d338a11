//! Canonical Huffman coding over byte symbols (§2.2(2) of the paper).
//!
//! Used as the entropy stage of [`crate::zzip`] (the zstd-class codec) and
//! available standalone. Code lengths are limited to `MAX_CODE_LEN` bits
//! by frequency damping; codes are canonical so the table header is just
//! 256 nibble lengths (128 bytes).

use crate::bits::BitReader;

/// Maximum code length in bits.
pub(crate) const MAX_CODE_LEN: u32 = 15;

/// Fixed cost of every encoded stream: the 128-byte nibble-packed length
/// table and the u32 symbol count.
pub(crate) const HEADER_BYTES: usize = 128 + 4;

/// Error type for Huffman decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanError(pub String);

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "huffman: {}", self.0)
    }
}

impl std::error::Error for HuffmanError {}

/// Compute Huffman code lengths for 256 byte symbols, limited to
/// [`MAX_CODE_LEN`]. Symbols with zero frequency get length 0 (no code).
pub(crate) fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    let mut f: Vec<u64> = freqs.to_vec();
    loop {
        let lens = huffman_lengths_unbounded(&f);
        let max = lens.iter().copied().max().unwrap_or(0);
        if u32::from(max) <= MAX_CODE_LEN {
            let mut out = [0u8; 256];
            out.copy_from_slice(&lens);
            return out;
        }
        // Damp frequencies and retry; converges because the distribution
        // flattens toward uniform (max length 8 for 256 symbols).
        for v in f.iter_mut() {
            if *v > 0 {
                *v = (*v).div_ceil(2);
            }
        }
    }
}

/// Plain Huffman algorithm (two-queue over sorted leaves) with no limit.
fn huffman_lengths_unbounded(freqs: &[u64]) -> Vec<u8> {
    let n = freqs.len();
    let mut lens = vec![0u8; n];
    let active: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match active.len() {
        0 => return lens,
        1 => {
            // A single symbol still needs 1 bit on the wire.
            lens[active[0]] = 1;
            return lens;
        }
        _ => {}
    }

    // Node arena: leaves then internals; track parents to assign depths.
    #[derive(Clone, Copy)]
    struct Node {
        freq: u64,
        parent: usize,
    }
    const NO_PARENT: usize = usize::MAX;
    let mut nodes: Vec<Node> = active
        .iter()
        .map(|&i| Node {
            freq: freqs[i],
            parent: NO_PARENT,
        })
        .collect();

    // Min-heap of (freq, node index); tie-break on index for determinism.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = nodes
        .iter()
        .enumerate()
        .map(|(i, nd)| Reverse((nd.freq, i)))
        .collect();

    while heap.len() > 1 {
        let (Some(Reverse((fa, a))), Some(Reverse((fb, b)))) = (heap.pop(), heap.pop()) else {
            break;
        };
        let parent = nodes.len();
        nodes.push(Node {
            freq: fa + fb,
            parent: NO_PARENT,
        });
        nodes[a].parent = parent;
        nodes[b].parent = parent;
        heap.push(Reverse((fa + fb, parent)));
    }

    // Depth of each leaf = number of parent hops to the root.
    for (k, &sym) in active.iter().enumerate() {
        let mut depth = 0u8;
        let mut cur = k;
        while nodes[cur].parent != NO_PARENT {
            cur = nodes[cur].parent;
            depth += 1;
        }
        lens[sym] = depth.max(1);
    }
    lens
}

/// Canonical codes from code lengths: `(code, len)` per symbol.
pub(crate) fn canonical_codes(lens: &[u8; 256]) -> [(u16, u8); 256] {
    let mut count = [0u16; (MAX_CODE_LEN + 1) as usize];
    for &l in lens.iter() {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = [0u16; (MAX_CODE_LEN + 2) as usize];
    let mut code = 0u16;
    for bits in 1..=MAX_CODE_LEN as usize {
        code = (code + count[bits - 1]) << 1;
        next[bits] = code;
    }
    let mut out = [(0u16, 0u8); 256];
    for sym in 0..256 {
        let l = lens[sym];
        if l > 0 {
            out[sym] = (next[l as usize], l);
            next[l as usize] += 1;
        }
    }
    out
}

/// Encode `data`: 128-byte nibble-packed length table, u32 symbol count,
/// then the canonical-Huffman bitstream.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(data, &mut out);
    out
}

/// Exact length of [`encode`]`(data)` without materializing the stream:
/// the 132-byte header plus the code-length-weighted histogram, rounded
/// up to whole bytes. Lets callers evaluating several candidate encodings
/// (zzip mode selection) price a Huffman mode from one histogram pass.
pub fn encoded_len(data: &[u8]) -> usize {
    let mut freqs = [0u64; 256];
    histogram(data, &mut freqs);
    let lens = code_lengths(&freqs);
    let bits: u64 = freqs
        .iter()
        .zip(lens.iter())
        .map(|(&f, &l)| f * u64::from(l))
        .sum();
    HEADER_BYTES + (bits as usize).div_ceil(8)
}

/// Four-lane byte histogram: independent counters break the
/// store-to-load dependency chain of a single table.
fn histogram(data: &[u8], freqs: &mut [u64; 256]) {
    let mut lanes = [[0u64; 256]; 4];
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        lanes[0][c[0] as usize] += 1;
        lanes[1][c[1] as usize] += 1;
        lanes[2][c[2] as usize] += 1;
        lanes[3][c[3] as usize] += 1;
    }
    for &b in chunks.remainder() {
        lanes[0][b as usize] += 1;
    }
    for (i, f) in freqs.iter_mut().enumerate() {
        *f = lanes[0][i] + lanes[1][i] + lanes[2][i] + lanes[3][i];
    }
}

/// Like [`encode`] but into a caller-owned buffer (contents replaced,
/// capacity reused) — no intermediate bitstream copy.
///
/// The hot loops are batched: the histogram counts into four lanes to
/// break the store-to-load dependency chain, and the emitter fuses four
/// symbols (≤ 60 bits at `MAX_CODE_LEN` 15) into one accumulator push.
/// Concatenating MSB-first codes in an accumulator is bit-exact with
/// pushing them one by one, so the stream is unchanged.
pub fn encode_into(data: &[u8], out: &mut Vec<u8>) {
    let mut freqs = [0u64; 256];
    histogram(data, &mut freqs);
    let lens = code_lengths(&freqs);
    let codes = canonical_codes(&lens);

    out.clear();
    out.reserve(HEADER_BYTES + data.len() / 2);
    for pair in lens.chunks(2) {
        out.push((pair[0] << 4) | (pair[1] & 0x0F));
    }
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    let mut w = crate::bits::BitSink::new(out);
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let (c0, l0) = codes[c[0] as usize];
        let (c1, l1) = codes[c[1] as usize];
        let (c2, l2) = codes[c[2] as usize];
        let (c3, l3) = codes[c[3] as usize];
        let mut acc = c0 as u64;
        acc = (acc << l1) | c1 as u64;
        acc = (acc << l2) | c2 as u64;
        acc = (acc << l3) | c3 as u64;
        w.push_bits(acc, (l0 + l1 + l2 + l3) as u32);
    }
    for &b in chunks.remainder() {
        let (code, len) = codes[b as usize];
        w.push_bits(code as u64, len as u32);
    }
    w.finish();
}

/// Bits the primary decode table is indexed by: a code this long or
/// shorter resolves with one lookup. A longer code — each is rarer than one
/// symbol in 2^11 — takes the canonical range check over the lengths past it.
const LOOKUP_BITS: u32 = 11;

/// Per-length arrays, indexed by code length (slot 0 unused).
const LENS: usize = MAX_CODE_LEN as usize + 1;

/// The decode tables of one length header.
struct DecodeTable {
    /// Per `LOOKUP_BITS`-bit window, `[used, sym, sym2, len]`: `sym` is the
    /// shortest code that is a prefix of the window and `len` its length (0
    /// where no code that short is); `sym2` is the code after it when that
    /// one ends inside the window too. `used` is the bits both take, or
    /// `len` alone, so the decoder shifts by the entry's first byte.
    primary: [[u8; 4]; 1 << LOOKUP_BITS],
    /// First canonical code of each length.
    first_code: [u32; LENS],
    /// Number of codes of each length.
    count: [u32; LENS],
    /// Index into `symbols` of each length's first code.
    first_index: [u32; LENS],
    /// Symbols in canonical order: by length, then by value.
    symbols: [u8; 256],
}

impl DecodeTable {
    /// The tables for `lens` (nibbles). Hostile headers decode exactly as a
    /// bit-at-a-time walk of the canonical code does: a window takes the
    /// *shortest* code that is a prefix of it, and a code value too large
    /// for its length (an oversubscribed header) never matches.
    fn new(lens: &[u8; 256]) -> Self {
        let mut count = [0u32; LENS];
        for &l in lens.iter().filter(|&&l| l > 0) {
            count[usize::from(l)] += 1;
        }
        let (mut first_code, mut first_index) = ([0u32; LENS], [0u32; LENS]);
        let (mut code, mut index) = (0u32, 0u32);
        for len in 1..LENS {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len];
            index += count[len];
        }
        let mut table = DecodeTable {
            primary: [[0; 4]; 1 << LOOKUP_BITS],
            first_code,
            count,
            first_index,
            symbols: [0; 256],
        };
        let mut next = first_index;
        for (sym, &len) in lens.iter().enumerate().filter(|(_, &l)| l > 0) {
            let at = next[usize::from(len)];
            next[usize::from(len)] += 1;
            table.symbols[at as usize] = sym as u8;
            let code = first_code[usize::from(len)] + (at - first_index[usize::from(len)]);
            let bits = u32::from(len);
            if bits <= LOOKUP_BITS && code >> bits == 0 {
                let shift = LOOKUP_BITS - bits;
                let span = (code << shift) as usize..((code + 1) << shift) as usize;
                for slot in &mut table.primary[span] {
                    if slot[3] == 0 || slot[3] > len {
                        *slot = [len, sym as u8, 0, len];
                    }
                }
            }
        }
        // Pair each entry with the code after it where the window holds both.
        let mask = (1 << LOOKUP_BITS) - 1;
        for window in 0..1 << LOOKUP_BITS {
            let len = table.primary[window][3];
            if len == 0 {
                continue;
            }
            let [_, sym2, _, len2] = table.primary[(window << len) & mask];
            if len2 > 0 && u32::from(len + len2) <= LOOKUP_BITS {
                table.primary[window][0] = len + len2;
                table.primary[window][2] = sym2;
            }
        }
        table
    }

    /// `(symbol, length)` of the shortest code that is a prefix of
    /// `window`, the next [`MAX_CODE_LEN`] bits.
    #[inline]
    fn symbol(&self, window: u32) -> Option<(u8, u32)> {
        match self.primary[(window >> (MAX_CODE_LEN - LOOKUP_BITS)) as usize] {
            [.., 0] => self.long_code(window),
            [_, sym, _, len] => Some((sym, u32::from(len))),
        }
    }

    /// [`DecodeTable::symbol`] for a code longer than `LOOKUP_BITS`.
    fn long_code(&self, window: u32) -> Option<(u8, u32)> {
        (LOOKUP_BITS + 1..=MAX_CODE_LEN).find_map(|len| {
            let l = len as usize;
            let k = (window >> (MAX_CODE_LEN - len)).checked_sub(self.first_code[l])?;
            if k < self.count[l] {
                Some((self.symbols[(self.first_index[l] + k) as usize], len))
            } else {
                None
            }
        })
    }
}

fn exhausted() -> HuffmanError {
    HuffmanError("bitstream exhausted".into())
}

/// No code is a prefix of the next bits, `remaining` of which are left. A
/// bit-at-a-time walk reads one bit past [`MAX_CODE_LEN`] before it gives
/// up, so with more bits than that left the code is overlong, and otherwise
/// the stream runs out first.
fn unmatched(remaining: usize) -> HuffmanError {
    if remaining > MAX_CODE_LEN as usize {
        HuffmanError("code longer than maximum".into())
    } else {
        exhausted()
    }
}

/// Every code is at least one bit, so `stream_bytes` carry at most
/// `8 * stream_bytes` symbols. A larger wire count is the "bitstream
/// exhausted" decoding would reach anyway, reported before the count sizes
/// anything.
fn plausible_count(count: usize, stream_bytes: usize) -> Result<usize, HuffmanError> {
    if count > stream_bytes.saturating_mul(8) {
        return Err(exhausted());
    }
    Ok(count)
}

/// Decode a stream produced by [`encode`].
///
/// The top `LOOKUP_BITS` of the next bits index the primary table, which
/// yields one symbol — two where both codes fit the window — and only a
/// longer code takes the range check. The bits come from a 64-bit
/// accumulator refilled by one 8-byte load per three lookups; the last few
/// bytes go through a checked reader. Every input — valid, truncated or
/// hostile — gives the bytes, or the error, that walking the canonical code
/// bit by bit gives.
pub fn decode(input: &[u8]) -> Result<Vec<u8>, HuffmanError> {
    if input.len() < 132 {
        return Err(HuffmanError("stream shorter than header".into()));
    }
    let mut lens = [0u8; 256];
    for i in 0..128 {
        lens[2 * i] = input[i] >> 4;
        lens[2 * i + 1] = input[i] & 0x0F;
    }
    let count = u32::from_le_bytes([input[128], input[129], input[130], input[131]]) as usize;
    if lens.iter().all(|&l| l == 0) {
        if count == 0 {
            return Ok(Vec::new());
        }
        return Err(HuffmanError("no codes but nonzero symbol count".into()));
    }
    let bits = &input[132..];
    let count = plausible_count(count, bits.len())?;
    let table = DecodeTable::new(&lens);

    let mut out = vec![0u8; count];
    // `acc` holds the stream's bits from the first unconsumed one on,
    // MSB-aligned, `nbits` of them counted; `pos` is the first byte not in
    // it. A refill leaves 56..=63 bits: room for three lookups unchecked,
    // and `n + 6 <= count` room for their symbols. A lookup always stores
    // two bytes and counts the second only where the entry holds one.
    let (mut acc, mut nbits, mut pos, mut n) = (0u64, 0u32, 0usize, 0usize);
    while n + 6 <= count {
        let Some(word) = bits.get(pos..).and_then(|rest| rest.first_chunk::<8>()) else {
            break;
        };
        acc |= u64::from_be_bytes(*word) >> nbits;
        let take = (63 - nbits) / 8;
        pos += take as usize;
        nbits += 8 * take;
        for _ in 0..3 {
            let [used, sym, sym2, len] = table.primary[(acc >> (64 - LOOKUP_BITS)) as usize];
            let used = if used > 0 {
                out[n..n + 2].copy_from_slice(&[sym, sym2]);
                n += 1 + usize::from(used > len);
                u32::from(used)
            } else {
                let remaining = 8 * (bits.len() - pos) + nbits as usize;
                let window = (acc >> (64 - MAX_CODE_LEN)) as u32;
                let (sym, len) = table
                    .long_code(window)
                    .ok_or_else(|| unmatched(remaining))?;
                out[n] = sym;
                n += 1;
                len
            };
            acc <<= used;
            nbits -= used;
        }
    }
    // The last few symbols, or fewer than 8 bytes left: one bounds-checked
    // code at a time.
    let consumed = 8 * pos - nbits as usize;
    let mut r = BitReader::new(&bits[consumed / 8..]);
    r.consume((consumed % 8) as u32).ok_or_else(exhausted)?;
    for slot in &mut out[n..] {
        let window = r.peek_bits(MAX_CODE_LEN) as u32;
        let (sym, len) = table
            .symbol(window)
            .ok_or_else(|| unmatched(r.remaining()))?;
        r.consume(len).ok_or_else(exhausted)?;
        *slot = sym;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decoder the lookup table replaced: one bit per step, checked
    /// against each length's canonical code range (its only change is not
    /// reserving for the wire count). The oracle of the differential tests.
    fn decode_walk(input: &[u8]) -> Result<Vec<u8>, HuffmanError> {
        if input.len() < 132 {
            return Err(HuffmanError("stream shorter than header".into()));
        }
        let mut lens = [0u8; 256];
        for i in 0..128 {
            lens[2 * i] = input[i] >> 4;
            lens[2 * i + 1] = input[i] & 0x0F;
        }
        let count = u32::from_le_bytes([input[128], input[129], input[130], input[131]]) as usize;
        let mut bl_count = [0u32; LENS];
        for &l in lens.iter() {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let total_syms: u32 = bl_count.iter().sum();
        if total_syms == 0 {
            if count == 0 {
                return Ok(Vec::new());
            }
            return Err(HuffmanError("no codes but nonzero symbol count".into()));
        }
        let mut first_code = [0u32; LENS];
        let mut first_sym_idx = [0u32; LENS];
        let mut code = 0u32;
        let mut idx = 0u32;
        for bits in 1..=MAX_CODE_LEN as usize {
            code <<= 1;
            first_code[bits] = code;
            first_sym_idx[bits] = idx;
            code += bl_count[bits];
            idx += bl_count[bits];
        }
        let mut sym_by_idx = Vec::new();
        for bits in 1..=MAX_CODE_LEN {
            for (sym, &l) in lens.iter().enumerate() {
                if u32::from(l) == bits {
                    sym_by_idx.push(sym as u8);
                }
            }
        }
        let mut r = BitReader::new(&input[132..]);
        let mut out = Vec::new();
        for _ in 0..count {
            let mut code = 0u32;
            let mut len = 0usize;
            loop {
                let bit = r.read_bit().ok_or_else(exhausted)?;
                code = (code << 1) | bit as u32;
                len += 1;
                if len > MAX_CODE_LEN as usize {
                    return Err(HuffmanError("code longer than maximum".into()));
                }
                let n_at_len = bl_count[len];
                if n_at_len > 0 && code >= first_code[len] && code < first_code[len] + n_at_len {
                    out.push(sym_by_idx[(first_sym_idx[len] + (code - first_code[len])) as usize]);
                    break;
                }
            }
        }
        Ok(out)
    }

    /// The table and the walk give the same bytes, or both an error.
    fn assert_agrees(stream: &[u8]) {
        match (decode(stream), decode_walk(stream)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{} byte stream", stream.len()),
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "table {a:?} vs walk {b:?} on a {} byte stream",
                stream.len()
            ),
        }
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// A stream with a hand-made header: nibble `lens`, `count`, `bits`.
    fn stream(lens: &[u8; 256], count: u32, bits: &[u8]) -> Vec<u8> {
        let mut s: Vec<u8> = lens
            .chunks(2)
            .map(|p| (p[0] << 4) | (p[1] & 0x0F))
            .collect();
        s.extend_from_slice(&count.to_le_bytes());
        s.extend_from_slice(bits);
        s
    }

    #[test]
    fn table_decode_matches_the_walk_on_encoded_data_and_every_truncation() {
        let mut x = 0x1234_5678_9ABC_DEF0;
        // Geometric symbol frequencies (long codes) and uniform bytes.
        let skewed: Vec<u8> = (0..800)
            .map(|_| xorshift(&mut x).leading_zeros() as u8)
            .collect();
        let uniform: Vec<u8> = (0..800).map(|_| xorshift(&mut x) as u8).collect();
        for data in [&skewed[..], &uniform, b"abracadabra", b"z", b""] {
            let enc = encode(data);
            assert_eq!(decode(&enc).unwrap(), data);
            for cut in 0..enc.len() {
                assert_agrees(&enc[..cut]);
            }
        }
        // A complete code of every length 1..=15 (symbol k has length k + 1,
        // the last two share 15), so most symbols take the long-code path.
        let mut lens = [0u8; 256];
        for (slot, len) in lens.iter_mut().zip((1..=15).chain([15])) {
            *slot = len;
        }
        let codes = canonical_codes(&lens);
        let deep: Vec<u8> = (0..600).map(|_| (xorshift(&mut x) % 16) as u8).collect();
        let mut w = crate::bits::BitWriter::new();
        for &sym in &deep {
            let (code, len) = codes[usize::from(sym)];
            w.push_bits(u64::from(code), u32::from(len));
        }
        let enc = stream(&lens, deep.len() as u32, &w.into_bytes());
        assert_eq!(decode(&enc).unwrap(), deep);
        for cut in 0..enc.len() {
            assert_agrees(&enc[..cut]);
        }
    }

    #[test]
    fn table_decode_matches_the_walk_on_hostile_headers() {
        let mut x = 0xDEAD_BEEF_u64;
        let with = |codes: &[(usize, u8)]| {
            let mut lens = [0u8; 256];
            for &(sym, len) in codes {
                lens[sym] = len;
            }
            lens
        };
        let mut headers = vec![
            [1u8; 256],                                       // oversubscribed: 256 one-bit codes
            with(&[(0, 1), (1, 1), (2, 2), (3, 12), (4, 3)]), // oversubscribed, long code
            with(&[(7, 3), (9, 13), (200, 15)]),              // incomplete
            with(&[(42, 1)]),                                 // one symbol
            with(&[(42, 15)]),                                // one symbol, longest code
            [0u8; 256],                                       // no codes
        ];
        for _ in 0..64 {
            headers.push(std::array::from_fn(|_| {
                let r = xorshift(&mut x);
                if r % 3 == 0 {
                    0
                } else {
                    (r >> 8) as u8 & 0x0F
                }
            }));
        }
        for lens in &headers {
            for count in [0, 1, 7, 100, 1000, u32::MAX] {
                for nbytes in [0, 1, 2, 5, 40, 300] {
                    let bits: Vec<u8> = (0..nbytes).map(|_| xorshift(&mut x) as u8).collect();
                    assert_agrees(&stream(lens, count, &bits));
                }
            }
        }
    }

    #[test]
    fn symbol_count_is_held_to_the_bitstream() {
        let mut s = encode(b"abracadabra");
        let bits = s.len() - 132;
        s[128..132].copy_from_slice(&(8 * bits as u32 + 1).to_le_bytes());
        assert_eq!(decode(&s), Err(exhausted()));
        s[128..132].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&s), Err(exhausted()));
    }

    fn round_trip(data: &[u8]) {
        let enc = encode(data);
        let dec = decode(&enc).expect("decode");
        assert_eq!(dec, data);
    }

    #[test]
    fn empty_round_trip() {
        round_trip(&[]);
    }

    #[test]
    fn single_symbol_stream() {
        round_trip(&[b'z'; 1000]);
        // Entropy ~0, so output should be near the 132-byte header.
        let enc = encode(&[b'z'; 1000]);
        assert!(enc.len() < 132 + 150);
    }

    #[test]
    fn two_symbol_skew() {
        let mut data = vec![0u8; 10_000];
        for i in (0..10_000).step_by(100) {
            data[i] = 1;
        }
        let enc = encode(&data);
        // ~0.08 bits/symbol entropy => far below 1 byte/symbol.
        assert!(enc.len() < 132 + 10_000 / 4);
        round_trip(&data);
    }

    #[test]
    fn all_bytes_uniform() {
        let data: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        round_trip(&data);
        // Uniform bytes cannot compress below 8 bits/symbol.
        let enc = encode(&data);
        assert!(enc.len() >= 8192);
    }

    #[test]
    fn random_data_round_trip() {
        let mut x = 0xDEADBEEFu32;
        let data: Vec<u8> = (0..30_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 16) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn text_like_data_compresses() {
        let text = b"the quick brown fox jumps over the lazy dog ".repeat(200);
        let enc = encode(&text);
        assert!(enc.len() < text.len() * 3 / 4);
        round_trip(&text);
    }

    #[test]
    fn code_lengths_respect_limit_under_pathological_skew() {
        // Fibonacci-like frequencies make plain Huffman arbitrarily deep.
        let mut freqs = [0u64; 256];
        let mut a = 1u64;
        let mut b = 1u64;
        for slot in freqs.iter_mut().take(40) {
            *slot = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| u32::from(l) <= MAX_CODE_LEN));
        // Codes must form a valid prefix set (Kraft sum <= 1).
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "Kraft sum {kraft} exceeds 1");
    }

    #[test]
    fn kraft_inequality_on_random_frequencies() {
        let mut x = 7u64;
        let mut freqs = [0u64; 256];
        for slot in freqs.iter_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *slot = x % 1000;
        }
        let lens = code_lengths(&freqs);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9);
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = encode(b"hello world hello world");
        assert!(decode(&enc[..50]).is_err());
        let mut bad = enc.clone();
        bad.truncate(enc.len() - 1);
        // Removing bitstream bytes must fail (count can no longer be met)...
        // unless padding made the last byte redundant; accept either failure
        // or correct output, but never a wrong success.
        if let Ok(out) = decode(&bad) {
            assert_eq!(out, b"hello world hello world");
        }
    }

    #[test]
    fn decode_rejects_empty() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0u8; 131]).is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freqs = [1u64; 256];
        freqs[0] = 1000;
        freqs[17] = 500;
        let lens = code_lengths(&freqs);
        let codes = canonical_codes(&lens);
        for (i, &(ci, li)) in codes.iter().enumerate() {
            for (j, &(cj, lj)) in codes.iter().enumerate() {
                if i == j || li == 0 || lj == 0 || li > lj {
                    continue;
                }
                // ci (shorter or equal) must not be a prefix of cj
                let shifted = cj >> (lj - li);
                assert!(
                    !(li < lj && shifted == ci),
                    "code {i} ({ci:b}/{li}) is a prefix of {j} ({cj:b}/{lj})"
                );
            }
        }
    }
}
