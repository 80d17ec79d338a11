//! MSB-first bit-granular writer and reader, word-at-a-time.
//!
//! These are the backbone of Gorilla/Chimp control-bit streams, BUFF's
//! padded sub-columns, and the verbatim-bit tails of fpzip/pFPC/GFC — the
//! innermost loops of every XOR-family codec, which is why they are built
//! around a **64-bit accumulator** instead of the byte-granular loop the
//! first implementation used (retained as [`mod@reference`] for differential
//! testing and the `bitstream` microbench):
//!
//! - [`BitWriter`]/[`BitSink`] stage bits in a `u64` whose **top** `nbits`
//!   bits are the pending stream suffix; a field of any width `n <= 64`
//!   lands with one shift+or, and a whole word spills to the byte buffer
//!   with a single big-endian store — one capacity check per *word*
//!   instead of one per *byte*, and no per-bit branching.
//! - [`BitReader`] extracts fields from an unaligned big-endian `u64`
//!   window loaded at the cursor's byte; `read_bits` is a load, two
//!   shifts, and a cursor add — no division or per-byte loop. The
//!   [`BitReader::peek_bits`]/[`BitReader::consume`] pair lets
//!   variable-length control-code dispatch (Gorilla, Chimp) read the
//!   stream once and branch on the result.
//!
//! The wire layout is exactly the MSB-first layout of the reference
//! implementation — every codec payload, and so every FCB3 stream and FCS1
//! reply carrying one, round-trips byte-identically (enforced by the
//! differential proptests in `tests/proptests.rs`).
//!
//! No `unsafe` anywhere: the unaligned loads/stores are
//! `u64::from_be_bytes`/`to_be_bytes` on fixed-size arrays, which compile
//! to single unaligned word accesses on every target we care about.

/// Writes bits MSB-first into a growable byte buffer.
///
/// Invariant: `nbits < 64`, the top `nbits` bits of `acc` are the staged
/// stream suffix, and all lower bits of `acc` are zero.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Staged bits, MSB-aligned.
    acc: u64,
    /// Number of valid bits in `acc` (0..=63).
    nbits: u32,
}

/// Writes bits MSB-first by **appending to a caller-owned byte buffer** —
/// the zero-allocation sibling of [`BitWriter`], used by codecs whose
/// `compress_into` emits straight into a reused output vector. The sink
/// starts byte-aligned after whatever the buffer already holds.
///
/// Staged bits are held in the accumulator until a whole word (or the
/// sink's end of life) spills them, so the final partial word reaches the
/// buffer when the sink is dropped or [`BitSink::finish`]ed — callers
/// reading `buf.len()` must let the sink go first.
#[derive(Debug)]
pub struct BitSink<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
    /// Staged bits, MSB-aligned.
    acc: u64,
    /// Number of valid bits in `acc` (0..=63).
    nbits: u32,
}

/// Append the low `n` bits of `value` to an accumulator/buffer pair.
/// Shared by [`BitWriter`] and [`BitSink`]; the single hot branch is
/// "does the field fit the accumulator's free space".
#[inline]
fn push_bits_acc(buf: &mut Vec<u8>, acc: &mut u64, nbits: &mut u32, value: u64, n: u32) {
    debug_assert!(n <= 64);
    if n == 0 {
        return;
    }
    debug_assert!(n == 64 || value >> n == 0, "value has bits above the field");
    let space = 64 - *nbits; // 1..=64
    if n < space {
        *acc |= value << (space - n);
        *nbits += n;
    } else {
        // The field completes (and possibly overflows) the word: spill.
        let word = *acc | (value >> (n - space));
        buf.extend_from_slice(&word.to_be_bytes());
        let rem = n - space; // 0..=63
        *acc = if rem == 0 { 0 } else { value << (64 - rem) };
        *nbits = rem;
    }
}

/// Append a single bit — the fully-inlined one-branch form of
/// [`push_bits_acc`].
#[inline]
fn push_bit_acc(buf: &mut Vec<u8>, acc: &mut u64, nbits: &mut u32, bit: bool) {
    let space = 64 - *nbits;
    if space > 1 {
        *acc |= (bit as u64) << (space - 1);
        *nbits += 1;
    } else {
        let word = *acc | bit as u64;
        buf.extend_from_slice(&word.to_be_bytes());
        *acc = 0;
        *nbits = 0;
    }
}

/// Zero-pad the staged bits to a byte boundary (bits beyond `nbits` are
/// already zero by invariant, so only the count moves).
#[inline]
fn align_acc(buf: &mut Vec<u8>, acc: &mut u64, nbits: &mut u32) {
    let aligned = (*nbits + 7) & !7;
    if aligned == 64 {
        buf.extend_from_slice(&acc.to_be_bytes());
        *acc = 0;
        *nbits = 0;
    } else {
        *nbits = aligned;
    }
}

/// Spill the staged partial word: `ceil(nbits / 8)` big-endian bytes.
#[inline]
fn flush_acc(buf: &mut Vec<u8>, acc: &mut u64, nbits: &mut u32) {
    let bytes = (*nbits as usize).div_ceil(8);
    buf.extend_from_slice(&acc.to_be_bytes()[..bytes]);
    *acc = 0;
    *nbits = 0;
}

/// Bulk-append whole bytes; the stream must be byte-aligned. For aligned
/// runs inside bit streams (whole-byte header fields, verbatim blobs), so
/// they cost a `memcpy`, not a bit loop.
#[inline]
fn extend_aligned_acc(buf: &mut Vec<u8>, acc: &mut u64, nbits: &mut u32, bytes: &[u8]) {
    assert_eq!(
        *nbits % 8,
        0,
        "extend_aligned requires a byte-aligned stream"
    );
    flush_acc(buf, acc, nbits);
    buf.extend_from_slice(bytes);
}

impl<'a> BitSink<'a> {
    /// Append bits after the current contents of `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        let start = buf.len();
        BitSink {
            buf,
            start,
            acc: 0,
            nbits: 0,
        }
    }

    /// Bits written through this sink so far.
    pub fn bit_len(&self) -> usize {
        (self.buf.len() - self.start) * 8 + self.nbits as usize
    }

    /// Append a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        push_bit_acc(self.buf, &mut self.acc, &mut self.nbits, bit);
    }

    /// Append the low `n` bits of `value`, MSB of that field first. `n <= 64`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, n: u32) {
        push_bits_acc(self.buf, &mut self.acc, &mut self.nbits, value, n);
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        align_acc(self.buf, &mut self.acc, &mut self.nbits);
    }

    /// Bulk-append whole bytes. The sink must be byte-aligned (panics
    /// otherwise — a misaligned bulk copy would silently corrupt the
    /// stream).
    pub fn extend_aligned(&mut self, bytes: &[u8]) {
        extend_aligned_acc(self.buf, &mut self.acc, &mut self.nbits, bytes);
    }

    /// Flush the staged partial word into the buffer and release the
    /// borrow. Equivalent to dropping the sink; spelled out so the flush
    /// point is visible at call sites that read `buf.len()` right after.
    pub fn finish(self) {}
}

impl Drop for BitSink<'_> {
    fn drop(&mut self) {
        flush_acc(self.buf, &mut self.acc, &mut self.nbits);
    }
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter::default()
    }

    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Bytes the finished stream will occupy (final partial byte included).
    pub fn byte_len(&self) -> usize {
        self.bit_len().div_ceil(8)
    }

    /// Append a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        push_bit_acc(&mut self.buf, &mut self.acc, &mut self.nbits, bit);
    }

    /// Append the low `n` bits of `value`, MSB of that field first. `n <= 64`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, n: u32) {
        push_bits_acc(&mut self.buf, &mut self.acc, &mut self.nbits, value, n);
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        align_acc(&mut self.buf, &mut self.acc, &mut self.nbits);
    }

    /// Finish, returning the backing bytes (final partial byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        flush_acc(&mut self.buf, &mut self.acc, &mut self.nbits);
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor; never exceeds `buf.len() * 8`.
    pos: usize,
}

/// Big-endian `u64` at byte offset `byte`, zero-padded past the end of
/// `buf`. In-bounds loads compile to a single unaligned word access.
#[inline]
fn load_be_u64(buf: &[u8], byte: usize) -> u64 {
    match buf.get(byte..).and_then(|t| t.first_chunk::<8>()) {
        Some(w) => u64::from_be_bytes(*w),
        None => {
            let mut tmp = [0u8; 8];
            if byte < buf.len() {
                let tail = &buf[byte..];
                tmp[..tail.len()].copy_from_slice(tail);
            }
            u64::from_be_bytes(tmp)
        }
    }
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        (self.buf.len() * 8).saturating_sub(self.pos)
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The next `n` bits at the cursor, zero-padded past end of stream.
    /// `n` must be 1..=64 (enforced upstream by the public callers).
    #[inline]
    fn extract(&self, n: u32) -> u64 {
        let byte = self.pos >> 3;
        let off = (self.pos & 7) as u32;
        // `w` holds the next `64 - off` stream bits MSB-aligned; its low
        // `off` bits are zero.
        let w = load_be_u64(self.buf, byte) << off;
        let have = 64 - off;
        if n <= have {
            w >> (64 - n)
        } else {
            // Only reachable for n > 57 at an unaligned cursor: the field
            // spills into a ninth byte.
            let extra = n - have; // 1..=7
            let next = u64::from(*self.buf.get(byte + 8).unwrap_or(&0));
            (w >> (64 - n)) | (next >> (8 - extra))
        }
    }

    /// Read one bit; `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.buf.get(self.pos >> 3)?;
        let bit = (byte >> (7 - (self.pos & 7))) & 1;
        self.pos += 1;
        Some(bit == 1)
    }

    /// Read `n` bits (MSB-first) into the low bits of a u64. `n <= 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Some(0);
        }
        if self.remaining() < n as usize {
            return None;
        }
        let out = self.extract(n);
        self.pos += n as usize;
        Some(out)
    }

    /// The next `n` bits without advancing, zero-padded past end of
    /// stream. Pair with [`BitReader::consume`] for control-code dispatch:
    /// peek the widest prefix once, branch, then consume the actual code
    /// width (`consume` still bounds-checks, so truncated streams surface
    /// as errors exactly where a plain `read_bits` would have failed).
    #[inline]
    pub fn peek_bits(&self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        if n == 0 {
            return 0;
        }
        self.extract(n)
    }

    /// Advance the cursor by `n` bits; `None` if fewer remain (cursor
    /// unchanged).
    #[inline]
    pub fn consume(&mut self, n: u32) -> Option<()> {
        if self.remaining() < n as usize {
            return None;
        }
        self.pos += n as usize;
        Some(())
    }

    /// Borrow the next `len` whole bytes and advance past them. The
    /// cursor must be byte-aligned and the bytes present; `None`
    /// otherwise. The aligned dual of [`BitSink::extend_aligned`].
    #[inline]
    pub fn read_aligned_bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        if self.pos % 8 != 0 {
            return None;
        }
        let start = self.pos / 8;
        let s = self.buf.get(start..start + len)?;
        self.pos += len * 8;
        Some(s)
    }

    /// Skip to the next byte boundary, clamped to end of stream (aligning
    /// an exhausted reader must not push the cursor past the buffer, or
    /// `remaining`/`position` would disagree about the stream length).
    pub fn align_byte(&mut self) {
        self.pos = (self.pos.div_ceil(8) * 8).min(self.buf.len() * 8);
    }
}

/// The original byte-granular implementation, verbatim. Kept as the
/// wire-format oracle: the differential proptests in `tests/proptests.rs`
/// prove the accumulator engine above produces and consumes byte-identical
/// streams, and `benches/bitstream.rs` measures the speedup against it.
/// Not for production use.
pub mod reference {
    /// Append one bit to `(buf, used)` state shared by writer/sink.
    #[inline]
    fn push_bit_raw(buf: &mut Vec<u8>, used: &mut u32, bit: bool) {
        if *used == 0 {
            buf.push(0);
            *used = 8;
        }
        *used -= 1;
        if bit {
            if let Some(last) = buf.last_mut() {
                *last |= 1 << *used;
            }
        }
    }

    /// Append the low `n` bits of `value` (MSB of the field first). `n <= 64`.
    #[inline]
    fn push_bits_raw(buf: &mut Vec<u8>, used: &mut u32, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        if n < 64 {
            debug_assert_eq!(value >> n, 0, "value has bits above the field width");
        }
        let mut remaining = n;
        while remaining > 0 {
            if *used == 0 {
                buf.push(0);
                *used = 8;
            }
            let take = remaining.min(*used);
            let shift = remaining - take;
            let chunk = ((value >> shift) & ((1u64 << take) - 1)) as u8;
            if let Some(last) = buf.last_mut() {
                *last |= chunk << (*used - take);
            }
            *used -= take;
            remaining -= take;
        }
    }

    /// Byte-granular MSB-first writer (the pre-rewrite `BitWriter`).
    #[derive(Debug, Default, Clone)]
    pub struct BitWriter {
        buf: Vec<u8>,
        /// Free bits remaining in the final byte (0..=8). 0 = aligned.
        used: u32,
    }

    impl BitWriter {
        pub fn new() -> Self {
            BitWriter::default()
        }

        /// Pre-sized constructor, mirroring the engine's, so benchmarks
        /// comparing the two measure bit I/O rather than `Vec` regrowth.
        pub fn with_capacity(bytes: usize) -> Self {
            BitWriter {
                buf: Vec::with_capacity(bytes),
                used: 0,
            }
        }

        pub fn bit_len(&self) -> usize {
            self.buf.len() * 8 - self.used as usize
        }

        #[inline]
        pub fn push_bit(&mut self, bit: bool) {
            push_bit_raw(&mut self.buf, &mut self.used, bit);
        }

        #[inline]
        pub fn push_bits(&mut self, value: u64, n: u32) {
            push_bits_raw(&mut self.buf, &mut self.used, value, n);
        }

        pub fn align_byte(&mut self) {
            self.used = 0;
        }

        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Byte-granular appending sink (the pre-rewrite `BitSink`).
    #[derive(Debug)]
    pub struct BitSink<'a> {
        buf: &'a mut Vec<u8>,
        start: usize,
        used: u32,
    }

    impl<'a> BitSink<'a> {
        pub fn new(buf: &'a mut Vec<u8>) -> Self {
            let start = buf.len();
            BitSink {
                buf,
                start,
                used: 0,
            }
        }

        pub fn bit_len(&self) -> usize {
            (self.buf.len() - self.start) * 8 - self.used as usize
        }

        #[inline]
        pub fn push_bit(&mut self, bit: bool) {
            push_bit_raw(self.buf, &mut self.used, bit);
        }

        #[inline]
        pub fn push_bits(&mut self, value: u64, n: u32) {
            push_bits_raw(self.buf, &mut self.used, value, n);
        }

        pub fn align_byte(&mut self) {
            self.used = 0;
        }
    }

    /// Byte-granular MSB-first reader (the pre-rewrite `BitReader`).
    #[derive(Debug, Clone)]
    pub struct BitReader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> BitReader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            BitReader { buf, pos: 0 }
        }

        pub fn remaining(&self) -> usize {
            self.buf.len() * 8 - self.pos
        }

        pub fn position(&self) -> usize {
            self.pos
        }

        #[inline]
        pub fn read_bit(&mut self) -> Option<bool> {
            if self.pos >= self.buf.len() * 8 {
                return None;
            }
            let byte = self.buf[self.pos / 8];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            self.pos += 1;
            Some(bit == 1)
        }

        #[inline]
        pub fn read_bits(&mut self, n: u32) -> Option<u64> {
            debug_assert!(n <= 64);
            if n == 0 {
                return Some(0);
            }
            if self.remaining() < n as usize {
                return None;
            }
            let mut out: u64 = 0;
            let mut remaining = n;
            while remaining > 0 {
                let byte = self.buf[self.pos / 8];
                let avail = 8 - (self.pos % 8) as u32;
                let take = remaining.min(avail);
                let shift = avail - take;
                let chunk = ((byte >> shift) as u64) & ((1u64 << take) - 1);
                out = (out << take) | chunk;
                self.pos += take as usize;
                remaining -= take;
            }
            Some(out)
        }

        pub fn align_byte(&mut self) {
            self.pos = self.pos.div_ceil(8) * 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let pattern = [
            true, false, true, true, false, false, true, false, true, true,
        ];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.push_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn multi_bit_fields_round_trip() {
        let fields: [(u64, u32); 7] = [
            (0b101, 3),
            (0xFFFF_FFFF, 32),
            (0, 1),
            (0x1234_5678_9ABC_DEF0, 64),
            (1, 1),
            (0x7F, 7),
            (0b11, 2),
        ];
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.push_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n), Some(v), "field {v:#x}/{n}");
        }
    }

    #[test]
    fn zero_width_fields_are_noops() {
        let mut w = BitWriter::new();
        w.push_bits(0, 0);
        w.push_bits(0b1, 1);
        w.push_bits(0, 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0), Some(0));
        assert_eq!(r.read_bit(), Some(true));
    }

    #[test]
    fn reader_stops_at_end() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0b1010_0000)); // zero padding readable
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn alignment() {
        let mut w = BitWriter::new();
        w.push_bits(0b1, 1);
        w.align_byte();
        w.push_bits(0xAB, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000, 0xAB]);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit(), Some(true));
        r.align_byte();
        assert_eq!(r.read_bits(8), Some(0xAB));
        // align on an already-aligned reader is a no-op
        r.align_byte();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn align_at_eof_is_clamped() {
        // The regression the rewrite fixes: aligning an exhausted reader
        // must leave position() == buf.len() * 8 and remaining() == 0, not
        // push the cursor past the buffer.
        let bytes = [0xFFu8, 0x01];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(16), Some(0xFF01));
        r.align_byte();
        assert_eq!(r.position(), 16);
        assert_eq!(r.remaining(), 0);
        r.align_byte();
        r.align_byte();
        assert_eq!(r.position(), 16);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_bit(), None);

        // Empty buffer: align is a no-op at position 0.
        let mut r = BitReader::new(&[]);
        r.align_byte();
        assert_eq!(r.position(), 0);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bit_len_accounting() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.push_bit(true);
        assert_eq!(w.bit_len(), 1);
        assert_eq!(w.byte_len(), 1);
        w.push_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        assert_eq!(w.byte_len(), 1);
        w.push_bits(0b111, 3);
        assert_eq!(w.bit_len(), 11);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn msb_first_layout_matches_expectation() {
        let mut w = BitWriter::new();
        w.push_bits(0b1, 1); // 1.......
        w.push_bits(0b01, 2); // 101.....
        w.push_bits(0b10110, 5); // 10110110
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1011_0110]);
    }

    #[test]
    fn accumulator_spills_across_word_boundaries() {
        // 63 + 3 bits: the second push straddles the first word spill.
        let mut w = BitWriter::new();
        w.push_bits((1u64 << 63) - 1, 63); // 63 ones
        w.push_bits(0b101, 3);
        let bytes = w.into_bytes();
        assert_eq!(w_bits(&bytes, 0, 63), (1u64 << 63) - 1);
        assert_eq!(w_bits(&bytes, 63, 3), 0b101);
        assert_eq!(bytes.len(), 9); // 66 bits -> 9 bytes

        // Exact word fill then continue.
        let mut w = BitWriter::new();
        w.push_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        w.push_bits(0x5, 4);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..8], &0xDEAD_BEEF_CAFE_F00Du64.to_be_bytes());
        assert_eq!(bytes[8], 0x50);
    }

    /// Read `n` bits at bit offset `pos` from `bytes` (test helper).
    fn w_bits(bytes: &[u8], pos: usize, n: u32) -> u64 {
        let mut r = BitReader::new(bytes);
        r.consume(pos as u32).expect("in range");
        r.read_bits(n).expect("in range")
    }

    #[test]
    fn sink_appends_after_existing_bytes() {
        let mut buf = vec![0x11, 0x22];
        {
            let mut s = BitSink::new(&mut buf);
            assert_eq!(s.bit_len(), 0);
            s.push_bits(0b1, 1);
            s.push_bits(0b01, 2);
            s.push_bits(0b10110, 5);
            s.push_bit(true);
            s.align_byte();
            s.push_bits(0xAB, 8);
            assert_eq!(s.bit_len(), 24);
        }
        assert_eq!(buf, vec![0x11, 0x22, 0b1011_0110, 0b1000_0000, 0xAB]);
    }

    #[test]
    fn sink_finish_flushes_partial_word() {
        let mut buf = Vec::new();
        let s = {
            let mut s = BitSink::new(&mut buf);
            s.push_bits(0b11, 2);
            s
        };
        s.finish();
        assert_eq!(buf, vec![0b1100_0000]);
    }

    #[test]
    fn sink_and_writer_produce_identical_streams() {
        let fields: [(u64, u32); 5] = [
            (0b101, 3),
            (0xFFFF_FFFF, 32),
            (0x1234_5678_9ABC_DEF0, 64),
            (1, 1),
            (0x7F, 7),
        ];
        let mut w = BitWriter::new();
        let mut buf = Vec::new();
        {
            let mut s = BitSink::new(&mut buf);
            for &(v, n) in &fields {
                w.push_bits(v, n);
                s.push_bits(v, n);
            }
        }
        assert_eq!(w.into_bytes(), buf);
    }

    #[test]
    fn position_tracking() {
        let bytes = [0xFF, 0x00];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.position(), 0);
        r.read_bits(5);
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining(), 11);
    }

    #[test]
    fn peek_then_consume_matches_read() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011_0110, 8);
        w.push_bits(0x1234, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(2), 0b10);
        assert_eq!(r.peek_bits(2), 0b10, "peek does not advance");
        r.consume(2).unwrap();
        assert_eq!(r.peek_bits(6), 0b110110);
        assert_eq!(r.read_bits(6), Some(0b110110));
        assert_eq!(r.read_bits(16), Some(0x1234));
        // Past end: peek zero-pads, consume refuses.
        assert_eq!(r.peek_bits(8), 0);
        assert_eq!(r.consume(1), None);
        assert_eq!(r.position(), 24);
    }

    #[test]
    fn peek_zero_pads_partial_tail() {
        let bytes = [0b1010_0000u8];
        let mut r = BitReader::new(&bytes);
        r.consume(3).unwrap();
        // 5 real bits left; peek 8 sees them plus 3 zeros.
        assert_eq!(r.peek_bits(8), 0b0000_0000);
        r.consume(5).unwrap();
        assert_eq!(r.peek_bits(64), 0);
        assert_eq!(r.consume(1), None);
    }

    #[test]
    fn wide_reads_at_every_offset() {
        // 64-bit reads starting at each bit offset 0..8 exercise the
        // ninth-byte path of the window extractor.
        for off in 0..8u32 {
            let mut w = BitWriter::new();
            w.push_bits(0, off);
            w.push_bits(0xA5A5_5A5A_DEAD_BEEF, 64);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(off), Some(0));
            assert_eq!(r.read_bits(64), Some(0xA5A5_5A5A_DEAD_BEEF), "off {off}");
        }
    }

    #[test]
    fn aligned_byte_runs_round_trip() {
        let mut buf = Vec::new();
        {
            let mut s = BitSink::new(&mut buf);
            s.extend_aligned(&[0xDE, 0xAD]);
            s.push_bits(0b101, 3);
            s.align_byte();
            s.extend_aligned(&[0xBE, 0xEF]);
        }
        assert_eq!(buf, vec![0xDE, 0xAD, 0b1010_0000, 0xBE, 0xEF]);

        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_aligned_bytes(2), Some(&[0xDE, 0xAD][..]));
        assert_eq!(r.read_bits(3), Some(0b101));
        // Misaligned bulk read refuses without moving the cursor.
        assert_eq!(r.read_aligned_bytes(1), None);
        assert_eq!(r.position(), 19);
        r.align_byte();
        assert_eq!(r.read_aligned_bytes(2), Some(&[0xBE, 0xEF][..]));
        // Past end refuses.
        assert_eq!(r.read_aligned_bytes(1), None);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "byte-aligned")]
    fn extend_aligned_rejects_misaligned_writer() {
        let mut buf = Vec::new();
        let mut s = BitSink::new(&mut buf);
        s.push_bit(true);
        s.extend_aligned(&[0xFF]);
    }

    #[test]
    fn writer_matches_reference_on_known_fields() {
        let fields: [(u64, u32); 8] = [
            (0, 1),
            (0x7F, 7),
            (0xFFFF_FFFF_FFFF_FFFF, 64),
            (0b1, 1),
            (0x155, 9),
            (0x0, 13),
            (0x1FFF_FFFF, 29),
            (0x3, 2),
        ];
        let mut new_w = BitWriter::new();
        let mut ref_w = reference::BitWriter::new();
        for &(v, n) in &fields {
            new_w.push_bits(v, n);
            ref_w.push_bits(v, n);
        }
        assert_eq!(new_w.into_bytes(), ref_w.into_bytes());
    }
}
