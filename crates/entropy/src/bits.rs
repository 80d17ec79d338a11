//! MSB-first bit-granular writer and reader, word-at-a-time.
//!
//! These are the backbone of Gorilla/Chimp control-bit streams, BUFF's
//! padded sub-columns, and the verbatim-bit tails of fpzip/pFPC/GFC — the
//! innermost loops of every XOR-family codec, which is why they are built
//! around a **64-bit accumulator** instead of the byte-granular loop the
//! first implementation used (retained in the bench crate's
//! `reference::bits` for differential testing and the `bitstream`
//! microbench):
//!
//! - [`BitSink`] stages bits in a `u64` whose **top** `nbits`
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
//! bench crate's differential proptests).
//!
//! No `unsafe` anywhere: the unaligned loads/stores are
//! `u64::from_be_bytes`/`to_be_bytes` on fixed-size arrays, which compile
//! to single unaligned word accesses on every target we care about.

/// Writes bits MSB-first by **appending to a caller-owned byte buffer**,
/// so codecs whose `compress_into` emits straight into a reused output
/// vector allocate nothing. The sink starts byte-aligned after whatever
/// the buffer already holds.
///
/// Staged bits are held in the accumulator until a whole word (or the
/// sink's end of life) spills them, so the final partial word reaches the
/// buffer when the sink is dropped or [`BitSink::finish`]ed — callers
/// reading `buf.len()` must let the sink go first.
///
/// Invariant: `nbits < 64`, the top `nbits` bits of `acc` are the staged
/// stream suffix, and all lower bits of `acc` are zero.
#[derive(Debug)]
pub struct BitSink<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
    /// Staged bits, MSB-aligned.
    acc: u64,
    /// Number of valid bits in `acc` (0..=63).
    nbits: u32,
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

    /// Append a single bit — the one-branch form of [`BitSink::push_bits`].
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let space = 64 - self.nbits;
        if space > 1 {
            self.acc |= (bit as u64) << (space - 1);
            self.nbits += 1;
        } else {
            let word = self.acc | bit as u64;
            self.buf.extend_from_slice(&word.to_be_bytes());
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Append the low `n` bits of `value`, MSB of that field first. `n <= 64`.
    /// The single hot branch is "does the field fit the accumulator's free
    /// space".
    #[inline]
    pub fn push_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        debug_assert!(n == 64 || value >> n == 0, "value has bits above the field");
        let space = 64 - self.nbits; // 1..=64
        if n < space {
            self.acc |= value << (space - n);
            self.nbits += n;
        } else {
            // The field completes (and possibly overflows) the word: spill.
            let word = self.acc | (value >> (n - space));
            self.buf.extend_from_slice(&word.to_be_bytes());
            let rem = n - space; // 0..=63
            self.acc = if rem == 0 { 0 } else { value << (64 - rem) };
            self.nbits = rem;
        }
    }

    /// Pad with zero bits to the next byte boundary (bits beyond `nbits`
    /// are already zero by invariant, so only the count moves).
    pub fn align_byte(&mut self) {
        let aligned = (self.nbits + 7) & !7;
        if aligned == 64 {
            self.buf.extend_from_slice(&self.acc.to_be_bytes());
            self.acc = 0;
            self.nbits = 0;
        } else {
            self.nbits = aligned;
        }
    }

    /// Bulk-append whole bytes, for aligned runs inside bit streams
    /// (whole-byte header fields, verbatim blobs), so they cost a
    /// `memcpy`, not a bit loop. The sink must be byte-aligned (panics
    /// otherwise — a misaligned bulk copy would silently corrupt the
    /// stream).
    pub fn extend_aligned(&mut self, bytes: &[u8]) {
        assert_eq!(
            self.nbits % 8,
            0,
            "extend_aligned requires a byte-aligned stream"
        );
        self.flush();
        self.buf.extend_from_slice(bytes);
    }

    /// Spill the staged partial word: `ceil(nbits / 8)` big-endian bytes.
    #[inline]
    fn flush(&mut self) {
        let bytes = (self.nbits as usize).div_ceil(8);
        self.buf.extend_from_slice(&self.acc.to_be_bytes()[..bytes]);
        self.acc = 0;
        self.nbits = 0;
    }

    /// Flush the staged partial word into the buffer and release the
    /// borrow. Equivalent to dropping the sink; spelled out so the flush
    /// point is visible at call sites that read `buf.len()` right after.
    pub fn finish(self) {}
}

impl Drop for BitSink<'_> {
    fn drop(&mut self) {
        self.flush();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let pattern = [
            true, false, true, true, false, false, true, false, true, true,
        ];
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        for &b in &pattern {
            w.push_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len());
        w.finish();
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
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        for &(v, n) in &fields {
            w.push_bits(v, n);
        }
        w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n), Some(v), "field {v:#x}/{n}");
        }
    }

    #[test]
    fn zero_width_fields_are_noops() {
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        w.push_bits(0, 0);
        w.push_bits(0b1, 1);
        w.push_bits(0, 0);
        w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0), Some(0));
        assert_eq!(r.read_bit(), Some(true));
    }

    #[test]
    fn reader_stops_at_end() {
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        w.push_bits(0b101, 3);
        w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0b1010_0000)); // zero padding readable
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn alignment() {
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        w.push_bits(0b1, 1);
        w.align_byte();
        w.push_bits(0xAB, 8);
        w.finish();
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
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        assert_eq!(w.bit_len(), 0);
        w.push_bit(true);
        assert_eq!(w.bit_len(), 1);
        w.push_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.push_bits(0b111, 3);
        assert_eq!(w.bit_len(), 11);
        w.finish();
        assert_eq!(bytes.len(), 2);
    }

    #[test]
    fn msb_first_layout_matches_expectation() {
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        w.push_bits(0b1, 1); // 1.......
        w.push_bits(0b01, 2); // 101.....
        w.push_bits(0b10110, 5); // 10110110
        w.finish();
        assert_eq!(bytes, vec![0b1011_0110]);
    }

    #[test]
    fn accumulator_spills_across_word_boundaries() {
        // 63 + 3 bits: the second push straddles the first word spill.
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        w.push_bits((1u64 << 63) - 1, 63); // 63 ones
        w.push_bits(0b101, 3);
        w.finish();
        assert_eq!(w_bits(&bytes, 0, 63), (1u64 << 63) - 1);
        assert_eq!(w_bits(&bytes, 63, 3), 0b101);
        assert_eq!(bytes.len(), 9); // 66 bits -> 9 bytes

        // Exact word fill then continue.
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        w.push_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        w.push_bits(0x5, 4);
        w.finish();
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
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        w.push_bits(0b1011_0110, 8);
        w.push_bits(0x1234, 16);
        w.finish();
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
            let mut bytes = Vec::new();
            let mut w = BitSink::new(&mut bytes);
            w.push_bits(0, off);
            w.push_bits(0xA5A5_5A5A_DEAD_BEEF, 64);
            w.finish();
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
}
