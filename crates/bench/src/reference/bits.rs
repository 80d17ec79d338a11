//! `fcbench_entropy::bits` before the 64-bit accumulator rewrite, verbatim:
//! the byte-granular MSB-first writer, sink and reader, the wire-format
//! oracle of the accumulator engine.

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

    /// Pre-sized constructor, so benchmarks comparing it with the engine's
    /// sink over a pre-sized `Vec` measure bit I/O rather than `Vec`
    /// regrowth.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut new_bytes = Vec::new();
        let mut new_w = fcbench_entropy::BitSink::new(&mut new_bytes);
        let mut ref_w = BitWriter::new();
        for &(v, n) in &fields {
            new_w.push_bits(v, n);
            ref_w.push_bits(v, n);
        }
        new_w.finish();
        assert_eq!(new_bytes, ref_w.into_bytes());
    }
}
