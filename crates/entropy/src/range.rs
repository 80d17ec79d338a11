//! Carry-less range coder (Martin 1979 / Subbotin variant) with adaptive
//! frequency models.
//!
//! fpzip encodes residual sign/leading-zero symbols with "a fast range
//! coding method \[49\]" (§3.1); Dzip drives the same coder with
//! RNN-predicted distributions (§4.5). Range coding is the byte-oriented
//! formulation of arithmetic coding (§2.2(3)).

const TOP: u32 = 1 << 24;
const BOTTOM: u32 = 1 << 16;

/// Maximum allowed total frequency of a model (must stay below `BOTTOM`
/// so the range never underflows).
pub(crate) const MAX_TOTAL_FREQ: u32 = BOTTOM - 1;

/// Streaming range encoder.
pub struct RangeEncoder {
    low: u32,
    range: u32,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    pub fn new() -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            out: Vec::new(),
        }
    }

    /// Encode a symbol occupying `[cum, cum + freq)` of a total of `total`.
    ///
    /// Requires `freq > 0`, `cum + freq <= total`, `total <= MAX_TOTAL_FREQ`.
    #[inline]
    pub fn encode(&mut self, cum: u32, freq: u32, total: u32) {
        debug_assert!(freq > 0);
        debug_assert!(cum.checked_add(freq).is_some_and(|e| e <= total));
        debug_assert!(total <= MAX_TOTAL_FREQ);
        self.range /= total;
        self.low = self.low.wrapping_add(cum.wrapping_mul(self.range));
        self.range = self.range.wrapping_mul(freq);
        self.normalize();
    }

    #[inline]
    fn normalize(&mut self) {
        loop {
            if (self.low ^ self.low.wrapping_add(self.range)) < TOP {
                // Top byte settled.
            } else if self.range < BOTTOM {
                // Underflow: clamp range to the distance to the next
                // BOTTOM boundary (Subbotin's carry-less trick).
                self.range = self.low.wrapping_neg() & (BOTTOM - 1);
            } else {
                break;
            }
            self.out.push((self.low >> 24) as u8);
            self.low = self.low.wrapping_shl(8);
            self.range = self.range.wrapping_shl(8);
        }
    }

    /// Flush the final state and return the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..4 {
            self.out.push((self.low >> 24) as u8);
            self.low = self.low.wrapping_shl(8);
        }
        self.out
    }
}

/// Streaming range decoder over a byte slice.
pub struct RangeDecoder<'a> {
    low: u32,
    range: u32,
    code: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Start decoding. Short inputs are zero-extended (matching the
    /// encoder's flush padding).
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = RangeDecoder {
            low: 0,
            range: u32::MAX,
            code: 0,
            input,
            pos: 0,
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// The cumulative-frequency bucket of the next symbol, in `[0, total)`.
    #[inline]
    pub fn decode_freq(&mut self, total: u32) -> u32 {
        debug_assert!(total <= MAX_TOTAL_FREQ);
        self.range /= total;
        let v = self.code.wrapping_sub(self.low) / self.range;
        v.min(total - 1)
    }

    /// Commit the symbol identified from [`Self::decode_freq`].
    #[inline]
    pub fn decode_update(&mut self, cum: u32, freq: u32) {
        self.low = self.low.wrapping_add(cum.wrapping_mul(self.range));
        self.range = self.range.wrapping_mul(freq);
        loop {
            if (self.low ^ self.low.wrapping_add(self.range)) < TOP {
                // Settled byte.
            } else if self.range < BOTTOM {
                self.range = self.low.wrapping_neg() & (BOTTOM - 1);
            } else {
                break;
            }
            self.code = (self.code << 8) | self.next_byte() as u32;
            self.low = self.low.wrapping_shl(8);
            self.range = self.range.wrapping_shl(8);
        }
    }

    /// Has decoding consumed the input exactly? The decoder shifts in a
    /// byte wherever the encoder shifted one out, so a whole stream ends
    /// with every byte read. A truncated one has read past its end (as
    /// zeros), and one with bytes left over is not the stream encoded.
    pub fn at_end(&self) -> bool {
        self.pos == self.input.len()
    }
}

/// Adaptive frequency model over `n` symbols with periodic halving.
///
/// Frequencies start at 1 (every symbol encodable) and bump by
/// `Self::INCREMENT` per occurrence; when the total would exceed
/// `MAX_TOTAL_FREQ`, all frequencies halve (staying ≥ 1).
#[derive(Debug, Clone)]
pub struct AdaptiveModel {
    freq: Vec<u32>,
    total: u32,
}

impl AdaptiveModel {
    pub(crate) const INCREMENT: u32 = 32;

    pub fn new(n: usize) -> Self {
        assert!(n >= 1 && n as u32 <= MAX_TOTAL_FREQ);
        AdaptiveModel {
            freq: vec![1; n],
            total: n as u32,
        }
    }

    /// `(cum, freq, total)` triple for `symbol`.
    #[inline]
    pub(crate) fn lookup(&self, symbol: usize) -> (u32, u32, u32) {
        let cum: u32 = self.freq[..symbol].iter().sum();
        (cum, self.freq[symbol], self.total)
    }

    /// Find the symbol whose bucket contains `target`; returns
    /// `(symbol, cum, freq, total)`.
    #[inline]
    pub(crate) fn find(&self, target: u32) -> (usize, u32, u32, u32) {
        let mut cum = 0u32;
        for (i, &f) in self.freq.iter().enumerate() {
            if target < cum + f {
                return (i, cum, f, self.total);
            }
            cum += f;
        }
        let last = self.freq.len() - 1;
        (
            last,
            self.total - self.freq[last],
            self.freq[last],
            self.total,
        )
    }

    /// Record one occurrence of `symbol`.
    #[inline]
    pub(crate) fn update(&mut self, symbol: usize) {
        self.freq[symbol] += Self::INCREMENT;
        self.total += Self::INCREMENT;
        if self.total > MAX_TOTAL_FREQ {
            self.total = 0;
            for f in self.freq.iter_mut() {
                *f = (*f).div_ceil(2);
                self.total += *f;
            }
        }
    }

    /// Encode `symbol` through `enc` and adapt.
    #[inline]
    pub fn encode(&mut self, enc: &mut RangeEncoder, symbol: usize) {
        let (cum, freq, total) = self.lookup(symbol);
        enc.encode(cum, freq, total);
        self.update(symbol);
    }

    /// Decode one symbol through `dec` and adapt.
    #[inline]
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> usize {
        let target = dec.decode_freq(self.total);
        let (sym, cum, freq, _) = self.find(target);
        dec.decode_update(cum, freq);
        self.update(sym);
        sym
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_symbols(symbols: &[usize], n: usize) {
        let mut model = AdaptiveModel::new(n);
        let mut enc = RangeEncoder::new();
        for &s in symbols {
            model.encode(&mut enc, s);
        }
        let bytes = enc.finish();

        let mut model = AdaptiveModel::new(n);
        let mut dec = RangeDecoder::new(&bytes);
        for &expected in symbols {
            assert_eq!(model.decode(&mut dec), expected);
        }
    }

    #[test]
    fn empty_stream() {
        round_trip_symbols(&[], 4);
    }

    #[test]
    fn single_symbol_repeated() {
        round_trip_symbols(&[3; 5000], 8);
        // Highly predictable => strong compression.
        let mut model = AdaptiveModel::new(8);
        let mut enc = RangeEncoder::new();
        for _ in 0..5000 {
            model.encode(&mut enc, 3);
        }
        let bytes = enc.finish();
        assert!(bytes.len() < 300, "got {} bytes", bytes.len());
    }

    #[test]
    fn alternating_symbols() {
        let syms: Vec<usize> = (0..2000).map(|i| i % 2).collect();
        round_trip_symbols(&syms, 2);
    }

    #[test]
    fn uniform_random_symbols() {
        let mut x = 42u64;
        let syms: Vec<usize> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as usize % 64
            })
            .collect();
        round_trip_symbols(&syms, 64);
    }

    #[test]
    fn skewed_distribution_compresses_below_uniform() {
        // 90% zeros in a 16-symbol alphabet.
        let mut x = 1u64;
        let syms: Vec<usize> = (0..20_000)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                if (x >> 60) < 14 {
                    0
                } else {
                    ((x >> 33) % 16) as usize
                }
            })
            .collect();
        let mut model = AdaptiveModel::new(16);
        let mut enc = RangeEncoder::new();
        for &s in &syms {
            model.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        // Uniform would need 4 bits/symbol = 10_000 bytes; skew should beat it.
        assert!(bytes.len() < 10_000, "got {} bytes", bytes.len());
        round_trip_symbols(&syms, 16);
    }

    #[test]
    fn large_alphabet() {
        let syms: Vec<usize> = (0..3000).map(|i| (i * 37) % 256).collect();
        round_trip_symbols(&syms, 256);
    }

    #[test]
    fn model_halving_keeps_symbols_encodable() {
        let mut m = AdaptiveModel::new(4);
        // Hammer one symbol until several halvings occur.
        for _ in 0..100_000 {
            m.update(0);
        }
        let (_, f1, total) = m.lookup(1);
        assert!(f1 >= 1, "rare symbol frequency must stay >= 1");
        assert!(total <= MAX_TOTAL_FREQ);
        // And the stream still round-trips.
        round_trip_symbols(&[0, 0, 0, 1, 2, 3, 0, 0], 4);
    }

    #[test]
    fn find_and_lookup_agree() {
        let mut m = AdaptiveModel::new(10);
        for i in 0..10 {
            for _ in 0..i {
                m.update(i);
            }
        }
        for sym in 0..10 {
            let (cum, freq, total) = m.lookup(sym);
            let (s2, c2, f2, t2) = m.find(cum);
            assert_eq!((s2, c2, f2, t2), (sym, cum, freq, total));
            let (s3, ..) = m.find(cum + freq - 1);
            assert_eq!(s3, sym);
        }
    }

    #[test]
    fn explicit_cdf_coding_without_model() {
        // Dzip-style: caller supplies (cum, freq, total) directly.
        let cdf = [(0u32, 10u32), (10, 20), (30, 5), (35, 65)];
        let total = 100u32;
        let seq = [0usize, 1, 3, 3, 2, 0, 1, 1, 3];
        let mut enc = RangeEncoder::new();
        for &s in &seq {
            enc.encode(cdf[s].0, cdf[s].1, total);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        for &s in &seq {
            let t = dec.decode_freq(total);
            let sym = cdf.iter().position(|&(c, f)| t >= c && t < c + f).unwrap();
            assert_eq!(sym, s);
            dec.decode_update(cdf[sym].0, cdf[sym].1);
        }
    }
}
