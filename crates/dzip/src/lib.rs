//! # fcbench-dzip
//!
//! A Dzip-style neural lossless compressor (Goyal et al., DCC 2021;
//! paper §4.5): a recurrent network estimates the conditional
//! distribution of each input byte, and an arithmetic coder (here the
//! range coder, its byte-oriented formulation) encodes the byte against
//! that distribution.
//!
//! Faithful structure, scaled mechanics (DESIGN.md substitution):
//!
//! - a **bootstrap model** is trained for multiple passes over the input
//!   and shipped with the stream (Dzip stores the bootstrap model);
//! - a **supporter phase** keeps adapting the model symbol by symbol
//!   during encoding, and the decoder replays the identical updates on
//!   the already-decoded prefix, so no supporter weights are stored
//!   (Dzip "retrains a new supporter model ... during decoding");
//! - the recurrent state comes from a fixed, seeded GRU reservoir; only
//!   the softmax readout is trained. All arithmetic is `f64` and
//!   deterministic — a requirement for the decoder to reproduce the
//!   encoder's probabilities bit-for-bit.
//!
//! The paper's finding this reproduces: NN compression is **orders of
//! magnitude slower** than conventional codecs ("its compression speed is
//! about several KB/s. Thus, NN-based compression methods are still not
//! practical", §4.5). The `dzip` experiment in the harness measures that.

#![forbid(unsafe_code)]

use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, PrecisionSupport,
    Result,
};
use fcbench_entropy::{RangeDecoder, RangeEncoder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Hidden state width of the GRU reservoir.
pub const HIDDEN: usize = 16;

/// Total frequency budget of the quantized distribution (< 2^16).
const PROB_TOTAL: u32 = 1 << 14;

/// Learning rate of the readout SGD.
const LEARNING_RATE: f64 = 0.15;

/// The Dzip-style codec.
#[derive(Debug, Clone)]
pub struct Dzip {
    /// Bootstrap training passes over (a prefix of) the input.
    bootstrap_passes: usize,
    /// Cap on bytes used for bootstrap training (keeps encode time sane).
    bootstrap_budget: usize,
}

impl Default for Dzip {
    fn default() -> Self {
        Self::new()
    }
}

impl Dzip {
    pub fn new() -> Self {
        Dzip {
            bootstrap_passes: 2,
            bootstrap_budget: 1 << 16,
        }
    }

    pub fn with_bootstrap(passes: usize, budget: usize) -> Self {
        Dzip {
            bootstrap_passes: passes,
            bootstrap_budget: budget.max(256),
        }
    }
}

/// Fixed random GRU reservoir: maps (byte, h) -> h'. Weights are seeded,
/// never trained, and regenerated identically by the decoder.
struct Reservoir {
    /// Update-gate input weights per byte value: `[256][HIDDEN]`.
    wz: Vec<[f64; HIDDEN]>,
    /// Candidate input weights per byte value.
    wh: Vec<[f64; HIDDEN]>,
    /// Recurrent weights, update gate: `[HIDDEN][HIDDEN]`.
    uz: Vec<[f64; HIDDEN]>,
    /// Recurrent weights, candidate.
    uh: Vec<[f64; HIDDEN]>,
}

impl Reservoir {
    fn seeded() -> Self {
        let mut rng = SmallRng::seed_from_u64(0xD21B_0057);
        let mut mat256 = || {
            (0..256)
                .map(|_| {
                    let mut row = [0.0; HIDDEN];
                    for v in row.iter_mut() {
                        *v = rng.random_range(-0.5..0.5);
                    }
                    row
                })
                .collect::<Vec<_>>()
        };
        let wz = mat256();
        let wh = mat256();
        let mut math = || {
            (0..HIDDEN)
                .map(|_| {
                    let mut row = [0.0; HIDDEN];
                    for v in row.iter_mut() {
                        // Spectral-radius-ish scaling for a stable reservoir.
                        *v = rng.random_range(-0.35..0.35);
                    }
                    row
                })
                .collect::<Vec<_>>()
        };
        let uz = math();
        let uh = math();
        Reservoir { wz, wh, uz, uh }
    }

    /// One GRU step.
    fn step(&self, byte: u8, h: &[f64; HIDDEN]) -> [f64; HIDDEN] {
        let b = byte as usize;
        let mut out = [0.0; HIDDEN];
        for i in 0..HIDDEN {
            let mut z_acc = self.wz[b][i];
            let mut c_acc = self.wh[b][i];
            for (j, &hj) in h.iter().enumerate() {
                z_acc += self.uz[i][j] * hj;
                c_acc += self.uh[i][j] * hj;
            }
            let z = sigmoid(z_acc);
            let cand = c_acc.tanh();
            out[i] = (1.0 - z) * h[i] + z * cand;
        }
        out
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Trainable softmax readout: logits = W·h + b.
#[derive(Clone)]
struct Readout {
    /// `[256][HIDDEN]` weights.
    w: Vec<[f64; HIDDEN]>,
    /// Per-symbol bias (doubles as an adaptive frequency prior).
    b: Vec<f64>,
}

impl Readout {
    fn zeroed() -> Self {
        Readout {
            w: vec![[0.0; HIDDEN]; 256],
            b: vec![0.0; 256],
        }
    }

    /// Softmax probabilities for state `h`.
    fn probs(&self, h: &[f64; HIDDEN]) -> [f64; 256] {
        let mut logits = [0.0f64; 256];
        let mut max = f64::NEG_INFINITY;
        for (s, logit) in logits.iter_mut().enumerate() {
            let mut acc = self.b[s];
            for (j, &hj) in h.iter().enumerate() {
                acc += self.w[s][j] * hj;
            }
            *logit = acc;
            max = max.max(acc);
        }
        let mut sum = 0.0;
        let mut out = [0.0f64; 256];
        for (o, &logit) in out.iter_mut().zip(logits.iter()) {
            let e = (logit - max).exp();
            *o = e;
            sum += e;
        }
        for v in out.iter_mut() {
            *v /= sum;
        }
        out
    }

    /// One SGD step of softmax cross-entropy toward `target`.
    fn train(&mut self, h: &[f64; HIDDEN], probs: &[f64; 256], target: u8) {
        for (s, &p) in probs.iter().enumerate() {
            let grad = p - if s == target as usize { 1.0 } else { 0.0 };
            let step = LEARNING_RATE * grad;
            self.b[s] -= step * 0.1;
            for (w, &hj) in self.w[s].iter_mut().zip(h.iter()) {
                *w -= step * hj;
            }
        }
    }

    /// Serialize weights as little-endian f64 bit patterns (bit-exact).
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 * (HIDDEN + 1) * 8);
        for row in &self.w {
            for v in row {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        for v in &self.b {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn deserialize(bytes: &[u8]) -> Result<Self> {
        let expect = 256 * (HIDDEN + 1) * 8;
        if bytes.len() != expect {
            return Err(Error::Corrupt(format!(
                "dzip: bootstrap weights are {} bytes, expected {expect}",
                bytes.len()
            )));
        }
        let mut r = Readout::zeroed();
        let mut pos = 0;
        let mut next = || {
            let v = f64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
            pos += 8;
            v
        };
        for s in 0..256 {
            for j in 0..HIDDEN {
                r.w[s][j] = next();
            }
        }
        for s in 0..256 {
            r.b[s] = next();
        }
        Ok(r)
    }
}

/// Quantize probabilities into integer frequencies summing ≤ PROB_TOTAL,
/// every symbol ≥ 1 (so any byte stays encodable).
fn quantize(probs: &[f64; 256]) -> ([u32; 256], u32) {
    let mut freqs = [1u32; 256];
    let budget = PROB_TOTAL - 256;
    let mut total = 256u32;
    for s in 0..256 {
        let f = (probs[s] * budget as f64) as u32;
        freqs[s] += f;
        total += f;
    }
    (freqs, total)
}

/// Train a bootstrap readout over (a prefix of) `data`.
fn bootstrap(reservoir: &Reservoir, data: &[u8], passes: usize, budget: usize) -> Readout {
    let mut readout = Readout::zeroed();
    let slice = &data[..data.len().min(budget)];
    for _ in 0..passes {
        let mut h = [0.0; HIDDEN];
        for &byte in slice {
            let probs = readout.probs(&h);
            readout.train(&h, &probs, byte);
            h = reservoir.step(byte, &h);
        }
    }
    readout
}

impl Compressor for Dzip {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "dzip",
            year: 2021,
            community: Community::General,
            class: CodecClass::Prediction,
            platform: fcbench_core::Platform::Gpu,
            parallel: true,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let bytes = data.bytes();
        let reservoir = Reservoir::seeded();
        let boot = bootstrap(
            &reservoir,
            bytes,
            self.bootstrap_passes,
            self.bootstrap_budget,
        );
        let boot_bytes = boot.serialize();

        // Supporter phase: adapt while encoding.
        let mut readout = boot.clone();
        let mut enc = RangeEncoder::new();
        let mut h = [0.0; HIDDEN];
        for &byte in bytes {
            let probs = readout.probs(&h);
            let (freqs, total) = quantize(&probs);
            let cum: u32 = freqs[..byte as usize].iter().sum();
            enc.encode(cum, freqs[byte as usize], total);
            readout.train(&h, &probs, byte);
            h = reservoir.step(byte, &h);
        }
        let stream = enc.finish();

        out.clear();
        out.reserve(boot_bytes.len() + stream.len() + 12);
        out.extend_from_slice(&(boot_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&boot_bytes);
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&stream);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        if payload.len() < 12 {
            return Err(Error::Corrupt("dzip: payload shorter than header".into()));
        }
        let wlen = u32::from_le_bytes(payload[..4].try_into().expect("4")) as usize;
        let wbytes = payload
            .get(4..4 + wlen)
            .ok_or_else(|| Error::Corrupt("dzip: weights truncated".into()))?;
        let boot = Readout::deserialize(wbytes)?;
        let pos = 4 + wlen;
        let dlen = u64::from_le_bytes(
            payload
                .get(pos..pos + 8)
                .ok_or_else(|| Error::Corrupt("dzip: length truncated".into()))?
                .try_into()
                .expect("8"),
        ) as usize;
        if dlen != desc.byte_len() {
            return Err(Error::Corrupt(
                "dzip: length mismatch with descriptor".into(),
            ));
        }
        let stream = &payload[pos + 8..];

        let reservoir = Reservoir::seeded();
        let mut readout = boot;
        let mut dec = RangeDecoder::new(stream);
        let mut h = [0.0; HIDDEN];
        out.refill(desc, |out| {
            out.reserve(dlen);
            for _ in 0..dlen {
                let probs = readout.probs(&h);
                let (freqs, total) = quantize(&probs);
                let target = dec.decode_freq(total);
                // Locate the symbol bucket.
                let mut cum = 0u32;
                let mut sym = 255u8;
                for (s, &f) in freqs.iter().enumerate() {
                    if target < cum + f {
                        sym = s as u8;
                        break;
                    }
                    cum += f;
                }
                dec.decode_update(cum, freqs[sym as usize]);
                readout.train(&h, &probs, sym);
                h = reservoir.step(sym, &h);
                out.push(sym);
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    fn round_trip(vals: &[f64]) -> usize {
        let data = FloatData::from_f64(vals, vec![vals.len()], Domain::TimeSeries).unwrap();
        let d = Dzip::with_bootstrap(1, 4096);
        let c = d.compress(&data).unwrap();
        let back = d.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn small_repetitive_stream_round_trips() {
        let vals: Vec<f64> = (0..400).map(|i| (i % 4) as f64).collect();
        round_trip(&vals);
    }

    #[test]
    fn random_bytes_round_trip() {
        let mut x = 0xBADC0FFEEu64;
        let vals: Vec<f64> = (0..200)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits(x)
            })
            .collect();
        round_trip(&vals);
    }

    #[test]
    fn special_values() {
        round_trip(&[
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
        ]);
    }

    #[test]
    fn model_learns_skewed_streams() {
        // A stream of almost all zeros must beat 1 byte/byte by a margin,
        // even after paying for the shipped bootstrap weights.
        let vals = vec![0.0f64; 2000];
        let n = round_trip(&vals);
        let raw = 2000 * 8;
        let weights = 256 * (HIDDEN + 1) * 8;
        assert!(
            n < weights + raw / 8,
            "skewed stream: {n} bytes vs raw {raw} + weights {weights}"
        );
    }

    #[test]
    fn quantized_distribution_is_valid() {
        let mut probs = [0.0f64; 256];
        probs[7] = 0.9;
        for (i, p) in probs.iter_mut().enumerate() {
            if i != 7 {
                *p = 0.1 / 255.0;
            }
        }
        let (freqs, total) = quantize(&probs);
        assert!(total <= PROB_TOTAL + 256);
        assert!(freqs.iter().all(|&f| f >= 1));
        assert_eq!(freqs.iter().sum::<u32>(), total);
        assert!(freqs[7] > freqs[8] * 100);
    }

    #[test]
    fn corrupt_payload_rejected() {
        let data = FloatData::from_f64(&[1.0, 2.0, 3.0], vec![3], Domain::Hpc).unwrap();
        let d = Dzip::with_bootstrap(1, 4096);
        let c = d.compress(&data).unwrap();
        assert!(d.decompress(&c[..8], data.desc()).is_err());
        let mut bad = c.clone();
        bad[0] ^= 0xFF; // break the weight length
        assert!(d.decompress(&bad, data.desc()).is_err());
    }

    #[test]
    fn reservoir_is_deterministic() {
        let a = Reservoir::seeded();
        let b = Reservoir::seeded();
        let h = [0.1; HIDDEN];
        assert_eq!(a.step(42, &h), b.step(42, &h));
    }

    #[test]
    fn info_marks_prediction_class() {
        let info = Dzip::new().info();
        assert_eq!(info.name, "dzip");
        assert_eq!(info.class, CodecClass::Prediction);
        assert_eq!(info.year, 2021);
    }
}
