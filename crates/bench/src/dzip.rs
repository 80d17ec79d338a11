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
//! Its unit tests live in the crate-root `tests` module beside the
//! roofline model's, the paths they had as crates of their own.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use fcbench_core::wire::{le_u64, Cursor};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, PrecisionSupport,
    Result,
};
use fcbench_entropy::{RangeDecoder, RangeEncoder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Hidden state width of the GRU reservoir.
pub(crate) const HIDDEN: usize = 16;

/// Total frequency budget of the quantized distribution (< 2^16).
pub(crate) const PROB_TOTAL: u32 = 1 << 14;

/// Learning rate of the readout SGD.
const LEARNING_RATE: f64 = 0.15;

/// The Dzip-style codec.
#[derive(Debug, Clone)]
pub(crate) struct Dzip {
    /// Bootstrap training passes over (a prefix of) the input.
    bootstrap_passes: usize,
    /// Cap on bytes used for bootstrap training (keeps encode time sane).
    bootstrap_budget: usize,
}

impl Dzip {
    pub(crate) fn with_bootstrap(passes: usize, budget: usize) -> Self {
        Dzip {
            bootstrap_passes: passes,
            bootstrap_budget: budget.max(256),
        }
    }
}

/// Fixed random GRU reservoir: maps (byte, h) -> h'. Weights are seeded,
/// never trained, and regenerated identically by the decoder.
pub(crate) struct Reservoir {
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
    pub(crate) fn seeded() -> Self {
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
    pub(crate) fn step(&self, byte: u8, h: &[f64; HIDDEN]) -> [f64; HIDDEN] {
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
        let values = bytes
            .chunks_exact(8)
            .map(|v| le_u64(v, 0).map(f64::from_bits));
        let slots = r.w.iter_mut().flatten().chain(r.b.iter_mut());
        for (slot, v) in slots.zip(values) {
            *slot = v?;
        }
        Ok(r)
    }
}

/// Quantize probabilities into integer frequencies summing ≤ PROB_TOTAL,
/// every symbol ≥ 1 (so any byte stays encodable).
pub(crate) fn quantize(probs: &[f64; 256]) -> ([u32; 256], u32) {
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
        let mut cur = Cursor::new("dzip", payload);
        let wlen = cur.len32("weights length")?;
        let boot = Readout::deserialize(cur.take(wlen, "weights")?)?;
        let dlen = cur.len64("data length")?;
        if dlen != desc.byte_len() {
            return Err(cur.corrupt("length mismatch with descriptor"));
        }
        let stream = cur.rest();

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
            if dec.at_end() {
                Ok(())
            } else {
                Err(Error::Corrupt(
                    "dzip: stream length does not match its symbols".into(),
                ))
            }
        })
    }
}
