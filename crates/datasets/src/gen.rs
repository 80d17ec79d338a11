//! Synthetic generators for the 33 FCBench datasets.
//!
//! Each generator reproduces the *statistical structure* its compressors
//! exploit (DESIGN.md documents the substitution): domain-typical spatial
//! or temporal correlation, the Table 3 value-entropy target (capped by
//! the scaled element count), and — critically for BUFF — whether values
//! are exactly representable at a bounded decimal precision. Table 4
//! shows BUFF succeeding on every dataset except `hurricane`, so all
//! generators except hurricane's quantize to a per-dataset decimal step.
//!
//! Generation is deterministic: the RNG is seeded from the dataset name,
//! and every family draws from it in one fixed order. The per-element math
//! that follows the draws fans out across cores (`Store::draw_then_map`),
//! so the bytes do not depend on the thread count.

use crate::catalog::{DatasetSpec, Family};
use fcbench_core::wire::fan_out;
use fcbench_core::{DataDesc, FloatData, Precision};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How raw values are discretized.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Quant {
    /// Round to `d` decimal digits: values are exactly representable at a
    /// bounded decimal precision (BUFF succeeds with small fields).
    Decimal(u32),
    /// Snap to an arbitrary float grid of `levels` steps across the range:
    /// controls distinct-value entropy *without* decimal exactness. On
    /// fp32 data BUFF still succeeds — any moderate f32 round-trips
    /// through 10 decimals within f32 precision — but only at its maximal
    /// 35-bit budget, reproducing the paper's ≤ 1.0 BUFF cells on
    /// observation/science fp32 data.
    Grid(u64),
    /// Snap to `levels` steps whose step size is itself a `d`-decimal
    /// value: low cardinality (entropy) *and* bounded decimal precision
    /// (BUFF field width) are controlled independently — e.g. gas-price's
    /// 400 distinct values that still need 5-6 decimal digits.
    DecimalGrid(u32, u64),
    /// No discretization (only `hurricane`, whose NaN fill breaks BUFF).
    None,
}

/// Per-dataset value model: discretization and value range.
#[derive(Debug, Clone, Copy)]
struct Tuning {
    quant: Quant,
    lo: f64,
    hi: f64,
}

/// The value-model table. Ranges × 10^decimals approximate the Table 3
/// distinct-value entropy (see DESIGN.md); saturated datasets (entropy ≈
/// log₂ N in the paper) get supports far above any scaled element count.
fn tuning(name: &str) -> Tuning {
    let dec = |d: u32, lo: f64, hi: f64| Tuning {
        quant: Quant::Decimal(d),
        lo,
        hi,
    };
    let grid = |levels: u64, lo: f64, hi: f64| Tuning {
        quant: Quant::Grid(levels),
        lo,
        hi,
    };
    let dgrid = |d: u32, levels: u64, lo: f64, hi: f64| Tuning {
        quant: Quant::DecimalGrid(d, levels),
        lo,
        hi,
    };
    match name {
        // fp64 datasets must be decimal-exact (BUFF succeeds in Table 4);
        // fp32 science/observation data sits on arbitrary float grids
        // (BUFF succeeds only at its 35-bit budget, CR <= ~1).
        "msg-bt" => dec(6, -500.0, 500.0),
        "num-brain" => dec(4, -800.0, 800.0),
        "num-control" => dec(4, -1000.0, 1000.0),
        "rsim" => grid(370_000, -18_000.0, 18_000.0),
        "astro-mhd" => dec(1, 0.0, 8.0),
        "astro-pt" => dec(6, -67.0, 67.0),
        "miranda3d" => dec(4, 1.0, 1000.0),
        "turbulence" => grid(1 << 24, -1.5, 1.5),
        "wave" => grid(1 << 25, -300.0, 300.0),
        "hurricane" => Tuning {
            quant: Quant::None,
            lo: -80.0,
            hi: 120.0,
        },
        "citytemp" => grid(690, -15.0, 54.0),
        "ts-gas" => grid(16_400, 0.0, 164.0),
        "phone-gyro" => dec(6, -14.0, 14.0),
        "wesad-chest" => dec(6, -7.5, 7.5),
        "jane-street" => dec(6, -67.0, 67.0),
        "nyc-taxi" => dgrid(6, 9300, 0.0, 92.0),
        "gas-price" => dgrid(6, 400, 1.0, 1.42),
        "solar-wind" => grid(17_000, -85.0, 85.0),
        "acs-wht" => grid(1 << 20, 0.0, 105.0),
        "hdr-night" => grid(520, 0.0, 52.0),
        "hdr-palermo" => grid(650, 0.0, 65.0),
        "hst-wfc3-uvis" => grid(50_000, 0.0, 50.0),
        "hst-wfc3-ir" => grid(34_000, 0.0, 34.0),
        "spitzer-irac" => grid(3 << 19, 0.0, 150.0),
        "g24-78-usb" => grid(1 << 26, 0.0, 134.0),
        "jws-mirimage" => grid(1 << 23, 0.0, 100.0),
        "tpcH-order" => dec(2, 850.0, 555_000.0),
        "tpcxBB-store" => dec(2, 0.0, 1100.0),
        "tpcxBB-web" => dec(2, 0.0, 2000.0),
        "tpcH-lineitem" => grid(470, 900.0, 1000.0),
        "tpcDS-catalog" => grid(166_000, 0.0, 1500.0),
        "tpcDS-store" => grid(37_000, 0.0, 420.0),
        "tpcDS-web" => grid(165_000, 0.0, 1500.0),
        _ => dec(2, 0.0, 100.0),
    }
}

/// FNV-1a hash of the dataset name, used as the RNG seed.
fn seed_of(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// `10^d` for `d <= 10`: every entry is an exact integer, the value
/// `10f64.powi(d)` computes.
const POW10: [f64; 11] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];

/// Round to `d` decimal digits (exactly representable round trip for
/// d ≤ 10 and |v·10^d| < 2^52, which every tuning above satisfies).
/// Negative zero is normalized: decimal data sources never emit `-0.0`,
/// and scaled-integer codecs (BUFF) cannot carry a zero's sign bit.
#[inline]
fn round_dec(v: f64, d: u32) -> f64 {
    let s = POW10[d as usize];
    let r = (v * s).round() / s;
    if r == 0.0 {
        0.0
    } else {
        r
    }
}

/// Units (elements, or rows for the decimal series) whose RNG values are
/// drawn into one buffer before that run is mapped: 256 Ki, so a chunk's
/// f32 output is 1 MiB, above `PARALLEL_BYTES`, and its map fans out,
/// while its Box–Muller draws take 4 MiB.
const CHUNK: usize = 1 << 18;

/// Units per fanned-out slot of a chunk's map.
const SLOT: usize = 1 << 14;

/// The column after `c` in rows of `cols` (no division per element).
#[inline]
fn next_col(c: usize, cols: usize) -> usize {
    if c + 1 == cols {
        0
    } else {
        c + 1
    }
}

/// One Box–Muller standard normal as its two uniform draws, taken in the
/// RNG's order on the drawing thread; [`Normal::value`] is the pure map.
#[derive(Clone, Copy)]
struct Normal {
    u1: f64,
    u2: f64,
}

impl Normal {
    fn draw(rng: &mut SmallRng) -> Self {
        let u1 = rng.random_range(1e-12..1.0);
        let u2 = rng.random_range(0.0..1.0);
        Normal { u1, u2 }
    }

    #[inline]
    fn value(self) -> f64 {
        (-2.0 * self.u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * self.u2).cos()
    }
}

/// The per-element tail every generator shares — clamp to the tuned
/// range, discretize, narrow to the dataset's precision, store
/// little-endian — and the draw-then-map pipeline that runs it.
struct Store {
    tun: Tuning,
    /// Grid step (an arbitrary float; a `d`-decimal one for DecimalGrid).
    step: f64,
    /// Grid values below this magnitude snap to zero.
    snap: f64,
    precision: Precision,
    threads: usize,
}

impl Store {
    fn new(tun: Tuning, precision: Precision) -> Self {
        // Grid step is deliberately an arbitrary float (not a decimal);
        // DecimalGrid rounds the step itself to `d` decimals.
        let step = match tun.quant {
            Quant::Grid(levels) => (tun.hi - tun.lo) / levels as f64,
            Quant::DecimalGrid(d, levels) => round_dec((tun.hi - tun.lo) / levels as f64, d),
            _ => 1.0,
        };
        Store {
            tun,
            step,
            // Tiny magnitudes fall where the f32 ULP is finer than any
            // 10-decimal grid, which would make the value unrepresentable
            // to bounded-decimal codecs in a way real instruments never
            // produce - snap sub-resolution readings to exact zero instead.
            snap: (step * 0.5).max(2e-3),
            precision,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Bytes per stored element.
    fn width(&self) -> usize {
        self.precision.bytes()
    }

    /// Clamp and discretize one raw value.
    #[inline]
    fn quantize(&self, v: f64) -> f64 {
        let Tuning { quant, lo, hi } = self.tun;
        let v = v.clamp(lo, hi);
        match quant {
            Quant::Decimal(d) => round_dec(v, d),
            Quant::Grid(_) => {
                let q = lo + ((v - lo) / self.step).round() * self.step;
                if q.abs() < self.snap {
                    0.0
                } else {
                    q
                }
            }
            Quant::DecimalGrid(d, _) => {
                round_dec(lo + ((v - lo) / self.step).round() * self.step, d)
            }
            Quant::None => v,
        }
    }

    /// Store one raw value into its element's bytes.
    #[inline]
    fn put(&self, v: f64, out: &mut [u8]) {
        let q = self.quantize(v);
        match self.precision {
            Precision::Single => out.copy_from_slice(&(q as f32).to_le_bytes()),
            Precision::Double => out.copy_from_slice(&q.to_le_bytes()),
        }
    }

    /// The draw-then-map pipeline over `out`'s units of `per` items: for
    /// each run of [`CHUNK`] units, `draw` every unit's RNG values on the
    /// calling thread, in unit order, then run `map(unit, draws, items)`
    /// over the chunk's [`SLOT`]-unit slots through [`fan_out`] — inline up
    /// to `PARALLEL_BYTES`, across cores above it. `map` is pure in its
    /// unit index and draws, so the bytes never depend on the thread count.
    /// A map that draws nothing passes `|| ()`.
    fn draw_then_map<D: Sync, T: Send>(
        &self,
        out: &mut [T],
        per: usize,
        mut draw: impl FnMut() -> D,
        map: impl Fn(usize, &[D], &mut [T]) + Sync,
    ) {
        let mut draws = Vec::with_capacity(CHUNK.min(out.len() / per));
        for (c, chunk) in out.chunks_mut(CHUNK * per).enumerate() {
            draws.clear();
            draws.extend((0..chunk.len() / per).map(|_| draw()));
            let bytes = std::mem::size_of_val(chunk);
            let mut slots: Vec<_> = draws
                .chunks(SLOT)
                .zip(chunk.chunks_mut(SLOT * per))
                .collect();
            fan_out(&mut slots, bytes, self.threads, |k, (d, items)| {
                map(c * CHUNK + k * SLOT, d, items)
            });
        }
    }

    /// Store raw values into the elements of `items`, pairwise.
    fn put_run(&self, vals: &[f64], items: &mut [u8]) {
        for (&v, o) in vals.iter().zip(items.chunks_exact_mut(self.width())) {
            self.put(v, o);
        }
    }

    /// A random walk's pipeline, one chunk of `out`'s units (`per` bytes
    /// each) at a time: one standard normal per unit, drawn then mapped
    /// across cores; `scan` turns them into the walk's values in one
    /// sequential pass (its state carries across chunks); `emit(unit,
    /// values, bytes)` stores them across cores.
    fn walk(
        &self,
        out: &mut [u8],
        per: usize,
        rng: &mut SmallRng,
        mut scan: impl FnMut(&mut [f64]),
        emit: impl Fn(usize, &[f64], &mut [u8]) + Sync,
    ) {
        let mut vals = Vec::new();
        for (c, chunk) in out.chunks_mut(CHUNK * per).enumerate() {
            vals.resize(chunk.len() / per, 0.0);
            self.draw_then_map(
                &mut vals,
                1,
                || Normal::draw(rng),
                |_, d, g| {
                    for (g, d) in g.iter_mut().zip(d) {
                        *g = d.value();
                    }
                },
            );
            scan(&mut vals);
            let vals = &vals;
            self.draw_then_map(
                chunk,
                per,
                || (),
                |i, _, items| emit(c * CHUNK + i, &vals[i..], items),
            );
        }
    }
}

/// 1-D instrument trace: oscillations + a bounded random walk.
fn gen_trace(s: &Store, rng: &mut SmallRng, out: &mut [u8]) {
    let tun = s.tun;
    let mid = (tun.lo + tun.hi) / 2.0;
    let span = tun.hi - tun.lo;
    let eb = s.width();
    let mut walk = 0.0;
    let scan = |g: &mut [f64]| {
        for v in g {
            walk += *v * span * 0.002;
            walk = walk.clamp(-span * 0.3, span * 0.3);
            *v = walk;
        }
    };
    s.walk(out, eb, rng, scan, |i, walks, items| {
        for (k, (&walk, o)) in walks.iter().zip(items.chunks_exact_mut(eb)).enumerate() {
            let i = (i + k) as f64;
            s.put(
                mid + span * 0.2 * (i * 0.0021).sin() + span * 0.08 * (i * 0.047).sin() + walk,
                o,
            );
        }
    });
}

/// Smooth multidimensional field: superposed low-frequency waves.
fn gen_smooth_field(dims: &[usize], s: &Store, rng: &mut SmallRng, noise: f64, out: &mut [u8]) {
    let tun = s.tun;
    let mid = (tun.lo + tun.hi) / 2.0;
    let span = tun.hi - tun.lo;
    let (nz, ny, nx) = match dims.len() {
        1 => (1, 1, dims[0]),
        2 => (1, dims[0], dims[1]),
        _ => (dims[0], dims[1], dims[2]),
    };
    let (f1, f2, f3) = (
        rng.random_range(0.02..0.08),
        rng.random_range(0.02..0.08),
        rng.random_range(0.02..0.08),
    );
    // Every wave term depends on one coordinate (or on x + y): one table
    // each, holding exactly the operand the per-element sum reads.
    let sx: Vec<f64> = (0..nx).map(|x| (x as f64 * f1).sin()).collect();
    let cy: Vec<f64> = (0..ny).map(|y| (y as f64 * f2).cos()).collect();
    let sz: Vec<f64> = (0..nz).map(|z| (z as f64 * f3).sin()).collect();
    let sxy: Vec<f64> = (0..nx + ny).map(|t| (t as f64 * f1 * 0.37).sin()).collect();
    let eb = s.width();
    s.draw_then_map(
        out,
        eb,
        || Normal::draw(rng),
        |i, draws, items| {
            let (mut x, mut y, mut z) = (i % nx, i / nx % ny, i / (nx * ny));
            for (d, o) in draws.iter().zip(items.chunks_exact_mut(eb)) {
                let base = sx[x] + cy[y] + sz[z] + 0.5 * sxy[x + y];
                s.put(mid + span * 0.13 * base + noise * span * d.value(), o);
                x += 1;
                if x == nx {
                    x = 0;
                    y += 1;
                    if y == ny {
                        y = 0;
                        z += 1;
                    }
                }
            }
        },
    );
}

/// Mostly-zero field with rare plateaus (astro-mhd's 0.97-bit entropy).
fn gen_sparse_field(s: &Store, rng: &mut SmallRng, out: &mut [u8]) {
    let tun = s.tun;
    let levels: Vec<f64> = (1..=8)
        .map(|k| tun.lo + (tun.hi - tun.lo) * k as f64 / 8.0)
        .collect();
    let eb = s.width();
    let mut elems = out.chunks_exact_mut(eb);
    let mut left = elems.len();
    while left > 0 {
        let (run, v) = if rng.random_range(0.0..1.0) < 0.92 {
            // Sky/zero background in short runs: keeps ratios in the
            // paper's 8-22x band rather than degenerate constant blocks.
            (rng.random_range(8..64).min(left), 0.0)
        } else {
            let run = rng.random_range(2..12).min(left);
            (run, levels[rng.random_range(0..levels.len())])
        };
        let mut bytes = [0u8; 8];
        s.put(v, &mut bytes[..eb]);
        for o in elems.by_ref().take(run) {
            o.copy_from_slice(&bytes[..eb]);
        }
        left -= run;
    }
}

/// Seasonal decimal series (optionally multi-column, e.g. gas-price).
fn gen_decimal_series(dims: &[usize], s: &Store, rng: &mut SmallRng, out: &mut [u8]) {
    let tun = s.tun;
    let cols = if dims.len() == 2 { dims[1] } else { 1 };
    let span = tun.hi - tun.lo;
    let offsets: Vec<f64> = (0..cols)
        .map(|_| rng.random_range(0.0..span * 0.2))
        .collect();
    let eb = s.width();
    let mut walk = 0.0f64;
    let scan = |g: &mut [f64]| {
        for v in g {
            walk += *v * span * 0.004;
            walk = walk.clamp(-span * 0.25, span * 0.25);
            *v = walk;
        }
    };
    s.walk(out, cols * eb, rng, scan, |r, walks, items| {
        for (k, (&walk, row)) in walks
            .iter()
            .zip(items.chunks_exact_mut(cols * eb))
            .enumerate()
        {
            let r = (r + k) as f64;
            let season = span * 0.25 * (r * 0.0008).sin() + span * 0.1 * (r * 0.02).sin();
            for (&off, o) in offsets.iter().zip(row.chunks_exact_mut(eb)) {
                s.put(tun.lo + span * 0.45 + off + season + walk, o);
            }
        }
    });
}

/// Interleaved sensor channels: independent bounded walks per channel.
fn gen_sensor_table(dims: &[usize], s: &Store, rng: &mut SmallRng, out: &mut [u8]) {
    let tun = s.tun;
    let cols = dims[1];
    let span = tun.hi - tun.lo;
    let mid = (tun.lo + tun.hi) / 2.0;
    let mut state: Vec<f64> = (0..cols)
        .map(|_| rng.random_range(-0.2..0.2) * span)
        .collect();
    let steps: Vec<f64> = (0..cols)
        .map(|c| span * 0.002 * (1.0 + c as f64 * 0.37))
        .collect();
    let mut c = 0;
    let scan = |g: &mut [f64]| {
        for v in g {
            state[c] += *v * steps[c];
            state[c] = state[c].clamp(-span * 0.45, span * 0.45);
            *v = mid + state[c];
            c = next_col(c, cols);
        }
    };
    let eb = s.width();
    s.walk(out, eb, rng, scan, |_, vals, items| s.put_run(vals, items));
}

/// High-entropy market features: AR(1) returns per column.
fn gen_market_table(dims: &[usize], s: &Store, rng: &mut SmallRng, out: &mut [u8]) {
    let cols = dims[1];
    let span = s.tun.hi - s.tun.lo;
    let mut state: Vec<f64> = vec![0.0; cols];
    let mut c = 0;
    let scan = |g: &mut [f64]| {
        for v in g {
            state[c] = 0.7 * state[c] + *v * span * 0.05;
            *v = state[c];
            c = next_col(c, cols);
        }
    };
    s.walk(out, s.width(), rng, scan, |_, vals, items| {
        s.put_run(vals, items)
    });
}

/// Astronomical image: flat noisy background dominated by sky (>95% per
/// §1's astronomy discussion) plus point sources.
fn gen_astro_image(dims: &[usize], s: &Store, rng: &mut SmallRng, out: &mut [u8]) {
    let tun = s.tun;
    let (h, w) = (dims[0], dims[1]);
    let span = tun.hi - tun.lo;
    let bg_mean = tun.lo + span * 0.08;
    let bg_sigma = span * 0.015;
    // The sources add onto the raw background, so it is kept whole.
    let mut img = vec![0.0; h * w];
    s.draw_then_map(
        &mut img,
        1,
        || Normal::draw(rng),
        |_, draws, px| {
            for (p, d) in px.iter_mut().zip(draws) {
                *p = bg_mean + d.value() * bg_sigma;
            }
        },
    );
    // Point sources: ~1 per 3000 pixels, Gaussian PSF of radius ~2.
    let nsrc = (h * w / 3000).max(1);
    for _ in 0..nsrc {
        let cy = rng.random_range(0..h) as f64;
        let cx = rng.random_range(0..w) as f64;
        let amp = span * rng.random_range(0.2..0.9);
        let sigma: f64 = rng.random_range(1.0..2.5);
        let r = (3.0 * sigma) as usize + 1;
        let y0 = (cy as usize).saturating_sub(r);
        let y1 = ((cy as usize) + r).min(h - 1);
        let x0 = (cx as usize).saturating_sub(r);
        let x1 = ((cx as usize) + r).min(w - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                let d2 = (y as f64 - cy).powi(2) + (x as f64 - cx).powi(2);
                img[y * w + x] += amp * (-d2 / (2.0 * sigma * sigma)).exp();
            }
        }
    }
    s.draw_then_map(
        out,
        s.width(),
        || (),
        |i, _, items| s.put_run(&img[i..], items),
    );
}

/// HDR photograph: smooth luminance gradients (low distinct count).
fn gen_hdr_image(dims: &[usize], s: &Store, rng: &mut SmallRng, out: &mut [u8]) {
    let tun = s.tun;
    let (h, w) = (dims[0], dims[1]);
    let span = tun.hi - tun.lo;
    let (fy, fx): (f64, f64) = (rng.random_range(1.5..3.5), rng.random_range(1.5..3.5));
    let pi = std::f64::consts::PI;
    // Per-row and per-column tables of the luminance's terms, summed in
    // the same order as one per-pixel expression: the first two terms
    // depend on the row only.
    let rows: Vec<(f64, f64)> = (0..h)
        .map(|y| {
            let u = y as f64 / h as f64;
            let lead = 0.35 * (1.0 - u) + 0.25 * ((u * fy * pi).sin() * 0.5 + 0.5);
            (lead, (u - 0.5).powi(2))
        })
        .collect();
    let cols: Vec<(f64, f64)> = (0..w)
        .map(|x| {
            let v = x as f64 / w as f64;
            (0.25 * ((v * fx * pi).cos() * 0.5 + 0.5), (v - 0.5).powi(2))
        })
        .collect();
    let eb = s.width();
    s.draw_then_map(
        out,
        eb,
        || (),
        |i, _, items| {
            let (mut y, mut x) = (i / w, i % w);
            for o in items.chunks_exact_mut(eb) {
                let ((lead, dy), (wave, dx)) = (rows[y], cols[x]);
                let lum = lead + wave + 0.15 * (1.0 - (dy + dx));
                s.put(tun.lo + span * lum.clamp(0.0, 1.0) * 0.9, o);
                x += 1;
                if x == w {
                    x = 0;
                    y += 1;
                }
            }
        },
    );
}

/// TPC transaction columns cycling by column index. Column *cardinality*
/// mirrors the TPC schemas (prices near-continuous, quantities 50 levels,
/// rates 9 levels, counts 500 levels), mapped into the tuned range so the
/// dataset-level clamp never crushes a column.
fn gen_tpc_table(dims: &[usize], s: &Store, rng: &mut SmallRng, out: &mut [u8]) {
    let tun = s.tun;
    let cols = if dims.len() == 2 { dims[1] } else { 1 };
    let span = tun.hi - tun.lo;
    // One draw per element: the uniform of a price, or the level of the
    // other kinds.
    let mut c = 0;
    let draw = || {
        let d = match c % 5 {
            0 | 3 => rng.random_range(0.0..1.0),
            1 => rng.random_range(1..=50) as f64,
            2 => rng.random_range(0..=8) as f64,
            _ => rng.random_range(1..=500) as f64,
        };
        c = next_col(c, cols);
        d
    };
    let eb = s.width();
    s.draw_then_map(out, eb, draw, |i, draws, items| {
        let mut c = i % cols;
        for (&d, o) in draws.iter().zip(items.chunks_exact_mut(eb)) {
            let v = match c % 5 {
                // Price-like: skewed toward the low end, near-continuous.
                0 | 3 => tun.lo + span * d * d,
                // Quantity-like: 50 levels.
                1 => tun.lo + span * d / 50.0,
                // Rate-like: 9 levels.
                2 => tun.lo + span * d / 9.0,
                // Count-like: 500 levels.
                _ => tun.lo + span * d / 500.0,
            };
            s.put(v, o);
            c = next_col(c, cols);
        }
    });
}

/// Generate one dataset at roughly `target_elems` elements.
pub fn generate(spec: &DatasetSpec, target_elems: usize) -> FloatData {
    let mut rng = SmallRng::seed_from_u64(seed_of(spec.name));
    let desc = DataDesc::new(spec.precision, spec.scaled_dims(target_elems), spec.domain)
        .expect("scaled extents are non-zero");
    let s = Store::new(tuning(spec.name), spec.precision);
    let mut out = vec![0u8; desc.byte_len()];
    let (dims, rng, o) = (&desc.dims[..], &mut rng, &mut out[..]);
    match spec.family {
        Family::HpcTrace => gen_trace(&s, rng, o),
        Family::SmoothField => gen_smooth_field(dims, &s, rng, 0.001, o),
        Family::SparseField => gen_sparse_field(&s, rng, o),
        Family::NoisyField => gen_smooth_field(dims, &s, rng, 0.08, o),
        Family::DecimalSeries => gen_decimal_series(dims, &s, rng, o),
        Family::SensorTable => gen_sensor_table(dims, &s, rng, o),
        Family::MarketTable => gen_market_table(dims, &s, rng, o),
        Family::AstroImage => gen_astro_image(dims, &s, rng, o),
        Family::HdrImage => gen_hdr_image(dims, &s, rng, o),
        Family::TpcTable => gen_tpc_table(dims, &s, rng, o),
    }

    // hurricane: climate fields carry NaN fill values over masked regions;
    // these are what break the bounded-decimal codecs in Table 4 (BUFF's
    // and fpzip's "-" cells). Inject short NaN runs (~0.2% of elements).
    if spec.name == "hurricane" {
        inject_nan_runs(&mut out, rng, 0.002);
    }
    FloatData::from_bytes(desc, out).expect("one value per element")
}

/// Replace roughly `fraction` of an f32 payload's elements with NaN, in
/// short runs.
fn inject_nan_runs(out: &mut [u8], rng: &mut SmallRng, fraction: f64) {
    let n = out.len() / 4;
    let mut filled = 0usize;
    let target = ((n as f64 * fraction) as usize).max(1);
    while filled < target {
        let start = rng.random_range(0..n);
        let run = rng.random_range(4..32).min(n - start);
        for v in out[4 * start..4 * (start + run)].chunks_exact_mut(4) {
            v.copy_from_slice(&f32::NAN.to_le_bytes());
        }
        filled += run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{catalog, find};
    use crate::entropy::{scaled_target, value_entropy};
    use fcbench_core::stream::crc32;

    const TEST_ELEMS: usize = 1 << 16;

    #[test]
    fn generation_is_deterministic() {
        let spec = find("citytemp").unwrap();
        let a = generate(&spec, TEST_ELEMS);
        let b = generate(&spec, TEST_ELEMS);
        assert_eq!(a.bytes(), b.bytes());
    }

    #[test]
    fn distinct_datasets_differ() {
        let a = generate(&find("msg-bt").unwrap(), TEST_ELEMS);
        let b = generate(&find("num-brain").unwrap(), TEST_ELEMS);
        assert_ne!(a.bytes(), b.bytes());
    }

    #[test]
    fn dims_and_precision_match_spec() {
        for spec in catalog() {
            let data = generate(&spec, TEST_ELEMS);
            assert_eq!(data.desc().precision, spec.precision, "{}", spec.name);
            assert_eq!(data.desc().domain, spec.domain, "{}", spec.name);
            assert_eq!(data.desc().ndims(), spec.paper_dims.len(), "{}", spec.name);
            let n = data.elements();
            assert!(
                (TEST_ELEMS / 4..=TEST_ELEMS * 2).contains(&n),
                "{}: scaled to {n} elements",
                spec.name
            );
        }
    }

    #[test]
    fn decimal_datasets_are_exactly_representable() {
        for spec in catalog() {
            let tun = tuning(spec.name);
            let Quant::Decimal(d) = tun.quant else {
                continue;
            };
            let s = POW10[d as usize];
            for n in [4096, 200_000] {
                let data = generate(&spec, n);
                match spec.precision {
                    Precision::Double => {
                        for v in data.to_f64_vec().unwrap() {
                            let back = (v * s).round() / s;
                            assert_eq!(
                                back.to_bits(),
                                v.to_bits(),
                                "{}: {v} not representable at {d} decimals",
                                spec.name
                            );
                        }
                    }
                    Precision::Single => {
                        // f32 values must round-trip through their f64 decimal.
                        for v in data.to_f32_vec().unwrap() {
                            let back = ((v as f64 * s).round() / s) as f32;
                            assert_eq!(back.to_bits(), v.to_bits(), "{}: {v}", spec.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pow10_table_is_powi() {
        for (d, &p) in POW10.iter().enumerate() {
            assert_eq!(p.to_bits(), 10f64.powi(d as i32).to_bits(), "10^{d}");
        }
    }

    #[test]
    fn every_dataset_generates_at_tiny_sizes() {
        for spec in catalog() {
            for n in 0..=3 {
                let data = generate(&spec, n);
                assert!(data.elements() >= 1, "{} at {n}", spec.name);
                assert_eq!(data.desc().ndims(), spec.paper_dims.len(), "{}", spec.name);
            }
        }
    }

    /// `tests/dataset_golden.rs` pins sizes within one draw chunk; these
    /// cross two chunk seams, where a walk's state, a table's column and a
    /// grid's coordinates carry from one chunk into the next. The CRCs are
    /// the generators' before the draw-then-map pipeline.
    #[test]
    fn chunk_seams_are_invisible() {
        let n = 1_100_000;
        assert!(n > 2 * CHUNK);
        for (name, crc) in [
            ("msg-bt", 0x9bf00080),
            ("astro-mhd", 0x40abd138),
            ("miranda3d", 0xb703bf55),
            ("hurricane", 0x5251d095),
            ("citytemp", 0x18b99077),
            ("solar-wind", 0x38f85ba1),
            ("jane-street", 0x6f6f03f4),
            ("acs-wht", 0xa0c54e4a),
            ("hdr-night", 0x6f7c48dc),
            ("tpcxBB-web", 0x799d334f),
        ] {
            let data = generate(&find(name).unwrap(), n);
            assert_eq!(crc32(data.bytes()), crc, "{name}");
        }
    }

    #[test]
    fn hurricane_contains_nan_fill_values() {
        let spec = find("hurricane").unwrap();
        let data = generate(&spec, TEST_ELEMS);
        let vals = data.to_f32_vec().unwrap();
        let nans = vals.iter().filter(|v| v.is_nan()).count();
        let frac = nans as f64 / vals.len() as f64;
        assert!(
            frac > 0.0005 && frac < 0.02,
            "NaN fill fraction {frac} should be ~0.2% (breaks bounded-decimal codecs)"
        );
    }

    #[test]
    fn entropies_track_table3_targets() {
        // Bands are generous: the generators model structure classes, not
        // exact histograms. Sparse/low-entropy sets get an absolute band,
        // others a relative one against the capacity-capped target.
        for spec in catalog() {
            let data = generate(&spec, TEST_ELEMS);
            let h = value_entropy(&data);
            let target = scaled_target(spec.paper_entropy, data.elements());
            let tol = (target * 0.35).max(2.5);
            assert!(
                (h - target).abs() < tol,
                "{}: entropy {h:.2} vs target {target:.2} (paper {})",
                spec.name,
                spec.paper_entropy
            );
        }
    }

    #[test]
    fn astro_mhd_is_mostly_zero() {
        let data = generate(&find("astro-mhd").unwrap(), TEST_ELEMS);
        let vals = data.to_f64_vec().unwrap();
        let zeros = vals.iter().filter(|&&v| v == 0.0).count();
        assert!(
            zeros as f64 > vals.len() as f64 * 0.7,
            "sky fraction {zeros}/{}",
            vals.len()
        );
    }

    #[test]
    fn astro_image_background_dominates() {
        let data = generate(&find("acs-wht").unwrap(), TEST_ELEMS);
        let vals = data.to_f32_vec().unwrap();
        let tun = tuning("acs-wht");
        let bg_ceiling = (tun.lo + (tun.hi - tun.lo) * 0.15) as f32;
        let bg = vals.iter().filter(|&&v| v < bg_ceiling).count();
        assert!(
            bg as f64 > vals.len() as f64 * 0.95,
            "background {bg}/{} — §1: sky occupies more than 95%",
            vals.len()
        );
    }

    #[test]
    fn all_values_within_tuned_ranges() {
        for spec in catalog() {
            let data = generate(&spec, 8192);
            let tun = tuning(spec.name);
            let (min, max) = match spec.precision {
                Precision::Double => {
                    let v = data.to_f64_vec().unwrap();
                    (
                        v.iter().cloned().fold(f64::INFINITY, f64::min),
                        v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    )
                }
                Precision::Single => {
                    let v = data.to_f32_vec().unwrap();
                    (
                        v.iter().cloned().fold(f32::INFINITY, f32::min) as f64,
                        v.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64,
                    )
                }
            };
            assert!(
                min >= tun.lo - 1e-6,
                "{}: min {min} < {}",
                spec.name,
                tun.lo
            );
            assert!(
                max <= tun.hi + 1e-6,
                "{}: max {max} > {}",
                spec.name,
                tun.hi
            );
        }
    }
}
