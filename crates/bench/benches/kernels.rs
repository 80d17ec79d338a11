//! Codec-kernel microbench: the recorded numbers behind the word-level
//! rewrite of the slow codec kernels. Measures the blocked 8x8 bitshuffle
//! transpose (forward and inverse) against the retained bit-granular
//! `bitshuffle::reference`, and the word-at-a-time lz77 hash-chain match
//! finder against `lz77::reference`, on bitshuffle-shaped inputs, and the
//! slice-by-16 CRC-32 behind every FCDB2 record against a local
//! byte-at-a-time loop. The headline acceptance number is the worst gated
//! speedup, which must stay ≥ 2x.
//!
//! Runs without the Criterion harness (`harness = false`): it prints one
//! table and exits, sized for a CI smoke budget. `FCBENCH_QUICK_BENCH=1`
//! shrinks the iteration counts.

use fcbench_codecs_cpu::bitshuffle;
use fcbench_core::stream::crc32;
use fcbench_entropy::lz77::{self, Lz77Config};
use std::hint::black_box;
use std::time::Instant;

fn quick() -> bool {
    std::env::var_os("FCBENCH_QUICK_BENCH").is_some_and(|v| v != "0")
}

/// Best-of-N wall time for `f`, in seconds.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct Row {
    name: &'static str,
    new_s: f64,
    ref_s: f64,
    bytes: u64,
    gated: bool,
}

impl Row {
    fn print(&self) {
        let rate = |s: f64| self.bytes as f64 / s / 1e6;
        println!(
            "{:<30} {:>10.1} {:>10.1} {:>7.2}x{}",
            self.name,
            rate(self.new_s),
            rate(self.ref_s),
            self.ref_s / self.new_s,
            if self.gated { "" } else { "  (info)" },
        );
    }
}

/// Smooth f64 ramp serialized LE — the float-data shape bitshuffle sees.
fn ramp_bytes(n_bytes: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(n_bytes);
    let mut i = 0u64;
    while data.len() < n_bytes {
        let v = 300.0 + ((i % 365) as f64) * 0.1;
        data.extend_from_slice(&v.to_le_bytes());
        i += 1;
    }
    data.truncate(n_bytes);
    data
}

fn bench_transpose(elems: usize, elem_bits: usize, reps: usize) -> (Row, Row) {
    let data = ramp_bytes(elems * elem_bits / 8);
    let mut out = Vec::new();
    let fwd_new = best_of(reps, || {
        bitshuffle::bit_transpose_into(&data, elems, elem_bits, &mut out);
        black_box(out.len());
    });
    let fwd_ref = best_of(reps, || {
        black_box(bitshuffle::reference::bit_transpose(&data, elems, elem_bits).len());
    });
    let t = bitshuffle::bit_transpose(&data, elems, elem_bits);
    let mut back = Vec::new();
    let inv_new = best_of(reps, || {
        bitshuffle::bit_untranspose_into(&t, elems, elem_bits, &mut back);
        black_box(back.len());
    });
    let inv_ref = best_of(reps, || {
        black_box(bitshuffle::reference::bit_untranspose(&t, elems, elem_bits).len());
    });
    let bytes = data.len() as u64;
    let (fname, iname) = if elem_bits == 32 {
        ("transpose f32 fwd", "transpose f32 inv")
    } else {
        ("transpose f64 fwd", "transpose f64 inv")
    };
    (
        Row {
            name: fname,
            new_s: fwd_new,
            ref_s: fwd_ref,
            bytes,
            gated: true,
        },
        Row {
            name: iname,
            new_s: inv_new,
            ref_s: inv_ref,
            bytes,
            gated: true,
        },
    )
}

fn bench_lz77(name: &'static str, input: &[u8], cfg: Lz77Config, reps: usize) -> (Row, Row) {
    let mut out = Vec::new();
    let c_new = best_of(reps, || {
        lz77::compress_into(input, cfg, &mut out);
        black_box(out.len());
    });
    let c_ref = best_of(reps, || {
        black_box(lz77::reference::compress(input, cfg).len());
    });
    let stream = lz77::compress(input, cfg);
    let d_new = best_of(reps, || {
        black_box(lz77::decompress(&stream, input.len()).expect("valid").len());
    });
    let d_ref = best_of(reps, || {
        black_box(
            lz77::reference::decompress(&stream, input.len())
                .expect("valid")
                .len(),
        );
    });
    let bytes = input.len() as u64;
    (
        Row {
            name,
            new_s: c_new,
            ref_s: c_ref,
            bytes,
            gated: true,
        },
        Row {
            name: "lz77 decompress",
            new_s: d_new,
            ref_s: d_ref,
            bytes,
            gated: false,
        },
    )
}

/// The byte-at-a-time table loop `Crc32::update` used to be: what the
/// shipped kernel must keep beating, so it cannot silently fall back.
fn crc32_bytewise(table: &[u32; 256], bytes: &[u8]) -> u32 {
    let mut s = 0xFFFF_FFFFu32;
    for &b in bytes {
        s = table[((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
    }
    s ^ 0xFFFF_FFFF
}

fn bench_crc32(name: &'static str, len: usize, reps: usize) -> Row {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (0..8).fold(i as u32, |c, _| {
            (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())
        });
    }
    let data = ramp_bytes(len);
    assert_eq!(crc32(&data), crc32_bytewise(&table, &data));
    // Enough passes per timing that a 16 KiB buffer outlasts the clock.
    let passes = (4 << 20) / len;
    let new_s = best_of(reps, || {
        for _ in 0..passes {
            black_box(crc32(black_box(&data)));
        }
    });
    let ref_s = best_of(reps, || {
        for _ in 0..passes {
            black_box(crc32_bytewise(&table, black_box(&data)));
        }
    });
    Row {
        name,
        new_s,
        ref_s,
        bytes: (passes * len) as u64,
        gated: true,
    }
}

fn main() {
    let elems = if quick() { 8192 } else { 65_536 };
    let reps = if quick() { 5 } else { 20 };

    println!("codec kernels vs retained references (best of {reps}):");
    println!(
        "{:<30} {:>10} {:>10} {:>8}",
        "kernel", "new MB/s", "ref MB/s", "speedup"
    );

    let mut worst_gated = f64::INFINITY;
    let mut gate = |row: &Row| {
        if row.gated {
            worst_gated = worst_gated.min(row.ref_s / row.new_s);
        }
        row.print();
    };

    for elem_bits in [32usize, 64] {
        let (fwd, inv) = bench_transpose(elems, elem_bits, reps);
        gate(&fwd);
        gate(&inv);
    }

    // The lz77 kernel sees bit-transposed planes: long exponent runs plus
    // noisy mantissa lanes — the deep-chain profile bitshuffle-zstd pays
    // for. Bench exactly that shape at both effort levels.
    let raw = ramp_bytes(elems * 8);
    let shuffled = bitshuffle::bit_transpose(&raw, elems, 64);
    let deep = Lz77Config {
        window: 1 << 16,
        chain_depth: 128,
    };
    let (c, d) = bench_lz77("lz77 compress deep-chain", &shuffled, deep, reps);
    gate(&c);
    gate(&d);
    let (c, d) = bench_lz77("lz77 compress fast", &shuffled, Lz77Config::fast(), reps);
    gate(&c);
    gate(&d);

    // One FCDB2 page record and one steady-state buffer.
    gate(&bench_crc32("crc32 16 KiB", 16 << 10, reps));
    gate(&bench_crc32("crc32 1 MiB", 1 << 20, reps));

    println!("worst gated speedup: {worst_gated:.2}x (acceptance gate: >= 2x)");
    // The gate is real: the bench fails if a kernel regresses on any gated
    // row. Speedup is a same-process ratio, so uniform machine slowdown
    // cancels out; quick mode's small buffers get a noise margin (the 2x
    // acceptance number is the full-budget run).
    let floor = if quick() { 1.5 } else { 2.0 };
    if worst_gated < floor {
        eprintln!("kernels: a kernel fell below the {floor}x acceptance gate");
        std::process::exit(1);
    }
}
