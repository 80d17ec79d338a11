//! The measuring loop every workload shares: closed-loop operations cut
//! into slices, registry snapshots around each phase, and the arithmetic
//! that turns operation records into the end-to-end metrics.

use crate::stats::{self, Summary};
use crate::trace::{Span, Tracer};
use fcbench_core::telemetry::{Registry, Snapshot};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Slices a time-cut measured window is divided into.
pub const SLICES: usize = 10;

/// Failure messages kept per loop; the count is always exact.
const MAX_FAILURE_MESSAGES: usize = 8;

/// What one operation reports: the time it spent in the workload's write
/// path and read path, its whole latency, and the bytes it moved. Output
/// verification happens inside the operation but outside all three times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTimes {
    pub write_s: f64,
    pub read_s: f64,
    pub total_s: f64,
    /// Raw float bytes written (and read back) by the operation.
    pub raw_bytes: u64,
    /// Bytes stored or put on the wire for them, framing included.
    pub stored_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    pub slice: usize,
    /// Ran with span recording on.
    pub traced: bool,
    pub times: OpTimes,
}

/// How a window is cut into slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slicing {
    /// [`SLICES`] equal time slices; an operation belongs to the slice it
    /// starts in.
    Time,
    /// One slice per pass of `ops` operations; the window ends at the first
    /// pass boundary past its time (`codec_matrix`: whole matrix passes).
    Pass { ops: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct LoopCfg {
    pub seconds: f64,
    pub slicing: Slicing,
    /// Record spans for every other operation (every other pass where
    /// slices are passes), so traced and plain work interleave inside one
    /// window and can be compared.
    pub traced: bool,
}

#[derive(Debug, Default)]
pub struct LoopOut {
    pub records: Vec<OpRecord>,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl LoopOut {
    pub fn merge(&mut self, other: LoopOut) {
        self.records.extend(other.records);
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(MAX_FAILURE_MESSAGES);
    }

    fn run_one(
        &mut self,
        slice: usize,
        tracer: &mut Tracer,
        op: &mut impl FnMut(&mut Tracer) -> Result<OpTimes, String>,
    ) {
        match op(tracer) {
            Ok(times) => self.records.push(OpRecord {
                slice,
                traced: tracer.enabled,
                times,
            }),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < MAX_FAILURE_MESSAGES {
                    self.failures.push(e);
                }
            }
        }
    }
}

/// Runs `op` back to back from `start` until the window is over: each call
/// starts only after the previous one completed (closed loop, one caller).
pub fn closed_loop(
    cfg: &LoopCfg,
    start: Instant,
    tracer: &mut Tracer,
    mut op: impl FnMut(&mut Tracer) -> Result<OpTimes, String>,
) -> LoopOut {
    let mut out = LoopOut::default();
    match cfg.slicing {
        Slicing::Time => {
            let slice_len = cfg.seconds / SLICES as f64;
            loop {
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= cfg.seconds {
                    break;
                }
                let slice = ((elapsed / slice_len) as usize).min(SLICES - 1);
                let started = out.records.len() as u64 + out.failed;
                tracer.enabled = cfg.traced && started % 2 == 1;
                out.run_one(slice, tracer, &mut op);
            }
        }
        Slicing::Pass { ops } => {
            // A traced window needs one pass of each kind to compare.
            let min_passes = if cfg.traced { 2 } else { 1 };
            let mut pass = 0;
            while pass < min_passes || start.elapsed().as_secs_f64() < cfg.seconds {
                tracer.enabled = cfg.traced && pass % 2 == 1;
                for _ in 0..ops {
                    out.run_one(pass, tracer, &mut op);
                }
                pass += 1;
            }
        }
    }
    tracer.enabled = false;
    out
}

/// Count and summed nanoseconds of a histogram, and counter values, as
/// they moved between two snapshots of the program's telemetry registries.
#[derive(Debug, Default, Clone)]
pub struct RegDelta {
    hists: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
}

impl RegDelta {
    fn between(before: &[Snapshot], after: &[Snapshot]) -> RegDelta {
        let mut d = RegDelta::default();
        for (b, a) in before.iter().zip(after) {
            for (name, h) in &a.histograms {
                let (c0, s0) = b.histogram(name).map_or((0, 0), |h| (h.count(), h.sum()));
                d.hists.insert(
                    name.to_string(),
                    (h.count().saturating_sub(c0), h.sum().saturating_sub(s0)),
                );
            }
            for (name, v) in &a.counters {
                d.counters.insert(
                    name.to_string(),
                    v.saturating_sub(b.counter(name).unwrap_or(0)),
                );
            }
        }
        d
    }

    pub fn add(&mut self, other: &RegDelta) {
        for (k, (c, s)) in &other.hists {
            let e = self.hists.entry(k.clone()).or_default();
            e.0 += c;
            e.1 += s;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
    }

    /// Samples a histogram gained.
    pub fn count(&self, hist: &str) -> f64 {
        self.hists.get(hist).map_or(0.0, |h| h.0 as f64)
    }

    /// Seconds a histogram of nanosecond samples gained.
    pub fn seconds(&self, hist: &str) -> f64 {
        self.hists.get(hist).map_or(0.0, |h| h.1 as f64 / 1e9)
    }

    /// Mean microseconds per sample a histogram gained; 0 with no samples.
    pub fn mean_us(&self, hist: &str) -> f64 {
        match self.hists.get(hist) {
            Some(&(c, s)) if c > 0 => s as f64 / c as f64 / 1e3,
            _ => 0.0,
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |v| *v as f64)
    }
}

/// One phase of a workload's measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    pub name: &'static str,
    /// Share of the window this phase runs for.
    pub share: f64,
}

/// Static description of a workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Declared in `BENCHMARK.json` and judged by `repeat` and `compare`.
    /// An ungated workload still runs — plain by name, traced in every
    /// traced run — but its end-to-end numbers gate nothing.
    pub gated: bool,
    /// What one operation is, for the printed report.
    pub op: &'static str,
    pub phases: &'static [PhaseSpec],
    /// Phase `op_p50_us` and `ops_per_s` are read from.
    pub latency_phase: usize,
    /// Phase `compress_mb_s` and `decompress_mb_s` are read from.
    pub rate_phase: usize,
}

/// What set-up produced, for the determinism guard and `datasets.*`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inputs {
    /// CRC-32 over every generated input byte, in generation order.
    pub fingerprint: u32,
    pub bytes: u64,
    /// Seconds inside `fcbench_datasets::generate`.
    pub generate_s: f64,
}

/// Sizes and durations, full or `--quick`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    /// Element count of a corpus: an eighth in quick mode.
    pub fn elems(&self, full: usize) -> usize {
        if self.quick {
            full / 8
        } else {
            full
        }
    }

    /// Repetitions of a fixed-count warm-up: an eighth in quick mode.
    pub fn count(&self, full: usize) -> usize {
        if self.quick {
            (full / 8).max(1)
        } else {
            full
        }
    }

    /// Rounds of a plain run: complete set-up, warm-up, a share of the
    /// window, tear-down. `setup_s` is the median of their set-ups.
    pub fn rounds(&self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }

    /// Timed warm-up before the window, excluded from every metric.
    pub fn warmup_s(&self) -> f64 {
        if self.quick {
            0.3
        } else {
            3.0
        }
    }
}

/// Clients of the closed loop and pool threads, fixed by the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Env {
    pub nproc: usize,
    pub clients: usize,
    pub pool_threads: usize,
}

impl Env {
    pub fn detect() -> Env {
        Env::for_nproc(crate::procfs::nproc())
    }

    pub fn for_nproc(nproc: usize) -> Env {
        Env {
            nproc,
            clients: (nproc / 2).max(1),
            pool_threads: nproc.clamp(1, 4),
        }
    }
}

pub trait Workload {
    fn spec(&self) -> &'static Spec;
    fn inputs(&self) -> Inputs;
    /// What set-up decided that a reader of the report should know.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
    /// How this workload's phases are cut into slices.
    fn slicing(&self) -> Slicing {
        Slicing::Time
    }
    /// Concurrent callers of the closed loop.
    fn clients(&self) -> usize {
        1
    }
    /// The program's telemetry registries this workload's layers record
    /// into; snapshotted around every phase.
    fn registries(&self) -> Vec<Arc<Registry>> {
        Vec::new()
    }
    /// Runs `phase` as a closed loop under `cfg`, spans into `tracer`.
    fn run_phase(&mut self, phase: usize, cfg: &LoopCfg, tracer: &mut Tracer) -> LoopOut;
    /// Traced runs only: measures the rungs beneath this workload's layer
    /// on the same inputs, as spans.
    fn probe(&mut self, _seconds: f64, _tracer: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Traced runs only: this workload's layers' metrics from its window.
    fn layer_metrics(
        &self,
        window: &Window,
        spans: &[Span],
        env: &Env,
        out: &mut BTreeMap<String, f64>,
    );
    /// Stops what set-up started and waits for it.
    fn teardown(self: Box<Self>) -> Result<(), String>;
}

pub struct PhaseOut {
    pub out: LoopOut,
    pub wall_s: f64,
    pub delta: RegDelta,
    pub clients: usize,
    pub slicing: Slicing,
}

impl PhaseOut {
    pub fn stats(&self) -> PhaseStats {
        PhaseStats::of(self.out.records.iter(), self.clients, self.slicing)
    }
}

/// A measured window: every phase, with the process CPU time it used.
pub struct Window {
    pub phases: Vec<PhaseOut>,
    pub cpu_s: f64,
}

impl Window {
    /// Appends the window of a later round, phase by phase, its slices
    /// numbered after this one's.
    pub fn append(&mut self, later: Window) {
        for (mine, theirs) in self.phases.iter_mut().zip(later.phases) {
            let offset = mine
                .out
                .records
                .iter()
                .map(|r| r.slice + 1)
                .max()
                .unwrap_or(0);
            let mut out = theirs.out;
            for r in &mut out.records {
                r.slice += offset;
            }
            mine.out.merge(out);
            mine.wall_s += theirs.wall_s;
            mine.delta.add(&theirs.delta);
        }
        self.cpu_s += later.cpu_s;
    }

    pub fn delta(&self) -> RegDelta {
        let mut d = RegDelta::default();
        for p in &self.phases {
            d.add(&p.delta);
        }
        d
    }

    pub fn wall_s(&self) -> f64 {
        self.phases.iter().map(|p| p.wall_s).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.out.records.len() as u64 + p.out.failed)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.out.failed).sum()
    }

    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.phases.iter().flat_map(|p| &p.out.failures)
    }
}

fn snapshots(regs: &[Arc<Registry>]) -> Vec<Snapshot> {
    regs.iter().map(|r| r.snapshot()).collect()
}

/// What a window is for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Excluded from every metric; stops on time even in the middle of a
    /// matrix pass.
    WarmUp,
    Plain,
    /// Spans recorded around every other operation.
    Traced,
}

/// Runs every phase of `w` for its share of `seconds`.
pub fn measure_window(
    w: &mut dyn Workload,
    seconds: f64,
    mode: Mode,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let regs = w.registries();
    let cpu0 = crate::procfs::cpu_seconds()?;
    let mut phases = Vec::new();
    for (i, phase) in w.spec().phases.iter().enumerate() {
        let cfg = LoopCfg {
            seconds: seconds * phase.share,
            slicing: if mode == Mode::WarmUp {
                Slicing::Time
            } else {
                w.slicing()
            },
            traced: mode == Mode::Traced,
        };
        let before = snapshots(&regs);
        let t = Instant::now();
        let out = w.run_phase(i, &cfg, tracer);
        let wall_s = t.elapsed().as_secs_f64();
        phases.push(PhaseOut {
            out,
            wall_s,
            delta: RegDelta::between(&before, &snapshots(&regs)),
            clients: w.clients(),
            slicing: cfg.slicing,
        });
    }
    Ok(Window {
        phases,
        cpu_s: crate::procfs::cpu_seconds()? - cpu0,
    })
}

/// The determinism guard: every slice of a phase must have moved the same
/// bytes per unit of work and stored them at the same ratio. The unit is
/// one operation, or one pass where slices are passes. Returns the unit's
/// raw and stored bytes.
pub fn check_slices_identical(
    records: &[OpRecord],
    slicing: Slicing,
) -> Result<(u64, u64), String> {
    let mut per_unit: Vec<(u64, u64)> = match slicing {
        Slicing::Time => records
            .iter()
            .map(|r| (r.times.raw_bytes, r.times.stored_bytes))
            .collect(),
        Slicing::Pass { .. } => {
            let mut by_pass: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
            for r in records {
                let e = by_pass.entry(r.slice).or_default();
                e.0 += r.times.raw_bytes;
                e.1 += r.times.stored_bytes;
            }
            by_pass.into_values().collect()
        }
    };
    let first = *per_unit.first().ok_or("no operation completed")?;
    per_unit.dedup();
    if per_unit.len() != 1 {
        return Err(format!(
            "slices disagree on bytes moved: {first:?} vs {:?}",
            per_unit[1]
        ));
    }
    Ok(first)
}

/// Slice rates and pooled latencies of one phase.
pub struct PhaseStats {
    pub compress_mb_s: Summary,
    pub decompress_mb_s: Summary,
    pub ops_per_s: Summary,
    /// Operation latencies in microseconds, ascending. Where slices are
    /// passes the operations of a pass are as many different shapes (the
    /// matrix's cells), and the median of such a mixture jumps between two
    /// neighbouring shapes; a sample is then one pass's mean operation.
    pub latencies_us: Vec<f64>,
}

impl PhaseStats {
    /// `clients` callers ran concurrently, so a slice's wall time is its
    /// summed per-caller time divided by `clients`.
    pub fn of<'a>(
        records: impl Iterator<Item = &'a OpRecord> + Clone,
        clients: usize,
        slicing: Slicing,
    ) -> PhaseStats {
        let c = clients.max(1) as f64;
        let slices = records.clone().map(|r| r.slice + 1).max().unwrap_or(0);
        let rate = |f: &dyn Fn(&OpTimes) -> (f64, f64)| {
            let items = records.clone().map(|r| {
                let (n, d) = f(&r.times);
                (r.slice, n, d / c)
            });
            Summary::of(&stats::slice_rates(slices, items))
        };
        let mut latencies_us: Vec<f64> = match slicing {
            Slicing::Time => records.clone().map(|r| r.times.total_s * 1e6).collect(),
            Slicing::Pass { .. } => stats::slice_rates(
                slices,
                records
                    .clone()
                    .map(|r| (r.slice, r.times.total_s * 1e6, 1.0)),
            ),
        };
        latencies_us.sort_by(f64::total_cmp);
        PhaseStats {
            compress_mb_s: rate(&|t| (t.raw_bytes as f64 / 1e6, t.write_s)),
            decompress_mb_s: rate(&|t| (t.raw_bytes as f64 / 1e6, t.read_s)),
            ops_per_s: rate(&|t| (1.0, t.total_s)),
            latencies_us,
        }
    }

    pub fn op_p50_us(&self) -> f64 {
        stats::percentile_sorted(&self.latencies_us, 0.5)
    }
}

/// `1 − traced ÷ plain` median slice `ops_per_s` of one phase of a traced
/// window.
pub fn overhead_frac(phase: &PhaseOut) -> f64 {
    let of = |traced: bool| {
        PhaseStats::of(
            phase.out.records.iter().filter(move |r| r.traced == traced),
            phase.clients,
            phase.slicing,
        )
        .ops_per_s
        .median
    };
    1.0 - of(true) / of(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(write_s: f64, read_s: f64, raw: u64, stored: u64) -> OpTimes {
        OpTimes {
            write_s,
            read_s,
            total_s: write_s + read_s,
            raw_bytes: raw,
            stored_bytes: stored,
        }
    }

    #[test]
    fn time_sliced_loop_alternates_tracing_and_stops_at_the_deadline() {
        let cfg = LoopCfg {
            seconds: 0.2,
            slicing: Slicing::Time,
            traced: true,
        };
        let mut tracer = Tracer::new(Instant::now());
        let out = closed_loop(&cfg, Instant::now(), &mut tracer, |t| {
            t.begin_op("bench", "op");
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.end_op();
            Ok(times(0.001, 0.001, 10, 5))
        });
        assert!(out.records.len() >= 20 && out.failed == 0);
        assert!(out
            .records
            .iter()
            .enumerate()
            .all(|(i, r)| r.traced == (i % 2 == 1)));
        assert!(out.records.iter().any(|r| r.slice == SLICES - 1));
        let traced = out.records.iter().filter(|r| r.traced).count();
        assert_eq!(tracer.spans().len(), traced);
        assert!(!tracer.enabled);
    }

    #[test]
    fn pass_sliced_loop_runs_whole_passes_and_counts_failures() {
        let cfg = LoopCfg {
            seconds: 0.0,
            slicing: Slicing::Pass { ops: 3 },
            traced: true,
        };
        let mut n = 0;
        let mut tracer = Tracer::new(Instant::now());
        let out = closed_loop(&cfg, Instant::now(), &mut tracer, |_| {
            n += 1;
            if n == 2 {
                Err("boom".into())
            } else {
                Ok(times(1.0, 1.0, 4, 2))
            }
        });
        // Two passes minimum when traced, even with no time.
        assert_eq!((n, out.records.len(), out.failed), (6, 5, 1));
        assert_eq!(out.failures, vec!["boom".to_string()]);
        let slices: Vec<usize> = out.records.iter().map(|r| r.slice).collect();
        assert_eq!(slices, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn slice_rates_divide_by_clients_and_latencies_pool() {
        let recs: Vec<OpRecord> = [(0, 0.5), (0, 0.5), (1, 0.25), (1, 0.25)]
            .into_iter()
            .map(|(slice, w)| OpRecord {
                slice,
                traced: false,
                times: times(w, w, 1_000_000, 500_000),
            })
            .collect();
        let one = PhaseStats::of(recs.iter(), 1, Slicing::Time);
        assert_eq!(one.compress_mb_s.median, 3.0); // slices: 2 MB/s and 4 MB/s
        assert_eq!(one.ops_per_s.median, 1.5); // 1 op/s and 2 op/s
        assert_eq!(one.op_p50_us(), 500_000.0);
        let two = PhaseStats::of(recs.iter(), 2, Slicing::Time);
        assert_eq!(two.compress_mb_s.median, 6.0);
        // Per pass, a latency sample is the pass's mean operation.
        let passes = PhaseStats::of(recs.iter(), 1, Slicing::Pass { ops: 2 });
        assert_eq!(passes.latencies_us, vec![500_000.0, 1_000_000.0]);
    }

    #[test]
    fn determinism_guard_compares_ops_or_passes() {
        let rec = |slice, raw, stored| OpRecord {
            slice,
            traced: false,
            times: times(0.1, 0.1, raw, stored),
        };
        let same = [rec(0, 8, 4), rec(3, 8, 4)];
        assert_eq!(check_slices_identical(&same, Slicing::Time), Ok((8, 4)));
        let differ = [rec(0, 8, 4), rec(1, 8, 5)];
        assert!(check_slices_identical(&differ, Slicing::Time).is_err());
        // Per pass the cells differ but the sums must not.
        let passes = [rec(0, 8, 4), rec(0, 2, 2), rec(1, 2, 2), rec(1, 8, 4)];
        assert_eq!(
            check_slices_identical(&passes, Slicing::Pass { ops: 2 }),
            Ok((10, 6))
        );
        assert!(check_slices_identical(&[], Slicing::Time).is_err());
    }

    #[test]
    fn env_follows_the_noise_rules() {
        let two = Env::for_nproc(2);
        assert_eq!((two.clients, two.pool_threads), (1, 2));
        let many = Env::for_nproc(16);
        assert_eq!((many.clients, many.pool_threads), (8, 4));
        assert_eq!(Env::for_nproc(1).clients, 1);
    }
}
