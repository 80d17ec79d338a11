#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
//! Zero-allocation metrics spine for FCBench-rs.
//!
//! The repo's whole contribution is measurement, so the measurement layer
//! itself must not distort what it measures. Everything here follows one
//! discipline, the same one the codec hot paths follow:
//!
//! * **Registration is the cold path.** [`Registry::counter`],
//!   [`Registry::gauge`], and [`Registry::histogram`] take a mutex, may
//!   allocate, and hand back a pre-resolved handle.
//! * **Recording is the hot path.** A handle is an `Arc` around plain
//!   `AtomicU64` state: [`Counter::inc`] and [`Gauge::set`] are a single
//!   relaxed atomic op; [`Histogram::record`] is three (bucket, sum, max).
//!   No locks, no allocation — proven by the counting-allocator test in
//!   `crates/bench/tests/alloc_into.rs`.
//! * **Snapshots reuse buffers.** [`Registry::snapshot_into`] overwrites a
//!   caller-held [`Snapshot`] in place; after the first (cold) call it
//!   allocates nothing, so a stats endpoint polled in a loop costs only
//!   atomic loads.
//!
//! Latency is captured by log-linear histograms (HdrHistogram-style): a
//! fixed `Box<[AtomicU64]>` of [`NUM_BUCKETS`] buckets, exact below
//! [`SUBS_PER_OCTAVE`], and bounded to ~3% relative error above it (one
//! octave per power of two, [`SUBS_PER_OCTAVE`] linear sub-buckets per
//! octave). Values above [`MAX_TRACKABLE`] saturate into the top bucket —
//! nothing in this crate panics. Snapshots are mergeable bucket-wise, so
//! per-thread or per-server histograms aggregate without losing quantiles.
//!
//! The [`span!`] macro and [`Histogram::start_span`] give RAII timers: the
//! guard records elapsed nanoseconds into its histogram on drop, on every
//! exit path.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Number of linear sub-buckets per power-of-two octave (and the width of
/// the exact range: values below this are recorded with zero error).
pub const SUBS_PER_OCTAVE: usize = 32;
const SUB_BITS: usize = 5;
/// Octaves above the exact range; the last covers values up to
/// [`MAX_TRACKABLE`].
const OCTAVES: usize = 40;
/// Total bucket count of every histogram: `(OCTAVES + 1) * SUBS_PER_OCTAVE`.
pub const NUM_BUCKETS: usize = (OCTAVES + 1) * SUBS_PER_OCTAVE;
/// Largest recordable value (~9.7 hours in nanoseconds). Larger samples
/// saturate into the top bucket instead of panicking.
pub const MAX_TRACKABLE: u64 = (1u64 << (SUB_BITS + OCTAVES)) - 1;

/// Bucket index for a sample value (saturating at the top bucket).
///
/// Values below [`SUBS_PER_OCTAVE`] map one-to-one; above that, the octave
/// is the position of the most significant bit and the sub-bucket is the
/// next `SUB_BITS` bits, so the representative value is always within
/// `value / SUBS_PER_OCTAVE` of the sample.
pub fn bucket_index(value: u64) -> usize {
    let v = value.min(MAX_TRACKABLE);
    if v < SUBS_PER_OCTAVE as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let octave = msb - SUB_BITS + 1;
    let sub = ((v >> (octave - 1)) as usize) - SUBS_PER_OCTAVE;
    octave * SUBS_PER_OCTAVE + sub
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lower(index: usize) -> u64 {
    let i = index.min(NUM_BUCKETS - 1);
    let octave = i / SUBS_PER_OCTAVE;
    let sub = (i % SUBS_PER_OCTAVE) as u64;
    if octave == 0 {
        sub
    } else {
        (SUBS_PER_OCTAVE as u64 + sub) << (octave - 1)
    }
}

/// Width of a bucket (1 in the exact range, doubling per octave).
pub fn bucket_width(index: usize) -> u64 {
    let octave = index.min(NUM_BUCKETS - 1) / SUBS_PER_OCTAVE;
    if octave == 0 {
        1
    } else {
        1u64 << (octave - 1)
    }
}

/// Representative (midpoint) value reported for samples in a bucket.
/// `bucket_value(bucket_index(v))` differs from `v` by at most
/// `v / SUBS_PER_OCTAVE` for any `v <= MAX_TRACKABLE`.
pub fn bucket_value(index: usize) -> u64 {
    bucket_lower(index) + bucket_width(index) / 2
}

/// Lock a mutex, treating poisoning as harmless (every guarded region here
/// is a plain read-modify-write of registration tables).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Saturating nanosecond count of a duration.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Pre-resolved handle to a monotonically increasing counter. Cloning is an
/// `Arc` bump; recording is one relaxed `fetch_add`.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (records are still counted;
    /// useful as a disabled default).
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Pre-resolved handle to a gauge (a value that goes up and down, e.g.
/// occupied pool slots or live connections).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub(crate) fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Saturating decrement: a stray double-drop clamps at zero instead of
    /// wrapping to `u64::MAX` and poisoning every later reading.
    pub(crate) fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Increment now, decrement when the guard drops — the leak-proof way
    /// to track "currently active" quantities across early returns.
    pub fn inc_scoped(&self) -> GaugeGuard {
        self.add(1);
        GaugeGuard {
            gauge: self.clone(),
        }
    }
}

/// RAII guard from [`Gauge::inc_scoped`]; decrements on drop.
pub struct GaugeGuard {
    gauge: Gauge,
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.gauge.sub(1);
    }
}

/// Tracks one owner's contribution to a shared gauge (e.g. a frame
/// stream's in-flight blocks on a pool shared by many streams). The owner
/// calls [`InflightGauge::sync`] with its current count after every
/// mutation; on drop, whatever is still held is released — so an owner
/// abandoned mid-stream (error paths, dropped connections) can never leak
/// a phantom reading into the gauge.
#[derive(Default)]
pub struct InflightGauge {
    gauge: Option<Gauge>,
    held: u64,
}

impl InflightGauge {
    /// A tracker feeding `gauge`.
    pub fn attached(gauge: Gauge) -> Self {
        InflightGauge {
            gauge: Some(gauge),
            held: 0,
        }
    }

    /// A no-op tracker (no telemetry configured); `sync` does nothing.
    pub fn detached() -> Self {
        InflightGauge::default()
    }

    /// Reconcile the shared gauge with this owner's current count.
    pub fn sync(&mut self, now: usize) {
        let Some(gauge) = self.gauge.as_ref() else {
            return;
        };
        let now = now as u64;
        if now > self.held {
            gauge.add(now - self.held);
        } else {
            gauge.sub(self.held - now);
        }
        self.held = now;
    }
}

impl Drop for InflightGauge {
    fn drop(&mut self) {
        if let Some(gauge) = self.gauge.as_ref() {
            gauge.sub(self.held);
        }
    }
}

struct HistogramCore {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        let v = value.min(MAX_TRACKABLE);
        let i = bucket_index(v);
        if let Some(b) = self.buckets.get(i) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot_into(&self, out: &mut HistogramSnapshot) {
        out.buckets.resize(NUM_BUCKETS, 0);
        let mut count = 0u64;
        for (slot, b) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            let v = b.load(Ordering::Relaxed);
            *slot = v;
            count = count.saturating_add(v);
        }
        out.count = count;
        out.sum = self.sum.load(Ordering::Relaxed);
        out.max = self.max.load(Ordering::Relaxed);
    }
}

/// Pre-resolved handle to a log-linear latency histogram. Recording is
/// three relaxed atomic ops (bucket, sum, max); cloning is an `Arc` bump.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    pub fn detached() -> Self {
        Histogram(Arc::new(HistogramCore::new()))
    }

    /// Record one sample (saturating at [`MAX_TRACKABLE`], never panics).
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(nanos(d));
    }

    /// Start an RAII timer; elapsed nanoseconds are recorded when the
    /// returned [`Span`] drops, on every exit path.
    pub fn start_span(&self) -> Span {
        Span {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Point-in-time copy (allocates; prefer `Histogram::snapshot_into`
    /// on hot paths).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::default();
        self.snapshot_into(&mut s);
        s
    }

    /// Overwrite `out` in place; allocation-free once `out` has been used
    /// for any histogram snapshot before.
    pub(crate) fn snapshot_into(&self, out: &mut HistogramSnapshot) {
        self.0.snapshot_into(out);
    }
}

/// RAII timer feeding a [`Histogram`]; created by [`Histogram::start_span`]
/// or the [`span!`] macro.
pub struct Span {
    hist: Histogram,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(nanos(self.start.elapsed()));
    }
}

/// `span!(registry, "pool.exec")` — resolve (or create) the named histogram
/// in `registry` and start an RAII timer on it. Resolution takes the
/// registry lock, so hot paths should pre-resolve with
/// [`Registry::histogram`] and call [`Histogram::start_span`] directly.
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        $registry.histogram($name).start_span()
    };
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Mergeable point-in-time copy of a histogram: full bucket array plus
/// count/sum/max. Quantiles are computed from the buckets, so merging two
/// snapshots bucket-wise preserves them exactly (relative to recording the
/// union directly).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (after saturation clamping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (after saturation clamping).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, zero when empty.
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Value at quantile `q` in `[0, 1]`: the representative value of the
    /// bucket containing the ceil(q * count)-th sample, clamped to the
    /// observed max. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank_f = (q.clamp(0.0, 1.0) * self.count as f64).ceil();
        let rank = if rank_f < 1.0 {
            1
        } else if rank_f >= self.count as f64 {
            self.count
        } else {
            rank_f as u64
        };
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*c);
            if seen >= rank {
                let rep = bucket_value(i);
                return if self.max > 0 { rep.min(self.max) } else { rep };
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub(crate) fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub(crate) fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merge another snapshot into this one bucket-wise. Quantiles of the
    /// result match recording both sample sets into one histogram.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(index, count)` pairs — the sparse form the
    /// `STATS_V2` wire encoding carries.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0)
            .map(|(i, c)| (i, *c))
    }

    /// Number of non-empty buckets (the sparse encoding's row count).
    pub fn nonzero_len(&self) -> usize {
        self.buckets.iter().filter(|c| **c != 0).count()
    }

    /// Rebuild a snapshot from its sparse wire form. Returns `None` if a
    /// bucket index is out of range ([`NUM_BUCKETS`]) — corrupt wire data,
    /// never a panic.
    pub fn from_sparse(pairs: &[(u16, u64)], sum: u64, max: u64) -> Option<Self> {
        let mut s = HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum,
            max,
        };
        for &(i, c) in pairs {
            let slot = s.buckets.get_mut(usize::from(i))?;
            *slot = slot.saturating_add(c);
            s.count = s.count.saturating_add(c);
        }
        Some(s)
    }
}

/// Reusable point-in-time copy of a whole [`Registry`]. Names are shared
/// `Arc<str>`s, and [`Registry::snapshot_into`] overwrites rows in place,
/// so refreshing a warm snapshot allocates nothing.
#[derive(Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<(Arc<str>, u64)>,
    pub gauges: Vec<(Arc<str>, u64)>,
    pub histograms: Vec<(Arc<str>, HistogramSnapshot)>,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, h)| h)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Tables {
    counters: Vec<(Arc<str>, Counter)>,
    gauges: Vec<(Arc<str>, Gauge)>,
    histograms: Vec<(Arc<str>, Histogram)>,
}

/// Named metric registry. Registration (get-or-create by name) takes a
/// mutex and is the cold path; the returned handles record lock-free.
/// Registration order is stable and append-only, which is what lets
/// [`Registry::snapshot_into`] refresh a warm [`Snapshot`] in place.
#[derive(Default)]
pub struct Registry {
    tables: Mutex<Tables>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut t = lock(&self.tables);
        if let Some((_, c)) = t.counters.iter().find(|(n, _)| &**n == name) {
            return c.clone();
        }
        let c = Counter::detached();
        t.counters.push((Arc::from(name), c.clone()));
        c
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut t = lock(&self.tables);
        if let Some((_, g)) = t.gauges.iter().find(|(n, _)| &**n == name) {
            return g.clone();
        }
        let g = Gauge::detached();
        t.gauges.push((Arc::from(name), g.clone()));
        g
    }

    /// Get or create the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut t = lock(&self.tables);
        if let Some((_, h)) = t.histograms.iter().find(|(n, _)| &**n == name) {
            return h.clone();
        }
        let h = Histogram::detached();
        t.histograms.push((Arc::from(name), h.clone()));
        h
    }

    /// A lock-free label-to-histogram cache under `prefix` (e.g. per-codec
    /// job timing: `pool.exec.codec` + `"gorilla"` →
    /// `pool.exec.codec.gorilla`).
    pub fn histogram_family(self: &Arc<Self>, prefix: &str) -> HistogramFamily {
        HistogramFamily {
            registry: Arc::clone(self),
            prefix: prefix.into(),
            slots: (0..FAMILY_SLOTS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Point-in-time copy of everything (allocates; prefer
    /// [`Registry::snapshot_into`] on hot paths).
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        self.snapshot_into(&mut s);
        s
    }

    /// Overwrite `out` in place. Counter/gauge rows are cleared and
    /// re-pushed (capacity retained, names are `Arc` clones); histogram
    /// rows are refreshed in place by registration index. After the first
    /// call with a given `out`, this allocates nothing until new metrics
    /// are registered.
    pub fn snapshot_into(&self, out: &mut Snapshot) {
        let t = lock(&self.tables);
        out.counters.clear();
        for (name, c) in &t.counters {
            out.counters.push((Arc::clone(name), c.get()));
        }
        out.gauges.clear();
        for (name, g) in &t.gauges {
            out.gauges.push((Arc::clone(name), g.get()));
        }
        for (i, (name, h)) in t.histograms.iter().enumerate() {
            if let Some(row) = out.histograms.get_mut(i) {
                row.0 = Arc::clone(name);
                h.snapshot_into(&mut row.1);
            } else {
                let mut s = HistogramSnapshot::default();
                h.snapshot_into(&mut s);
                out.histograms.push((Arc::clone(name), s));
            }
        }
        out.histograms.truncate(t.histograms.len());
    }

    /// Text exposition: one line per metric, stable order, greppable.
    ///
    /// ```text
    /// counter serve.requests.ok 42
    /// gauge pool.slots.occupied 3
    /// histogram serve.request.compress count 18 p50_ns 10432 p90_ns 20480 p99_ns 31488 p999_ns 31488 max_ns 30912 mean_ns 12110
    /// ```
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "histogram {name} count {} p50_ns {} p90_ns {} p99_ns {} p999_ns {} max_ns {} mean_ns {}",
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
                h.max(),
                h.mean(),
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Families: lock-free dynamic-label handle caches
// ---------------------------------------------------------------------------

const FAMILY_SLOTS: usize = 64;

fn fnv(label: &str) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h as usize
}

/// Open-addressed cache of per-label histograms under one prefix. The first
/// lookup of a label registers `prefix.label` (allocates, registry lock);
/// every later lookup is a hash + probe over `OnceLock` slots — no locks,
/// no allocation, safe code only. Returns `None` once all
/// [`FAMILY_SLOTS`] slots hold other labels (the sample is dropped, never
/// an error — metric cardinality is bounded by construction).
/// One lazily-registered slot: the label it holds and its histogram.
type FamilySlot = OnceLock<(Box<str>, Histogram)>;

pub struct HistogramFamily {
    registry: Arc<Registry>,
    prefix: Box<str>,
    slots: Box<[FamilySlot]>,
}

impl HistogramFamily {
    pub fn get(&self, label: &str) -> Option<&Histogram> {
        let mask = FAMILY_SLOTS - 1;
        let mut i = fnv(label) & mask;
        for _ in 0..FAMILY_SLOTS {
            let slot = self.slots.get(i)?;
            let (name, hist) = slot.get_or_init(|| {
                let full = format!("{}.{}", self.prefix, label);
                (label.into(), self.registry.histogram(&full))
            });
            if &**name == label {
                return Some(hist);
            }
            i = (i + 1) & mask;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same underlying cell.
        assert_eq!(reg.counter("a.b").get(), 5);

        let g = reg.gauge("g");
        g.set(10);
        g.add(2);
        g.sub(5);
        assert_eq!(g.get(), 7);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge decrements saturate, never wrap");
        {
            let _guard = g.inc_scoped();
            assert_eq!(g.get(), 1);
        }
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn inflight_gauge_syncs_and_releases_on_drop() {
        let reg = Registry::new();
        let g = reg.gauge("inflight");
        let mut a = InflightGauge::attached(g.clone());
        let mut b = InflightGauge::attached(g.clone());
        a.sync(3);
        b.sync(2);
        assert_eq!(g.get(), 5);
        a.sync(1);
        assert_eq!(g.get(), 3);
        drop(a);
        assert_eq!(g.get(), 2, "dropping an owner releases only its share");
        drop(b);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_exact_below_linear_range() {
        let h = Histogram::detached();
        for v in 0..SUBS_PER_OCTAVE as u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), SUBS_PER_OCTAVE as u64);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.max(), SUBS_PER_OCTAVE as u64 - 1);
        // Median of 0..32 recorded exactly.
        assert_eq!(s.p50(), 15);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let h = Histogram::detached();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.p50() as f64;
        let p99 = s.p99() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.05, "p50 = {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.05, "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 10_000);
    }

    #[test]
    fn saturation_not_panic() {
        let h = Histogram::detached();
        h.record(u64::MAX);
        h.record(MAX_TRACKABLE + 1);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), MAX_TRACKABLE);
        assert!(s.p50() <= MAX_TRACKABLE);
    }

    #[test]
    fn merge_matches_union() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        let u = Histogram::detached();
        for v in [1u64, 50, 900, 30_000] {
            a.record(v);
            u.record(v);
        }
        for v in [7u64, 120, 1_000_000] {
            b.record(v);
            u.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge_from(&b.snapshot());
        assert_eq!(merged, u.snapshot());
    }

    #[test]
    fn sparse_roundtrip_rejects_bad_index() {
        let h = Histogram::detached();
        for v in [3u64, 3, 500, 80_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let pairs: Vec<(u16, u64)> = s.nonzero_buckets().map(|(i, c)| (i as u16, c)).collect();
        let back = HistogramSnapshot::from_sparse(&pairs, s.sum(), s.max());
        assert_eq!(back.as_ref(), Some(&s));
        assert!(HistogramSnapshot::from_sparse(&[(u16::MAX, 1)], 0, 0).is_none());
    }

    #[test]
    fn warm_snapshot_refreshes_in_place() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        c.inc();
        h.record(40);
        let mut snap = Snapshot::default();
        reg.snapshot_into(&mut snap);
        assert_eq!(snap.counter("c"), Some(1));
        c.add(9);
        h.record(41);
        reg.snapshot_into(&mut snap);
        assert_eq!(snap.counter("c"), Some(10));
        assert_eq!(snap.histogram("h").map(|h| h.count()), Some(2));
    }

    #[test]
    fn span_records_on_drop() {
        let reg = Registry::new();
        {
            let _span = span!(reg, "work");
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = reg.histogram("work").snapshot();
        assert_eq!(s.count(), 1);
        assert!(s.max() >= 1_000_000, "slept >= 1ms, max = {}", s.max());
    }

    #[test]
    fn family_resolves_and_bounds_cardinality() {
        let reg = Arc::new(Registry::new());
        let fam = reg.histogram_family("pool.exec.codec");
        let record = |label: &str| fam.get(label).map(|h| h.record(1)).is_some();
        assert!(record("gorilla"));
        assert!(record("gorilla"));
        assert!(record("chimp128"));
        let snap = reg.snapshot();
        assert_eq!(
            snap.histogram("pool.exec.codec.gorilla").map(|h| h.count()),
            Some(2)
        );
        assert_eq!(
            snap.histogram("pool.exec.codec.chimp128")
                .map(|h| h.count()),
            Some(1)
        );
        // Overflowing the slot table degrades to dropping samples, not
        // erroring or growing without bound.
        for i in 0..(FAMILY_SLOTS * 2) {
            record(&format!("label-{i}"));
        }
        assert!(reg.snapshot().histograms.len() <= FAMILY_SLOTS + 2);
    }

    #[test]
    fn exposition_lines_are_greppable() {
        let reg = Registry::new();
        reg.counter("serve.requests.ok").add(3);
        reg.gauge("serve.connections.active").set(2);
        reg.histogram("serve.request.compress").record(1500);
        let text = reg.render_text();
        assert!(text.contains("counter serve.requests.ok 3\n"));
        assert!(text.contains("gauge serve.connections.active 2\n"));
        assert!(text.contains("histogram serve.request.compress count 1 "));
    }
}
