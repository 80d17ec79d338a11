//! Outside-in tracing: one span around each call the harness makes into a
//! layer's public function, kept in memory and written out when the run
//! ends. Spans inside the program are a later change.
//!
//! The timed calls go through [`Tracer::time`] in plain runs too — the
//! clock reads are the measurement; only the span push is the tracing —
//! so `trace.overhead_frac` isolates exactly what `--trace 1` adds.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call. `parent` indexes the enclosing span of the same
/// tracer (`-1` for a root); spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// What the call worked on: a codec, a dataset, a page size.
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i32,
    pub op: u64,
    /// Raw float bytes the call processed — the count recorded at the same
    /// boundary as the time, so rates come from where the work happens.
    pub bytes: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    /// Recording on? Flipped per slice in a traced run, so traced and
    /// plain slices alternate inside one window.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// An empty tracer on the same clock for client thread `client`, whose
    /// operation ids cannot collide with this one's.
    pub fn fork(&self, client: usize) -> Tracer {
        Tracer {
            op: (client as u64 + 1) << 40,
            ..Tracer::new(self.epoch)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the next operation.
    pub fn begin_op(&mut self, layer: &'static str, name: &'static str) {
        self.op += 1;
        if self.enabled {
            let start_ns = self.now_ns();
            self.stack.push(self.spans.len());
            self.spans.push(Span {
                layer,
                name,
                label: "",
                start_ns,
                end_ns: start_ns,
                parent: -1,
                op: self.op,
                bytes: 0,
            });
        }
    }

    /// Closes the span [`begin_op`](Self::begin_op) opened. A span opened
    /// while recording is closed even if recording was switched off since.
    pub fn end_op(&mut self) {
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f`, returning its result and its wall time in seconds; when
    /// recording, also keeps a span for it under the open operation.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        label: &'static str,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                layer,
                name,
                label,
                start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
                end_ns: t1.duration_since(self.epoch).as_nanos() as u64,
                parent: self.stack.last().map_or(-1, |&p| p as i32),
                op: self.op,
                bytes,
            });
        }
        (r, t1.duration_since(t0).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans (a client thread's) behind this one's,
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as i32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent >= 0 {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children never overlap (each tracer is one thread), so that part
/// is their summed duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = usize::try_from(s.parent).ok().filter(|&p| p < own.len()) {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Sum of bytes and seconds over the spans matching `(layer, name, label)`;
/// an empty `label` matches every label.
pub fn totals(spans: &[Span], layer: &str, name: &str, label: &str) -> (u64, f64) {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name && (label.is_empty() || s.label == label))
        .fold((0, 0.0), |(b, t), s| (b + s.bytes, t + s.seconds()))
}

/// MB/s (1e6 bytes per second) over the matching spans; `NaN` when there
/// are none, so a rung that was not measured cannot read as a number.
pub fn rate_mb_s(spans: &[Span], layer: &str, name: &str, label: &str) -> f64 {
    let (bytes, secs) = totals(spans, layer, name, label);
    if secs > 0.0 {
        bytes as f64 / secs / 1e6
    } else {
        f64::NAN
    }
}

/// Durations in seconds of the matching spans, in recording order.
pub fn durations(spans: &[Span], layer: &str, name: &str, label: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name && (label.is_empty() || s.label == label))
        .map(Span::seconds)
        .collect()
}

/// Writes one JSON object per span, self time included.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times_ns(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own_ns)) in spans.iter().zip(own).enumerate() {
        writeln!(
            w,
            "{{\"id\": {i}, \"parent\": {}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"label\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own_ns}, \"bytes\": {}}}",
            s.parent, s.op, s.layer, s.name, s.label, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_operation_and_self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.enabled = true;
        t.begin_op("bench", "op");
        let ((), a) = t.time("codec", "compress_into", "gorilla", 100, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (v, _) = t.time("codec", "decompress_into", "gorilla", 100, || 7);
        t.end_op();
        assert_eq!(v, 7);
        assert!(a >= 0.002);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (-1, 0, 0));
        assert!(s.iter().all(|x| x.op == 1));
        let own = self_times_ns(s);
        let children = (s[1].end_ns - s[1].start_ns) + (s[2].end_ns - s[2].start_ns);
        assert_eq!(own[0], (s[0].end_ns - s[0].start_ns) - children);
        assert_eq!(own[1], s[1].end_ns - s[1].start_ns);
        let (bytes, secs) = totals(s, "codec", "compress_into", "gorilla");
        assert_eq!(bytes, 100);
        assert!((secs - s[1].seconds()).abs() < 1e-12);
        assert!(rate_mb_s(s, "codec", "compress_into", "none").is_nan());
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        t.begin_op("bench", "op");
        let (r, secs) = t.time("codec", "compress_into", "x", 1, || 41 + 1);
        t.end_op();
        assert_eq!(r, 42);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut a = Tracer::new(Instant::now());
        a.enabled = true;
        a.begin_op("bench", "op");
        a.end_op();
        let mut b = Tracer::new(Instant::now());
        b.enabled = true;
        b.begin_op("bench", "op");
        b.time("serve", "compress", "small", 8, || ());
        b.end_op();
        a.absorb(b);
        let parents: Vec<i32> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![-1, -1, 1]);
    }
}
