//! One process, one run: the plain run that measures the end-to-end
//! metrics of a workload, and the traced run that walks the whole ladder
//! for the per-layer ones.

use crate::harness::{
    check_slices_identical, measure_window, overhead_frac, Env, Mode, PhaseOut, PhaseStats, Scale,
    Spec, Window, Workload,
};
use crate::json::{self, Value};
use crate::metrics;
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};
use crate::workloads::{self, SPECS};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

/// What a run prints as its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Name, value, unit — in declaration order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn result_line(&self) -> String {
        json::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        json::obj([
                            ("value", Value::Num(*value)),
                            ("unit", Value::Str(unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }
}

fn print_env(env: &Env, args: &RunArgs) {
    println!(
        "env: {{\"nproc\": {}, \"clients\": {}, \"pool_threads\": {}, \"shared_cores\": true, \"loopback\": true, \
         \"os\": \"{}\", \"arch\": \"{}\", \"seed\": {}, \"seconds\": {}, \"quick\": {}}}",
        env.nproc,
        env.clients,
        env.pool_threads,
        std::env::consts::OS,
        std::env::consts::ARCH,
        args.seed,
        args.seconds,
        args.scale.quick
    );
    if args.scale.quick {
        println!("QUICK MODE: smaller inputs and shorter windows — these numbers are not comparable with any other run");
    }
}

fn print_failures(window: &Window) {
    for f in window.failures() {
        eprintln!("failed operation: {f}");
    }
}

/// Checks the determinism guard on every phase and returns the window's
/// raw and stored bytes per unit of work, summed over phases.
fn guard(w: &dyn Workload, window: &Window) -> Result<(u64, u64), String> {
    let mut total = (0, 0);
    for (phase, out) in w.spec().phases.iter().zip(&window.phases) {
        let (raw, stored) = check_slices_identical(&out.out.records, w.slicing())
            .map_err(|e| format!("determinism guard, phase {}: {e}", phase.name))?;
        total = (total.0 + raw, total.1 + stored);
    }
    Ok(total)
}

fn fmt_summary(s: &Summary) -> String {
    format!(
        "{:.6} (slice p25-p75 {:.6}-{:.6}, {} slices)",
        s.median, s.q1, s.q3, s.n
    )
}

/// The plain run: rounds of set-up, warm-up and a share of the measured
/// window; `setup_s` is the median set-up, the rest comes from all rounds'
/// slices together.
pub fn plain(args: &RunArgs) -> Result<Outcome, String> {
    let env = Env::detect();
    let spec = args.spec;
    print_env(&env, args);
    let mut tracer = Tracer::new(Instant::now());

    // One round per set-up cycle: build everything, warm up, measure a
    // share of the window, tear everything down. What a process draws once
    // — where its buffers land, which core its threads start on — is drawn
    // again every round, so one unlucky draw cannot colour a whole run.
    let rounds = args.scale.rounds();
    let mut setup_s = Vec::new();
    let mut window: Option<Window> = None;
    let (mut warm_failed, mut guarded) = (0, (0, 0));
    let (mut inputs, mut notes) = (Default::default(), Vec::new());
    for round in 0..rounds {
        let t = Instant::now();
        let mut w = workloads::setup(spec, args.seed, args.scale, &env, &mut tracer)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let warm = measure_window(
            w.as_mut(),
            args.scale.warmup_s() / rounds as f64,
            Mode::WarmUp,
            &mut tracer,
        )?;
        // A round runs past its share by up to one operation (one matrix
        // pass); the later rounds split what is left, so the window keeps
        // its length.
        let measured = window.as_ref().map_or(0.0, Window::wall_s);
        let share = ((args.seconds - measured) / (rounds - round) as f64).max(0.0);
        let round = measure_window(w.as_mut(), share, Mode::Plain, &mut tracer)?;
        print_failures(&warm);
        print_failures(&round);
        warm_failed += warm.failed();
        if round.failed() == 0 {
            let moved = guard(w.as_ref(), &round)?;
            if window.is_some() && moved != guarded {
                return Err(format!(
                    "determinism guard: rounds disagree on bytes moved: {guarded:?} vs {moved:?}"
                ));
            }
            guarded = moved;
        }
        inputs = w.inputs();
        notes = w.notes();
        w.teardown()?;
        match &mut window {
            Some(all) => all.append(round),
            None => window = Some(round),
        }
    }
    let window = window.ok_or("no round ran")?;
    let peak_rss_mb = crate::procfs::peak_rss_mib()?;
    let failed = warm_failed + window.failed();
    let attempted = window.attempted();

    let stats: Vec<PhaseStats> = window.phases.iter().map(PhaseOut::stats).collect();
    let (lat, rate) = (&stats[spec.latency_phase], &stats[spec.rate_phase]);
    let (unit_raw, unit_stored) = guarded;

    let moved_gb: f64 = window
        .phases
        .iter()
        .flat_map(|p| &p.out.records)
        .map(|r| 2.0 * r.times.raw_bytes as f64 / 1e9)
        .sum();
    let values = [
        stats::median(&setup_s),
        rate.compress_mb_s.median,
        rate.decompress_mb_s.median,
        unit_raw as f64 / unit_stored as f64,
        lat.op_p50_us(),
        lat.ops_per_s.median,
        window.cpu_s / moved_gb,
        peak_rss_mb,
    ];

    println!("workload: {} — {}", spec.name, spec.op);
    for note in notes {
        println!("note: {note}");
    }
    println!(
        "inputs: fingerprint crc32={:08x}, {} bytes generated in {:.3} s",
        inputs.fingerprint, inputs.bytes, inputs.generate_s
    );
    println!(
        "guard: every slice moved {unit_raw} raw bytes per unit of work into {unit_stored} stored bytes"
    );
    for (phase, (p, st)) in spec.phases.iter().zip(window.phases.iter().zip(&stats)) {
        println!(
            "phase {}: {} ops by {} client(s) in {:.3} s, {} failed; op latency p50 {:.1} us over {} samples",
            phase.name,
            p.out.records.len(),
            p.clients,
            p.wall_s,
            p.out.failed,
            st.op_p50_us(),
            st.latencies_us.len()
        );
        if let Some((q, v)) = stats::highest_supported_percentile(&st.latencies_us) {
            println!(
                "  tail (ungated): p{:.0} = {v:.1} us, >=10 samples beyond",
                q * 100.0
            );
        }
    }
    println!("  setup_s per round: {setup_s:?}");
    println!("  compress_mb_s   {}", fmt_summary(&rate.compress_mb_s));
    println!("  decompress_mb_s {}", fmt_summary(&rate.decompress_mb_s));
    println!("  ops_per_s       {}", fmt_summary(&lat.ops_per_s));
    println!(
        "  cpu {:.2} s over {:.3} GB moved in {:.3} s of window",
        window.cpu_s,
        moved_gb,
        window.wall_s()
    );

    Ok(Outcome {
        attempted,
        failed,
        metrics: metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _, _), v)| (name.to_string(), v, *unit))
            .collect(),
    })
}

/// Share of a traced run's window the named workload gets; the other three
/// split the rest, so every layer is measured in every traced run.
const TRACED_SHARE: f64 = 0.5;

/// Warm-up before each traced window.
const TRACED_WARMUP_S: f64 = 0.5;

/// The traced run: every workload in turn, spans recorded around every
/// other operation, the rungs beneath each layer probed on the same inputs.
pub fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let env = Env::detect();
    print_env(&env, args);
    let epoch = Instant::now();
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let (mut attempted, mut failed, mut spans) = (0, 0, 0);
    let (mut generate_s, mut bytes) = (0.0, 0);

    for spec in SPECS {
        let share = if spec.name == args.spec.name {
            TRACED_SHARE
        } else {
            (1.0 - TRACED_SHARE) / (SPECS.len() - 1) as f64
        };
        let seconds = args.seconds * share;
        let mut tracer = Tracer::new(epoch);
        tracer.enabled = true;
        let mut w = workloads::setup(spec, args.seed, args.scale, &env, &mut tracer)?;
        tracer.enabled = false;
        let warm = measure_window(
            w.as_mut(),
            args.scale.warmup_s().min(TRACED_WARMUP_S),
            Mode::WarmUp,
            &mut tracer,
        )?;
        let window = measure_window(w.as_mut(), seconds, Mode::Traced, &mut tracer)?;
        tracer.enabled = true;
        let probed = w.probe(seconds / 3.0, &mut tracer);
        tracer.enabled = false;
        print_failures(&warm);
        print_failures(&window);
        attempted += window.attempted();
        failed += warm.failed() + window.failed();
        if let Err(e) = probed {
            eprintln!("failed probe: {e}");
            failed += 1;
        }
        if failed == 0 {
            guard(w.as_ref(), &window)?;
        }
        w.layer_metrics(&window, tracer.spans(), &env, &mut out);
        out.insert(
            format!("trace.{}.overhead_frac", spec.name),
            overhead_frac(&window.phases[spec.latency_phase]),
        );
        generate_s += w.inputs().generate_s;
        bytes += w.inputs().bytes;
        spans += tracer.spans().len();
        w.teardown()?;

        let path = crate::out_dir().join(format!("trace-{}.jsonl", spec.name));
        trace::write_jsonl(&path, tracer.spans())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "traced {}: {:.1} s window, {} ops, {} spans -> {}",
            spec.name,
            window.wall_s(),
            window.attempted(),
            tracer.spans().len(),
            path.display()
        );
    }
    out.insert("datasets.generate_s".into(), generate_s);
    out.insert("datasets.bytes".into(), bytes as f64);
    out.insert("trace.spans".into(), spans as f64);

    let mut metrics = Vec::new();
    for def in metrics::per_layer() {
        let v = out.get(&def.name).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            return Err(format!(
                "per-layer metric {} was not measured ({v})",
                def.name
            ));
        }
        println!("  {:<44} {:>16.6} {}", def.name, v, def.unit);
        metrics.push((def.name, v, def.unit));
    }
    print_ladder(&out, &env);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// The ladder: gorilla's MB/s at each rung, each beside its ratio to the
/// rung below it *on the same inputs*.
fn print_ladder(m: &BTreeMap<String, f64>, env: &Env) {
    let get = |k: &str| m.get(k).copied().unwrap_or(f64::NAN);
    let t = env.pool_threads;
    let serve_bulk = get("serve.bulk.stream_mb_s") / get("serve.bulk.over_stream");
    let rows: [(String, f64, f64, &str, f64); 7] = [
        (
            "codec: compress_into/decompress_into, 4 datasets, 1 thread".into(),
            get("codec.gorilla.compress_mb_s"),
            get("codec.gorilla.decompress_mb_s"),
            "(bottom rung)",
            f64::NAN,
        ),
        (
            "stream inline: FrameWriter/Reader, miranda3d, 64Ki blocks, 1 thread".into(),
            get("stream.inline.gorilla.compress_mb_s"),
            get("stream.inline.gorilla.decompress_mb_s"),
            "write / codec compress",
            get("stream.inline.gorilla.compress_mb_s") / get("codec.gorilla.compress_mb_s"),
        ),
        (
            format!("stream pooled: same blocks over the pool, {t} threads"),
            get("stream.gorilla.write_mb_s"),
            get("stream.gorilla.read_mb_s"),
            "write / inline write",
            get("stream.gorilla.write_mb_s") / get("stream.inline.gorilla.compress_mb_s"),
        ),
        (
            "container pages inline: compress_into per 64Ki page, tpcH-order, 1 thread".into(),
            get("dbsim.page64k.inline_compress_mb_s"),
            f64::NAN,
            "(rung below the container)",
            f64::NAN,
        ),
        (
            format!("container 64Ki pages: write_container_pooled / read+decode, {t} threads"),
            get("dbsim.page64k.write_mb_s"),
            get("dbsim.page64k.read_mb_s"),
            "write / inline pages",
            get("dbsim.page64k.write_mb_s") / get("dbsim.page64k.inline_compress_mb_s"),
        ),
        (
            "container 4Ki pages: the paper's page".into(),
            get("dbsim.page4k.write_mb_s"),
            get("dbsim.page4k.read_mb_s"),
            "write / 64Ki-page write",
            get("dbsim.page4k.write_mb_s") / get("dbsim.page64k.write_mb_s"),
        ),
        (
            "serve bulk: FCS1 compress+decompress of 4 MiB, round trip".into(),
            serve_bulk,
            f64::NAN,
            "round trip / local stream round trip on the same pool",
            1.0 / get("serve.bulk.over_stream"),
        ),
    ];
    println!(
        "ladder (gorilla, MB/s of raw bytes; each ratio is to the rung below on the same inputs):"
    );
    println!("  {:<82} {:>10} {:>10}  ratio", "rung", "write", "read");
    for (name, write, read, what, ratio) in rows {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v:.1}")
            } else {
                "-".into()
            }
        };
        let ratio = if ratio.is_finite() {
            format!("{ratio:.3} = {what}")
        } else {
            what.to_string()
        };
        println!("  {name:<82} {:>10} {:>10}  {ratio}", num(write), num(read));
    }
    println!(
        "  local stream round trip of the serve payload: {:.1} MB/s",
        get("serve.bulk.stream_mb_s")
    );
}
