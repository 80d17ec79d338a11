//! The metric tables: what `BENCHMARK.json` declares and every run prints.

use crate::workloads::{codec_matrix, column_store, frame_stream, SPECS};

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// Seconds one run measures for; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 30;

/// End-to-end metrics with their regression bounds, as shares of the
/// parent's median. Every workload reports all of them.
///
/// A bound is at least twice the widest inter-quartile spread ten
/// same-code runs of any gated workload showed on this two-vCPU sandbox
/// while it drifted (timing metrics: 12 %; `peak_rss_mb`: 8 %, the codec
/// threads' allocator arenas; `ratio`: 0.02 %, the seed's rotation), capped
/// at the quarter the benchmark contract allows. In a quiet quarter of an
/// hour the timing spreads are 1–3 %.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("compress_mb_s", "MB/s", "higher", 0.25),
    ("decompress_mb_s", "MB/s", "higher", 0.25),
    ("ratio", "x", "higher", 0.001),
    ("op_p50_us", "us", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("cpu_s_per_gb", "s/GB", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
];

/// Workloads that run on the pool and report `pool.<workload>.*`.
const POOLED: [&str; 3] = ["frame_stream", "column_store", "serve_rpc"];

/// Per-layer metrics, bottom of the ladder to top. Every traced run walks
/// the whole ladder, so every one of them is measured in every traced run.
pub fn per_layer() -> Vec<Def> {
    let mut defs = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        defs.push(Def { name, unit, better })
    };

    add("datasets.generate_s".into(), "s", "lower");
    add("datasets.bytes".into(), "B", "lower");
    for (_, _, metric) in codec_matrix::KERNELS {
        add(metric.into(), "MB/s", "higher");
    }
    for codec in codec_matrix::cpu_codecs() {
        let name = codec.info().name;
        add(format!("codec.{name}.compress_mb_s"), "MB/s", "higher");
        add(format!("codec.{name}.decompress_mb_s"), "MB/s", "higher");
        add(format!("codec.{name}.ratio"), "x", "higher");
    }
    for wl in POOLED {
        add(format!("pool.{wl}.jobs"), "count", "lower");
        add(format!("pool.{wl}.exec_s"), "s", "lower");
        add(format!("pool.{wl}.queue_wait_s"), "s", "lower");
        add(format!("pool.{wl}.busy_frac"), "frac", "higher");
        add(format!("pool.{wl}.drain_stalls"), "count", "lower");
    }
    add("stream.reader.read_ahead_stalls".into(), "count", "lower");
    add("stream.self_s".into(), "s", "lower");
    for codec in frame_stream::CODECS {
        add(format!("stream.{codec}.write_mb_s"), "MB/s", "higher");
        add(format!("stream.{codec}.read_mb_s"), "MB/s", "higher");
        add(
            format!("stream.inline.{codec}.compress_mb_s"),
            "MB/s",
            "higher",
        );
        add(
            format!("stream.inline.{codec}.decompress_mb_s"),
            "MB/s",
            "higher",
        );
        add(format!("stream.{codec}.write_eff"), "frac", "higher");
        add(format!("stream.{codec}.read_eff"), "frac", "higher");
    }
    for (_, page) in column_store::PAGES {
        add(format!("dbsim.{page}.write_mb_s"), "MB/s", "higher");
        add(format!("dbsim.{page}.read_mb_s"), "MB/s", "higher");
        add(
            format!("dbsim.{page}.inline_compress_mb_s"),
            "MB/s",
            "higher",
        );
        add(format!("dbsim.{page}.write_eff"), "frac", "higher");
    }
    for (name, unit) in [
        ("io_s", "s"),
        ("decode_s", "s"),
        ("query_s", "s"),
        ("commit_s", "s"),
        ("records", "count"),
        ("stored_per_raw", "frac"),
        ("cursor.stalls", "count"),
        ("op_tail_us", "us"),
        ("op_tail_q", "quantile"),
    ] {
        add(
            format!("dbsim.{name}"),
            unit,
            if name == "op_tail_q" {
                "higher"
            } else {
                "lower"
            },
        );
    }
    add("serve.small.compress_p50_us".into(), "us", "lower");
    add("serve.small.decompress_p50_us".into(), "us", "lower");
    add("serve.bulk.op_p50_us".into(), "us", "lower");
    for phase in ["small", "bulk"] {
        add(format!("serve.{phase}.op_tail_us"), "us", "lower");
        add(format!("serve.{phase}.op_tail_q"), "quantile", "higher");
        for name in [
            "server_request_us",
            "decode_us",
            "engine_us",
            "reply_write_us",
            "client_minus_server_us",
            "engine_minus_exec_us",
        ] {
            add(format!("serve.{phase}.{name}"), "us", "lower");
        }
    }
    add("serve.bulk.stream_mb_s".into(), "MB/s", "higher");
    add("serve.bulk.over_stream".into(), "x", "lower");
    add("serve.requests.shed".into(), "count", "lower");
    add("serve.requests.failed".into(), "count", "lower");
    add("serve.timeouts".into(), "count", "lower");
    add("serve.open.offered_ops_per_s".into(), "op/s", "higher");
    add("serve.open.p50_us".into(), "us", "lower");
    add("serve.open.tail_us".into(), "us", "lower");
    add("serve.open.tail_q".into(), "quantile", "higher");
    add("serve.open.late_frac".into(), "frac", "lower");
    for spec in SPECS {
        add(
            format!("trace.{}.overhead_frac", spec.name),
            "frac",
            "lower",
        );
    }
    add("trace.spans".into(), "count", "lower");
    defs
}

/// `BENCHMARK.json`, generated so it cannot drift from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let gated: Vec<_> = SPECS.iter().filter(|s| s.gated).collect();
    for (i, spec) in gated.iter().enumerate() {
        let comma = if i + 1 == gated.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            spec.name, spec.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let defs = per_layer();
    for (i, d) in defs.iter().enumerate() {
        let comma = if i + 1 == defs.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            d.name, d.unit, d.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_declared_limits() {
        let defs = per_layer();
        assert!(defs.len() <= 128, "{} per-layer metrics", defs.len());
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(SPECS.iter().map(|s| s.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in &defs {
            assert!(
                d.unit.len() <= 16 && matches!(d.better, "lower" | "higher"),
                "{d:?}"
            );
        }
        for (_, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert_eq!(END_TO_END[0].0, "setup_s");
        assert!(
            END_TO_END.iter().all(|m| m.3 <= END_TO_END[0].3),
            "setup_s has the largest bound"
        );
        for spec in SPECS {
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
            let shares: f64 = spec.phases.iter().map(|p| p.share).sum();
            assert!((shares - 1.0).abs() < 1e-12);
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_in_the_repo_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `fcbench-ladder manifest`"
        );
        let parsed = crate::json::parse(&on_disk).unwrap();
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert!(parsed.get(key).is_some(), "{key}");
        }
        assert_eq!(parsed.as_obj().unwrap().len(), 6);
    }
}
