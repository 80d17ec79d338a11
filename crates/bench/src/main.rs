//! `fcbench` — regenerate every table and figure of the FCBench paper.
//!
//! ```text
//! fcbench all                 run every experiment
//! fcbench table4|table5|table6|table7|table9|table10|table11
//! fcbench fig5|fig6|fig7|fig9|fig10|fig11
//! fcbench dzip                the §4.5 neural-compression experiment
//! fcbench --elems N <exp>     scaled dataset size (default 131072)
//! fcbench --reps N <exp>      timing repetitions per cell (default 1)
//! ```

use fcbench_bench::alloc_track::{mark_installed, CountingAllocator};
use fcbench_bench::{build_context, experiments, Context, DEFAULT_ELEMS};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Opts {
    elems: usize,
    reps: usize,
    experiments: Vec<String>,
}

fn parse_args() -> Opts {
    let mut elems = DEFAULT_ELEMS;
    let mut reps = 1usize;
    let mut experiments = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--elems" => {
                elems = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--elems needs a number"));
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs a number"));
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    Opts {
        elems,
        reps,
        experiments,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("fcbench: {msg}");
    std::process::exit(2);
}

fn print_usage() {
    println!(
        "usage: fcbench [--elems N] [--reps N] <experiment>...\n\
         experiments: all, table4, fig5, fig6, fig7, table5, fig9, table6,\n\
         table7 (incl. table8), table9, table10, table11, fig10, fig11, dzip,\n\
         recommend (the S7.3 selection map)"
    );
}

/// Experiments that share the full measurement matrix.
const MATRIX_EXPERIMENTS: [&str; 8] = [
    "table4",
    "fig5",
    "fig6",
    "fig7",
    "table5",
    "fig9",
    "table6",
    "recommend",
];

fn main() {
    mark_installed();
    let opts = parse_args();

    let wanted: Vec<String> = if opts.experiments.iter().any(|e| e == "all") {
        let mut v: Vec<String> = MATRIX_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
        // "recommend" is already in MATRIX_EXPERIMENTS; adding it here would
        // run the S7.3 map twice.
        v.extend(
            [
                "table7", "table9", "table10", "table11", "fig10", "fig11", "dzip",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        v
    } else {
        opts.experiments.clone()
    };

    let needs_matrix = wanted
        .iter()
        .any(|e| MATRIX_EXPERIMENTS.contains(&e.as_str()));
    let needs_datasets = wanted.iter().any(|e| e == "table9" || e == "table10");

    let mut ctx: Option<Context> = None;
    if needs_matrix || needs_datasets {
        eprintln!(
            "fcbench: generating 33 datasets at ~{} elements and running the 14x33 matrix...",
            opts.elems
        );
        ctx = Some(build_context(opts.elems, opts.reps));
    }

    for exp in &wanted {
        let block = match exp.as_str() {
            "table4" => experiments::table4(ctx.as_ref().expect("matrix built")),
            "fig5" => experiments::fig5(ctx.as_ref().expect("matrix built")),
            "fig6" => experiments::fig6(ctx.as_ref().expect("matrix built")),
            "fig7" => experiments::fig7(ctx.as_ref().expect("matrix built")),
            "table5" => experiments::table5(ctx.as_ref().expect("matrix built")),
            "fig9" => experiments::fig9(ctx.as_ref().expect("matrix built")),
            "table6" => experiments::table6(ctx.as_ref().expect("matrix built")),
            "table7" | "table8" => experiments::tables7_8(opts.elems, opts.reps.max(2)),
            "table9" => {
                let c = ctx.as_ref().expect("datasets built");
                experiments::table9(&c.specs, &c.datasets)
            }
            "table10" => experiments::table10(ctx.as_ref().expect("datasets built")),
            "table11" => experiments::table11(opts.elems, 64 * 1024 / 8),
            "fig10" => experiments::fig10(opts.elems),
            "fig11" => experiments::fig11(opts.elems),
            "dzip" => experiments::dzip_experiment(16384),
            "recommend" => {
                fcbench_bench::recommend::recommendation_map(ctx.as_ref().expect("matrix built"))
            }
            other => {
                eprintln!("fcbench: unknown experiment {other:?}");
                print_usage();
                std::process::exit(2);
            }
        };
        println!("{}\n{}", "=".repeat(78), block);
    }
}
