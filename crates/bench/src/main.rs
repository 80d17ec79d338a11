//! `fcbench` — regenerate every table and figure of the FCBench paper.
//!
//! ```text
//! fcbench all                 run every experiment
//! fcbench table4|table5|table6|table7|table9|table10|table11
//! fcbench fig5|fig6|fig7|fig9|fig10|fig11
//! fcbench dzip                the §4.5 neural-compression experiment
//! fcbench ablations           the design-choice ablations
//! fcbench --elems N <exp>     scaled dataset size (default 131072)
//! fcbench --reps N <exp>      timed calls per measurement (default 5)
//! ```
//!
//! Every timed column follows one rule: one untimed warm call, then the
//! median of `--reps` timed calls (with their IQR where a row is one cell).

use fcbench_bench::alloc_track::{mark_installed, CountingAllocator};
use fcbench_bench::{experiments, Context, DEFAULT_ELEMS};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Default timed calls per measurement.
const DEFAULT_REPS: usize = 5;

struct Opts {
    elems: usize,
    reps: usize,
    experiments: Vec<String>,
}

fn parse_args() -> Opts {
    let mut elems = DEFAULT_ELEMS;
    let mut reps = DEFAULT_REPS;
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
         ablations (the design-choice ablations), recommend (the S7.3\n\
         selection map)\n\
         --elems N  elements per scaled dataset (default {DEFAULT_ELEMS})\n\
         --reps N   timed calls per measurement (default {DEFAULT_REPS})\n\
         timing: every timed column is one untimed warm call, then the\n\
         median (and IQR) of the N timed calls"
    );
}

fn main() {
    mark_installed();
    let opts = parse_args();

    let wanted: Vec<String> = if opts.experiments.iter().any(|e| e == "all") {
        [
            "table4",
            "fig5",
            "fig6",
            "fig7",
            "table5",
            "fig9",
            "table6",
            "recommend",
            "table7",
            "table9",
            "table10",
            "table11",
            "fig10",
            "fig11",
            "dzip",
            "ablations",
        ]
        .map(String::from)
        .to_vec()
    } else {
        opts.experiments.clone()
    };

    // Datasets and the matrix are built on the first experiment that needs
    // them, and shared by the rest.
    let ctx = Context::new(opts.elems, opts.reps);
    for exp in &wanted {
        let block = match exp.as_str() {
            "table4" => experiments::table4(&ctx),
            "fig5" => experiments::fig5(&ctx),
            "fig6" => experiments::fig6(&ctx),
            "fig7" => experiments::fig7(&ctx),
            "table5" => experiments::table5(&ctx),
            "fig9" => experiments::fig9(&ctx),
            "table6" => experiments::table6(&ctx),
            "table7" | "table8" => experiments::tables7_8(&ctx),
            "table9" => experiments::table9(&ctx.specs, ctx.datasets()),
            "table10" => experiments::table10(&ctx),
            "table11" => experiments::table11(&ctx),
            "fig10" => experiments::fig10(opts.elems),
            "fig11" => experiments::fig11(&ctx),
            "dzip" => experiments::dzip_experiment(&ctx),
            "ablations" => experiments::ablations(&ctx),
            "recommend" => fcbench_bench::recommend::recommendation_map(&ctx),
            other => {
                eprintln!("fcbench: unknown experiment {other:?}");
                print_usage();
                std::process::exit(2);
            }
        };
        println!("{}\n{}", "=".repeat(78), block);
    }
}
