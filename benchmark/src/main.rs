//! `fcbench-ladder` — the repo's benchmark.
//!
//! ```text
//! fcbench-ladder --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! fcbench-ladder run     [--seed N] [--seconds S] [--quick] [--out FILE]
//! fcbench-ladder repeat  --runs K [--seed N] [--seconds S] [--quick] [--out FILE]
//! fcbench-ladder compare A.json B.json
//! fcbench-ladder manifest
//! ```
//!
//! The first form is one run in this process and ends with the result line
//! `BENCHMARK.json`'s contract asks for; see `benchmark/README.md`.

#![forbid(unsafe_code)]

mod corpus;
mod harness;
mod json;
mod metrics;
mod openloop;
mod procfs;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Where the harness writes: span files, run files, the container's
/// temporary table. Inside the benchmark's own directory, wherever the
/// process was started from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage:
  fcbench-ladder --workload <codec_matrix|frame_stream|column_store|serve_rpc> [--seed N] [--seconds S] [--trace 0|1] [--quick]
  fcbench-ladder run     [--seed N] [--seconds S] [--quick] [--out FILE]
  fcbench-ladder repeat  --runs K [--seed N] [--seconds S] [--quick] [--out FILE]
  fcbench-ladder compare A.json B.json
  fcbench-ladder manifest";

/// Seconds per workload in `--quick` mode: the whole suite within 20 s.
const QUICK_SECONDS: f64 = 2.0;

#[derive(Debug, Default, PartialEq)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: Option<usize>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => f.workload = Some(value("--workload")?),
            "--seed" => {
                f.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--runs" => {
                f.runs = Some(
                    value("--runs")?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?,
                )
            }
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => f.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(arg.clone()),
        }
    }
    Ok(f)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args)?;
    let seconds = f.seconds.unwrap_or(if f.quick {
        QUICK_SECONDS
    } else {
        metrics::RUN_SECONDS as f64
    });
    let suite_args = suite::SuiteArgs {
        seed: f.seed.unwrap_or(1),
        seconds,
        quick: f.quick,
    };
    let out = |default: &str| f.out.clone().unwrap_or_else(|| out_dir().join(default));
    match (f.positional.first().map(String::as_str), &f.workload) {
        (None, Some(name)) => {
            let spec =
                workloads::find(name).ok_or_else(|| format!("no workload {name}\n{USAGE}"))?;
            let args = run::RunArgs {
                spec,
                seed: suite_args.seed,
                seconds,
                traced: f.trace,
                scale: harness::Scale { quick: f.quick },
            };
            let outcome = if args.traced {
                run::traced(&args)
            } else {
                run::plain(&args)
            }?;
            println!("{}", outcome.result_line());
            Ok(if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        (Some("run"), None) => {
            suite::run(&suite_args, &out("run.json")).map(|()| ExitCode::SUCCESS)
        }
        (Some("repeat"), None) => {
            let k = f.runs.ok_or("repeat needs --runs K")?;
            suite::repeat(&suite_args, k, &out("repeat.json")).map(|()| ExitCode::SUCCESS)
        }
        (Some("compare"), None) => match &f.positional[1..] {
            [a, b] => suite::compare(a.as_ref(), b.as_ref()).map(|()| ExitCode::SUCCESS),
            _ => Err(format!("compare takes two files\n{USAGE}")),
        },
        (Some("manifest"), None) => {
            print!("{}", metrics::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fcbench-ladder: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let f = flags(&[
            "--workload",
            "serve_rpc",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("serve_rpc"));
        assert_eq!(
            (f.seed, f.seconds, f.trace, f.quick),
            (Some(42), Some(20.0), true, false)
        );
        let f = flags(&["repeat", "--runs", "3", "--quick"]).unwrap();
        assert_eq!(
            (f.positional, f.runs, f.quick),
            (vec!["repeat".to_string()], Some(3), true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(flags(bad).is_err(), "{bad:?}");
        }
        assert!(dispatch(&["--workload".into(), "nope".into()]).is_err());
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&["compare".into(), "only-one.json".into()]).is_err());
    }
}
