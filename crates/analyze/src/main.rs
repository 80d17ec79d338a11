//! `fcbench-analyze` — the repo's own analysis gate.
//!
//! ```text
//! fcbench-analyze lint [--root DIR]
//! fcbench-analyze check-pool [--scenario NAME] [--preemptions N]
//!                            [--max-schedules N] [--time-budget-secs N]
//!                            [--replay SEED] [--seed-out FILE]
//! fcbench-analyze list-scenarios
//! ```
//!
//! `lint` exits non-zero on any finding. `check-pool` explores every schedule of each scenario within
//! the preemption bound and exits non-zero on a counterexample, printing
//! the `mc1:…` seed that replays it deterministically (and writing it to
//! `--seed-out`, which CI uploads as an artifact).

#![forbid(unsafe_code)]

use fcbench_analyze::{lint, scenarios};
use fcbench_core::sync::model;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.split_first() {
        Some((&"lint", rest)) => cmd_lint(rest),
        Some((&"check-pool", rest)) => cmd_check_pool(rest),
        Some((&"list-scenarios", _)) => {
            for s in scenarios::all() {
                println!("{:<24} {}", s.name, s.about);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: fcbench-analyze <lint|check-pool|list-scenarios> [options]\n\
                 run with a subcommand; see crate docs for the option list"
            );
            ExitCode::from(2)
        }
    }
}

fn take_opt(args: &[&str], name: &str) -> Option<String> {
    args.iter()
        .position(|a| *a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_string())
}

fn cmd_lint(args: &[&str]) -> ExitCode {
    let root = PathBuf::from(take_opt(args, "--root").unwrap_or_else(|| ".".into()));
    match lint::run(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("fcbench-analyze lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("fcbench-analyze lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fcbench-analyze lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_check_pool(args: &[&str]) -> ExitCode {
    let only = take_opt(args, "--scenario");
    let replay_seed = take_opt(args, "--replay");
    let seed_out = take_opt(args, "--seed-out").map(PathBuf::from);
    let preemptions: u32 = match take_opt(args, "--preemptions").as_deref() {
        None => 2,
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => return usage_err(&format!("--preemptions {s:?} is not a number")),
        },
    };
    let max_schedules: u64 = match take_opt(args, "--max-schedules").as_deref() {
        None => 0,
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => return usage_err(&format!("--max-schedules {s:?} is not a number")),
        },
    };
    let budget: Option<u64> = match take_opt(args, "--time-budget-secs").as_deref() {
        None => None,
        Some(s) => match s.parse() {
            Ok(n) => Some(n),
            Err(_) => return usage_err(&format!("--time-budget-secs {s:?} is not a number")),
        },
    };

    let list: Vec<scenarios::Scenario> = match &only {
        Some(name) => match scenarios::by_name(name) {
            Some(s) => vec![s],
            None => return usage_err(&format!("unknown scenario {name:?}")),
        },
        None => scenarios::all(),
    };

    if let Some(seed) = replay_seed {
        let Some(s) = list.into_iter().next() else {
            return usage_err("--replay needs --scenario");
        };
        return replay_one(&s, &seed);
    }

    let mut failed = false;
    for s in list {
        let mut opts = model::ExploreOpts {
            preemption_bound: preemptions,
            max_executions: max_schedules,
            ..model::ExploreOpts::default()
        };
        if let Some(secs) = budget {
            opts.deadline = Some(Instant::now() + Duration::from_secs(secs));
        }
        let started = Instant::now();
        let outcome = model::explore(&opts, s.run);
        let elapsed = started.elapsed();
        let coverage = if outcome.exhausted {
            format!("all schedules within {preemptions} preemption(s)")
        } else {
            "budget hit before exhaustion".to_string()
        };
        match (&outcome.failure, s.expect_failure) {
            (None, false) => {
                println!(
                    "check-pool {:<28} ok: {} executions, {} decisions, {coverage}, {:.2?}",
                    s.name, outcome.executions, outcome.decisions, elapsed
                );
            }
            (Some(cx), true) => {
                println!(
                    "check-pool {:<28} ok (self-test found the planted bug): seed {} — {}",
                    s.name,
                    cx.seed,
                    first_line(&cx.message)
                );
            }
            (Some(cx), false) => {
                println!(
                    "check-pool {:<28} FAILED after {} executions: {}\n  replay: \
                     fcbench-analyze check-pool --scenario {} --replay '{}'",
                    s.name, outcome.executions, cx.message, s.name, cx.seed
                );
                if let Some(path) = &seed_out {
                    let line = format!("{} {}\n", s.name, cx.seed);
                    if let Err(e) = std::fs::write(path, line) {
                        eprintln!("check-pool: writing {}: {e}", path.display());
                    }
                }
                failed = true;
            }
            (None, true) => {
                println!(
                    "check-pool {:<28} FAILED: the planted bug was not found \
                     ({} executions, {coverage}) — the scheduler lost coverage",
                    s.name, outcome.executions
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn replay_one(s: &scenarios::Scenario, seed: &str) -> ExitCode {
    match model::replay(seed, s.run) {
        Ok(outcome) => match outcome.failure {
            Some(cx) => {
                println!(
                    "replay {}: reproduced — {}\n  seed {}",
                    s.name, cx.message, cx.seed
                );
                ExitCode::FAILURE
            }
            None => {
                println!("replay {}: schedule ran clean", s.name);
                ExitCode::SUCCESS
            }
        },
        Err(e) => {
            eprintln!("replay {}: {e}", s.name);
            ExitCode::from(2)
        }
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("fcbench-analyze: {msg}");
    ExitCode::from(2)
}
