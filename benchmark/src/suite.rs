//! Whole-suite subcommands. Each workload of each run gets a fresh process
//! (this executable, re-invoked), so `peak_rss_mb`, the allocator and the
//! page cache start the same way every time.
//!
//! - `run`: every workload once, all end-to-end metrics by name;
//! - `repeat --runs K`: the self-check that same-code runs agree within the
//!   bounds;
//! - `compare A.json B.json`: better / same / worse / unresolved per metric
//!   and workload, by the bound and the parent's own spread.

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::stats;
use crate::workloads::SPECS;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

const SCHEMA: &str = "fcbench-ladder-v1";

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// Metric values of one workload of one run.
type Row = BTreeMap<String, f64>;
/// One run of the suite: workload → metrics.
type Run = BTreeMap<String, Row>;

/// Runs one workload in a child process, echoing its report; returns the
/// metrics of its result line.
fn child(workload: &str, args: &SuiteArgs) -> Result<Row, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("  | {l}");
    }
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let result = json::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} reported incorrect output"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result line has no metrics")?;
    metrics
        .iter()
        .map(|(k, v)| {
            v.get("value")
                .and_then(Value::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("{workload}: metric {k} has no value"))
        })
        .collect()
}

fn run_once(args: &SuiteArgs) -> Result<Run, String> {
    let mut run = Run::new();
    for spec in SPECS {
        println!(
            "== {} (seed {}, {} s) ==",
            spec.name, args.seed, args.seconds
        );
        run.insert(spec.name.to_string(), child(spec.name, args)?);
    }
    Ok(run)
}

fn runs_to_json(runs: &[Run], args: &SuiteArgs) -> Value {
    json::obj([
        ("schema", Value::Str(SCHEMA.into())),
        ("quick", Value::Bool(args.quick)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        (
            "runs",
            Value::Arr(
                runs.iter()
                    .map(|run| {
                        json::obj(run.iter().map(|(wl, row)| {
                            (
                                wl.clone(),
                                json::obj(row.iter().map(|(k, v)| (k.clone(), Value::Num(*v)))),
                            )
                        }))
                    })
                    .collect(),
            ),
        ),
    ])
}

fn save(path: &Path, runs: &[Run], args: &SuiteArgs) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, runs_to_json(runs, args).render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("saved {}", path.display());
    Ok(())
}

fn print_table(run: &Run) {
    println!("{:<18} {:<14} {:>18}  unit", "metric", "workload", "value");
    for (name, unit, _, _) in END_TO_END {
        for spec in SPECS {
            if let Some(v) = run.get(spec.name).and_then(|r| r.get(name)) {
                let note = if spec.gated { "" } else { "  (ungated)" };
                println!("{name:<18} {:<14} {v:>18.6}  {unit}{note}", spec.name);
            }
        }
    }
}

/// `run`: every workload once.
pub fn run(args: &SuiteArgs, out: &Path) -> Result<(), String> {
    let run = run_once(args)?;
    print_table(&run);
    if args.quick {
        println!("QUICK MODE: not comparable with any other run");
    }
    save(out, &[run], args)
}

/// Largest `|a − b| ÷ median` over all pairs of `values`.
pub fn max_pair_disagreement(values: &[f64]) -> f64 {
    let med = stats::median(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    if values.len() < 2 || med == 0.0 {
        0.0
    } else {
        ((hi - lo) / med).abs()
    }
}

/// `repeat`: `k` runs of the same code and seed; fails if any two disagree
/// on any metric of any workload by more than that metric's bound.
pub fn repeat(args: &SuiteArgs, k: usize, out: &Path) -> Result<(), String> {
    if k < 2 {
        return Err("repeat needs --runs of at least 2".into());
    }
    let mut runs = Vec::new();
    for i in 0..k {
        println!("#### run {} of {k}", i + 1);
        runs.push(run_once(args)?);
    }
    save(out, &runs, args)?;
    let mut beyond = 0;
    println!(
        "{:<18} {:<14} {:>14} {:>9} {:>9} {:>7}  values",
        "metric", "workload", "median", "spread", "max pair", "bound"
    );
    for (name, _, _, bound) in END_TO_END {
        for spec in SPECS {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get(spec.name).and_then(|row| row.get(name)).copied())
                .collect();
            let pair = max_pair_disagreement(&values);
            let flag = if !spec.gated {
                "  (ungated)"
            } else if pair > bound {
                beyond += 1;
                "  <-- beyond the bound"
            } else {
                ""
            };
            println!(
                "{name:<18} {:<14} {:>14.6} {:>9.5} {:>9.5} {bound:>7}  {values:?}{flag}",
                spec.name,
                stats::median(&values),
                stats::spread(&values),
                pair
            );
        }
    }
    if beyond > 0 {
        return Err(format!(
            "{beyond} metric x workload pair(s) disagree beyond their bound"
        ));
    }
    println!("all {k} runs agree within the bounds");
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The parent's own run-to-run spread is wider than the bound, and the
    /// change does not beat every parent run: the data cannot say.
    Unresolved,
}

/// `b` (the change) against `a` (the parent) for one metric of one
/// workload: worse when the median is worse by more than `bound`; better
/// only when `b` wins at least nine tenths of the pairs run and the medians
/// differ by more than the parent's inter-quartile distance.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (q1, med_a, q3) = stats::quartiles(a);
    let med_b = stats::median(b);
    let worse_by = if lower_is_better {
        (med_b - med_a) / med_a
    } else {
        (med_a - med_b) / med_a
    };
    if (q3 - q1) / med_a.abs() > bound {
        let clean_sweep = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if clean_sweep {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| beats(**y, **x)).count();
    if wins * 10 >= pairs * 9 && (med_b - med_a).abs() > q3 - q1 && beats(med_b, med_a) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Vec<Run>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{} is not a {SCHEMA} file", path.display()));
    }
    if v.get("quick").and_then(Value::as_bool) != Some(false) {
        return Err(format!(
            "{} holds --quick runs, which are not comparable",
            path.display()
        ));
    }
    let runs = v.get("runs").and_then(Value::as_arr).ok_or("no runs")?;
    runs.iter()
        .map(|run| {
            let wls = run.as_obj().ok_or("a run is not an object")?;
            wls.iter()
                .map(|(wl, row)| {
                    let row = row.as_obj().ok_or("a workload is not an object")?;
                    let row: Row = row
                        .iter()
                        .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                        .collect();
                    Ok((wl.clone(), row))
                })
                .collect::<Result<Run, String>>()
        })
        .collect()
}

/// `compare`: `a` is the parent, `b` the change. Exits non-zero on any
/// `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    println!(
        "parent A = {} ({} runs), change B = {} ({} runs)",
        a.display(),
        runs_a.len(),
        b.display(),
        runs_b.len()
    );
    if runs_a.len() < 3 || runs_b.len() < 3 {
        println!("note: fewer than 3 runs on a side — the parent's spread is poorly known; `better` needs 10 pairs to mean much");
    }
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "metric", "workload", "A median", "B median", "B/A", "A spread", "bound"
    );
    let mut worse = 0;
    for (name, _, better, bound) in END_TO_END {
        for spec in SPECS {
            let pick = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(spec.name).and_then(|row| row.get(name)).copied())
                    .collect()
            };
            let (va, vb) = (pick(&runs_a), pick(&runs_b));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<18} {:<14} missing on one side", spec.name);
                continue;
            }
            let v = verdict(&va, &vb, better == "lower", bound);
            worse += usize::from(v == Verdict::Worse && spec.gated);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{name:<18} {:<14} {ma:>14.6} {mb:>14.6} {:>9.4} {:>9.5} {bound:>7}  {}{}",
                spec.name,
                mb / ma,
                stats::spread(&va),
                match v {
                    Verdict::Better => "better",
                    Verdict::Same => "same",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                },
                if spec.gated { "" } else { " (ungated)" }
            );
        }
    }
    if worse > 0 {
        return Err(format!(
            "{worse} metric x workload pair(s) are worse beyond their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_disagreement_is_range_over_median() {
        assert_eq!(max_pair_disagreement(&[100.0, 104.0, 98.0]), 0.06);
        assert_eq!(max_pair_disagreement(&[5.0]), 0.0);
        assert_eq!(max_pair_disagreement(&[]), 0.0);
    }

    #[test]
    fn verdict_follows_the_bound_and_the_parents_spread() {
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let shifted = |by: f64| steady.iter().map(|v| v * by).collect::<Vec<_>>();
        // Lower is better: 10 % slower is worse, 10 % faster on every pair is better.
        assert_eq!(verdict(&steady, &shifted(1.10), true, 0.06), Verdict::Worse);
        assert_eq!(
            verdict(&steady, &shifted(0.90), true, 0.06),
            Verdict::Better
        );
        assert_eq!(verdict(&steady, &shifted(1.02), true, 0.06), Verdict::Same);
        // Within the parent's own quartiles: not a gain.
        assert_eq!(
            verdict(&steady, &shifted(0.9995), true, 0.06),
            Verdict::Same
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(&steady, &shifted(0.90), false, 0.06),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &shifted(1.10), false, 0.06),
            Verdict::Better
        );
        // A parent noisier than the bound resolves nothing...
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 3.0).collect();
        assert_eq!(
            verdict(&noisy, &shifted(1.10), true, 0.06),
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(verdict(&noisy, &shifted(0.5), true, 0.06), Verdict::Better);
    }

    #[test]
    fn run_files_round_trip_and_quick_ones_are_refused() {
        let args = |quick| SuiteArgs {
            seed: 3,
            seconds: 20.0,
            quick,
        };
        let mut run = Run::new();
        run.insert(
            "codec_matrix".into(),
            Row::from([("setup_s".into(), 0.5), ("ratio".into(), 1.25)]),
        );
        let dir = crate::out_dir().join(format!("test-{}", std::process::id()));
        let path = dir.join("a.json");
        save(&path, &[run.clone(), run.clone()], &args(false)).unwrap();
        assert_eq!(load(&path).unwrap(), vec![run.clone(), run.clone()]);
        save(&path, &[run], &args(true)).unwrap();
        assert!(load(&path).unwrap_err().contains("not comparable"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
