//! `bench-diff`: compares two result sets of the campaign benchmark.
//!
//! ```text
//! bench-diff PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! Each file is a `results.jsonl` the benchmark appended to (one line
//! per run). For every workload and metric it prints both sides' median
//! and quartiles, the share of same-seed pairs the change won (and how
//! many pairs ran the parent first), and a verdict against the metric's
//! bound from `BENCHMARK.json`: `gain`, `REGRESSION`, `within bound`, or
//! `unresolved` where the parent's own spread is wider than the bound.
//! Exits 1 when any pairing regressed.

use campaignbench::compare::{compare, Better, Run, Verdict};
use popele_lab::sweep::json::Json;
use std::collections::BTreeSet;
use std::process::ExitCode;

/// A metric as `BENCHMARK.json` declares it.
struct MetricSpec {
    name: String,
    unit: String,
    better: Better,
    bound: Option<f64>,
}

fn load_specs(path: &str) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut specs = Vec::new();
    for group in ["end_to_end", "per_layer"] {
        for metric in json.get(group).and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or_default();
            specs.push(MetricSpec {
                name: field("name").to_string(),
                unit: field("unit").to_string(),
                better: if field("better") == "higher" {
                    Better::Higher
                } else {
                    Better::Lower
                },
                bound: metric.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(specs)
}

fn load_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| Run::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (files, benchmark) = match args.as_slice() {
        [p, c] => ([p, c], "BENCHMARK.json"),
        [p, c, flag, b] if flag == "--benchmark" => ([p, c], b.as_str()),
        _ => {
            eprintln!("usage: bench-diff PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]");
            return ExitCode::from(2);
        }
    };
    let loaded = load_specs(benchmark)
        .and_then(|specs| Ok((specs, load_runs(files[0])?, load_runs(files[1])?)));
    let (specs, parent, change) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };

    let workloads: BTreeSet<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    let mut regressed = false;
    println!(
        "{:<12} {:<32} {:>30} {:>30} {:>6} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "ratio",
        "wins",
        "spread"
    );
    for workload in workloads {
        for side in [(&parent, "parent"), (&change, "change")] {
            let runs: Vec<&Run> = side.0.iter().filter(|r| r.workload == workload).collect();
            let incorrect = runs.iter().filter(|r| !r.correct).count();
            if incorrect > 0 {
                println!(
                    "{workload:<12} {incorrect} of {} {} runs failed their output check",
                    runs.len(),
                    side.1
                );
            }
        }
        for spec in &specs {
            let select = |runs: &[Run]| -> Vec<(u64, u64, f64)> {
                runs.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| Some((r.seed, r.started_ms, r.metric(&spec.name)?)))
                    .collect()
            };
            let Some(c) = compare(&select(&parent), &select(&change), spec.better, spec.bound)
            else {
                continue;
            };
            regressed |= c.verdict == Verdict::Regression;
            let ratio = if c.parent.0 == 0.0 {
                0.0
            } else {
                c.change.0 / c.parent.0
            };
            println!(
                "{workload:<12} {:<32} {:>30} {:>30} {ratio:>6.3} {:>7} {:>6.3}  {} (n={}/{}, {} of {} pairs parent first)",
                format!("{} ({})", spec.name, spec.unit),
                format!("{:.6} [{:.6}, {:.6}]", c.parent.0, c.parent.1, c.parent.2),
                format!("{:.6} [{:.6}, {:.6}]", c.change.0, c.change.1, c.change.2),
                format!("{}/{}", c.wins, c.pairs),
                c.parent_spread,
                c.verdict.label(),
                c.samples.0,
                c.samples.1,
                c.parent_first,
                c.pairs,
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
