//! Steadiness mode: runs every workload N times, alternating the order,
//! each run in a fresh process on a new seed, and reports per end-to-end
//! metric the median, the quartiles and whether the spread fits the
//! metric's bound in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde::{Deserialize, Value};

use crate::stats::{median, quartiles};

/// Any JSON value, as the vendored `serde_json` parses it.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// (name, bound) of every end-to-end metric, in file order.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let Json(root) = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = field(&root, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = field(m, "name").and_then(Value::as_str);
            let bound = field(m, "bound").and_then(Value::as_f64);
            match (name, bound) {
                (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
                _ => Err("an end_to_end entry lacks a name or bound".to_string()),
            }
        })
        .collect()
}

pub fn run(filter: &[String], runs: usize, seed: u64, seconds: u64) -> ExitCode {
    let bounds = match bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = crate::workload::NAMES
        .iter()
        .copied()
        .filter(|n| filter.is_empty() || filter.iter().any(|f| f == n))
        .collect();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // workload -> metric -> values over runs
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut failures = 0;
    for round in 0..runs {
        let mut order = names.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        let run_seed = seed + round as u64;
        for name in order {
            eprintln!("perfbench: round {round} {name} seed {run_seed}");
            let out = Command::new(&exe)
                .args(["--workload", name, "--trace", "0"])
                .args([
                    "--seed",
                    &run_seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .output();
            let parsed = out.ok().and_then(|out| {
                let text = String::from_utf8_lossy(&out.stdout).into_owned();
                let last = text.lines().last()?.to_string();
                serde_json::from_str::<Json>(&last).ok().map(|Json(v)| v)
            });
            let Some(result) = parsed else {
                failures += 1;
                eprintln!("perfbench: {name} seed {run_seed} printed no result");
                continue;
            };
            if field(&result, "correct").and_then(Value::as_bool) != Some(true) {
                failures += 1;
                eprintln!("perfbench: {name} seed {run_seed} reported correct=false");
            }
            for (metric, entry) in field(&result, "metrics")
                .and_then(Value::as_map)
                .unwrap_or(&[])
            {
                if let Some(v) = field(entry, "value").and_then(Value::as_f64) {
                    values
                        .entry(name)
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }

    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict; values in run order",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut too_wide = 0;
    for name in &names {
        for (metric, bound) in &bounds {
            let Some(v) = values.get(name).and_then(|m| m.get(metric)) else {
                continue;
            };
            let Some((q1, _, q3)) = quartiles(v) else {
                continue;
            };
            let mid = median(v);
            let spread = if mid == 0.0 {
                0.0
            } else {
                (q3 - q1) / mid.abs()
            };
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= *bound {
                "within bound"
            } else if metric == "setup_s" {
                "wide (set-up spread is not gated)"
            } else {
                too_wide += 1;
                "TOO WIDE"
            };
            let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "{name:<14} {metric:<24} {mid:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6.3}  {verdict}; {}",
                runs.join(" ")
            );
        }
    }
    println!("runs per workload: {runs}; failed runs: {failures}; metrics too wide: {too_wide}");
    if failures == 0 && too_wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
