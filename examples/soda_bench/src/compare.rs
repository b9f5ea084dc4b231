//! `soda_bench compare <a.jsonl> <b.jsonl>…` — the table a perf PR pastes:
//! per workload × metric both medians with their quartiles and spread (the
//! interquartile range as a share of the median, what the benchmark driver
//! calls the spread), the ratio with its base, the bound from
//! `BENCHMARK.json`, and a verdict.  With one file: that file's medians and
//! spreads, the noise table.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};

/// `(workload, metric)` → the values of every record in one file.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads `--out` records: one JSON object per line with `workload` and
/// `metrics`.
fn read_samples(path: &Path) -> Result<Samples, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut samples = Samples::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), number + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no \"workload\"", path.display(), number + 1))?;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{}:{}: no \"metrics\"", path.display(), number + 1))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(samples)
}

/// Direction and (for end-to-end metrics) bound of each metric, as
/// `BENCHMARK.json` declares them.
struct Declared {
    higher_is_better: bool,
    bound: Option<f64>,
}

fn read_declared(path: &Path) -> Result<BTreeMap<String, Declared>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut declared = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for metric in root.get(section).and_then(Json::as_array).unwrap_or(&[]) {
            let (Some(name), Some(better)) = (
                metric.get("name").and_then(Json::as_str),
                metric.get("better").and_then(Json::as_str),
            ) else {
                return Err(format!(
                    "{}: a {section} metric lacks name or better",
                    path.display()
                ));
            };
            declared.insert(
                name.to_string(),
                Declared {
                    higher_is_better: better == "higher",
                    bound: metric.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(declared)
}

/// First quartile, median, third quartile — the cut points Python's
/// `statistics.quantiles(values, n=4)` gives (its default, exclusive
/// method), so the spreads here are the driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, median, q3) = quartiles(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

fn verdict(base: &[f64], other: &[f64], declared: Option<&Declared>) -> &'static str {
    let Some(Declared {
        higher_is_better,
        bound: Some(bound),
    }) = declared
    else {
        return "-";
    };
    // Without a few runs per side there is no spread to judge against.
    if base.len().min(other.len()) < 3 {
        return "too few runs";
    }
    let (_, base_median, _) = quartiles(base);
    let (_, other_median, _) = quartiles(other);
    if base_median == 0.0 {
        return "-";
    }
    let noise = spread(base).max(spread(other));
    if noise > *bound {
        return "unresolved";
    }
    let change = other_median / base_median - 1.0;
    let worsening = if *higher_is_better { -change } else { change };
    if worsening > *bound {
        "worse"
    } else if -worsening > noise {
        "better"
    } else {
        "within"
    }
}

fn cell(values: &[f64]) -> String {
    let (q1, median, q3) = quartiles(values);
    format!(
        "{median:.4} [{q1:.4}, {q3:.4}] {:.1} % n={}",
        spread(values) * 100.0,
        values.len()
    )
}

/// The bounds and directions `compare` judges by: the `BENCHMARK.json` of
/// the checkout it is run from.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Prints one markdown table per candidate file, the first file as base.
/// With the base file alone, its medians and spreads: the noise table.
pub fn run(files: &[String]) -> Result<(), String> {
    let Some((base_path, others)) = files.split_first() else {
        return Err("compare needs a base file".to_string());
    };
    let declared = read_declared(Path::new(BENCHMARK_JSON))?;
    let bound = |metric: &str| {
        declared
            .get(metric)
            .and_then(|d| d.bound)
            .map_or("-".to_string(), |b| format!("{:.0} %", b * 100.0))
    };
    let base = read_samples(Path::new(base_path))?;
    if others.is_empty() {
        println!("| workload | metric | median [q1, q3] IQR ÷ median | bound |");
        println!("|---|---|---|---|");
        for ((workload, metric), values) in &base {
            println!(
                "| {workload} | {metric} | {} | {} |",
                cell(values),
                bound(metric)
            );
        }
        return Ok(());
    }
    for other_path in others {
        let other = read_samples(Path::new(other_path))?;
        println!("base = {base_path}, other = {other_path}");
        println!();
        println!("| workload | metric | base median [q1, q3] IQR ÷ median | other median [q1, q3] IQR ÷ median | other ÷ base | bound | verdict |");
        println!("|---|---|---|---|---|---|---|");
        for ((workload, metric), base_values) in &base {
            let Some(other_values) = other.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let (_, base_median, _) = quartiles(base_values);
            let (_, other_median, _) = quartiles(other_values);
            let ratio = if base_median == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", other_median / base_median)
            };
            println!(
                "| {workload} | {metric} | {} | {} | {ratio} | {} | {} |",
                cell(base_values),
                cell(other_values),
                bound(metric),
                verdict(base_values, other_values, declared.get(metric)),
            );
        }
        println!();
    }
    Ok(())
}
