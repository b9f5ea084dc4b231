//! `soda_bench` — the repo's benchmark: a windowed closed-loop load driver
//! against `QueryService::query()` with four workloads, five end-to-end
//! metrics and a per-layer traced run.  See `README.md` beside this package.
//!
//! ```text
//! soda_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! soda_bench --smoke                 all four workloads and a traced run at 1/100 scale
//! soda_bench --self-test             the harness checking itself
//! soda_bench compare A.jsonl [B.jsonl…]   spreads of A; B… against A
//! soda_bench describe                the text of BENCHMARK.json
//! ```

mod affinity;
mod calls;
mod compare;
mod gen;
mod hist;
mod json;
mod layers;
mod metrics;
mod reference;
mod rng;
mod run;
mod selftest;
mod trace;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use affinity::Pinned;
use run::Outcome;
use workloads::Workload;

/// What `BENCHMARK.json` tells the driver to pass as `--seconds`, and the
/// default here.
const RUN_SECONDS: u32 = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    self_test: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        self_test: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => parsed.smoke = true,
            "--self-test" => parsed.self_test = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// The result object's members.
fn metrics_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Notes as `# key: value` lines, then the contract's result line last.
fn print_outcome(outcome: &Outcome) {
    for (key, value) in &outcome.notes {
        println!("# {key}: {value}");
    }
    println!("{{{}}}", metrics_json(outcome));
}

/// Appends the run as one record to a JSON-lines file — the input of
/// `compare`.
fn append_record(
    path: &Path,
    workload: &Workload,
    args: &Args,
    outcome: &Outcome,
) -> Result<(), String> {
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json::escape(k), json::escape(v)))
        .collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}, \"notes\": {{{}}}}}\n",
        workload.name,
        args.seed,
        u8::from(args.trace),
        metrics_json(outcome),
        notes.join(", ")
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(record.as_bytes()))
        .map_err(|e| format!("appending to {}: {e}", path.display()))
}

fn run_workload(workload: &Workload, args: &Args, pinned: &Pinned) -> Result<Outcome, String> {
    let workload = if args.smoke {
        workload.smoke()
    } else {
        *workload
    };
    if args.trace {
        layers::run(&workload, args.seed, args.smoke, pinned)
    } else {
        let seconds = if args.smoke { 0.0 } else { args.seconds };
        run::run(&workload, args.seed, seconds)
    }
}

/// `--smoke` without a workload: every workload untraced, then one traced
/// run, all at 1/100 of the op counts.
fn smoke_all(args: &mut Args, pinned: &Pinned) -> bool {
    let mut ok = true;
    let mut report = |name: &str, traced: bool, result: Result<Outcome, String>| match result {
        Ok(outcome) => {
            println!(
                "{} {name}{}: {} ops, {} failed, {} metrics",
                if outcome.correct { "ok  " } else { "FAIL" },
                if traced { " (traced)" } else { "" },
                outcome.attempted,
                outcome.failed,
                outcome.metrics.len()
            );
            for (key, value) in outcome.notes.iter().filter(|(k, _)| *k == "problem") {
                println!("     {key}: {value}");
            }
            ok &= outcome.correct;
        }
        Err(e) => {
            println!("FAIL {name}: {e}");
            ok = false;
        }
    };
    for workload in &workloads::WORKLOADS {
        args.trace = false;
        report(workload.name, false, run_workload(workload, args, pinned));
    }
    args.trace = true;
    let traced = &workloads::WORKLOADS[0];
    report(traced.name, true, run_workload(traced, args, pinned));
    ok
}

fn main() -> ExitCode {
    // The program reads these to let CI re-run its suite sharded or
    // multi-tenant; a benchmark must not inherit them.
    std::env::remove_var("SODA_TEST_SHARDS");
    std::env::remove_var("SODA_TEST_TENANTS");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |message: String| {
        eprintln!("soda_bench: {message}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("compare") => {
            return match compare::run(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(e),
            };
        }
        // The text of BENCHMARK.json, from the declarations in metrics.rs.
        Some("describe") => {
            print!("{}", metrics::benchmark_json(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let mut parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => return fail(e),
    };
    if parsed.self_test {
        return if selftest::run() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    // Before the first thread is spawned: the service's worker inherits it.
    let pinned = match Pinned::to_current_cpu() {
        Ok(pinned) => pinned,
        Err(e) => return fail(e),
    };
    let Some(name) = parsed.workload.clone() else {
        if parsed.smoke {
            return if smoke_all(&mut parsed, &pinned) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            };
        }
        return fail(
            "--workload <name> is required (or --smoke, --self-test, compare, describe)"
                .to_string(),
        );
    };
    let Some(workload) = workloads::find(&name) else {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        return fail(format!(
            "unknown workload {name:?}; known: {}",
            known.join(", ")
        ));
    };
    match run_workload(&workload, &parsed, &pinned) {
        Ok(outcome) => {
            if let Some(path) = &parsed.out {
                if let Err(e) = append_record(path, &workload, &parsed, &outcome) {
                    return fail(e);
                }
            }
            print_outcome(&outcome);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("soda_bench: {e}");
            ExitCode::from(1)
        }
    }
}
