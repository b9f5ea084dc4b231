//! The untraced run: set-up, warm-up round, measured rounds, correctness
//! sweep, and the five end-to-end metrics.

use std::time::{Duration, Instant};

use crate::calls;
use crate::metrics::END_TO_END;
use crate::trace::Tracer;
use crate::workloads::{self, Inputs, Kind, Reference, Round, SetupTimes, Stand, Workload};

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The contract's result line plus what a reader wants beside it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `# key: value` lines printed above the result line.
    pub notes: Vec<(&'static str, String)>,
}

/// Most measured rounds, however long `--seconds` is.
const MAX_ROUNDS: usize = 256;

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// After prefill, every re-spelling must be answered from the cache — or the
/// "re-spelled" ops would be misses and `warm_repeat` would not be warm.
fn check_respellings(workload: &Workload, inputs: &Inputs, stand: &Stand) -> Result<(), String> {
    if workload.respell_every == 0 {
        return Ok(());
    }
    for spellings in &inputs.spellings {
        for spelling in spellings {
            if !calls::is_ready(&calls::query(&stand.service, spelling)) {
                return Err(format!("re-spelling {spelling:?} missed the cache"));
            }
        }
    }
    Ok(())
}

/// Set-up shared by the untraced and the traced run.
pub struct Prepared {
    pub inputs: Inputs,
    pub stand: Stand,
    pub reference: Reference,
    pub setups: Vec<SetupTimes>,
}

pub fn prepare(workload: &Workload, seed: u64) -> Result<Prepared, String> {
    let inputs = Inputs::generate(workload, seed);
    let (stand, setups) = workloads::repeated_setup(workload, &inputs)?;
    let engine = calls::live_engine(&stand.service);
    let reference = Reference::compute(&engine, &inputs.pool, workload.kind == Kind::Preview)?;
    check_respellings(workload, &inputs, &stand)?;
    Ok(Prepared {
        inputs,
        stand,
        reference,
        setups,
    })
}

/// Resets the stand and runs one round with `tracer`.
pub fn next_round(
    workload: &Workload,
    prepared: Prepared,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Prepared, Round), String> {
    let Prepared {
        inputs,
        stand,
        reference,
        setups,
    } = prepared;
    let stand = workloads::reset_stand(workload, &inputs, stand)?;
    let feeds = workloads::round_feeds(workload, &stand.db, seed);
    let round = workloads::run_round(workload, &inputs, &reference, &stand, feeds, tracer)?;
    Ok((
        Prepared {
            inputs,
            stand,
            reference,
            setups,
        },
        round,
    ))
}

/// Median over the rounds of one per-round figure.
pub fn median_over(rounds: &[Round], figure: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(figure).collect::<Vec<_>>())
}

/// (max − min) ÷ median of per-round throughput, in percent.
pub fn round_spread_pct(rounds: &[Round]) -> f64 {
    let qps = rounds.iter().map(Round::throughput_qps);
    let max = qps.clone().fold(f64::MIN, f64::max);
    let min = qps.fold(f64::MAX, f64::min);
    (max - min) / median_over(rounds, Round::throughput_qps) * 100.0
}

pub fn hit_rate(rounds: &[Round]) -> f64 {
    let hits: u64 = rounds.iter().map(|r| r.hits).sum();
    let misses: u64 = rounds.iter().map(|r| r.misses).sum();
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let process_start = Instant::now();
    let mut prepared = prepare(workload, seed)?;
    let first_op = process_start.elapsed();
    let mut off = Tracer::off();

    // Warm-up: the same op sequence once, discarded.
    let (p, _) = next_round(workload, prepared, seed, &mut off)?;
    prepared = p;

    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut measured = Duration::ZERO;
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let (p, round) = next_round(workload, prepared, seed, &mut off)?;
        prepared = p;
        measured += round.wall;
        rounds.push(round);
        let mean = measured / rounds.len() as u32;
        let enough = measured + mean / 2 >= budget;
        if (rounds.len() >= workload.min_rounds && enough) || rounds.len() >= MAX_ROUNDS {
            break;
        }
    }
    let peak_rss = peak_rss_mib()?;

    let setup_s: Vec<f64> = prepared
        .setups
        .iter()
        .map(|s| s.total().as_secs_f64())
        .collect();

    let hit_rate = hit_rate(&rounds);
    let in_band = workload.hit_rate_in_band(hit_rate);

    let round_ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let round_failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let answers_digest = prepared.reference.digest();
    let inputs_digest = prepared.inputs.digest();
    let Prepared {
        inputs,
        stand,
        reference,
        ..
    } = prepared;
    let (sweep_ops, sweep_failed, recovery) =
        workloads::final_sweep(workload, &inputs, &reference, stand)?;

    let mut notes = vec![
        ("workload", workload.name.to_string()),
        ("seed", seed.to_string()),
        ("rounds", rounds.len().to_string()),
        ("ops_per_round", workload.ops_per_round.to_string()),
        ("measured_s", format!("{:.3}", measured.as_secs_f64())),
        ("first_timed_op_s", format!("{:.3}", first_op.as_secs_f64())),
        (
            "round_qps",
            rounds
                .iter()
                .map(|r| format!("{:.0}", r.throughput_qps()))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("cache.hit_rate", format!("{hit_rate:.4}")),
        ("hit_rate_in_band", in_band.to_string()),
        (
            "harness.round_spread_pct",
            format!("{:.2}", round_spread_pct(&rounds)),
        ),
        ("inputs_digest", format!("{inputs_digest:016x}")),
        ("answers_digest", format!("{answers_digest:016x}")),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
    ];
    if let Some(recovery) = recovery {
        notes.push((
            "recovered",
            format!(
                "{} feeds replayed in {:.1} ms, pages identical to a from-scratch rebuild",
                recovery.replayed_feeds,
                recovery.recover.as_secs_f64() * 1e3
            ),
        ));
    }

    let failed = round_failed + sweep_failed;
    Ok(Outcome {
        correct: failed == 0 && in_band,
        attempted: round_ops + sweep_ops,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|declared| {
                // Per round in reference units — ops per kernel iteration,
                // latency in kernel iterations — then the median of rounds.
                let value = match declared.name {
                    "throughput_per_ref" => {
                        median_over(&rounds, |r| r.throughput_qps() * r.reference_us / 1e6)
                    }
                    "latency_p50_ref" => median_over(&rounds, |r| r.p50_us() / r.reference_us),
                    "latency_p95_ref" => median_over(&rounds, |r| r.p95_us() / r.reference_us),
                    "peak_rss_mib" => peak_rss,
                    "setup_s" => median(&setup_s),
                    other => unreachable!("end-to-end metric {other} is declared but not measured"),
                };
                (declared.name, value, declared.unit)
            })
            .collect(),
        notes,
    })
}
