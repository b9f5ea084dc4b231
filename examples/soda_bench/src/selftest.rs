//! `--self-test`: the harness checking itself, without the engine.

use crate::compare::quartiles;
use crate::hist::Histogram;
use crate::json;
use crate::rng::Rng;
use crate::workloads::{Inputs, WORKLOADS};

fn check(ok: bool, what: &str, failures: &mut Vec<String>) {
    println!("{} {what}", if ok { "ok  " } else { "FAIL" });
    if !ok {
        failures.push(what.to_string());
    }
}

/// Histogram quantiles against an exact sort of the same synthetic samples:
/// a fast mode near 5 µs, a slow one near 300 µs and a long tail.
fn histogram_matches_exact_sort(failures: &mut Vec<String>) {
    let mut rng = Rng::new(7, 99);
    let mut hist = Histogram::new();
    let mut exact: Vec<u64> = Vec::new();
    for _ in 0..200_000 {
        let nanos = match rng.below(10) {
            0..=5 => 4_000 + rng.below(2_000) as u64,
            6..=8 => 250_000 + rng.below(100_000) as u64,
            _ => (1_000_000.0 * (1.0 + 40.0 * rng.unit().powi(4))) as u64,
        };
        hist.record_nanos(nanos);
        exact.push(nanos);
    }
    exact.sort_unstable();
    for q in [0.10, 0.50, 0.95, 0.99, 0.999] {
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let want = exact[rank - 1] as f64;
        let got = hist.quantile_nanos(q).expect("non-empty");
        let error = (got - want).abs() / want;
        check(
            error < 0.01,
            &format!(
                "histogram q{q}: {got:.0} ns vs exact {want:.0} ns ({:.3} % off)",
                error * 100.0
            ),
            failures,
        );
    }
    check(
        hist.count() == exact.len() as u64,
        "histogram counts every sample",
        failures,
    );
}

pub fn run() -> bool {
    let mut failures = Vec::new();
    histogram_matches_exact_sort(&mut failures);

    for workload in &WORKLOADS {
        let a = Inputs::generate(workload, 1);
        let b = Inputs::generate(workload, 1);
        let c = Inputs::generate(workload, 2);
        check(
            a.digest() == b.digest() && a.pool == b.pool && a.sequence == b.sequence,
            &format!(
                "{}: the same seed gives the same pool and op sequence",
                workload.name
            ),
            &mut failures,
        );
        check(
            a.digest() != c.digest() && (a.pool != c.pool) == workload.seeded_pool,
            &format!(
                "{}: another seed gives another digest ({} pool)",
                workload.name,
                if workload.seeded_pool {
                    "another"
                } else {
                    "the same"
                }
            ),
            &mut failures,
        );
        // Dealt, not drawn: two seeds ask every question equally often.
        let counts = |inputs: &Inputs| {
            let mut counts = vec![0usize; workload.pool_size];
            for &member in &inputs.sequence {
                counts[member as usize] += 1;
            }
            counts
        };
        check(
            counts(&a) == counts(&c) && counts(&a).iter().all(|&n| n > 0),
            &format!(
                "{}: both seeds ask every pool query, equally often",
                workload.name
            ),
            &mut failures,
        );
        let mut distinct = a.pool.clone();
        distinct.sort();
        distinct.dedup();
        check(
            distinct.len() == workload.pool_size,
            &format!(
                "{}: {} distinct pool queries",
                workload.name, workload.pool_size
            ),
            &mut failures,
        );
    }

    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    check(
        quartiles(&ten) == (2.75, 5.5, 8.25),
        "quartiles agree with Python's statistics.quantiles(n=4)",
        &mut failures,
    );

    let parsed = json::parse(r#"{"a": [1, 2.5e1, {"b": "x\"y"}], "c": true, "d": null}"#);
    check(
        parsed.as_ref().is_ok_and(|j| {
            j.get("a").and_then(json::Json::as_array).map(<[_]>::len) == Some(3)
                && j.get("a")
                    .and_then(|a| a.as_array()?[2].get("b")?.as_str().map(str::to_string))
                    == Some("x\"y".to_string())
        }),
        "the JSON reader reads what the writer writes",
        &mut failures,
    );

    println!();
    if failures.is_empty() {
        println!("self-test passed");
    } else {
        println!("self-test FAILED: {} check(s)", failures.len());
    }
    failures.is_empty()
}
