//! Ablation benchmarks for the design decisions called out in DESIGN.md:
//!
//! 1. direct-path join pruning vs all discovered joins,
//! 2. provenance-weighted ranking vs uniform weights,
//! 3. longest-word-combination lookup vs single-token lookup,
//! 4. bridge-table detection on/off,
//! 5. inverted index over the base data on/off (the Keymantic situation).
//!
//! For each variant the full workload is evaluated; besides the runtime, the
//! printed summary reports the mean best-F1 over the 13 queries so the quality
//! impact of each ablation is visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use std::sync::Arc;

use soda_core::{EngineSnapshot, RankingWeights, SodaConfig};
use soda_eval::experiments::run_workload;
use soda_warehouse::enterprise::{self, EnterpriseConfig};

fn variants() -> Vec<(&'static str, SodaConfig)> {
    let base = SodaConfig::default();
    vec![
        ("default", base.clone()),
        (
            "no_direct_path_pruning",
            SodaConfig {
                direct_path_pruning: false,
                ..base.clone()
            },
        ),
        (
            "uniform_ranking",
            SodaConfig {
                weights: RankingWeights::uniform(),
                ..base.clone()
            },
        ),
        (
            "single_token_lookup",
            SodaConfig {
                max_phrase_tokens: 1,
                ..base.clone()
            },
        ),
        (
            "no_bridge_tables",
            SodaConfig {
                use_bridge_tables: false,
                ..base.clone()
            },
        ),
        (
            "no_inverted_index",
            SodaConfig {
                use_inverted_index: false,
                ..base.clone()
            },
        ),
        (
            "no_dbpedia",
            SodaConfig {
                use_dbpedia: false,
                ..base
            },
        ),
    ]
}

fn mean_best_f1(engine: &EngineSnapshot) -> f64 {
    let evals = run_workload(engine);
    evals.iter().map(|e| e.best.f1()).sum::<f64>() / evals.len() as f64
}

fn bench_ablations(c: &mut Criterion) {
    // Every variant shares the one warehouse.
    let (db, graph) = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.15,
    })
    .shared_parts();
    let engine = |config| EngineSnapshot::build(Arc::clone(&db), Arc::clone(&graph), config);

    let mut group = c.benchmark_group("ablations_workload");
    group.sample_size(10);
    for (name, config) in variants() {
        let engine = engine(config);
        group.bench_with_input(BenchmarkId::from_parameter(name), &engine, |b, engine| {
            b.iter(|| black_box(run_workload(engine).len()))
        });
    }
    group.finish();

    println!("\nAblation quality summary (mean best-F1 over the 13 workload queries):");
    for (name, config) in variants() {
        println!("  {:<24} {:.3}", name, mean_best_f1(&engine(config)));
    }
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
