//! Benchmarks and quality summaries for the extensions beyond the paper's
//! evaluation (its §5.3.1 war stories and §7 future work):
//!
//! * bi-temporal historization annotations (plain vs annotated metadata
//!   graph, entity recall of Q2.1/Q2.2),
//! * the far-fetching join-path bound (`max_join_path_length`),
//! * compactness re-ranking (BLINKS-inspired),
//! * relevance feedback folded into Step 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use std::sync::Arc;

use soda_core::{EngineSnapshot, FeedbackStore, SearchOptions, SodaConfig};
use soda_eval::experiments::historization::historization_comparison;
use soda_eval::experiments::run_workload;
use soda_eval::report::print_historization;
use soda_warehouse::enterprise::{self, EnterpriseConfig};
use soda_warehouse::Warehouse;

const CONFIG: EnterpriseConfig = EnterpriseConfig {
    seed: 42,
    padding: false,
    data_scale: 0.15,
};

fn mean_best_f1(engine: &EngineSnapshot) -> f64 {
    let evals = run_workload(engine);
    evals.iter().map(|e| e.best.f1()).sum::<f64>() / evals.len() as f64
}

/// One engine per configuration, all over the one warehouse.
fn engines_over(warehouse: Warehouse) -> impl Fn(SodaConfig) -> EngineSnapshot {
    let (db, graph) = warehouse.shared_parts();
    move |config| EngineSnapshot::build(Arc::clone(&db), Arc::clone(&graph), config)
}

/// Historization annotations: query latency on the plain vs the annotated
/// graph, plus the entity-recall comparison table.
fn bench_historization(c: &mut Criterion) {
    let plain = enterprise::build_with(CONFIG);
    let annotated = enterprise::build_with_historization(CONFIG);

    let mut group = c.benchmark_group("extension_historization");
    group.sample_size(10);
    for (name, warehouse) in [("plain", plain), ("annotated", annotated)] {
        let engine = engines_over(warehouse)(SodaConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(name), &engine, |b, engine| {
            b.iter(|| black_box(engine.search("Sara").unwrap().len()))
        });
    }
    group.finish();

    println!(
        "\n{}",
        print_historization(&historization_comparison(CONFIG))
    );
}

/// Far-fetching: workload quality and latency as the join-path bound grows.
fn bench_far_fetching(c: &mut Criterion) {
    let engine = engines_over(enterprise::build_with(CONFIG));

    let mut group = c.benchmark_group("extension_far_fetching");
    group.sample_size(10);
    for bound in [1usize, 2, 3, 6] {
        let config = SodaConfig {
            max_join_path_length: bound,
            ..SodaConfig::default()
        };
        let engine = engine(config);
        group.bench_with_input(BenchmarkId::from_parameter(bound), &engine, |b, engine| {
            b.iter(|| black_box(run_workload(engine).len()))
        });
    }
    group.finish();

    println!("\nFar-fetching quality (mean best-F1 over the 13 workload queries):");
    for bound in [1usize, 2, 3, 6] {
        let config = SodaConfig {
            max_join_path_length: bound,
            ..SodaConfig::default()
        };
        println!(
            "  max_join_path_length = {bound:<2}  mean best-F1 = {:.3}",
            mean_best_f1(&engine(config))
        );
    }
}

/// Compactness re-ranking and relevance feedback: latency of the re-ranked
/// search plus a summary of how the top interpretation changes.
fn bench_reranking(c: &mut Criterion) {
    let engine = engines_over(enterprise::build_with(CONFIG));
    let default_engine = engine(SodaConfig::default());
    let compact_engine = engine(SodaConfig {
        compactness_rerank: true,
        ..SodaConfig::default()
    });

    let mut group = c.benchmark_group("extension_reranking");
    group.sample_size(10);
    group.bench_function("provenance_only", |b| {
        b.iter(|| black_box(default_engine.search("Credit Suisse").unwrap().len()))
    });
    group.bench_function("compactness_rerank", |b| {
        b.iter(|| black_box(compact_engine.search("Credit Suisse").unwrap().len()))
    });

    let baseline = default_engine.search("Credit Suisse").unwrap();
    let mut feedback = FeedbackStore::new();
    for _ in 0..3 {
        feedback.dislike(&baseline[0]);
    }
    let with_feedback = || {
        let options = SearchOptions {
            feedback: Some(&feedback),
            ..SearchOptions::default()
        };
        default_engine
            .search_with("Credit Suisse", &options)
            .unwrap()
            .page
            .results
    };
    group.bench_function("with_feedback", |b| {
        b.iter(|| black_box(with_feedback().len()))
    });
    group.finish();

    let compact = compact_engine.search("Credit Suisse").unwrap();
    let reranked = with_feedback();
    println!("\n'Credit Suisse' top interpretation per ranking variant:");
    println!("  provenance only     : {:?}", baseline[0].tables);
    println!("  compactness rerank  : {:?}", compact[0].tables);
    println!("  after 3 dislikes    : {:?}", reranked[0].tables);
}

criterion_group!(
    benches,
    bench_historization,
    bench_far_fetching,
    bench_reranking
);
criterion_main!(benches);
