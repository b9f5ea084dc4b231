//! Table 4 — query complexity and runtime.
//!
//! Benchmarks the SODA processing time (the five pipeline steps, excluding SQL
//! execution) for every workload query individually, plus the end-to-end time
//! including execution, and prints the regenerated Table 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use soda_core::{EngineSnapshot, SodaConfig};
use soda_eval::experiments::run_workload;
use soda_eval::report::print_table4;
use soda_eval::workload::workload;
use soda_warehouse::enterprise::{self, EnterpriseConfig};

fn bench_table4(c: &mut Criterion) {
    let (db, graph) = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    })
    .shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());

    // SODA processing time per query (Table 4, "SODA runtime").
    let mut group = c.benchmark_group("table4_soda_runtime");
    group.sample_size(20);
    for query in workload() {
        group.bench_with_input(
            BenchmarkId::from_parameter(query.id),
            &query.keywords,
            |b, keywords| b.iter(|| black_box(engine.search(keywords).unwrap())),
        );
    }
    group.finish();

    // End-to-end time per query (generation plus executing every statement).
    let mut group = c.benchmark_group("table4_total_runtime");
    group.sample_size(10);
    for query in workload() {
        group.bench_with_input(
            BenchmarkId::from_parameter(query.id),
            &query.keywords,
            |b, keywords| {
                b.iter(|| {
                    let results = engine.search(keywords).unwrap();
                    let rows: usize = results
                        .iter()
                        .filter_map(|r| engine.execute(r).ok())
                        .map(|rs| rs.row_count())
                        .sum();
                    black_box(rows)
                })
            },
        );
    }
    group.finish();

    let evals = run_workload(&engine);
    println!("\n{}", print_table4(&evals));
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
