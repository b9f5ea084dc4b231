//! Table 3 — precision and recall of the generated SQL against the gold
//! standard, over the full workload of Table 2.
//!
//! The benchmark measures one full workload evaluation pass (13 queries ×
//! all produced statements, each executed and compared tuple-by-tuple), and
//! prints the regenerated Tables 2 and 3.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use soda_core::{EngineSnapshot, SodaConfig};
use soda_eval::experiments::run_workload;
use soda_eval::report::{print_table2, print_table3};
use soda_eval::workload::workload;
use soda_warehouse::enterprise::{self, EnterpriseConfig};

fn bench_table3(c: &mut Criterion) {
    let (db, graph) = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    })
    .shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());

    let mut group = c.benchmark_group("table3_precision_recall");
    group.sample_size(10);
    group.bench_function("full_workload_evaluation", |b| {
        b.iter(|| black_box(run_workload(&engine)))
    });
    group.finish();

    let evals = run_workload(&engine);
    println!("\n{}", print_table2(&workload()));
    println!("{}", print_table3(&evals));
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
