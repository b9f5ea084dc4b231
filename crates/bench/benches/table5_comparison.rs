//! Table 5 — qualitative comparison with DBExplorer, DISCOVER, BANKS, SQAK and
//! Keymantic.
//!
//! Benchmarks each baseline answering the full workload, and prints the
//! regenerated capability/coverage table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use soda_baselines::all_baselines;
use soda_core::{EngineSnapshot, SodaConfig};
use soda_eval::experiments::table5::table5;
use soda_eval::report::print_table5;
use soda_eval::workload::workload;
use soda_relation::InvertedIndex;
use soda_warehouse::enterprise::{self, EnterpriseConfig};

fn bench_table5(c: &mut Criterion) {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.15,
    });
    let index = InvertedIndex::build(&warehouse.database);
    let queries = workload();

    let mut group = c.benchmark_group("table5_baselines");
    group.sample_size(10);
    for baseline in all_baselines() {
        group.bench_with_input(
            BenchmarkId::from_parameter(baseline.name()),
            &baseline,
            |b, system| {
                b.iter(|| {
                    let answered: usize = queries
                        .iter()
                        .filter(|q| {
                            system
                                .answer(&warehouse.database, &index, q.keywords)
                                .is_some()
                        })
                        .count();
                    black_box(answered)
                })
            },
        );
    }
    group.finish();

    let (db, graph) = warehouse.shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());
    println!("\n{}", print_table5(&table5(&engine)));
}

criterion_group!(benches, bench_table5);
criterion_main!(benches);
