//! Micro-benchmarks of the SODA pipeline front-end: engine construction
//! (classification index + inverted index + join catalog), the lookup step and
//! the ranking enumeration, at both mini-bank and enterprise scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use std::sync::Arc;

use soda_core::{ClassificationIndex, EngineSnapshot, SodaConfig};
use soda_warehouse::enterprise::{self, EnterpriseConfig};
use soda_warehouse::minibank;
use soda_warehouse::Warehouse;

fn warehouses() -> Vec<(&'static str, Warehouse)> {
    vec![
        ("minibank", minibank::build(42)),
        (
            "enterprise",
            enterprise::build_with(EnterpriseConfig {
                seed: 42,
                padding: true,
                data_scale: 0.05,
            }),
        ),
    ]
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_lookup");
    group.sample_size(10);

    for (name, warehouse) in warehouses() {
        let parts = warehouse.shared_parts();
        let build = |(db, graph): &(Arc<_>, Arc<_>)| {
            EngineSnapshot::build(Arc::clone(db), Arc::clone(graph), SodaConfig::default())
        };
        group.bench_with_input(
            BenchmarkId::new("engine_construction", name),
            &parts,
            |b, parts| b.iter(|| black_box(build(parts))),
        );
        group.bench_with_input(
            BenchmarkId::new("classification_index_build", name),
            &parts.1,
            |b, graph| b.iter(|| black_box(ClassificationIndex::build(graph, true).len())),
        );
        let engine = build(&parts);
        group.bench_with_input(
            BenchmarkId::new("keyword_query", name),
            &engine,
            |b, engine| {
                b.iter(|| black_box(engine.search("wealthy customers Zurich").unwrap().len()))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("aggregate_query", name),
            &engine,
            |b, engine| {
                b.iter(|| {
                    black_box(
                        engine
                            .search("sum (amount) group by (currency)")
                            .map(|r| r.len())
                            .unwrap_or(0),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
