//! Micro-benchmarks of the metadata-graph substrate: pattern matching,
//! join-catalog construction and join-path search at the Table 1 schema
//! scale.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use soda_core::{JoinCatalog, SodaConfig, SodaPatterns};
use soda_metagraph::Matcher;
use soda_warehouse::enterprise::{self, EnterpriseConfig};

fn bench_metagraph(c: &mut Criterion) {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: true,
        data_scale: 0.02,
    });
    let graph = &warehouse.graph;
    let patterns = SodaPatterns::default();
    let depth = SodaConfig::default().traversal_depth;

    let mut group = c.benchmark_group("micro_metagraph");
    group.sample_size(10);

    group.bench_function("match_table_pattern_all_nodes", |b| {
        let matcher = Matcher::new(graph, patterns.registry());
        b.iter(|| black_box(matcher.match_all(patterns.table()).len()))
    });

    group.bench_function("match_foreign_key_pattern_all_nodes", |b| {
        let matcher = Matcher::new(graph, patterns.registry());
        b.iter(|| black_box(matcher.match_all(patterns.foreign_key()).len()))
    });

    group.bench_function("join_catalog_build", |b| {
        b.iter(|| {
            black_box(
                JoinCatalog::build(graph, &patterns, &warehouse.database, depth)
                    .edges
                    .len(),
            )
        })
    });

    group.bench_function("join_path_5way", |b| {
        let catalog = JoinCatalog::build(graph, &patterns, &warehouse.database, depth);
        b.iter(|| black_box(catalog.path("trade_order_td", "individual")))
    });

    group.finish();

    println!(
        "\ngraph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );
}

criterion_group!(benches, bench_metagraph);
criterion_main!(benches);
