//! Lookup-layer sharding benchmark on the enterprise-scale warehouse.
//!
//! The same workload at 1/2/4/8 shards: `lookup_step` is the wall-clock time
//! of Step 1 alone, `full_search` of the whole pipeline.  Shards are probed
//! inline, in order, and a probe walks a handful of value entries per shard,
//! so partitioning buys no latency here — it is the unit of rebuild, side
//! logs and cache retention (`snapshot_swap`, `delta_ingest`).  What this
//! bench guards is that it does not *cost* any either: the curves should be
//! flat across shard counts.
//!
//! The workload leans on tokens whose postings spread over several tables —
//! "Switzerland" spans `individual`, `organization` and `address`; family
//! names span `individual` and `individual_name_hist`; currency codes span
//! `trade_order_td`, `money_transaction_td` and `account_td` — so every
//! probe touches several shards once there are several.  SQL output is
//! byte-identical at every shard count, so the comparison is pure latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use std::sync::Arc;

use soda_core::{EngineSnapshot, SodaConfig};
use soda_warehouse::enterprise::{self, EnterpriseConfig};

/// Multi-table lookup workload (see the module docs for why these tokens).
const QUERIES: &[&str] = &[
    "customers Switzerland",
    "Meier",
    "Keller Switzerland",
    "CHF",
    "Schmid",
];

fn bench_lookup_sharding(c: &mut Criterion) {
    // Scale both the transactional tables and the party-rooted dimensions so
    // the probe tokens occur in many rows, across many tables.
    let warehouse = enterprise::build_with_dimensions(
        EnterpriseConfig {
            seed: 42,
            padding: true,
            data_scale: 2.0,
        },
        8.0,
    );
    let (db, graph) = warehouse.shared_parts();

    let mut group = c.benchmark_group("lookup_sharding");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let engine = EngineSnapshot::build(
            Arc::clone(&db),
            Arc::clone(&graph),
            SodaConfig {
                shards,
                ..SodaConfig::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lookup_step", shards),
            &engine,
            |b, engine| {
                b.iter(|| {
                    let mut complexity = 0usize;
                    for query in QUERIES {
                        complexity += engine.lookup(query).expect("lookup runs").complexity();
                    }
                    black_box(complexity)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full_search", shards),
            &engine,
            |b, engine| {
                b.iter(|| {
                    let mut results = 0usize;
                    for query in QUERIES {
                        results += engine.search(query).expect("search runs").len();
                    }
                    black_box(results)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lookup_sharding);
criterion_main!(benches);
