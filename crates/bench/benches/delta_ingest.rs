//! Streaming-delta-ingestion benchmarks on the enterprise warehouse.
//!
//! The question behind the `soda-ingest` subsystem: what does absorbing a
//! batch of onboarded customers cost when it lands in per-shard side logs
//! (`SnapshotHandle::absorb`) versus when it forces the owning partitions to
//! be rebuilt (`WarehouseDelta::apply` + `rebuild_shards`)?  And what do the
//! live logs cost the probe path until a compaction folds them?
//!
//! * `ingest_feed` — replay the onboarding feed into side logs and publish:
//!   pays the database copy plus tokenizing *only the new rows*.
//! * `rebuild_delta` — the batch path for the same rows: pays the database
//!   copy plus a full rescan of every table owned by the touched partitions.
//!   The gap between these two is the latency the streaming path turns into
//!   a background cost.
//! * `probe_clean` vs `probe_logged` — the probe workload of
//!   `lookup_sharding` against a log-free snapshot and against one whose
//!   side logs hold the onboarded rows.  Read through the **min**: the
//!   overlay adds a bounded per-shard scan, it must not change the shape of
//!   the hot path.
//! * `compact_logs` — folding the grown logs back into rebuilt partitions
//!   (the background cost the `Compactor` pays instead of the reload).
//! * `ingest_feed_4x` / `rebuild_delta_4x` — the same feed against a 4×
//!   `data_scale` warehouse: with copy-on-write snapshots the ingest cost is
//!   O(delta), so `ingest_feed_4x` should stay near `ingest_feed` while the
//!   rebuild path grows with the warehouse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use soda_core::{EngineSnapshot, SnapshotHandle, SodaConfig};
use soda_warehouse::delta::WarehouseDelta;
use soda_warehouse::enterprise::{self, data, EnterpriseConfig};

const SHARDS: usize = 4;
/// Onboarded customers per feed — large enough that the per-shard rebuild's
/// full-table rescan dominates it.
const FEED_ROWS: usize = 32;

/// The `lookup_sharding` probe workload (minus the aggregates), plus one
/// query that only the onboarded rows can answer once ingested.
const QUERIES: &[&str] = &[
    "customers Switzerland",
    "Meier",
    "Keller Switzerland",
    "CHF",
];

fn bench_delta_ingest(c: &mut Criterion) {
    let warehouse = enterprise::build_with_dimensions(
        EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 1.0,
        },
        4.0,
    );
    let config = SodaConfig {
        shards: SHARDS,
        ..SodaConfig::default()
    };
    let db = Arc::new(warehouse.database.clone());
    let graph = Arc::new(warehouse.graph.clone());
    let base = Arc::new(EngineSnapshot::build(
        Arc::clone(&db),
        Arc::clone(&graph),
        config.clone(),
    ));
    let delta: WarehouseDelta = data::onboarding_delta(&warehouse.database, 7, FEED_ROWS);
    let feed = delta.to_feed();
    let delta_tables = delta.changed_tables();

    let mut group = c.benchmark_group("delta_ingest");
    group.sample_size(10);

    // Streaming: absorb the feed into side logs.
    group.bench_with_input(BenchmarkId::new("ingest_feed", FEED_ROWS), &(), |b, ()| {
        b.iter(|| {
            let handle = SnapshotHandle::new(Arc::clone(&base));
            black_box(handle.absorb(feed.clone()).expect("feed absorbs"))
        })
    });

    // Batch: apply the same rows and rebuild the owning partitions.
    group.bench_with_input(
        BenchmarkId::new("rebuild_delta", FEED_ROWS),
        &(),
        |b, ()| {
            b.iter(|| {
                let handle = SnapshotHandle::new(Arc::clone(&base));
                let next = delta.apply(&warehouse.database).expect("delta applies");
                black_box(handle.rebuild_shards(Arc::new(next), &delta_tables))
            })
        },
    );

    // Probe latency against a log-free snapshot…
    group.bench_with_input(BenchmarkId::new("probe_clean", SHARDS), &(), |b, ()| {
        b.iter(|| {
            let mut complexity = 0usize;
            for query in QUERIES {
                complexity += base.lookup(query).expect("lookup runs").complexity();
            }
            black_box(complexity)
        })
    });

    // …and against one whose side logs carry the onboarded rows.
    let logged_handle = SnapshotHandle::new(Arc::clone(&base));
    logged_handle.absorb(feed.clone()).expect("feed absorbs");
    let logged = logged_handle.load();
    assert!(
        !logged.shards_with_side_logs().is_empty(),
        "the probes below must hit live side logs"
    );
    group.bench_with_input(BenchmarkId::new("probe_logged", SHARDS), &(), |b, ()| {
        b.iter(|| {
            let mut complexity = 0usize;
            for query in QUERIES {
                complexity += logged.lookup(query).expect("lookup runs").complexity();
            }
            black_box(complexity)
        })
    });

    // The background cost compaction pays to restore the frozen fast path.
    let all_shards: Vec<usize> = (0..SHARDS).collect();
    group.bench_with_input(BenchmarkId::new("compact_logs", SHARDS), &(), |b, ()| {
        b.iter(|| {
            let handle = SnapshotHandle::new(Arc::clone(&base));
            handle.absorb(feed.clone()).expect("feed absorbs");
            black_box(handle.compact(&all_shards).expect("a log to fold"))
        })
    });

    // The scale axis: the same-sized feed against a 4× data_scale
    // warehouse.  Copy-on-write snapshots make absorb O(delta) — this
    // point should sit near `ingest_feed`, while the apply+rebuild path
    // rescans the bigger tables and grows with the warehouse.
    let warehouse4 = enterprise::build_with_dimensions(
        EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 4.0,
        },
        4.0,
    );
    let base4 = {
        let db4 = Arc::new(warehouse4.database.clone());
        let graph4 = Arc::new(warehouse4.graph.clone());
        Arc::new(EngineSnapshot::build(db4, graph4, config.clone()))
    };
    let delta4: WarehouseDelta = data::onboarding_delta(&warehouse4.database, 7, FEED_ROWS);
    let feed4 = delta4.to_feed();
    let delta4_tables = delta4.changed_tables();

    group.bench_with_input(
        BenchmarkId::new("ingest_feed_4x", FEED_ROWS),
        &(),
        |b, ()| {
            b.iter(|| {
                let handle = SnapshotHandle::new(Arc::clone(&base4));
                black_box(handle.absorb(feed4.clone()).expect("feed absorbs"))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("rebuild_delta_4x", FEED_ROWS),
        &(),
        |b, ()| {
            b.iter(|| {
                let handle = SnapshotHandle::new(Arc::clone(&base4));
                let next = delta4.apply(&warehouse4.database).expect("delta applies");
                black_box(handle.rebuild_shards(Arc::new(next), &delta4_tables))
            })
        },
    );

    group.finish();
}

criterion_group!(benches, bench_delta_ingest);
criterion_main!(benches);
