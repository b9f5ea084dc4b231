//! Cross-crate integration tests of the serving layer: the `QueryService`
//! must produce byte-identical SQL to the single-threaded engine under
//! concurrency, and its warm cache must beat the cold pipeline by at least
//! an order of magnitude.

use std::sync::Arc;
use std::time::{Duration, Instant};

use soda::prelude::*;
use soda::warehouse::minibank;

const QUERIES: &[&str] = &[
    "Sara Guttinger",
    "wealthy customers",
    "financial instruments customers Zurich",
    "salary >= 100000 and birthday = date(1981-04-23)",
    "sum (amount) group by (transaction date)",
    "count (transactions) group by (company name)",
    "Top 10 sum (amount) group by (company name)",
];

fn shared_snapshot() -> Arc<EngineSnapshot> {
    let w = minibank::build(42);
    Arc::new(EngineSnapshot::build(
        Arc::new(w.database),
        Arc::new(w.graph),
        SodaConfig::default(),
    ))
}

/// N threads × M queries through the service produce byte-identical result
/// pages (SQL text included) to a fresh single-threaded engine.
#[test]
fn concurrent_service_matches_single_threaded_engine_byte_for_byte() {
    // The reference run uses an engine over its own copy of the warehouse,
    // so nothing is shared with the service under test.
    let reference_engine = shared_snapshot();
    let expected: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|q| {
            reference_engine
                .search_paged(q, 0, 10)
                .expect("reference query runs")
                .results
                .iter()
                .map(|r| r.sql.clone())
                .collect()
        })
        .collect();

    let service = QueryService::start(
        shared_snapshot(),
        ServiceConfig {
            workers: 4,
            queue_capacity: 8, // small on purpose: exercises backpressure
            cache_capacity: 32,
            ..ServiceConfig::default()
        },
    );

    const THREADS: usize = 8;
    const ROUNDS: usize = 5;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = &service;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Rotate the starting query per thread so cache hits and
                    // misses interleave across the pool.
                    for i in 0..QUERIES.len() {
                        let idx = (t + round + i) % QUERIES.len();
                        let page = service
                            .query(QueryRequest::new(QUERIES[idx]))
                            .wait()
                            .expect("service answers")
                            .page;
                        let sql: Vec<String> = page.results.iter().map(|r| r.sql.clone()).collect();
                        assert_eq!(
                            sql, expected[idx],
                            "thread {t} round {round} diverged on '{}'",
                            QUERIES[idx]
                        );
                    }
                }
            });
        }
    });

    let metrics = service.metrics();
    assert_eq!(metrics.completed, (THREADS * ROUNDS * QUERIES.len()) as u64);
    // Every query repeats many times, so the cache must have carried most of
    // the load.
    assert!(
        metrics.cache.hit_rate() > 0.5,
        "expected a warm cache, got {:?}",
        metrics.cache
    );
}

/// The warm cache answers a repeated query at least 10× faster than the cold
/// pipeline run of the same query.
#[test]
fn warm_cache_is_at_least_ten_times_faster_than_cold() {
    let service = QueryService::start(shared_snapshot(), ServiceConfig::default());
    let query = "financial instruments customers Zurich";

    // Cold: best of several full-pipeline runs (cache cleared each time), so
    // scheduler noise can only make cold look *faster*, never slower.
    let mut cold = Duration::MAX;
    for _ in 0..5 {
        service
            .admin(TenantId::default())
            .expect("default tenant exists")
            .clear_cache();
        let t0 = Instant::now();
        service
            .query(QueryRequest::new(query))
            .wait()
            .expect("cold query serves");
        cold = cold.min(t0.elapsed());
    }

    // Warm: best of many pure cache hits.
    service
        .query(QueryRequest::new(query))
        .wait()
        .expect("priming query serves");
    let mut warm = Duration::MAX;
    for _ in 0..50 {
        let t0 = Instant::now();
        let handle = service.query(QueryRequest::new(query));
        assert!(handle.is_ready(), "warm submit must resolve synchronously");
        handle.wait().expect("warm query serves");
        warm = warm.min(t0.elapsed());
    }

    assert!(
        cold >= warm * 10,
        "warm cache not ≥10× faster: cold {cold:?} vs warm {warm:?}"
    );
}

/// Cache hits must respect the engine configuration: two services with
/// different configs never share interpretations, even for the same input.
#[test]
fn different_configs_produce_independent_answers() {
    let w = minibank::build(42);
    let default_cfg = SodaConfig::default();
    let no_index_cfg = SodaConfig {
        use_inverted_index: false,
        ..SodaConfig::default()
    };
    assert_ne!(default_cfg.fingerprint(), no_index_cfg.fingerprint());

    let with_index = QueryService::start(
        Arc::new(EngineSnapshot::build(
            Arc::new(w.database.clone()),
            Arc::new(w.graph.clone()),
            default_cfg,
        )),
        ServiceConfig::default(),
    );
    let without_index = QueryService::start(
        Arc::new(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            no_index_cfg,
        )),
        ServiceConfig::default(),
    );

    // "Sara Guttinger" only resolves through the inverted index over the
    // base data, so the two services must answer differently.
    let a = with_index
        .query(QueryRequest::new("Sara Guttinger"))
        .wait()
        .expect("serves")
        .page;
    let b = without_index
        .query(QueryRequest::new("Sara Guttinger"))
        .wait()
        .expect("serves")
        .page;
    assert!(!a.results.is_empty());
    assert_ne!(a.results, b.results);
}

/// The cheap `queue_depth()` accessor mirrors the gauge in the full metrics
/// snapshot without paying for latency/cache/shard aggregation.
#[test]
fn queue_depth_accessor_tracks_the_queue() {
    let service = QueryService::start(
        shared_snapshot(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    assert_eq!(service.queue_depth(), 0);
    assert_eq!(service.metrics().queue_depth, 0);

    // Distinct cold queries pile up behind the single worker; the accessor
    // and the metrics gauge must agree while the queue drains.
    let handles: Vec<_> = QUERIES
        .iter()
        .map(|q| service.query(QueryRequest::new(*q)))
        .collect();
    // No further submissions happen, so depth only shrinks as the worker
    // drains: the accessor sampled after the snapshot can never exceed it.
    let snapshot_depth = service.metrics().queue_depth;
    assert!(service.queue_depth() <= snapshot_depth);
    for handle in handles {
        handle.wait().expect("query serves");
    }
    assert_eq!(service.queue_depth(), 0);
    assert_eq!(service.metrics().queue_depth, 0);
}

/// N concurrent identical cold queries execute the five-step pipeline once:
/// the first miss computes, everyone else coalesces onto it (or hits the
/// cache if it arrives after completion) — never a duplicate execution.
#[test]
fn concurrent_identical_cold_queries_are_coalesced() {
    let service = QueryService::start(
        shared_snapshot(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 32,
            cache_capacity: 32,
            ..ServiceConfig::default()
        },
    );
    // Occupy the single worker so the identical submissions below overlap
    // with their key's in-flight window.
    let blocker = service.query(QueryRequest::new("financial instruments customers Zurich"));

    const CLIENTS: usize = 12;
    let query = "sum (amount) group by (transaction date)";
    let pages: Vec<ResultPage> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| service.query(QueryRequest::new(query)).wait().unwrap().page))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    blocker.wait().expect("blocker serves");

    for page in &pages {
        assert_eq!(page, &pages[0], "coalesced clients must share one page");
    }
    let m = service.metrics();
    assert_eq!(
        m.pipeline_executions, 2,
        "blocker + exactly one execution for {CLIENTS} identical queries: {m:?}"
    );
    assert_eq!(m.coalesced + m.cache.hits, (CLIENTS - 1) as u64);
    assert_eq!(m.completed, (CLIENTS + 1) as u64);
}

/// A batch of handles collected up front resolves in request order and
/// populates metrics.
#[test]
fn batched_handles_round_trip_a_mixed_workload() {
    let service = QueryService::start(shared_snapshot(), ServiceConfig::default());
    let handles: Vec<JobHandle> = QUERIES
        .iter()
        .map(|q| service.query(QueryRequest::new(*q)))
        .collect();
    let results: Vec<JobResult> = handles.into_iter().map(JobHandle::wait).collect();
    assert_eq!(results.len(), QUERIES.len());
    for (query, result) in QUERIES.iter().zip(&results) {
        let response = result.as_ref().unwrap_or_else(|e| {
            panic!("'{query}' failed: {e}");
        });
        assert!(response
            .page
            .results
            .iter()
            .all(|r| r.sql.starts_with("SELECT")));
    }
    let metrics = service.metrics();
    assert_eq!(metrics.completed, QUERIES.len() as u64);
    assert!(metrics.latency.max >= metrics.latency.p50);
}
