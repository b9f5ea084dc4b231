//! The serving layer in action: N client threads drive the mini-bank
//! warehouse through a shared `QueryService`, then the service metrics show
//! QPS, latency percentiles and the interpretation-cache hit rate.
//!
//! Run with: `cargo run --release --example service_throughput`

use std::sync::Arc;

use soda::prelude::*;
use soda::warehouse::minibank;

const CLIENTS: usize = 8;
const ROUNDS: usize = 25;

/// The workload every client loops over — the paper's flagship query shapes.
const QUERIES: &[&str] = &[
    "Sara Guttinger",
    "wealthy customers",
    "financial instruments customers Zurich",
    "salary >= 100000 and birthday = date(1981-04-23)",
    "sum (amount) group by (transaction date)",
    "count (transactions) group by (company name)",
];

fn main() {
    // Build once, serve forever: the warehouse is consumed into an owned,
    // thread-safe snapshot (base data + metadata graph + all indexes).
    let warehouse = minibank::build(42);
    println!(
        "mini-bank: {} tables, {} rows — building shared engine snapshot…",
        warehouse.database.table_count(),
        warehouse.database.total_rows(),
    );
    let snapshot = Arc::new(EngineSnapshot::build(
        Arc::new(warehouse.database),
        Arc::new(warehouse.graph),
        SodaConfig::default(),
    ));

    let service = QueryService::start(
        snapshot,
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            ..ServiceConfig::default()
        },
    );

    println!(
        "serving {CLIENTS} clients × {ROUNDS} rounds × {} queries on {} workers…\n",
        QUERIES.len(),
        service.metrics().workers,
    );

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let service = &service;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Clients phrase the same questions differently; the
                    // canonicalizing cache still answers them from one slot.
                    let query = QUERIES[(client + round) % QUERIES.len()];
                    let spelled = if round % 2 == 0 {
                        query.to_string()
                    } else {
                        query.to_uppercase()
                    };
                    let page = service
                        .query(QueryRequest::new(spelled))
                        .wait()
                        .expect("query serves")
                        .page;
                    assert!(page.results.iter().all(|r| r.sql.starts_with("SELECT")));
                }
            });
        }
    });

    let m = service.metrics();
    println!("── service metrics ──────────────────────────────");
    println!("  queries answered : {}", m.completed);
    println!("  wall-clock       : {:?}", m.uptime);
    println!("  throughput       : {:.0} queries/sec", m.qps);
    println!(
        "  latency          : min {:?}  mean {:?}  p50 {:?}  p95 {:?}  max {:?}",
        m.latency.min, m.latency.mean, m.latency.p50, m.latency.p95, m.latency.max
    );
    println!(
        "  cache            : {} hits / {} misses ({:.1}% hit rate), {} resident, {} evicted",
        m.cache.hits,
        m.cache.misses,
        100.0 * m.cache.hit_rate(),
        m.cache.len,
        m.cache.evictions
    );
    println!("  queue depth      : {}", m.queue_depth);
}
