//! Two tenants on one service: what tenant B's warm cache hit costs alone,
//! and what the same hit costs while tenant A floods the shared queue with
//! distinct cold queries from a background thread.  The admission quota and
//! the submission-time warm path are what keep the two figures close.
//!
//! Prints solo / storm / ratio and asserts nothing: one wall-clock reading on
//! a shared machine is not a gate.  This example goes when the ratio is a
//! `soda_bench` row (`service.storm_hit_ratio`, ROADMAP item 1 (b)).
//!
//! Run with: `cargo run --release --example tenant_storm`

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soda::core::{EngineSnapshot, SodaConfig};
use soda::service::{JobHandle, QueryRequest, QueryService, ServiceConfig};
use soda::warehouse::minibank;

const WARM_QUERY: &str = "Sara Guttinger";
const HITS: u32 = 100_000;

fn snapshot() -> Arc<EngineSnapshot> {
    let (db, graph) = minibank::build(42).shared_parts();
    Arc::new(EngineSnapshot::build(db, graph, SodaConfig::default()))
}

/// Mean wall-clock of one of `HITS` warm hits on tenant B.
fn warm_hit(service: &QueryService) -> Duration {
    let started = Instant::now();
    for _ in 0..HITS {
        black_box(
            service
                .query(QueryRequest::new(WARM_QUERY).tenant("tenant-b"))
                .wait()
                .expect("warm hit serves"),
        );
    }
    started.elapsed() / HITS
}

fn main() {
    let service = QueryService::start(
        snapshot(),
        ServiceConfig::default()
            .workers(2)
            .queue_capacity(8)
            .cache_capacity(1024),
    );
    service
        .add_tenant("tenant-b", snapshot())
        .expect("tenant-b registers");
    // Prime B's warm page: every measured hit below is a pure cache probe.
    warm_hit(&service);

    let solo = warm_hit(&service);

    // Tenant A's storm: bursts of 8 distinct cold queries (every one a cache
    // miss) keep the shared queue pressed against A's admission quota for as
    // long as the measurement runs.
    let stop = AtomicBool::new(false);
    let storm = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut next = 0u64;
            while !stop.load(Ordering::Acquire) {
                let handles: Vec<JobHandle> = (next..next + 8)
                    .map(|i| service.query(QueryRequest::new(format!("Storm{i}"))))
                    .collect();
                next += 8;
                for handle in handles {
                    let _ = handle.wait();
                }
            }
        });
        let storm = warm_hit(&service);
        stop.store(true, Ordering::Release);
        storm
    });

    println!("tenant B warm hit, mean of {HITS}:");
    println!("  solo        : {solo:?}");
    println!("  under storm : {storm:?}");
    println!(
        "  ratio       : {:.2}",
        storm.as_secs_f64() / solo.as_secs_f64()
    );
}
