//! End-to-end query tracing: run one mini-bank query through the service's
//! traced diagnostic path, print the rendered span tree (the five pipeline
//! stages with per-shard probe sub-spans), then the Prometheus text
//! exposition the service exports for scraping.
//!
//! Run with: `cargo run --example trace_query`

use std::sync::Arc;
use std::time::Duration;

use soda::prelude::*;
use soda::warehouse::minibank;

fn main() {
    let warehouse = minibank::build(42);
    let snapshot = EngineSnapshot::build(
        Arc::new(warehouse.database),
        Arc::new(warehouse.graph),
        SodaConfig {
            shards: 4,
            ..SodaConfig::default()
        },
    );
    // A zero slow-query threshold keeps every answered query's span tree in
    // the tenant's trace ring, warm hits included (the end-to-end figure
    // decides) — handy for a demo; production deployments set a real
    // budget, which no hit reaches (or leave it off for the zero-cost noop
    // path).
    let service = QueryService::start(
        Arc::new(snapshot),
        ServiceConfig {
            slow_query_threshold: Some(Duration::ZERO),
            ..ServiceConfig::default()
        },
    );

    let query = "financial instruments customers Zurich";
    let traced = service
        .query(QueryRequest::new(query).traced())
        .wait()
        .expect("query parses");
    println!("== traced: {query}");
    println!(
        "   {} results, best: {}\n",
        traced.page.total_results,
        traced
            .page
            .results
            .first()
            .map(|r| r.sql.as_str())
            .unwrap_or("(none)")
    );
    println!(
        "{}",
        traced
            .trace
            .expect("traced response carries its trace")
            .render()
    );

    // The same query through the normal path: executed once, then answered
    // from the cache — both kept as `tail_slow`.
    for _ in 0..2 {
        service.query(QueryRequest::new(query)).wait().unwrap();
    }
    let kept = service
        .sampled_traces(TenantId::default())
        .expect("default tenant");
    println!(
        "kept traces: {} capture(s), first spans {} node(s)\n",
        kept.len(),
        kept.first().map(|s| s.trace.all_spans().len()).unwrap_or(0)
    );

    println!("== metrics_text()");
    print!("{}", service.metrics_text());
}
