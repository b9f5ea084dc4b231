//! End-to-end query tracing: ask one mini-bank question twice, print the
//! span trees the service kept (the execution's five pipeline stages with
//! per-shard probe sub-spans, then the warm hit's `cache_hit` root), then
//! the Prometheus text exposition the service exports for scraping.
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
    // A zero slow-query threshold, with no head sampling, keeps every
    // answered query's span tree in the tenant's trace ring, warm hits
    // included (the end-to-end figure decides) — handy for a demo;
    // production deployments set a real budget, which no hit reaches (or
    // leave sampling off for the zero-cost noop path).
    let sampling = SamplingConfig::default().rate(0.0).slow(Duration::ZERO);
    let service = QueryService::start(
        Arc::new(snapshot),
        ServiceConfig::default().sampling(sampling),
    );

    // Executed once, then answered from the cache — both kept as
    // `tail_slow`: the execution with the pipeline's span tree, the hit
    // with a synthesized `cache_hit` root.
    let query = "financial instruments customers Zurich";
    let answers: Vec<QueryResponse> = (0..2)
        .map(|_| service.query(QueryRequest::new(query)).wait())
        .collect::<Result<_, _>>()
        .expect("query parses");
    let page = &answers[0].page;
    println!("== {query}");
    println!(
        "   {} results, best: {}\n",
        page.total_results,
        page.results
            .first()
            .map(|r| r.sql.as_str())
            .unwrap_or("(none)")
    );
    let kept = service
        .sampled_traces(TenantId::default())
        .expect("default tenant");
    for capture in &kept {
        println!(
            "== kept ({}, {:?} end-to-end)\n{}",
            capture.reason,
            capture.total,
            capture.trace.render()
        );
    }
    println!(
        "kept traces: {} capture(s), first spans {} node(s)\n",
        kept.len(),
        kept.first().map(|s| s.trace.all_spans().len()).unwrap_or(0)
    );

    println!("== metrics_text()");
    print!("{}", service.metrics_text());
}
