//! A tour of the paper's worked examples (§4.4) on the mini-bank: the four
//! SODA-vs-SQL listings (Query 1–4), the "wealthy customers" metadata filter,
//! and the Figure 5 / Figure 6 pipeline illustrations.
//!
//! Run with: `cargo run --example minibank_tour`

use soda::core::{EngineSnapshot, SodaConfig};
use soda::eval::experiments::figures;
use soda::warehouse::minibank;

fn show(engine: &EngineSnapshot, title: &str, query: &str) {
    println!("=== {title}");
    println!("SODA : {query}");
    match engine.search(query) {
        Err(e) => println!("error: {e}\n"),
        Ok(results) => {
            for (i, r) in results.iter().take(2).enumerate() {
                println!("SQL{} : {}", i + 1, r.sql);
            }
            if let Some(top) = results.first() {
                if let Ok(rs) = engine.execute(top) {
                    println!("rows : {}", rs.row_count());
                }
            }
            println!();
        }
    }
}

fn main() {
    let (db, graph) = minibank::build(42).shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());

    // Query 1: keyword pattern example.
    show(&engine, "Query 1 — keyword lookup", "Sara Guttinger");
    // Query 2: input pattern example (comparison operators and date()).
    show(
        &engine,
        "Query 2 — comparison operators",
        "salary >= 100000 and birthday = date(1981-04-23)",
    );
    // Query 3: aggregation pattern example.
    show(
        &engine,
        "Query 3 — aggregation",
        "sum (amount) group by (transaction date)",
    );
    // Query 4: organizations ranked by trading volume.
    show(
        &engine,
        "Query 4 — organizations by trading volume",
        "count (transactions) group by (company name)",
    );
    // Business term defined in the metadata ("wealthy customers").
    show(&engine, "Metadata-defined filter", "wealthy customers");
    // Top-N operator.
    show(
        &engine,
        "Top N",
        "Top 10 sum (amount) group by (company name)",
    );

    // Figure 5: classification of the running-example query.
    println!("=== Figure 5 — query classification");
    for (phrase, provenances) in figures::figure5_classification(&engine) {
        println!("  {phrase:<24} found in: {}", provenances.join(", "));
    }

    // Figure 6: output of the tables step.
    println!("\n=== Figure 6 — tables step output (per interpretation)");
    for (i, tables) in figures::figure6_tables(&engine).iter().enumerate() {
        println!("  interpretation {}: {}", i + 1, tables.join(", "));
    }
}
