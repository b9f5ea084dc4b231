//! Quickstart: build the paper's mini-bank running example, ask a few
//! business-user questions and look at the SQL SODA generates.
//!
//! Run with: `cargo run --example quickstart`

use soda::core::{EngineSnapshot, SodaConfig};
use soda::warehouse::minibank;

fn main() {
    // A seeded synthetic warehouse: 10 tables (Figure 2 of the paper), a
    // three-layer schema, a domain ontology, DBpedia synonyms and base data.
    let warehouse = minibank::build(42);
    println!(
        "mini-bank: {} tables, {} rows, metadata graph with {} nodes / {} edges\n",
        warehouse.database.table_count(),
        warehouse.database.total_rows(),
        warehouse.graph.node_count(),
        warehouse.graph.edge_count()
    );

    // The engine takes over the warehouse: it builds the classification
    // index, the inverted index and the join catalog once, then answers any
    // number of queries from any number of threads.
    let (db, graph) = warehouse.shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());

    // The three introductory queries of Section 2.
    for query in [
        "financial instruments customers Zurich",
        "sum (amount) group by (transaction date)",
        "Sara Guttinger",
    ] {
        println!("== {query}");
        let results = engine.search(query).expect("query parses");
        match results.first() {
            None => println!("   (no interpretation found)\n"),
            Some(top) => {
                println!("   score {:.2}  tables {:?}", top.score, top.tables);
                println!("   {}\n", top.sql);
                if let Ok(snippet) = engine.snippet(top) {
                    for line in snippet.lines().take(5) {
                        println!("   | {line}");
                    }
                }
                println!();
            }
        }
    }
}
