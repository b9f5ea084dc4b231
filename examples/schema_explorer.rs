//! SODA as a schema-exploration tool (§5.3.2 of the paper): several user
//! groups used SODA not to run queries but to understand the warehouse —
//! which entities relate to which, where a business term lives physically, and
//! which join paths connect two tables.
//!
//! Run with: `cargo run --example schema_explorer`

use soda::core::{EngineSnapshot, SearchOptions, SodaConfig};
use soda::eval::experiments::figures;
use soda::warehouse::enterprise::{self, EnterpriseConfig};

fn main() {
    let (db, graph) = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.1,
    })
    .shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());

    // 1. Where does a business term live?  The classification index answers
    //    directly, without generating SQL.
    println!("== where do business terms resolve?");
    for term in [
        "private customers",
        "trading volume",
        "wealthy customers",
        "birth date",
    ] {
        let outcome = engine.search_with(term, &SearchOptions::default()).unwrap();
        let (results, trace) = (outcome.page.results, outcome.trace);
        let provenance: Vec<String> = trace
            .classification
            .iter()
            .flat_map(|(_, p)| p.iter().map(|x| x.label().to_string()))
            .collect();
        let tables: Vec<std::sync::Arc<str>> = results
            .iter()
            .flat_map(|r| r.tables.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        println!(
            "  {term:<20} found in {:?}, physical tables {:?}",
            provenance, tables
        );
    }

    // 2. Which join path connects two entities?  "Give me tables X and Y" —
    //    the third user group of §5.3.2.
    println!("\n== join paths discovered from the metadata graph");
    for (a, b) in [
        ("trade_order_td", "individual"),
        ("money_transaction_td", "organization"),
        ("security_td", "party"),
    ] {
        match engine.join_catalog().path(a, b) {
            Some(path) => {
                let conditions: Vec<String> = path.iter().map(|e| e.condition()).collect();
                println!("  {a} -> {b}: {}", conditions.join(" AND "));
            }
            None => println!("  {a} -> {b}: no join path found"),
        }
    }

    // 3. The complex hierarchy around `party` (Figure 10), including the
    //    bridge between inheritance siblings that causes trouble for Q5.0.
    println!("\n== Figure 10: schema hierarchy around party");
    println!("{}", figures::figure10_hierarchy(&engine));

    // 4. Bridge tables in the whole schema.
    println!("== bridge tables (physical N-to-N implementations)");
    for bridge in &engine.join_catalog().bridges {
        println!("  {} connects {:?}", bridge.table, bridge.connects());
    }
}
