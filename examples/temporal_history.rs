//! Bi-temporal historization support (the paper's §5.2.1 remedy and §7 future
//! work): what annotating the historization join relationships buys.
//!
//! The paper reports recall 0.20 for Q2.1/Q2.2 because the `*_name_hist` join
//! keys are not reflected in the schema graph.  This example builds the same
//! warehouse twice — once paper-faithful, once with historization
//! annotations — and shows how the "Sara" query and the temporal `valid at`
//! operator behave on each.
//!
//! Run with: `cargo run --example temporal_history`

use soda::core::{EngineSnapshot, SodaConfig};
use soda::eval::experiments::historization::historization_comparison;
use soda::eval::report::print_historization;
use soda::warehouse::enterprise::{self, EnterpriseConfig};

fn show(engine: &EngineSnapshot, title: &str, query: &str) {
    println!("--- {title}: {query}");
    match engine.search(query) {
        Err(e) => println!("    error: {e}"),
        Ok(results) => {
            for r in results.iter().take(3) {
                let rows = engine.execute(r).map(|rs| rs.row_count()).unwrap_or(0);
                println!("    [{rows:>3} rows] {}", r.sql);
                for note in &r.notes {
                    println!("              note: {note}");
                }
            }
        }
    }
    println!();
}

fn main() {
    let config = EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    };

    println!("== paper-faithful metadata graph (historization joins unannotated)\n");
    let (db, graph) = enterprise::build_with(config).shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());
    show(&engine, "Q2.1", "Sara");
    show(
        &engine,
        "temporal operator (ignored without annotations)",
        "Sara valid at date(2006-06-30)",
    );

    println!("== historization-annotated metadata graph (the paper's proposed remedy)\n");
    let (db, graph) = enterprise::build_with_historization(config).shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());
    show(&engine, "Q2.1", "Sara");
    show(
        &engine,
        "temporal operator",
        "Sara valid at date(2006-06-30)",
    );

    println!("== entity recall, plain vs annotated (Q2.1 / Q2.2)\n");
    println!("{}", print_historization(&historization_comparison(config)));
}
