//! The legacy-system war story (§5.3.2, fourth user group): reverse engineer
//! the conceptual / logical / physical schema from a physical-only database,
//! generate documentation and a metadata graph from it, and explore the
//! legacy system through SODA and the schema browser — without any
//! hand-written metadata.
//!
//! Run with: `cargo run --example legacy_reverse_engineering`

use std::sync::Arc;

use soda::core::{EngineSnapshot, SodaConfig};
use soda::explorer::{document_model, reverse_engineer, SchemaBrowser};
use soda::warehouse::enterprise::{self, EnterpriseConfig};
use soda::warehouse::{build_graph, DomainOntology, SynonymStore};

fn main() {
    // Pretend the enterprise warehouse is an undocumented legacy system: keep
    // only its base data, discard the curated metadata graph.
    let legacy_db = Arc::new(
        enterprise::build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.15,
        })
        .database,
    );

    // 1. Reverse engineer the three schema layers from the physical catalog.
    let model = reverse_engineer(&legacy_db);
    let stats = model.stats();
    println!(
        "reverse engineered {} conceptual entities, {} logical entities, {} tables\n",
        stats.conceptual_entities, stats.logical_entities, stats.physical_tables
    );

    // 2. Generate the documentation report (first ~30 lines shown).
    println!("== generated documentation (excerpt)");
    for line in document_model(&model).lines().take(30) {
        println!("  {line}");
    }
    println!("  …\n");

    // 3. Build the metadata graph from the recovered model and browse it.
    let graph = Arc::new(build_graph(
        &model,
        &DomainOntology::new(),
        &SynonymStore::new(),
    ));
    let browser = SchemaBrowser::new(&legacy_db, &graph);
    let description = browser.describe("trade_order_td").unwrap();
    println!("== trade_order_td as recovered from the physical schema");
    println!("  logical entity: {:?}", description.logical_entities);
    println!(
        "  columns       : {:?}",
        description
            .columns
            .iter()
            .map(|c| &c.name)
            .collect::<Vec<_>>()
    );
    println!(
        "  join path to party:\n    {}",
        browser
            .join_path_explained("trade_order_td", "party")
            .unwrap()
            .join("\n    ")
    );
    println!();

    // 4. And search the legacy system through SODA.
    let engine = EngineSnapshot::build(legacy_db, graph, SodaConfig::default());
    for query in ["Sara", "trade order amount > 40000", "Credit Suisse"] {
        println!("== SODA over the legacy system: {query}");
        match engine.search(query) {
            Err(e) => println!("  error: {e}"),
            Ok(results) => {
                for r in results.iter().take(2) {
                    let rows = engine.execute(r).map(|rs| rs.row_count()).unwrap_or(0);
                    println!("  [{rows:>3} rows] {}", r.sql);
                }
            }
        }
        println!();
    }
}
