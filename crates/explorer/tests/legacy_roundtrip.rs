//! The full legacy-system round trip of §5.3.2 (fourth user group): start
//! from a physical-only database, reverse engineer the conceptual / logical /
//! physical schema, generate the metadata graph from it, and explore the
//! legacy system through SODA — without any hand-written metadata.

use std::sync::Arc;

use soda_core::{EngineSnapshot, SodaConfig};
use soda_explorer::{document_model, reverse_engineer, SchemaBrowser};
use soda_warehouse::enterprise::{self, EnterpriseConfig};
use soda_warehouse::{build_graph, DomainOntology, SynonymStore};

fn legacy_database() -> soda_relation::Database {
    // Only the base data of the enterprise warehouse is used; its hand-built
    // metadata graph is discarded to simulate an undocumented legacy system.
    enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.15,
    })
    .database
}

#[test]
fn reverse_engineered_metadata_makes_the_legacy_system_searchable() {
    let db = legacy_database();
    let model = reverse_engineer(&db);
    let graph = build_graph(&model, &DomainOntology::new(), &SynonymStore::new());
    let engine = EngineSnapshot::build(Arc::new(db), Arc::new(graph), SodaConfig::default());

    // A base-data keyword works exactly as on the curated warehouse: "Sara"
    // is found through the inverted index and joined to the party super-type
    // through the recovered inheritance group.
    let results = engine.search("Sara").unwrap();
    assert!(!results.is_empty());
    let best = results
        .iter()
        .find(|r| r.tables.contains(&"individual".into()))
        .expect("an interpretation over the individual table");
    assert!(
        best.tables.contains(&"party".into()),
        "recovered inheritance must add the party super-type: {:?}",
        best.tables
    );
    let rows = engine.execute(best).unwrap().row_count();
    assert!(rows > 0);

    // A business-style phrase derived from the naming conventions also works:
    // "trade order" is the business name of trade_order_td.
    let results = engine.search("trade order amount > 40000").unwrap();
    assert!(!results.is_empty());
    let top = &results[0];
    assert!(
        top.tables.contains(&"trade_order_td".into()),
        "{:?}",
        top.tables
    );
    assert!(top.sql.contains("amount > 40000"), "{}", top.sql);
    assert!(engine.execute(top).unwrap().row_count() > 0);
}

#[test]
fn browser_and_documentation_work_on_the_reverse_engineered_graph() {
    let db = legacy_database();
    let model = reverse_engineer(&db);
    let graph = build_graph(&model, &DomainOntology::new(), &SynonymStore::new());

    let browser = SchemaBrowser::new(&db, &graph);
    let description = browser.describe("trade_order_td").unwrap();
    assert!(description
        .logical_entities
        .iter()
        .any(|e| e.contains("trade order")));
    assert!(description.columns.iter().any(|c| c.name == "amount"));
    let steps = browser
        .join_path_explained("trade_order_td", "party")
        .unwrap();
    assert!(!steps.is_empty());

    let doc = document_model(&model);
    assert!(doc.contains("trade order"));
    assert!(doc.contains("`party` specialises into"));
}
