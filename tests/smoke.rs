//! Workspace smoke test: the facade re-exports resolve and the quickstart
//! path (mini-bank build → one keyword query → SQL string) runs end-to-end.
//!
//! This is the test CI leans on to catch facade wiring regressions — every
//! re-exported crate is touched through its `soda::` path, not through the
//! underlying `soda_*` crate names.

use std::sync::Arc;

use soda::prelude::*;

/// Every facade module re-export resolves and exposes its crate's API.
#[test]
fn facade_reexports_resolve() {
    // soda::metagraph
    let mut graph = soda::metagraph::MetaGraph::new();
    let node = graph.add_node("smoke/node");
    graph.add_text_edge(node, "label", "smoke");
    assert_eq!(graph.node_count(), 1);

    // soda::relation
    let mut db = soda::relation::Database::new();
    db.create_table(
        soda::relation::TableSchema::builder("smoke")
            .column("id", soda::relation::DataType::Int)
            .primary_key("id")
            .build(),
    )
    .unwrap();
    db.insert("smoke", vec![soda::relation::Value::from(1)])
        .unwrap();
    assert_eq!(db.run_sql("SELECT * FROM smoke").unwrap().row_count(), 1);

    // soda::warehouse
    let warehouse = soda::warehouse::minibank::build(42);
    assert!(warehouse.database.table_count() > 0);

    // soda::core
    let (db, graph) = warehouse.shared_parts();
    let engine = EngineSnapshot::build(Arc::clone(&db), Arc::clone(&graph), SodaConfig::default());
    assert!(!engine.search("Zurich").unwrap().is_empty());

    // soda::eval
    assert!(!soda::eval::workload().is_empty());

    // soda::baselines and soda::explorer ride along on the same facade.
    assert_eq!(soda::baselines::all_baselines().len(), 5);
    let browser = SchemaBrowser::new(&db, &graph);
    assert!(!browser.tables().is_empty());
}

/// The README/lib.rs quickstart: build the mini-bank, ask one keyword query,
/// get executable SQL back.
#[test]
fn quickstart_keyword_query_yields_sql() {
    let (db, graph) = soda::warehouse::minibank::build(42).shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());

    let results = engine.search("Sara Guttinger").unwrap();
    assert!(!results.is_empty());

    let sql = &results[0].sql;
    assert!(sql.starts_with("SELECT"), "not a SELECT: {sql}");

    // The generated SQL is not just a string — it parses and executes on the
    // same warehouse, and actually finds Sara Guttinger.
    soda::relation::parse_select(sql).expect("generated SQL must parse");
    let result_set = engine
        .database()
        .run_sql(sql)
        .expect("generated SQL must execute");
    assert!(!result_set.is_empty(), "no rows for: {sql}");
    assert!(result_set
        .tuple_strings()
        .iter()
        .any(|row| row.contains("Guttinger")));
}
