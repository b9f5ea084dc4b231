//! Regeneration of the paper's figures.
//!
//! Figures 1–4, 7, 8 and 10 are structural diagrams; they are regenerated as
//! GraphViz DOT (schemas) or annotated text (patterns, hierarchy).  Figures 5,
//! 6 and 9 show the behaviour of pipeline steps on concrete queries and are
//! regenerated by running the engine.

use soda_core::{EngineSnapshot, SearchOptions, FOREIGN_KEY_PATTERN, TABLE_PATTERN};
use soda_warehouse::{RelationshipKind, Warehouse};

/// Figure 1 — the conceptual schema of the mini-bank as a DOT graph.
pub(crate) fn figure1_dot(warehouse: &Warehouse) -> String {
    let mut out = String::from("digraph conceptual {\n  rankdir=LR;\n");
    for e in &warehouse.model.conceptual {
        out.push_str(&format!("  \"{}\" [shape=box];\n", e.name));
    }
    for r in &warehouse.model.conceptual_relationships {
        let style = match r.kind {
            RelationshipKind::ManyToOne => "label=\"N:1\"",
            RelationshipKind::ManyToMany => "label=\"N:N\"",
            RelationshipKind::Inheritance => "label=\"X\", style=dashed",
        };
        out.push_str(&format!("  \"{}\" -> \"{}\" [{}];\n", r.from, r.to, style));
    }
    out.push_str("}\n");
    out
}

/// Figure 2 — the logical schema of the mini-bank as a DOT graph.
pub(crate) fn figure2_dot(warehouse: &Warehouse) -> String {
    let mut out = String::from("digraph logical {\n  rankdir=LR;\n");
    for e in &warehouse.model.logical {
        out.push_str(&format!("  \"{}\" [shape=box];\n", e.name));
    }
    for r in &warehouse.model.logical_relationships {
        let style = match r.kind {
            RelationshipKind::ManyToOne => "label=\"N:1\"",
            RelationshipKind::ManyToMany => "label=\"N:N\"",
            RelationshipKind::Inheritance => "label=\"X\", style=dashed",
        };
        out.push_str(&format!("  \"{}\" -> \"{}\" [{}];\n", r.from, r.to, style));
    }
    out.push_str("}\n");
    out
}

/// Figure 3 — the layering of the metadata graph: node counts per layer.
pub(crate) fn figure3_layers(warehouse: &Warehouse) -> Vec<(&'static str, usize)> {
    let graph = &warehouse.graph;
    let count_type = |ty: &str| graph.nodes().filter(|n| graph.has_type(*n, ty)).count();
    vec![
        ("DBpedia terms", count_type("dbpedia_term")),
        ("Domain ontology concepts", count_type("ontology_concept")),
        (
            "Conceptual schema nodes",
            count_type("conceptual_entity") + count_type("conceptual_attribute"),
        ),
        (
            "Logical schema nodes",
            count_type("logical_entity") + count_type("logical_attribute"),
        ),
        (
            "Physical schema nodes",
            count_type("physical_table") + count_type("physical_column"),
        ),
        ("Base data rows", warehouse.database.total_rows()),
    ]
}

/// Figure 4 — the five pipeline steps with their measured share of the SODA
/// runtime for one query.
pub(crate) fn figure4_trace(engine: &EngineSnapshot, query: &str) -> Vec<(&'static str, f64)> {
    // Total even on a failing query: an empty trace has all-zero shares.
    let trace = engine
        .search_with(query, &SearchOptions::default())
        .map(|outcome| outcome.trace)
        .unwrap_or_default();
    let total = trace.timings.total().as_secs_f64().max(f64::EPSILON);
    vec![
        ("lookup", trace.timings.lookup.as_secs_f64() / total),
        ("rank and top N", trace.timings.rank.as_secs_f64() / total),
        ("tables", trace.timings.tables.as_secs_f64() / total),
        ("filters", trace.timings.filters.as_secs_f64() / total),
        ("SQL", trace.timings.sql.as_secs_f64() / total),
    ]
}

/// Figure 5 — classification of the query "customers Zurich financial
/// instruments": per keyword, where it was found.
pub fn figure5_classification(engine: &EngineSnapshot) -> Vec<(String, Vec<String>)> {
    engine
        .search_with(
            "customers Zurich financial instruments",
            &SearchOptions::default(),
        )
        .map(|outcome| outcome.trace)
        .unwrap_or_default()
        .classification
        .iter()
        .map(|(phrase, provenances)| {
            (
                phrase.clone(),
                provenances.iter().map(|p| p.label().to_string()).collect(),
            )
        })
        .collect()
}

/// Figure 6 — output of the tables step for the same query: the tables of the
/// top-ranked interpretation (union over interpretations reproduces the seven
/// tables shown in the paper).
pub fn figure6_tables(engine: &EngineSnapshot) -> Vec<Vec<String>> {
    engine
        .search("customers Zurich financial instruments")
        .unwrap_or_default()
        .iter()
        .map(|r| r.tables.iter().map(|t| t.to_string()).collect())
        .collect()
}

/// Figure 7 — the Table pattern, exactly as written in the paper.
pub(crate) fn figure7_pattern() -> &'static str {
    TABLE_PATTERN
}

/// Figure 8 — the Foreign-Key pattern, exactly as written in the paper.
pub(crate) fn figure8_pattern() -> &'static str {
    FOREIGN_KEY_PATTERN
}

/// Figure 9 — joins on a direct path: for two entry-point tables of the
/// enterprise warehouse, the join conditions actually used (on the shortest
/// path) versus every join condition attached to those tables.
pub(crate) fn figure9_direct_path(engine: &EngineSnapshot) -> (Vec<String>, Vec<String>) {
    let catalog = engine.join_catalog();
    let used: Vec<String> = catalog
        .path("trade_order_td", "party")
        .unwrap_or_default()
        .iter()
        .map(|e| e.condition())
        .collect();
    let mut attached: Vec<String> = Vec::new();
    for table in ["trade_order_td", "account_td", "agreement_td", "party"] {
        for edge in catalog.edges_of(table) {
            let c = edge.condition();
            if !attached.contains(&c) {
                attached.push(c);
            }
        }
    }
    (used, attached)
}

/// Figure 10 — the complex schema hierarchy around `party`: inheritance
/// children, their historisation tables and the bridge between siblings.
pub fn figure10_hierarchy(engine: &EngineSnapshot) -> String {
    let catalog = engine.join_catalog();
    let mut out = String::from("party\n");
    for link in &catalog.inheritance {
        if &*link.parent_table == "party" {
            out.push_str(&format!("  X-> {}\n", link.child_table));
            for hist in engine.database().table_names() {
                if hist.starts_with(&format!("{}_name_hist", link.child_table)) {
                    out.push_str(&format!("       -> {hist} (bi-temporal history)\n"));
                }
            }
        }
    }
    for bridge in &catalog.bridges {
        let connects = bridge.connects();
        if connects.contains(&"individual") && connects.contains(&"organization") {
            out.push_str(&format!(
                "  bridge between siblings: {} ({})\n",
                bridge.table,
                connects.join(" <-> ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_core::SodaConfig;
    use soda_warehouse::enterprise::{self, EnterpriseConfig};
    use soda_warehouse::minibank;

    fn bank() -> Warehouse {
        minibank::build(42)
    }

    fn engine(warehouse: Warehouse) -> EngineSnapshot {
        let (db, graph) = warehouse.shared_parts();
        EngineSnapshot::build(db, graph, SodaConfig::default())
    }

    fn enterprise_small() -> EngineSnapshot {
        engine(enterprise::build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.1,
        }))
    }

    #[test]
    fn figure1_and_2_emit_valid_dot_skeletons() {
        let w = bank();
        let f1 = figure1_dot(&w);
        let f2 = figure2_dot(&w);
        assert!(f1.starts_with("digraph conceptual"));
        assert!(f1.contains("\"Parties\""));
        assert!(f1.contains("style=dashed"), "inheritance must be marked");
        assert!(f2.contains("\"Money Transactions\""));
        assert!(f2.ends_with("}\n"));
    }

    #[test]
    fn figure3_counts_every_layer() {
        let w = bank();
        let layers = figure3_layers(&w);
        assert_eq!(layers.len(), 6);
        assert!(layers.iter().all(|(_, n)| *n > 0));
    }

    #[test]
    fn figure4_shares_sum_to_one() {
        let w = engine(bank());
        let shares = figure4_trace(&w, "customers Zurich financial instruments");
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn figure5_reports_the_three_keywords() {
        let w = engine(bank());
        let classification = figure5_classification(&w);
        assert_eq!(classification.len(), 3);
        assert!(classification[0].1.contains(&"domain ontology".to_string()));
        assert!(classification[1].1.contains(&"base data".to_string()));
    }

    #[test]
    fn figure6_union_covers_the_seven_tables() {
        let w = engine(bank());
        let per_result = figure6_tables(&w);
        let mut union: Vec<String> = per_result.into_iter().flatten().collect();
        union.sort();
        union.dedup();
        assert!(union.len() >= 7);
    }

    #[test]
    fn figure7_and_8_are_the_paper_patterns() {
        assert!(figure7_pattern().contains("tablename"));
        assert!(figure8_pattern().contains("foreign_key"));
        assert!(figure8_pattern().contains("matches-column"));
    }

    #[test]
    fn figure9_uses_fewer_joins_than_are_attached() {
        let w = enterprise_small();
        let (used, attached) = figure9_direct_path(&w);
        assert!(!used.is_empty());
        assert!(used.len() < attached.len());
    }

    #[test]
    fn figure10_shows_children_history_and_bridge() {
        let w = enterprise_small();
        let text = figure10_hierarchy(&w);
        assert!(text.contains("individual"));
        assert!(text.contains("organization"));
        assert!(text.contains("associate_employment"));
        assert!(text.contains("bi-temporal history"));
    }
}
