//! Helpers that resolve metadata-graph nodes back to catalog names.
//!
//! The metadata graph attaches both the "business" phrasing (`trade order td`)
//! and the physical identifier (`trade_order_td`) as labels; when the pipeline
//! needs to emit SQL it must pick the label that actually exists in the
//! database catalog.

use soda_metagraph::builder::preds;
use soda_metagraph::{LabelId, MetaGraph, NodeId};
use soda_relation::{Database, TableSchema};

/// The text labels attached to `node` through `predicate`, in edge order.
fn labels_of<'g>(
    graph: &'g MetaGraph,
    node: NodeId,
    predicate: &str,
) -> impl Iterator<Item = LabelId> + 'g {
    let pred = graph.find_predicate(predicate);
    graph
        .outgoing(node)
        .iter()
        .filter(move |(p, _)| Some(*p) == pred)
        .filter_map(|(_, o)| o.as_text())
}

/// The first of `labels` that `exists`, else the last.
fn preferred(
    graph: &MetaGraph,
    labels: impl Iterator<Item = LabelId>,
    exists: impl Fn(&str) -> bool,
) -> Option<LabelId> {
    let mut last = None;
    for label in labels {
        if exists(graph.label_text(label)) {
            return Some(label);
        }
        last = Some(label);
    }
    last
}

/// The label naming the physical table at `node` as the catalog does.
pub(crate) fn table_label(graph: &MetaGraph, node: NodeId, db: &Database) -> Option<LabelId> {
    preferred(graph, labels_of(graph, node, preds::TABLENAME), |name| {
        db.has_table(name)
    })
}

/// The table node owning the physical column at `node`.
pub(crate) fn owning_table(graph: &MetaGraph, node: NodeId) -> Option<NodeId> {
    let column_edge = graph.find_predicate(preds::COLUMN)?;
    let (_, table) = graph
        .incoming(node)
        .iter()
        .find(|(p, _)| *p == column_edge)?;
    Some(*table)
}

/// The label naming the physical column at `node` as `schema`, its table's,
/// does.
pub(crate) fn column_label(
    graph: &MetaGraph,
    node: NodeId,
    schema: Option<&TableSchema>,
) -> Option<LabelId> {
    preferred(graph, labels_of(graph, node, preds::COLUMNNAME), |name| {
        schema.is_some_and(|s| s.column_index(name).is_some())
    })
}

/// Resolves a physical-column node to `(table name, column name)`.
pub(crate) fn column_name(
    graph: &MetaGraph,
    node: NodeId,
    db: &Database,
) -> Option<(String, String)> {
    let table = graph.label_text(table_label(graph, owning_table(graph, node)?, db)?);
    let schema = db.table(table).ok().map(|t| t.schema());
    let column = graph.label_text(column_label(graph, node, schema)?);
    Some((table.to_string(), column.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_metagraph::GraphBuilder;
    use soda_relation::{DataType, TableSchema};

    /// Resolves a physical-table node to the table name used in the catalog.
    fn table_name(graph: &MetaGraph, node: NodeId, db: &Database) -> Option<String> {
        table_label(graph, node, db).map(|l| graph.label_text(l).to_string())
    }

    /// If `node` is a physical column, returns its `(table, column)`; if it is a
    /// physical table, returns `None` for the column part.
    fn node_target(
        graph: &MetaGraph,
        node: NodeId,
        db: &Database,
    ) -> Option<(String, Option<String>)> {
        if let Some((t, c)) = column_name(graph, node, db) {
            return Some((t, Some(c)));
        }
        table_name(graph, node, db).map(|t| (t, None))
    }

    fn fixtures() -> (MetaGraph, Database) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("trade_order_td")
                .column("order_id", DataType::Int)
                .column("order_dt", DataType::Date)
                .primary_key("order_id")
                .build(),
        )
        .unwrap();
        let mut b = GraphBuilder::new();
        let t = b.physical_table("phys/trade_order_td", "trade order td");
        b.text(t, preds::TABLENAME, "trade_order_td");
        let c = b.physical_column(t, "phys/trade_order_td/order_dt", "order dt");
        b.text(c, preds::COLUMNNAME, "order_dt");
        (b.build(), db)
    }

    #[test]
    fn table_resolution_prefers_the_catalog_name() {
        let (g, db) = fixtures();
        let node = g.node("phys/trade_order_td").unwrap();
        assert_eq!(table_name(&g, node, &db), Some("trade_order_td".into()));
    }

    #[test]
    fn column_resolution_prefers_the_schema_name() {
        let (g, db) = fixtures();
        let node = g.node("phys/trade_order_td/order_dt").unwrap();
        assert_eq!(
            column_name(&g, node, &db),
            Some(("trade_order_td".into(), "order_dt".into()))
        );
        assert_eq!(
            node_target(&g, node, &db),
            Some(("trade_order_td".into(), Some("order_dt".into())))
        );
    }

    #[test]
    fn node_target_of_a_table_has_no_column() {
        let (g, db) = fixtures();
        let node = g.node("phys/trade_order_td").unwrap();
        assert_eq!(
            node_target(&g, node, &db),
            Some(("trade_order_td".into(), None))
        );
    }

    #[test]
    fn missing_labels_resolve_to_none() {
        let (mut g, db) = {
            let (g, db) = fixtures();
            (g, db)
        };
        let bare = g.add_node("phys/bare");
        assert_eq!(table_name(&g, bare, &db), None);
        assert_eq!(column_name(&g, bare, &db), None);
    }
}
