//! The interactive schema browser (war story §5.3.2, second and third user
//! groups): describe a table in business terms, list related entities, explain
//! join paths and search the metadata by substring.

use soda_core::{JoinCatalog, ProvenanceLookup, SodaConfig, SodaPatterns};
use soda_metagraph::builder::preds;
use soda_metagraph::{MetaGraph, NodeId};
use soda_relation::Database;

/// One column of a described table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnInfo {
    /// Physical column name.
    pub name: String,
    /// Data type, rendered as text.
    pub data_type: String,
    /// Whether the column is part of the primary key.
    pub primary_key: bool,
    /// The referenced table, when the column carries a foreign key.
    pub references: Option<String>,
}

/// A business-level description of one physical table, assembled from every
/// metadata layer that mentions it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDescription {
    /// Physical table name.
    pub table: String,
    /// Free-form comment from the physical schema, if any.
    pub comment: Option<String>,
    /// Number of rows currently stored.
    pub rows: usize,
    /// Columns with type and key information.
    pub columns: Vec<ColumnInfo>,
    /// Logical entities implemented by this table.
    pub logical_entities: Vec<String>,
    /// Conceptual (business) entities refined by those logical entities.
    pub conceptual_entities: Vec<String>,
    /// Domain-ontology concepts classifying the table or one of its columns.
    pub ontology_concepts: Vec<String>,
    /// Inheritance super-type table, if the table is a sub-type.
    pub inheritance_parent: Option<String>,
    /// Inheritance sub-type tables, if the table is a super-type.
    pub inheritance_children: Vec<String>,
    /// Bridge tables attached to this table.
    pub bridges: Vec<String>,
    /// History table holding this table's bi-temporal history, when annotated.
    pub history_table: Option<String>,
    /// The current-state table this table historizes, when annotated.
    pub historizes: Option<String>,
}

/// How two tables are related.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationKind {
    /// Direct foreign-key (or explicit join-node) relationship.
    ForeignKey,
    /// The related table is the inheritance super-type.
    InheritanceParent,
    /// The related table is an inheritance sub-type.
    InheritanceChild,
    /// The two tables are connected through a bridge table.
    Bridge,
    /// The related table historizes (or is historized by) this table.
    Historization,
}

/// One related table, with the relationship kind and the join condition or
/// intermediate table that realises it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Related {
    /// The related table.
    pub table: String,
    /// How it is related.
    pub kind: RelationKind,
    /// The join condition or bridge/annotation realising the relationship.
    pub via: String,
}

/// A metadata label matching a search term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataHit {
    /// The matching label text.
    pub label: String,
    /// URI of the node carrying the label.
    pub uri: String,
    /// Which metadata layer the node belongs to.
    pub provenance: String,
}

/// The schema browser: read-only navigation over a warehouse's base data and
/// metadata graph.
pub struct SchemaBrowser<'a> {
    db: &'a Database,
    graph: &'a MetaGraph,
    joins: JoinCatalog,
}

impl<'a> SchemaBrowser<'a> {
    /// Builds a browser (pre-computing the join catalog with the default SODA
    /// patterns).
    pub fn new(db: &'a Database, graph: &'a MetaGraph) -> Self {
        Self::with_patterns(db, graph, &SodaPatterns::default())
    }

    /// Builds a browser with custom metadata-graph patterns; the catalog is
    /// the one a default-configured engine compiles.
    pub fn with_patterns(db: &'a Database, graph: &'a MetaGraph, patterns: &SodaPatterns) -> Self {
        let depth = SodaConfig::default().traversal_depth;
        let joins = JoinCatalog::build(graph, patterns, db, depth);
        Self { db, graph, joins }
    }

    /// The underlying join catalog.
    pub fn join_catalog(&self) -> &JoinCatalog {
        &self.joins
    }

    /// All physical table names, sorted.
    pub fn tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .db
            .table_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        names.sort();
        names
    }

    fn table_node(&self, table: &str) -> Option<NodeId> {
        self.graph.node(&format!("phys/{table}"))
    }

    fn name_of(&self, node: NodeId) -> String {
        self.graph
            .text_of(node, preds::NAME)
            .unwrap_or_else(|| self.graph.uri(node))
            .to_string()
    }

    /// Describes one physical table across every metadata layer.  Returns
    /// `None` when the table does not exist in the database.
    pub fn describe(&self, table: &str) -> Option<TableDescription> {
        let stored = self.db.table(table).ok()?;
        let schema = stored.schema();
        let columns = schema
            .columns
            .iter()
            .map(|c| ColumnInfo {
                name: c.name.clone(),
                data_type: c.data_type.to_string(),
                primary_key: schema.is_primary_key(&c.name),
                references: schema
                    .foreign_key_of(&c.name)
                    .map(|fk| fk.ref_table.clone()),
            })
            .collect();

        let mut logical_entities = Vec::new();
        let mut conceptual_entities = Vec::new();
        let mut ontology_concepts = Vec::new();
        if let Some(node) = self.table_node(&schema.name) {
            for logical in self.graph.subjects_of(node, preds::IMPLEMENTED_BY) {
                let name = self.name_of(logical);
                if !logical_entities.contains(&name) {
                    logical_entities.push(name);
                }
                for conceptual in self.graph.subjects_of(logical, preds::REFINED_BY) {
                    let name = self.name_of(conceptual);
                    if !conceptual_entities.contains(&name) {
                        conceptual_entities.push(name);
                    }
                }
            }
            // Ontology concepts classify the table itself or one of its columns.
            let mut classified_nodes = vec![node];
            classified_nodes.extend(self.graph.objects_of(node, preds::COLUMN));
            for target in classified_nodes {
                for concept in self.graph.subjects_of(target, preds::CLASSIFIES) {
                    let name = self.name_of(concept);
                    if !ontology_concepts.contains(&name) {
                        ontology_concepts.push(name);
                    }
                }
            }
        }

        let inheritance_parent = self
            .joins
            .parent_of(&schema.name)
            .map(|l| l.parent_table.to_string());
        let inheritance_children: Vec<String> = self
            .joins
            .inheritance
            .iter()
            .filter(|l| l.parent_table.eq_ignore_ascii_case(&schema.name))
            .map(|l| l.child_table.to_string())
            .collect();
        let bridges: Vec<String> = self
            .joins
            .bridges
            .iter()
            .filter(|b| {
                b.connects()
                    .iter()
                    .any(|t| t.eq_ignore_ascii_case(&schema.name))
            })
            .map(|b| b.table.to_string())
            .collect();

        Some(TableDescription {
            table: schema.name.clone(),
            comment: schema.comment.clone(),
            rows: stored.row_count(),
            columns,
            logical_entities,
            conceptual_entities,
            ontology_concepts,
            inheritance_parent,
            inheritance_children,
            bridges,
            history_table: self
                .joins
                .history_of(&schema.name)
                .map(|l| l.hist_table.to_string()),
            historizes: self
                .joins
                .historization_of(&schema.name)
                .map(|l| l.current_table.to_string()),
        })
    }

    /// Tables directly related to `table`, with the relationship kind and the
    /// realising join condition, bridge or annotation.
    pub fn related(&self, table: &str) -> Vec<Related> {
        let mut out: Vec<Related> = Vec::new();
        let mut push = |related: Related| {
            if !out.contains(&related) {
                out.push(related);
            }
        };

        for edge in self.joins.edges_of(table) {
            if let Some(other) = edge.other(table) {
                push(Related {
                    table: other.to_string(),
                    kind: RelationKind::ForeignKey,
                    via: edge.condition(),
                });
            }
        }
        if let Some(link) = self.joins.parent_of(table) {
            push(Related {
                table: link.parent_table.to_string(),
                kind: RelationKind::InheritanceParent,
                via: link
                    .join
                    .as_ref()
                    .map(|j| j.condition())
                    .unwrap_or_else(|| "inheritance".to_string()),
            });
        }
        for link in &self.joins.inheritance {
            if link.parent_table.eq_ignore_ascii_case(table) {
                push(Related {
                    table: link.child_table.to_string(),
                    kind: RelationKind::InheritanceChild,
                    via: link
                        .join
                        .as_ref()
                        .map(|j| j.condition())
                        .unwrap_or_else(|| "inheritance".to_string()),
                });
            }
        }
        for bridge in &self.joins.bridges {
            let connects = bridge.connects();
            if connects.iter().any(|t| t.eq_ignore_ascii_case(table)) {
                for other in connects {
                    if !other.eq_ignore_ascii_case(table) {
                        push(Related {
                            table: other.to_string(),
                            kind: RelationKind::Bridge,
                            via: bridge.table.to_string(),
                        });
                    }
                }
            }
        }
        if let Some(link) = self.joins.history_of(table) {
            push(Related {
                table: link.hist_table.to_string(),
                kind: RelationKind::Historization,
                via: format!("{} .. {}", link.valid_from_column, link.valid_to_column),
            });
        }
        if let Some(link) = self.joins.historization_of(table) {
            push(Related {
                table: link.current_table.to_string(),
                kind: RelationKind::Historization,
                via: format!("{} .. {}", link.valid_from_column, link.valid_to_column),
            });
        }
        out.sort_by(|a, b| a.table.cmp(&b.table).then(a.via.cmp(&b.via)));
        out
    }

    /// The shortest join path between two tables, rendered as one human
    /// readable line per join condition ("give me tables X and Y" — the users
    /// of §5.3.2 who do not want to write join conditions themselves).
    pub fn join_path_explained(&self, from: &str, to: &str) -> Option<Vec<String>> {
        let path = self.joins.path(from, to)?;
        Some(
            path.iter()
                .map(|edge| {
                    format!(
                        "join {} to {} on {}",
                        edge.fk_table,
                        edge.pk_table,
                        edge.condition()
                    )
                })
                .collect(),
        )
    }

    /// Case-insensitive substring search over every metadata label: the
    /// exploratory entry point ("where does this business term live?").
    pub fn search(&self, term: &str) -> Vec<MetadataHit> {
        let needle = term.to_lowercase();
        if needle.trim().is_empty() {
            return Vec::new();
        }
        let provenances = ProvenanceLookup::new(self.graph);
        let mut hits = Vec::new();
        for (label, holders) in self.graph.all_labels() {
            if !label.to_lowercase().contains(&needle) {
                continue;
            }
            for (node, _) in holders {
                let Some(provenance) = provenances.of(*node) else {
                    continue;
                };
                let hit = MetadataHit {
                    label: label.to_string(),
                    uri: self.graph.uri(*node).to_string(),
                    provenance: provenance.label().to_string(),
                };
                if !hits.contains(&hit) {
                    hits.push(hit);
                }
            }
        }
        hits.sort_by(|a, b| a.label.cmp(&b.label).then(a.uri.cmp(&b.uri)));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_warehouse::enterprise::{self, EnterpriseConfig};
    use soda_warehouse::minibank;

    fn enterprise_browser_fixture() -> soda_warehouse::Warehouse {
        enterprise::build_with_historization(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.1,
        })
    }

    #[test]
    fn describe_assembles_every_metadata_layer() {
        let w = minibank::build(42);
        let browser = SchemaBrowser::new(&w.database, &w.graph);
        let d = browser.describe("individuals").unwrap();
        assert_eq!(d.table, "individuals");
        assert!(d.rows > 0);
        assert!(d.columns.iter().any(|c| c.name == "salary"));
        assert!(d.columns.iter().any(|c| c.primary_key && c.name == "id"));
        assert!(d
            .columns
            .iter()
            .any(|c| c.references.as_deref() == Some("parties")));
        assert!(d.logical_entities.contains(&"individuals".to_string()));
        assert!(d
            .conceptual_entities
            .iter()
            .any(|e| e.contains("individuals")));
        assert!(d
            .ontology_concepts
            .iter()
            .any(|c| c.contains("private customers")));
        assert_eq!(d.inheritance_parent.as_deref(), Some("parties"));
        assert!(d.history_table.is_none());
        assert!(browser.describe("no_such_table").is_none());
    }

    #[test]
    fn describe_surfaces_inheritance_children_and_bridges() {
        let w = minibank::build(42);
        let browser = SchemaBrowser::new(&w.database, &w.graph);
        let parties = browser.describe("parties").unwrap();
        assert!(parties
            .inheritance_children
            .contains(&"individuals".to_string()));
        assert!(parties
            .inheritance_children
            .contains(&"organizations".to_string()));
        let fi = browser.describe("financial_instruments").unwrap();
        assert!(fi.bridges.contains(&"fi_contains_sec".to_string()));
    }

    #[test]
    fn describe_reports_historization_when_annotated() {
        let w = enterprise_browser_fixture();
        let browser = SchemaBrowser::new(&w.database, &w.graph);
        let individual = browser.describe("individual").unwrap();
        assert_eq!(
            individual.history_table.as_deref(),
            Some("individual_name_hist")
        );
        let hist = browser.describe("individual_name_hist").unwrap();
        assert_eq!(hist.historizes.as_deref(), Some("individual"));
    }

    #[test]
    fn related_lists_every_relationship_kind() {
        let w = enterprise_browser_fixture();
        let browser = SchemaBrowser::new(&w.database, &w.graph);
        let related = browser.related("individual");
        let kinds: Vec<RelationKind> = related.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RelationKind::InheritanceParent));
        assert!(kinds.contains(&RelationKind::Bridge));
        assert!(kinds.contains(&RelationKind::Historization));
        assert!(related
            .iter()
            .any(|r| r.kind == RelationKind::Bridge && r.table == "organization"));
        assert!(related
            .iter()
            .any(|r| r.kind == RelationKind::ForeignKey && r.table == "party"));
    }

    #[test]
    fn join_paths_are_explained_step_by_step() {
        let w = enterprise_browser_fixture();
        let browser = SchemaBrowser::new(&w.database, &w.graph);
        let steps = browser
            .join_path_explained("trade_order_td", "party")
            .unwrap();
        assert_eq!(steps.len(), 3, "{steps:?}");
        assert!(steps[0].contains("trade_order_td"));
        assert!(steps.last().unwrap().contains("party"));
        assert!(browser
            .join_path_explained("party", "party")
            .unwrap()
            .is_empty());
        assert!(browser.join_path_explained("party", "missing").is_none());
    }

    #[test]
    fn metadata_search_finds_labels_across_layers() {
        let w = minibank::build(42);
        let browser = SchemaBrowser::new(&w.database, &w.graph);
        let hits = browser.search("customer");
        assert!(hits.iter().any(|h| h.provenance == "domain ontology"));
        assert!(hits.iter().any(|h| h.label.contains("customers")));
        // Substring match reaches schema layers too.
        let hits = browser.search("instrument");
        assert!(hits.iter().any(|h| h.provenance == "physical schema"));
        assert!(hits.iter().any(|h| h.provenance == "conceptual schema"));
        assert!(browser.search("   ").is_empty());
        assert!(browser.search("zzz-no-such-term").is_empty());
    }

    #[test]
    fn tables_lists_the_whole_catalog_sorted() {
        let w = minibank::build(42);
        let browser = SchemaBrowser::new(&w.database, &w.graph);
        let tables = browser.tables();
        assert_eq!(tables.len(), 10);
        let mut sorted = tables.clone();
        sorted.sort();
        assert_eq!(tables, sorted);
    }
}
