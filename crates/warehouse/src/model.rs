//! The multi-level schema model: conceptual, logical and physical layers.
//!
//! The paper's metadata graph (Figure 3) spans three schema layers plus domain
//! ontologies and DBpedia.  This module defines a plain-data model of those
//! layers; [`crate::graph_builder`] translates a [`SchemaModel`] (plus an
//! ontology and a synonym store) into the node/edge vocabulary that SODA's
//! patterns expect.

use std::sync::Arc;

use soda_metagraph::MetaGraph;
use soda_relation::{Database, TableSchema};

/// Kind of a relationship at the conceptual or logical level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationshipKind {
    /// N-to-1 relationship.
    ManyToOne,
    /// N-to-N relationship.
    ManyToMany,
    /// Mutually exclusive inheritance.
    Inheritance,
}

/// An entity of the conceptual (business) layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptualEntity {
    /// Business name, e.g. "Financial Instruments".
    pub name: String,
    /// Business attribute names.
    pub attributes: Vec<String>,
    /// Names of logical entities that refine this entity.
    pub refined_by: Vec<String>,
}

/// An entity of the logical layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalEntity {
    /// Logical name, e.g. "Financial Instrument Transactions".
    pub name: String,
    /// Logical attribute names.
    pub attributes: Vec<String>,
    /// Physical tables that implement this entity.
    pub implemented_by: Vec<String>,
}

/// A named relationship between two entities of the same layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relationship {
    /// Source entity name.
    pub from: String,
    /// Target entity name.
    pub to: String,
    /// Relationship kind.
    pub kind: RelationshipKind,
}

/// A foreign key as it should appear in the metadata graph.
///
/// `annotated` models the paper's bi-temporal historisation gap: a join key
/// that exists in the physical schema but is *not* reflected in the schema
/// graph (the cause of the low recall of Q2.1/Q2.2).  Unannotated keys are
/// skipped by the graph builder, so SODA cannot discover them, while the
/// gold-standard SQL still uses them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotatedForeignKey {
    /// Referencing table.
    pub table: String,
    /// Referencing column.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column.
    pub ref_column: String,
    /// Whether the metadata graph contains this join relationship.
    pub annotated: bool,
    /// Whether to model it as an explicit join node (Credit Suisse style)
    /// instead of a plain `foreign_key` edge.
    pub explicit_join_node: bool,
}

/// A bi-temporal historization annotation: `hist_table` stores the history of
/// `current_table`, with row validity bounded by the named columns of the
/// history table.
///
/// The paper's warehouse leaves these relationships *unannotated*, which is
/// the cause of the low recall of Q2.1/Q2.2; §5.2.1 and §7 propose annotating
/// them as future work.  A [`SchemaModel`] that carries historization links
/// produces a metadata graph with explicit historization nodes, which the SODA
/// engine can then exploit (temporal `valid at` predicates, history-aware join
/// discovery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistorizationLink {
    /// The history table.
    pub hist_table: String,
    /// The table carrying the current state.
    pub current_table: String,
    /// Validity-start column of the history table.
    pub valid_from_column: String,
    /// Validity-end column of the history table.
    pub valid_to_column: String,
}

/// A mutually exclusive inheritance group at the physical level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InheritanceGroup {
    /// Parent (super-type) table.
    pub parent_table: String,
    /// Child (sub-type) tables.
    pub child_tables: Vec<String>,
}

/// The full three-layer schema model of a warehouse.
#[derive(Debug, Clone, Default)]
pub struct SchemaModel {
    /// Conceptual entities.
    pub conceptual: Vec<ConceptualEntity>,
    /// Conceptual-level relationships.
    pub conceptual_relationships: Vec<Relationship>,
    /// Logical entities.
    pub logical: Vec<LogicalEntity>,
    /// Logical-level relationships.
    pub logical_relationships: Vec<Relationship>,
    /// Physical table schemas (also used to create the database tables).
    pub physical: Vec<TableSchema>,
    /// Foreign keys with annotation flags for the metadata graph.
    pub foreign_keys: Vec<AnnotatedForeignKey>,
    /// Physical inheritance groups.
    pub inheritance: Vec<InheritanceGroup>,
    /// Bi-temporal historization annotations (empty in the paper-faithful
    /// warehouses; populated by the historization-annotated variants).
    pub historization: Vec<HistorizationLink>,
}

impl SchemaModel {
    /// Collects the foreign keys declared inside the physical table schemas as
    /// annotated, plain-edge foreign keys, and appends them to
    /// `self.foreign_keys` (skipping duplicates).  Convenience used by the
    /// warehouse constructors so that FKs only need to be declared once.
    pub fn adopt_physical_foreign_keys(&mut self) {
        for table in &self.physical {
            for fk in &table.foreign_keys {
                let exists = self.foreign_keys.iter().any(|a| {
                    a.table == table.name
                        && a.column.eq_ignore_ascii_case(&fk.column)
                        && a.ref_table.eq_ignore_ascii_case(&fk.ref_table)
                });
                if !exists {
                    self.foreign_keys.push(AnnotatedForeignKey {
                        table: table.name.clone(),
                        column: fk.column.clone(),
                        ref_table: fk.ref_table.clone(),
                        ref_column: fk.ref_column.clone(),
                        annotated: true,
                        explicit_join_node: false,
                    });
                }
            }
        }
    }

    /// Looks up a physical table schema by name.
    pub fn physical_table(&self, name: &str) -> Option<&TableSchema> {
        self.physical
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Summary counts used by Table 1 of the paper.
    pub fn stats(&self) -> SchemaStats {
        SchemaStats {
            conceptual_entities: self.conceptual.len(),
            conceptual_attributes: self.conceptual.iter().map(|e| e.attributes.len()).sum(),
            conceptual_relationships: self.conceptual_relationships.len(),
            logical_entities: self.logical.len(),
            logical_attributes: self.logical.iter().map(|e| e.attributes.len()).sum(),
            logical_relationships: self.logical_relationships.len(),
            physical_tables: self.physical.len(),
            physical_columns: self.physical.iter().map(|t| t.arity()).sum(),
        }
    }
}

/// The schema-graph complexity counts reported in Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaStats {
    /// Number of conceptual entities.
    pub conceptual_entities: usize,
    /// Number of conceptual attributes.
    pub conceptual_attributes: usize,
    /// Number of conceptual relationships.
    pub conceptual_relationships: usize,
    /// Number of logical entities.
    pub logical_entities: usize,
    /// Number of logical attributes.
    pub logical_attributes: usize,
    /// Number of logical relationships.
    pub logical_relationships: usize,
    /// Number of physical tables.
    pub physical_tables: usize,
    /// Number of physical columns.
    pub physical_columns: usize,
}

/// A fully constructed warehouse: base data, metadata graph and model.
#[derive(Debug)]
pub struct Warehouse {
    /// The base data.
    pub database: Database,
    /// The metadata graph (schema layers + ontology + DBpedia + annotations).
    pub graph: MetaGraph,
    /// The schema model the graph was built from.
    pub model: SchemaModel,
    /// Human-readable name of this warehouse ("mini-bank", "enterprise").
    pub name: String,
}

impl Warehouse {
    /// Schema-complexity statistics (Table 1).
    pub fn stats(&self) -> SchemaStats {
        self.model.stats()
    }

    /// Consumes the warehouse into the shared handles a snapshot build
    /// wants: `Arc<Database>` + `Arc<MetaGraph>` without cloning either —
    /// the publish path used to deep-copy the whole base data just to wrap
    /// it in a fresh `Arc`.
    pub fn shared_parts(self) -> (Arc<Database>, Arc<MetaGraph>) {
        (Arc::new(self.database), Arc::new(self.graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_relation::DataType;

    #[test]
    fn adopt_physical_foreign_keys_deduplicates() {
        let mut model = SchemaModel {
            physical: vec![
                TableSchema::builder("individual")
                    .column("party_id", DataType::Int)
                    .foreign_key("party_id", "party", "party_id")
                    .build(),
                TableSchema::builder("party")
                    .column("party_id", DataType::Int)
                    .build(),
            ],
            ..Default::default()
        };
        model.foreign_keys.push(AnnotatedForeignKey {
            table: "individual".into(),
            column: "party_id".into(),
            ref_table: "party".into(),
            ref_column: "party_id".into(),
            annotated: false,
            explicit_join_node: false,
        });
        model.adopt_physical_foreign_keys();
        // The pre-declared (unannotated) FK wins; no duplicate is added.
        assert_eq!(model.foreign_keys.len(), 1);
        assert!(!model.foreign_keys[0].annotated);
    }

    #[test]
    fn stats_count_all_layers() {
        let model = SchemaModel {
            conceptual: vec![ConceptualEntity {
                name: "Parties".into(),
                attributes: vec!["name".into(), "domicile".into()],
                refined_by: vec!["Individuals".into()],
            }],
            conceptual_relationships: vec![Relationship {
                from: "Parties".into(),
                to: "Transactions".into(),
                kind: RelationshipKind::ManyToMany,
            }],
            logical: vec![LogicalEntity {
                name: "Individuals".into(),
                attributes: vec!["given name".into()],
                implemented_by: vec!["individual".into()],
            }],
            logical_relationships: vec![],
            physical: vec![TableSchema::builder("individual")
                .column("party_id", DataType::Int)
                .column("given_name", DataType::Text)
                .build()],
            foreign_keys: vec![],
            inheritance: vec![],
            historization: vec![],
        };
        let s = model.stats();
        assert_eq!(s.conceptual_entities, 1);
        assert_eq!(s.conceptual_attributes, 2);
        assert_eq!(s.conceptual_relationships, 1);
        assert_eq!(s.logical_entities, 1);
        assert_eq!(s.logical_attributes, 1);
        assert_eq!(s.physical_tables, 1);
        assert_eq!(s.physical_columns, 2);
    }

    #[test]
    fn physical_table_lookup_is_case_insensitive() {
        let model = SchemaModel {
            physical: vec![TableSchema::builder("Party")
                .column("id", DataType::Int)
                .build()],
            ..Default::default()
        };
        assert!(model.physical_table("party").is_some());
        assert!(model.physical_table("missing").is_none());
    }
}
