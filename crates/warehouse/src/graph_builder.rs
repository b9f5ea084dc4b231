//! Translates a [`SchemaModel`], a [`DomainOntology`] and a [`SynonymStore`]
//! into the metadata graph that SODA's patterns match against (Figure 3 of the
//! paper: DBpedia → domain ontologies → conceptual schema → logical schema →
//! physical schema → base data).
//!
//! ## URI conventions
//!
//! | Node | URI |
//! |---|---|
//! | physical table | `phys/<table>` |
//! | physical column | `phys/<table>/<column>` |
//! | logical entity | `logical/<name-slug>` |
//! | logical attribute | `logical/<entity-slug>/<attr-slug>` |
//! | conceptual entity | `concept/<name-slug>` |
//! | conceptual attribute | `concept/<entity-slug>/<attr-slug>` |
//! | ontology concept | `onto/<slug>` |
//! | DBpedia term | `dbpedia/<slug>` |
//! | inheritance node | `inh/<parent-table>` |
//! | explicit join node | `join/<table>.<column>--<ref_table>.<ref_column>` |
//! | metadata filter | `filter/<concept-slug>` |
//!
//! Text labels are attached with the predicates SODA's patterns look for
//! (`tablename`, `columnname`, `name`).  Names are normalised to lower-case,
//! space-separated phrases so that the lookup step can match business phrasing
//! ("financial instruments") against schema identifiers
//! (`financial_instruments`).

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};

use soda_metagraph::builder::{preds, types};
use soda_metagraph::{GraphBuilder, MetaGraph, NodeId};
use soda_relation::fold_table_name;
use soda_relation::index::tokenizer::{normalize_phrase, write_phrase, write_tokens};

use crate::dbpedia::{SynonymStore, SynonymTarget};
use crate::model::{RelationshipKind, SchemaModel};
use crate::ontology::{ClassifyTarget, DomainOntology};

/// Converts an arbitrary name into a URI slug.
pub fn slug(name: &str) -> String {
    joined(name, "_")
}

/// Converts an arbitrary name into the normalised phrase used as a lookup
/// label ("Financial_Instruments" → "financial instruments").
pub fn phrase(name: &str) -> String {
    normalize_phrase(name)
}

/// The key business attribute names are linked to physical column names
/// (and conceptual to logical attributes) by: case, separators and word
/// boundaries are ignored, so "transaction date" meets `transactiondate`
/// and "given name" meets `given_name`.
fn squash(name: &str) -> String {
    joined(name, "")
}

/// The tokens of `name`, `sep` between two of them.
fn joined(name: &str, sep: &str) -> String {
    let mut out = String::with_capacity(name.len());
    write_tokens(&mut out, "", sep, name);
    out
}

/// One reusable buffer that the build writes each URI or label into before
/// it is interned, instead of a `String` of its own.
#[derive(Default)]
struct TextBuf(String);

impl TextBuf {
    fn format(&mut self, args: fmt::Arguments<'_>) -> &str {
        self.0.clear();
        self.0.write_fmt(args).expect("writing to a String");
        &self.0
    }

    /// [`phrase`]`(name)`.
    fn phrase(&mut self, name: &str) -> &str {
        self.0.clear();
        write_phrase(&mut self.0, "", name);
        &self.0
    }

    /// `prefix` followed by [`slug`]`(name)`.
    fn slug(&mut self, prefix: &str, name: &str) -> &str {
        self.0.clear();
        self.0.push_str(prefix);
        write_tokens(&mut self.0, "", "_", name);
        &self.0
    }

    /// `<layer>/<entity-slug>/<attr-slug>`.
    fn attribute(&mut self, layer: &str, entity_slug: &str, attr: &str) -> &str {
        self.0.clear();
        write!(self.0, "{layer}/{entity_slug}/").expect("writing to a String");
        write_tokens(&mut self.0, "", "_", attr);
        &self.0
    }

    /// `name.to_lowercase()`.
    fn lower(&mut self, name: &str) -> &str {
        self.0.clear();
        if name.is_ascii() {
            self.0.push_str(name);
            self.0.make_ascii_lowercase();
        } else {
            self.0.push_str(&name.to_lowercase());
        }
        &self.0
    }
}

/// A physical table's node and its columns' nodes, each with its
/// [`squash`] key, in schema order.
struct PhysicalTable {
    node: NodeId,
    columns: Vec<(String, NodeId)>,
}

/// Builds the metadata graph for a warehouse.
///
/// Every table, column and attribute name is tokenised once, and tables
/// and entities are found by hash probes — physical tables by their folded
/// name ([`fold_table_name`], as the catalog folds them), logical entities
/// by their ASCII-folded name — so linking an attribute compares its key
/// with the precomputed keys of its own entity's tables' columns only.
pub fn build_graph(
    model: &SchemaModel,
    ontology: &DomainOntology,
    synonyms: &SynonymStore,
) -> MetaGraph {
    let mut b = GraphBuilder::new();
    let (mut uri, mut label) = (TextBuf::default(), TextBuf::default());

    // --- Physical layer -----------------------------------------------------
    let mut tables: HashMap<Cow<str>, PhysicalTable> = HashMap::with_capacity(model.physical.len());
    for table in &model.physical {
        let t = b.physical_table(
            uri.format(format_args!("phys/{}", table.name)),
            label.phrase(&table.name),
        );
        // Keep the exact physical identifier available as a secondary label so
        // that users typing `trade_order_td` still find the table.
        b.text(t, preds::TABLENAME, label.lower(&table.name));
        if let Some(comment) = &table.comment {
            b.text(t, preds::NAME, label.phrase(comment));
        }
        let mut columns = Vec::with_capacity(table.columns.len());
        for col in &table.columns {
            let c = b.physical_column(
                t,
                uri.format(format_args!("phys/{}/{}", table.name, col.name)),
                label.phrase(&col.name),
            );
            b.text(c, preds::COLUMNNAME, label.lower(&col.name));
            columns.push((squash(&col.name), c));
        }
        // The first of two tables whose names fold alike wins.
        tables
            .entry(fold_table_name(&table.name))
            .or_insert(PhysicalTable { node: t, columns });
    }

    // Foreign keys (only the annotated ones are visible to SODA).
    for fk in &model.foreign_keys {
        if !fk.annotated {
            continue;
        }
        let Some(fk_col) = b
            .graph()
            .node(uri.format(format_args!("phys/{}/{}", fk.table, fk.column)))
        else {
            continue;
        };
        let Some(pk_col) = b
            .graph()
            .node(uri.format(format_args!("phys/{}/{}", fk.ref_table, fk.ref_column)))
        else {
            continue;
        };
        if fk.explicit_join_node {
            b.join_relationship(
                uri.format(format_args!(
                    "join/{}.{}--{}.{}",
                    fk.table, fk.column, fk.ref_table, fk.ref_column
                )),
                fk_col,
                pk_col,
            );
        } else {
            b.foreign_key(fk_col, pk_col);
        }
    }

    // Bi-temporal historization annotations (only present in models built with
    // the annotated variants — see `crate::model::HistorizationLink`).
    for link in &model.historization {
        let Some(hist) = b
            .graph()
            .node(uri.format(format_args!("phys/{}", link.hist_table)))
        else {
            continue;
        };
        let Some(current) = b
            .graph()
            .node(uri.format(format_args!("phys/{}", link.current_table)))
        else {
            continue;
        };
        b.historization(
            uri.format(format_args!("hist/{}", link.hist_table)),
            hist,
            current,
            &link.valid_from_column,
            &link.valid_to_column,
        );
    }

    // Inheritance groups.
    for group in &model.inheritance {
        let Some(parent) = b
            .graph()
            .node(uri.format(format_args!("phys/{}", group.parent_table)))
        else {
            continue;
        };
        let children: Vec<NodeId> = group
            .child_tables
            .iter()
            .filter_map(|c| b.graph().node(uri.format(format_args!("phys/{c}"))))
            .collect();
        if children.len() >= 2 {
            b.inheritance(
                uri.format(format_args!("inh/{}", group.parent_table)),
                parent,
                &children,
            );
        }
    }

    // --- Logical layer -------------------------------------------------------
    // Each entity's attribute nodes with their squash keys, by folded name;
    // the first of two entities whose names fold alike wins.
    let mut logical: HashMap<Cow<str>, Vec<(String, NodeId)>> =
        HashMap::with_capacity(model.logical.len());
    for entity in &model.logical {
        let entity_slug = slug(&entity.name);
        let e = b.named_node(
            uri.format(format_args!("logical/{entity_slug}")),
            types::LOGICAL_ENTITY,
            label.phrase(&entity.name),
        );
        let implementing: Vec<&PhysicalTable> = entity
            .implemented_by
            .iter()
            .filter_map(|table| tables.get(&*fold_table_name(table)))
            .collect();
        let mut attributes = Vec::with_capacity(entity.attributes.len());
        for attr in &entity.attributes {
            let a = b.named_node(
                uri.attribute("logical", &entity_slug, attr),
                types::LOGICAL_ATTRIBUTE,
                label.phrase(attr),
            );
            b.edge(e, preds::ATTRIBUTE, a);
            // Attributes are linked down to the physical column of an
            // implementing table whose identifier loosely matches the
            // business name ("transaction date" → `transactiondate`).
            let key = squash(attr);
            for table in &implementing {
                for (column, c) in &table.columns {
                    if *column == key {
                        b.edge(a, preds::REALIZED_BY, *c);
                    }
                }
            }
            attributes.push((key, a));
        }
        for table in &implementing {
            b.edge(e, preds::IMPLEMENTED_BY, table.node);
        }
        logical
            .entry(fold_table_name(&entity.name))
            .or_insert(attributes);
    }
    for rel in &model.logical_relationships {
        let from = b.node(uri.slug("logical/", &rel.from));
        let to = b.node(uri.slug("logical/", &rel.to));
        b.edge(from, relationship_predicate(rel.kind), to);
    }

    // --- Conceptual layer ----------------------------------------------------
    for entity in &model.conceptual {
        let entity_slug = slug(&entity.name);
        let e = b.named_node(
            uri.format(format_args!("concept/{entity_slug}")),
            types::CONCEPTUAL_ENTITY,
            label.phrase(&entity.name),
        );
        let refining: Vec<&[(String, NodeId)]> = entity
            .refined_by
            .iter()
            .filter_map(|name| logical.get(&*fold_table_name(name)).map(Vec::as_slice))
            .collect();
        for attr in &entity.attributes {
            let a = b.named_node(
                uri.attribute("concept", &entity_slug, attr),
                types::CONCEPTUAL_ATTRIBUTE,
                label.phrase(attr),
            );
            b.edge(e, preds::ATTRIBUTE, a);
            // Conceptual attributes are realised by loosely-matching logical
            // attributes of the refining entities, giving the lookup a path
            // from the business phrasing all the way down to a physical column.
            let key = squash(attr);
            for attributes in &refining {
                for (l_key, l) in attributes.iter() {
                    if *l_key == key {
                        b.edge(a, preds::REALIZED_BY, *l);
                    }
                }
            }
        }
        for logical in &entity.refined_by {
            if let Some(l) = b.graph().node(uri.slug("logical/", logical)) {
                b.edge(e, preds::REFINED_BY, l);
            }
        }
    }
    for rel in &model.conceptual_relationships {
        let from = b.node(uri.slug("concept/", &rel.from));
        let to = b.node(uri.slug("concept/", &rel.to));
        b.edge(from, relationship_predicate(rel.kind), to);
    }

    // --- Domain ontology -----------------------------------------------------
    for concept in &ontology.concepts {
        let c = b.ontology_concept(
            uri.format(format_args!("onto/{}", concept.slug)),
            label.phrase(&concept.name),
        );
        for alt in &concept.alt_names {
            b.text(c, preds::NAME, label.phrase(alt));
        }
        for target in &concept.classifies {
            let target_uri = match target {
                ClassifyTarget::Conceptual(name) => uri.slug("concept/", name),
                ClassifyTarget::Logical(name) => uri.slug("logical/", name),
                ClassifyTarget::Table(name) => uri.format(format_args!("phys/{name}")),
                ClassifyTarget::Column { table, column } => {
                    uri.format(format_args!("phys/{table}/{column}"))
                }
                ClassifyTarget::Concept(s) => uri.format(format_args!("onto/{s}")),
            };
            if let Some(t) = b.graph().node(target_uri) {
                b.edge(c, preds::CLASSIFIES, t);
            }
        }
        if let Some(filter) = &concept.filter {
            if let Some(col) = b
                .graph()
                .node(uri.format(format_args!("phys/{}/{}", filter.table, filter.column)))
            {
                b.metadata_filter(
                    uri.format(format_args!("filter/{}", concept.slug)),
                    c,
                    col,
                    &filter.op,
                    &filter.value,
                );
            }
        }
    }

    // --- DBpedia -------------------------------------------------------------
    for (i, entry) in synonyms.entries.iter().enumerate() {
        let target_uri = match &entry.target {
            SynonymTarget::Concept(s) => uri.format(format_args!("onto/{s}")),
            SynonymTarget::Conceptual(name) => uri.slug("concept/", name),
            SynonymTarget::Logical(name) => uri.slug("logical/", name),
            SynonymTarget::Table(name) => uri.format(format_args!("phys/{name}")),
        };
        if let Some(t) = b.graph().node(target_uri) {
            uri.slug("dbpedia/", &entry.term);
            write!(uri.0, "_{i}").expect("writing to a String");
            b.dbpedia_synonym(&uri.0, label.phrase(&entry.term), t);
        }
    }

    b.build()
}

/// The predicate of a conceptual or logical relationship edge.
fn relationship_predicate(kind: RelationshipKind) -> &'static str {
    match kind {
        RelationshipKind::ManyToOne => "related_n1",
        RelationshipKind::ManyToMany => "related_nn",
        RelationshipKind::Inheritance => "specializes",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        AnnotatedForeignKey, ConceptualEntity, InheritanceGroup, LogicalEntity, Relationship,
    };
    use crate::ontology::{ConceptFilter, OntologyConcept};
    use soda_relation::{DataType, TableSchema};

    fn tiny_model() -> SchemaModel {
        let mut model = SchemaModel {
            conceptual: vec![ConceptualEntity {
                name: "Parties".into(),
                attributes: vec!["name".into()],
                refined_by: vec!["Individuals".into()],
            }],
            conceptual_relationships: vec![Relationship {
                from: "Parties".into(),
                to: "Parties".into(),
                kind: RelationshipKind::ManyToMany,
            }],
            logical: vec![LogicalEntity {
                name: "Individuals".into(),
                attributes: vec!["given name".into(), "salary".into()],
                implemented_by: vec!["individual".into()],
            }],
            logical_relationships: vec![],
            physical: vec![
                TableSchema::builder("party")
                    .column("party_id", DataType::Int)
                    .primary_key("party_id")
                    .build(),
                TableSchema::builder("individual")
                    .column("party_id", DataType::Int)
                    .column("given_name", DataType::Text)
                    .column("salary", DataType::Float)
                    .primary_key("party_id")
                    .foreign_key("party_id", "party", "party_id")
                    .build(),
                TableSchema::builder("organization")
                    .column("party_id", DataType::Int)
                    .column("org_name", DataType::Text)
                    .primary_key("party_id")
                    .foreign_key("party_id", "party", "party_id")
                    .build(),
                TableSchema::builder("individual_name_hist")
                    .column("party_id", DataType::Int)
                    .column("given_name", DataType::Text)
                    .build(),
            ],
            foreign_keys: vec![AnnotatedForeignKey {
                table: "individual_name_hist".into(),
                column: "party_id".into(),
                ref_table: "individual".into(),
                ref_column: "party_id".into(),
                annotated: false,
                explicit_join_node: false,
            }],
            inheritance: vec![InheritanceGroup {
                parent_table: "party".into(),
                child_tables: vec!["individual".into(), "organization".into()],
            }],
            historization: vec![],
        };
        model.adopt_physical_foreign_keys();
        model
    }

    fn tiny_ontology() -> DomainOntology {
        let mut o = DomainOntology::new();
        o.add(
            OntologyConcept::new("private-customers", "private customers")
                .classifies(ClassifyTarget::Table("individual".into())),
        );
        o.add(
            OntologyConcept::new("wealthy-customers", "wealthy customers")
                .classifies(ClassifyTarget::Table("individual".into()))
                .with_filter(ConceptFilter {
                    table: "individual".into(),
                    column: "salary".into(),
                    op: ">=".into(),
                    value: "500000".into(),
                }),
        );
        o
    }

    fn tiny_synonyms() -> SynonymStore {
        let mut s = SynonymStore::new();
        s.add("client", SynonymTarget::Conceptual("Parties".into()));
        s.add("ghost", SynonymTarget::Table("does_not_exist".into()));
        s
    }

    #[test]
    fn physical_layer_nodes_and_labels() {
        let g = build_graph(&tiny_model(), &tiny_ontology(), &tiny_synonyms());
        let t = g.node("phys/individual").unwrap();
        assert!(g.has_type(t, types::PHYSICAL_TABLE));
        assert_eq!(g.text_of(t, preds::TABLENAME), Some("individual"));
        let c = g.node("phys/individual/given_name").unwrap();
        assert!(g.has_type(c, types::PHYSICAL_COLUMN));
        // Both the phrase form and the identifier form are attached.
        let labels = g.nodes_with_label("given name");
        assert!(labels.iter().any(|(n, _)| *n == c));
    }

    #[test]
    fn unannotated_foreign_keys_are_absent_from_the_graph() {
        let g = build_graph(&tiny_model(), &tiny_ontology(), &tiny_synonyms());
        let annotated_fk = g.node("phys/individual/party_id").unwrap();
        assert_eq!(
            g.objects_of(annotated_fk, preds::FOREIGN_KEY).len(),
            1,
            "annotated FK must be present"
        );
        let hist_fk = g.node("phys/individual_name_hist/party_id").unwrap();
        assert!(
            g.objects_of(hist_fk, preds::FOREIGN_KEY).is_empty(),
            "historisation FK must be invisible to SODA"
        );
    }

    #[test]
    fn historization_links_become_annotation_nodes() {
        let mut model = tiny_model();
        model.historization.push(crate::model::HistorizationLink {
            hist_table: "individual_name_hist".into(),
            current_table: "individual".into(),
            valid_from_column: "valid_from".into(),
            valid_to_column: "valid_to".into(),
        });
        // A link pointing at a missing table is skipped rather than panicking.
        model.historization.push(crate::model::HistorizationLink {
            hist_table: "missing_hist".into(),
            current_table: "individual".into(),
            valid_from_column: "valid_from".into(),
            valid_to_column: "valid_to".into(),
        });
        let g = build_graph(&model, &tiny_ontology(), &tiny_synonyms());
        let h = g.node("hist/individual_name_hist").unwrap();
        assert!(g.has_type(h, types::HISTORIZATION_NODE));
        let hist = g.node("phys/individual_name_hist").unwrap();
        let current = g.node("phys/individual").unwrap();
        assert_eq!(g.objects_of(h, preds::HIST_TABLE), vec![hist]);
        assert_eq!(g.objects_of(h, preds::CURRENT_TABLE), vec![current]);
        assert!(g.node("hist/missing_hist").is_none());
    }

    #[test]
    fn inheritance_node_connects_parent_and_children() {
        let g = build_graph(&tiny_model(), &tiny_ontology(), &tiny_synonyms());
        let inh = g.node("inh/party").unwrap();
        assert!(g.has_type(inh, types::INHERITANCE_NODE));
        assert_eq!(g.objects_of(inh, preds::INHERITANCE_CHILD).len(), 2);
        assert_eq!(g.objects_of(inh, preds::INHERITANCE_PARENT).len(), 1);
    }

    #[test]
    fn layers_are_linked_top_down() {
        let g = build_graph(&tiny_model(), &tiny_ontology(), &tiny_synonyms());
        let conceptual = g.node("concept/parties").unwrap();
        let logical = g.node("logical/individuals").unwrap();
        let physical = g.node("phys/individual").unwrap();
        assert!(g
            .objects_of(conceptual, preds::REFINED_BY)
            .contains(&logical));
        assert!(g
            .objects_of(logical, preds::IMPLEMENTED_BY)
            .contains(&physical));
        // The logical "salary" attribute is realised by the physical column.
        let attr = g.node("logical/individuals/salary").unwrap();
        let col = g.node("phys/individual/salary").unwrap();
        assert!(g.objects_of(attr, preds::REALIZED_BY).contains(&col));
    }

    /// `implemented_by` may spell a table in another case: the entity is
    /// implemented by it and its attributes are realised by its columns
    /// alike, both found under the folded name.
    #[test]
    fn an_implementing_table_is_found_whatever_its_case() {
        let mut model = tiny_model();
        model.logical[0].implemented_by = vec!["Individual".into()];
        let g = build_graph(&model, &tiny_ontology(), &tiny_synonyms());
        let logical = g.node("logical/individuals").unwrap();
        let physical = g.node("phys/individual").unwrap();
        assert_eq!(g.objects_of(logical, preds::IMPLEMENTED_BY), vec![physical]);
        let attr = g.node("logical/individuals/salary").unwrap();
        let col = g.node("phys/individual/salary").unwrap();
        assert_eq!(g.objects_of(attr, preds::REALIZED_BY), vec![col]);
        assert!(g.node("phys/Individual").is_none());
    }

    #[test]
    fn ontology_concepts_classify_and_define_filters() {
        let g = build_graph(&tiny_model(), &tiny_ontology(), &tiny_synonyms());
        let private = g.node("onto/private-customers").unwrap();
        let individual = g.node("phys/individual").unwrap();
        assert!(g
            .objects_of(private, preds::CLASSIFIES)
            .contains(&individual));

        let wealthy = g.node("onto/wealthy-customers").unwrap();
        let filters = g.objects_of(wealthy, preds::DEFINED_FILTER);
        assert_eq!(filters.len(), 1);
        assert_eq!(g.text_of(filters[0], preds::FILTER_VALUE), Some("500000"));
    }

    #[test]
    fn dbpedia_terms_point_at_existing_targets_only() {
        let g = build_graph(&tiny_model(), &tiny_ontology(), &tiny_synonyms());
        // "client" resolves to the Parties conceptual entity.
        let hits = g.nodes_with_label("client");
        assert_eq!(hits.len(), 1);
        let (node, _) = hits[0];
        assert!(g.has_type(node, types::DBPEDIA_TERM));
        // "ghost" pointed at a missing table and must not create a node.
        assert!(g.nodes_with_label("ghost").is_empty());
    }

    #[test]
    fn slug_and_phrase_normalisation() {
        assert_eq!(slug("Financial Instruments"), "financial_instruments");
        assert_eq!(phrase("trade_order_td"), "trade order td");
        assert_eq!(phrase("  Given   Name "), "given name");
        assert_eq!(squash("transaction date"), squash("TransactionDate"));
        assert_eq!(squash("given name"), squash("given_name"));
        assert_ne!(squash("given name"), squash("family_name"));
    }
}
