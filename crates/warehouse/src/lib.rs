//! # soda-warehouse
//!
//! Synthetic data warehouses for the SODA reproduction.
//!
//! The paper evaluates SODA on the Credit Suisse enterprise data warehouse,
//! which is obviously not available; this crate provides two substitutes whose
//! *structure* reproduces everything SODA's behaviour depends on:
//!
//! * [`minibank`] — the paper's running example (Section 2, Figures 1 and 2):
//!   parties specialised into individuals and organizations, transactions
//!   specialised into financial-instrument and money transactions, addresses,
//!   financial instruments, securities and the `fi_contains_sec` bridge.
//! * [`enterprise`] — a warehouse whose metadata-graph statistics match
//!   Table 1 of the paper exactly (226 conceptual entities, 436 logical
//!   entities, 472 physical tables, 3181 columns), including multi-level
//!   inheritance, bridge tables between inheritance siblings, bi-temporal name
//!   history whose join keys are *not* annotated in the metadata graph, and
//!   padding subject areas that carry no data but full metadata.
//!
//! Both warehouses come with a domain ontology ([`DomainOntology`]), a
//! curated DBpedia synonym extract ([`SynonymStore`]) and [`build_graph`],
//! which turns the three-layer [`SchemaModel`] into the metadata graph
//! SODA's patterns match against.

#![warn(unreachable_pub)]

pub mod datagen;
mod dbpedia;
pub mod enterprise;
mod graph_builder;
pub mod minibank;
mod model;
mod ontology;

pub use dbpedia::{DbpediaEntry, SynonymStore, SynonymTarget};
pub use graph_builder::{build_graph, phrase, slug};
pub use model::{
    AnnotatedForeignKey, ConceptualEntity, HistorizationLink, InheritanceGroup, LogicalEntity,
    Relationship, RelationshipKind, SchemaModel, SchemaStats, Warehouse,
};
pub use ontology::{ClassifyTarget, ConceptFilter, DomainOntology, OntologyConcept};
