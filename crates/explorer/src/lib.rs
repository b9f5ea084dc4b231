//! # soda-explorer
//!
//! Schema exploration and reverse engineering on top of the SODA metadata
//! graph.
//!
//! §5.3.2 of the paper reports that several user groups adopted SODA for
//! tasks other than query generation:
//!
//! * an **exploratory** group uses it "to analyze the schema and learn
//!   patterns in the schema in order to find out which entities are related
//!   with others" — the [`browser::SchemaBrowser`];
//! * a group that wants join paths spelled out ("give me tables X, Y and Z"
//!   without writing the join conditions) — [`browser::SchemaBrowser::join_path_explained`];
//! * a group that wants to **reverse engineer** legacy systems: derive the
//!   conceptual, logical and physical schema from an existing physical
//!   implementation, generate the RDF schema graph from it and then explore
//!   the legacy system through SODA — [`reverse::reverse_engineer`] and
//!   [`document::document_model`].
//!
//! The crate is deliberately read-only: it consumes a [`soda_relation::Database`]
//! and a [`soda_metagraph::MetaGraph`] (or just the database, for reverse
//! engineering) and produces descriptions, reports and a
//! [`soda_warehouse::SchemaModel`] that can be fed back into
//! [`soda_warehouse::build_graph`] to make a legacy system searchable.

#![warn(unreachable_pub)]

mod browser;
mod document;
mod reverse;

pub use browser::{MetadataHit, Related, RelationKind, SchemaBrowser, TableDescription};
pub use document::document_model;
pub use reverse::{business_name, reverse_engineer};
