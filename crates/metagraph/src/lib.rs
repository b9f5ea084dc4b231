//! # soda-metagraph
//!
//! An in-memory, RDF-like metadata graph together with a SPARQL-filter-inspired
//! pattern language and a pattern matcher.
//!
//! This crate is the substrate beneath the SODA pipeline (see the `soda-core`
//! crate): the data-warehouse schema at its conceptual, logical and physical
//! levels, the domain ontologies, the DBpedia synonyms and the links to the
//! base data are all represented as one [`MetaGraph`].  SODA's *metadata graph
//! patterns* (table pattern, column pattern, foreign-key pattern, inheritance
//! pattern, bridge-table pattern, …) are [`Pattern`]s in the paper's
//! language ([`parse_pattern`]) and evaluated by the [`Matcher`].
//!
//! ## Data model
//!
//! * A **node** is identified by a URI (an interned string).  Nodes carry no
//!   payload of their own; everything is expressed as triples.
//! * An **edge** (triple) connects a subject node through a predicate either to
//!   another node or to a **text label**.
//! * Predicates and text labels are interned separately from node URIs.
//!
//! ## Example
//!
//! ```
//! use soda_metagraph::{MetaGraph, Pattern, PatternRegistry, Matcher};
//!
//! let mut g = MetaGraph::new();
//! let table = g.add_node("phys/parties");
//! let ptype = g.add_node("physical_table");
//! g.add_edge(table, "type", ptype);
//! g.add_text_edge(table, "tablename", "parties");
//!
//! let pattern = Pattern::parse(
//!     "table",
//!     "( x tablename t:y ) & ( x type physical_table )",
//! ).unwrap();
//!
//! let registry = PatternRegistry::new();
//! let matcher = Matcher::new(&g, &registry);
//! let matches = matcher.match_at(&pattern, table);
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].text("y"), Some("parties"));
//! ```

#![warn(unreachable_pub)]

pub mod builder;
mod graph;
mod matcher;
mod parser;
mod pattern;
mod uri;

pub use builder::GraphBuilder;
pub use graph::{Edge, MetaGraph, NodeId, Object};
pub use matcher::{Binding, BoundValue, Matcher, PatternRegistry};
pub use parser::{parse_pattern, ParseError};
pub use pattern::{Pattern, PatternItem, Term, TriplePattern};
pub use uri::{LabelId, PredId};
