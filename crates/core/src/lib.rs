//! # soda-core
//!
//! The SODA engine — the primary contribution of *"SODA: Generating SQL for
//! Business Users"* (PVLDB 5(10), 2012).
//!
//! Business users pose queries as keywords plus a handful of operators
//! (comparisons, `date(…)`, `sum`/`count`, `group by`, `top N`).  SODA
//! translates each query into a ranked list of executable SQL statements in
//! five steps (Figure 4 of the paper):
//!
//! 1. **Lookup** — match keywords against a classification index over every
//!    metadata label (domain ontology, conceptual / logical / physical schema,
//!    DBpedia synonyms) and against the base data through an inverted index.
//! 2. **Rank and top N** — score every combination of entry points by
//!    provenance and keep the best N.
//! 3. **Tables** — traverse the metadata graph from the entry points, testing
//!    the Table / Column / Inheritance-Child *graph patterns* to find the
//!    participating tables, then select join conditions on direct paths
//!    between the entry points, add inheritance parents and bridge tables.
//! 4. **Filters** — collect filter conditions from the query, the base-data
//!    hits and metadata-defined business terms ("wealthy customers").
//! 5. **SQL** — combine everything into executable SQL.
//!
//! One type is the engine — [`EngineSnapshot`], built once per warehouse —
//! and one method is the search — [`EngineSnapshot::search_with`], whose
//! [`SearchOptions`] carry the page, the relevance feedback, the probe
//! recorder and the trace sink; [`search`](EngineSnapshot::search) and
//! [`search_paged`](EngineSnapshot::search_paged) are its two shorthands.
//!
//! ```
//! use soda_core::{EngineSnapshot, SodaConfig};
//!
//! let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
//! let engine = EngineSnapshot::build(db, graph, SodaConfig::default());
//! let results = engine.search("Sara Guttinger").unwrap();
//! assert!(!results.is_empty());
//! assert!(results[0].sql.starts_with("SELECT"));
//! ```

#![warn(unreachable_pub)]

mod classification;
mod config;
mod engine;
mod error;
mod feedback;
mod joins;
mod patterns;
pub mod pipeline;
mod provenance;
mod query;
mod resolve;
mod result;
mod shard;
mod snapshot;
mod suggest;
mod tenant;

pub use classification::ClassificationIndex;
pub use config::{RankingWeights, SodaConfig};
pub use engine::{SearchLimit, SearchOptions, SearchOutcome};
pub use error::{Result, SodaError};
pub use feedback::FeedbackStore;
pub use joins::{BridgeTable, HistorizationLink, InheritanceLink, JoinCatalog, JoinEdge};
pub use patterns::{SodaPatterns, FOREIGN_KEY_PATTERN, TABLE_PATTERN};
pub use pipeline::lookup::LookupResult;
pub use provenance::{Provenance, ProvenanceLookup};
pub use query::{normalize_query, parse_query, QueryTerm, QueryValue, SodaQuery};
pub use result::{Interpretation, QueryTrace, ResultPage, SodaResult, StepTimings};
pub use shard::{ProbeDep, ProbeRecorder, ShardProbes, ShardStats};
pub use snapshot::EngineSnapshot;
pub use suggest::TermSuggestion;
pub use tenant::TenantId;

// Re-exported so hot-swap callers (the serving layer hands new databases,
// metadata graphs and change feeds to `EngineSnapshot`'s successors) need
// no direct dependency on the lower crates.
pub use soda_ingest::{ChangeFeed, RowEvent};
pub use soda_metagraph::MetaGraph;
pub use soda_relation::{Database, Value};
// Re-exported so callers of a traced search can name sinks and
// span trees without a direct `soda-trace` dependency.  (`QueryTrace` above
// is this crate's per-query pipeline report; the span tree a collecting
// sink folds into is `soda_trace::QueryTrace` — reach it via `trace::`.)
pub use soda_trace as trace;
pub use soda_trace::{CollectingSink, NoopSink, SpanId, TraceSink};
