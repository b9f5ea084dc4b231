//! # soda
//!
//! Facade crate for the reproduction of *"SODA: Generating SQL for Business
//! Users"* (Blunschi, Jossen, Kossmann, Mori, Stockinger — PVLDB 5(10), 2012).
//!
//! SODA lets business users pose keyword + operator queries against a complex
//! enterprise data warehouse and generates ranked, executable SQL by matching
//! *metadata-graph patterns* against a graph that spans the conceptual,
//! logical and physical schema, domain ontologies, DBpedia synonyms and the
//! base data (via an inverted index).
//!
//! This crate simply re-exports the workspace crates under stable paths and
//! hosts the runnable examples (`examples/`) and the cross-crate integration
//! tests (`tests/`):
//!
//! * [`metagraph`] — RDF-like metadata graph, pattern language, matcher.
//! * [`relation`] — in-memory relational engine with a SQL subset and an
//!   inverted index over the base data.
//! * [`warehouse`] — the paper's mini-bank running example and a synthetic
//!   enterprise warehouse mirroring the Credit Suisse schema statistics.
//! * [`core`] — the SODA engine itself: query language, five-step pipeline,
//!   ranking and SQL generation.  One engine type
//!   ([`EngineSnapshot`](soda_core::EngineSnapshot)) and one search
//!   ([`search_with`](soda_core::EngineSnapshot::search_with), with
//!   [`search`](soda_core::EngineSnapshot::search) and
//!   [`search_paged`](soda_core::EngineSnapshot::search_paged) as shorthands).
//! * [`baselines`] — capability-level re-implementations of DBExplorer,
//!   DISCOVER, BANKS, SQAK and Keymantic.
//! * [`eval`] — workload, gold standard, precision/recall metrics and the
//!   experiment drivers that regenerate every table and figure of the paper.
//! * [`explorer`] — schema browser and legacy-system reverse engineering (the
//!   war-story use cases of §5.3.2).
//! * [`ingest`] — streaming delta ingestion: row-level change feeds routed
//!   into per-shard side logs that queries merge on the fly until an
//!   explicit compaction merges them into copies of their partitions.
//! * [`journal`] — the crash-safety layer: an append-only, checksummed feed
//!   journal with checkpoint truncation, replayed by
//!   [`QueryService::recover`](soda_service::QueryService::recover) into
//!   byte-identical answers after a crash.
//! * [`service`] — the serving layer: a thread-safe
//!   [`QueryService`](soda_service::QueryService) worker pool over a shared
//!   [`EngineSnapshot`](soda_core::EngineSnapshot), with an LRU
//!   interpretation cache keyed by canonicalized queries and live service
//!   metrics.
//! * [`trace`] — the observability kernel: a [`TraceSink`](soda_trace::TraceSink)
//!   threaded through every pipeline stage (span trees with per-shard probe
//!   sub-spans), fixed-memory log-bucketed latency histograms, the sampler
//!   deciding which traces of live traffic are kept and a Prometheus
//!   text-exposition writer/validator backing
//!   [`QueryService::metrics_text`](soda_service::QueryService::metrics_text).
//!
//! ## Quickstart
//!
//! ```
//! use soda::prelude::*;
//!
//! // Build the paper's running example (Figures 1 and 2) with seeded data.
//! let (db, graph) = soda::warehouse::minibank::build(42).shared_parts();
//! let engine = EngineSnapshot::build(db, graph, SodaConfig::default());
//!
//! // "What is the address of Sara Guttinger?"
//! let results = engine.search("Sara Guttinger").unwrap();
//! assert!(!results.is_empty());
//! println!("{}", results[0].sql);
//! ```

pub use soda_baselines as baselines;
pub use soda_core as core;
pub use soda_eval as eval;
pub use soda_explorer as explorer;
pub use soda_ingest as ingest;
pub use soda_journal as journal;
pub use soda_metagraph as metagraph;
pub use soda_relation as relation;
pub use soda_service as service;
pub use soda_trace as trace;
pub use soda_warehouse as warehouse;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use soda_core::{
        EngineSnapshot, FeedbackStore, ResultPage, ShardStats, SodaConfig, SodaResult,
    };
    pub use soda_explorer::SchemaBrowser;
    pub use soda_ingest::{ChangeFeed, RowEvent};
    pub use soda_metagraph::{MetaGraph, Pattern, PatternRegistry};
    pub use soda_relation::{Database, ResultSet, Value};
    pub use soda_service::{
        AlertState, BurnAlert, DurabilityConfig, FsyncPolicy, JobHandle, JobResult, QueryRequest,
        QueryResponse, QueryService, RecoveryReport, SampledTrace, SamplingConfig, ServiceConfig,
        ServiceMetrics, SloConfig, TenantAdmin, TenantId, TenantMetrics,
    };
    pub use soda_trace::{CollectingSink, NoopSink, OpEvent, QueryTrace, TraceSink};
    pub use soda_warehouse::Warehouse;
}
