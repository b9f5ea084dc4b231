//! The five-step SODA pipeline (Figure 4):
//!
//! 1. [`lookup`] — match keywords and operators against the classification
//!    index and the base data, producing sets of candidate entry points.
//! 2. [`rank`] — enumerate the combinatorial product of entry points, score
//!    each combination by the provenance of its entry points and keep the
//!    best N.
//! 3. [`tables`] — look up what a traversal of the metadata graph from each
//!    entry point discovers (the [`JoinCatalog`] compiled the Table / Column
//!    pattern tests per node when the snapshot was built), then select join
//!    conditions on direct paths between the entry points, add inheritance
//!    parents and bridge tables.
//! 4. [`filters`] — collect filter conditions from the input query, the base
//!    data hits and the metadata-defined business terms.
//! 5. [`sqlgen`] — combine everything into an executable SQL statement.

pub mod filters;
pub mod lookup;
pub mod rank;
pub mod sqlgen;
pub mod tables;

use soda_metagraph::MetaGraph;
use soda_relation::{Database, ShardedInvertedIndex};
use soda_trace::TraceSink;

use crate::classification::ClassificationIndex;
use crate::config::SodaConfig;
use crate::joins::JoinCatalog;
use crate::patterns::SodaPatterns;
use crate::shard::{ProbeRecorder, ShardProbes};

/// Shared, read-only context handed to every pipeline step.
pub struct PipelineContext<'a> {
    /// The base data.
    pub db: &'a Database,
    /// The metadata graph.
    pub graph: &'a MetaGraph,
    /// Engine configuration.
    pub config: &'a SodaConfig,
    /// Classification index over metadata labels.
    pub classification: &'a ClassificationIndex,
    /// Sharded inverted index over the base data (absent when disabled).
    /// The lookup step probes, inline and in shard order, the
    /// [`shards`](ShardedInvertedIndex::shards) holding a term's probe token.
    pub index: Option<&'a ShardedInvertedIndex>,
    /// Per-shard probe counters, bumped by the lookup step.
    pub probes: &'a ShardProbes,
    /// Optional per-query dependency recorder: when present, the lookup
    /// step reports which probe token each phrase selected — what the
    /// serving layer needs to
    /// retain cached pages across data-only snapshot swaps.
    pub recorder: Option<&'a ProbeRecorder>,
    /// Where the pipeline reports its spans (stage timings, per-shard probe
    /// sub-spans).  Carried exactly like [`recorder`](Self::recorder); with
    /// [`soda_trace::NoopSink`] every instrumentation site reduces to one
    /// virtual `enabled()` check.
    pub sink: &'a dyn TraceSink,
    /// The metadata-graph patterns.
    pub patterns: &'a SodaPatterns,
    /// The join catalog compiled from [`graph`](Self::graph),
    /// [`patterns`](Self::patterns), the schema of [`db`](Self::db) and the
    /// configured traversal depth — the tables step indexes it by the graph's
    /// node ids, so it has to be the one built over this very graph.
    pub joins: &'a JoinCatalog,
}
