//! The SODA engine as a value: owned, immutable, shareable engine state.
//!
//! An [`EngineSnapshot`] is constructed once per warehouse — it builds the
//! inverted index over the base data, the classification index over the
//! metadata labels and the join catalog (the schema, compiled: join edges and
//! what a traversal from each graph node finds) — and then answers any number of
//! keyword queries (see [`crate::engine`] for the search itself).  It holds
//! the base data and the metadata graph behind [`Arc`]s next to the built
//! indexes, is `Send + Sync`, and can outlive whatever built it: a serving
//! process builds the warehouse once, then answers queries from many threads
//! for hours.
//!
//! ```
//! use soda_core::{EngineSnapshot, SodaConfig};
//!
//! let snapshot = {
//!     // The warehouse is consumed at the end of this scope; the snapshot
//!     // keeps serving.
//!     let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
//!     EngineSnapshot::build(db, graph, SodaConfig::default())
//! };
//! let results = snapshot.search("Sara Guttinger").unwrap();
//! assert!(!results.is_empty());
//! ```

use std::sync::Arc;

use soda_metagraph::MetaGraph;
use soda_relation::{fnv1a, Database, ShardedInvertedIndex};
use soda_trace::TraceSink;

use crate::classification::ClassificationIndex;
use crate::config::SodaConfig;
use crate::error::Result;
use crate::joins::JoinCatalog;
use crate::patterns::SodaPatterns;
use crate::pipeline::PipelineContext;
use crate::shard::{ProbeRecorder, ShardProbes, ShardStats};

/// The SODA engine: an owned, immutable, thread-safe snapshot of a warehouse
/// and every index the five-step pipeline consults.
///
/// Every method takes `&self` and the whole snapshot can be wrapped in an
/// [`Arc`] and shared across threads — the `soda-service` crate builds its
/// worker pool on exactly that.
///
/// The inverted index is partitioned into `config.shards` shards by a stable
/// hash of the owning table at construction (the partition is the unit of a
/// side log, of a fold and of cache retention); the lookup step probes the
/// shards inline and bumps the per-shard [`ShardProbes`] counters, and
/// [`shard_stats`](Self::shard_stats) reports the per-shard sizes — stored
/// counters, read live on every call — and probe counts the serving layer
/// folds into its metrics.
///
/// Everything expensive sits behind [`Arc`]s (the base data, the graph, the
/// join catalog and the probe counters here, the index shards internally),
/// so the hot-swap derive paths of [`SnapshotHandle`](crate::SnapshotHandle)
/// build a next-generation snapshot that shares every untouched structure
/// with its parent instead of copying it.
///
/// ## Generation
///
/// Every snapshot carries a [`generation`](Self::generation), stamped by the
/// [`SnapshotHandle`](crate::SnapshotHandle) that publishes it (`0` for
/// snapshots that never go through a handle).  The handle serialises its
/// writers and its numbers only ever increase, so the generation alone names
/// a publication: [`cache_fingerprint`](Self::cache_fingerprint) folds the
/// configuration fingerprint with it, and a superseded generation's cached
/// pages stop being addressable.  For data-only swaps the serving layer
/// re-keys the pages whose probes provably answer the same in both snapshots
/// instead of recomputing them.
pub struct EngineSnapshot {
    db: Arc<Database>,
    graph: Arc<MetaGraph>,
    config: SodaConfig,
    patterns: SodaPatterns,
    classification: ClassificationIndex,
    index: Option<ShardedInvertedIndex>,
    joins: Arc<JoinCatalog>,
    probes: Arc<ShardProbes>,
    /// Generation stamped at publication (0 = never published via a handle).
    generation: u64,
    /// [`cache_fingerprint`](Self::cache_fingerprint), precomputed.  The
    /// serving layer reads the fingerprint on *every* submission (it keys
    /// the interpretation cache), and its inputs — configuration and
    /// generation — are immutable once a snapshot is constructed, so every
    /// constructor seals the value eagerly via [`Self::stamped`].
    fingerprint: u64,
}

impl EngineSnapshot {
    /// Builds an engine over a warehouse with the default patterns.
    pub fn build(db: Arc<Database>, graph: Arc<MetaGraph>, config: SodaConfig) -> Self {
        Self::with_patterns(db, graph, config, SodaPatterns::default())
    }

    /// Builds an engine with custom metadata-graph patterns (how SODA is
    /// ported to a warehouse with different modelling conventions): the
    /// classification index, the sharded inverted index (when enabled) and
    /// the join catalog.
    pub fn with_patterns(
        db: Arc<Database>,
        graph: Arc<MetaGraph>,
        config: SodaConfig,
        patterns: SodaPatterns,
    ) -> Self {
        let shards = config.shards.max(1);
        let classification = ClassificationIndex::build(&graph, config.use_dbpedia);
        let index = if config.use_inverted_index {
            Some(ShardedInvertedIndex::build_sharded(&db, shards))
        } else {
            None
        };
        let joins = Arc::new(JoinCatalog::build(
            &graph,
            &patterns,
            &db,
            config.traversal_depth,
        ));
        Self {
            db,
            graph,
            config,
            patterns,
            classification,
            index,
            joins,
            probes: Arc::new(ShardProbes::new(shards)),
            generation: 0,
            fingerprint: 0,
        }
        .stamped(0)
    }

    /// A structurally identical snapshot sharing every built structure with
    /// `self` — the indexes clone by `Arc` internally, so this is cheap.
    /// What every derive below starts from.
    fn share(&self) -> Self {
        Self {
            db: Arc::clone(&self.db),
            graph: Arc::clone(&self.graph),
            config: self.config.clone(),
            patterns: self.patterns.clone(),
            classification: self.classification.clone(),
            index: self.index.clone(),
            joins: Arc::clone(&self.joins),
            probes: Arc::clone(&self.probes),
            generation: self.generation,
            fingerprint: self.fingerprint,
        }
    }

    /// Stamps this snapshot as published at `generation` and computes its
    /// [`cache_fingerprint`](Self::cache_fingerprint) — the final step of
    /// every constructor, and what
    /// [`SnapshotHandle::publish`](crate::SnapshotHandle::publish) calls.
    pub(crate) fn stamped(mut self, generation: u64) -> Self {
        self.generation = generation;
        // FNV-1a over the generation, seeded by the config fingerprint.
        self.fingerprint = fnv1a(self.config.fingerprint(), &generation.to_le_bytes());
        self
    }

    /// A structurally identical snapshot stamped `generation` — the
    /// durable-recovery path uses this (via
    /// [`SnapshotHandle::restore_generation`](crate::SnapshotHandle::restore_generation))
    /// to land a rebooted engine on the generation, and thus the
    /// [`cache_fingerprint`](Self::cache_fingerprint), a checkpoint recorded.
    /// Every built structure is shared with `self`.
    pub(crate) fn restored(&self, generation: u64) -> Self {
        self.share().stamped(generation)
    }

    /// Derives a snapshot that has absorbed a row-level change feed: the
    /// events are applied to a copy of the base data and their indexed
    /// consequences written into the side logs of a copy of the index —
    /// **no frozen index partition is touched**, queries merge log and
    /// partition on the fly.  With the inverted index disabled only the base
    /// data moves.
    ///
    /// The feed is consumed (appended rows move by value into the
    /// copy-on-write database derive).  Both copies are copy-on-write: the
    /// derived database shares every table the feed does not touch with
    /// `self`'s, and the index copies only the side logs the feed writes
    /// (see [`ShardedInvertedIndex::log_mut`]), sharing every other log and
    /// every frozen partition — the whole chain is O(delta), not
    /// O(warehouse).
    ///
    /// The join catalog — join edges, table ids and the per-node entry
    /// closures — is compiled from the graph, the patterns, the traversal
    /// depth and the database's *schema* (it reads the database only to
    /// resolve table and column names), so a data-only delta cannot change
    /// it — which is what makes sharing it here, and in every derive but
    /// [`derive_refreshed_graph`](Self::derive_refreshed_graph), sound.
    pub(crate) fn derive_absorbed(
        &self,
        feed: soda_ingest::ChangeFeed,
        generation: u64,
    ) -> Result<Self> {
        let mut next = (*self.db).clone();
        let mut index = self.index.clone();
        soda_ingest::absorb(&mut next, index.as_mut(), feed)?;
        Ok(Self {
            db: Arc::new(next),
            index,
            ..self.share()
        }
        .stamped(generation))
    }

    /// Derives a snapshot in which the partitions named by `shards` are
    /// rebuilt from the *current* base data, folding (and clearing) their
    /// side logs — a compaction.  Answers are unchanged by construction (the
    /// database already contains every logged row); the new `generation`
    /// moves the fingerprint so fingerprint-scoped caches notice.
    pub(crate) fn derive_compacted(&self, shards: &[usize], generation: u64) -> Self {
        let index = self
            .index
            .as_ref()
            .map(|index| index.with_rebuilt_shards(&self.db, shards));
        Self {
            index,
            ..self.share()
        }
        .stamped(generation)
    }

    /// Derives a snapshot over a refreshed metadata graph (unchanged base
    /// data): the classification index is rebuilt and the join catalog
    /// recompiled (its edges and entry closures are graph-derived and
    /// indexed by the graph's node ids — a stale one would answer for nodes
    /// of another graph); the inverted index and probe counters are shared.
    pub(crate) fn derive_refreshed_graph(&self, graph: Arc<MetaGraph>, generation: u64) -> Self {
        let classification = ClassificationIndex::build(&graph, self.config.use_dbpedia);
        let joins = Arc::new(JoinCatalog::build(
            &graph,
            &self.patterns,
            &self.db,
            self.config.traversal_depth,
        ));
        Self {
            graph,
            classification,
            joins,
            ..self.share()
        }
        .stamped(generation)
    }

    /// Generation stamped at publication (0 when the snapshot never went
    /// through a [`SnapshotHandle`](crate::SnapshotHandle)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A stable fingerprint of everything that determines this snapshot's
    /// answers *and* freshness: the configuration fingerprint folded with the
    /// snapshot generation.  The serving
    /// layer keys its interpretation cache by this, so pages computed against
    /// a swapped-out generation can never be returned for a newer one — they
    /// stop being addressable and the service purges them.
    pub fn cache_fingerprint(&self) -> u64 {
        // Precomputed at construction (see `stamped`): the serving layer
        // calls this on every submission, and hashing the configuration's
        // `Debug` rendering each time dominated the warm cache-hit path.
        self.fingerprint
    }

    /// The base data.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// A clone of the [`Arc`] holding the base data.
    pub fn database_arc(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The metadata graph.
    pub fn graph(&self) -> &MetaGraph {
        &self.graph
    }

    /// A clone of the [`Arc`] holding the metadata graph.
    pub fn graph_arc(&self) -> Arc<MetaGraph> {
        Arc::clone(&self.graph)
    }

    /// The engine configuration.
    pub fn config(&self) -> &SodaConfig {
        &self.config
    }

    /// The join catalog (exposed for experiments and figures).
    pub fn join_catalog(&self) -> &JoinCatalog {
        &self.joins
    }

    /// The classification index (exposed for experiments and figures).
    pub fn classification_index(&self) -> &ClassificationIndex {
        &self.classification
    }

    /// The inverted index over the base data, if enabled.
    pub fn inverted_index(&self) -> Option<&ShardedInvertedIndex> {
        self.index.as_ref()
    }

    /// The read-only context one pipeline run is handed: this snapshot's
    /// warehouse and indexes plus the caller's recorder and sink.
    pub(crate) fn context<'a>(
        &'a self,
        recorder: Option<&'a ProbeRecorder>,
        sink: &'a dyn TraceSink,
    ) -> PipelineContext<'a> {
        PipelineContext {
            db: &self.db,
            graph: &self.graph,
            config: &self.config,
            classification: &self.classification,
            index: self.index.as_ref(),
            probes: &self.probes,
            recorder,
            sink,
            patterns: &self.patterns,
            joins: &self.joins,
        }
    }

    /// Number of lookup-layer shards this snapshot was built with.
    pub fn shard_count(&self) -> usize {
        self.config.shards.max(1)
    }

    /// The inverted index's per-shard sizes and the live probe counters.
    /// Every size is a stored counter, so this is one read per shard —
    /// cheap enough for every metrics poll.
    pub fn shard_stats(&self) -> ShardStats {
        let (index_postings, log_postings) = match &self.index {
            Some(index) => (
                index.shards().iter().map(|s| s.posting_count()).collect(),
                index.side_log_postings(),
            ),
            None => Default::default(),
        };
        ShardStats {
            shards: self.shard_count(),
            index_postings,
            log_postings,
            probes: self.probes.counts(),
        }
    }

    /// The partitions owning `tables`, sorted and deduplicated — the dirty
    /// set of a data-only swap over those tables.
    pub fn shards_for_tables(&self, tables: &[String]) -> Vec<usize> {
        let shard_count = self.shard_count();
        let mut affected: Vec<usize> = tables
            .iter()
            .map(|t| soda_relation::shard_for_table(t, shard_count))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// The shards currently carrying a non-empty ingestion side log —
    /// compaction candidates.
    pub fn shards_with_side_logs(&self) -> Vec<usize> {
        self.index
            .as_ref()
            .map(|index| {
                index
                    .side_logs()
                    .iter()
                    .enumerate()
                    .filter(|(_, log)| !log.is_empty())
                    .map(|(i, _)| i)
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_is_send_and_sync() {
        assert_send_sync::<EngineSnapshot>();
        assert_send_sync::<Arc<EngineSnapshot>>();
    }

    #[test]
    fn snapshot_outlives_its_warehouse() {
        let snapshot = {
            let w = soda_warehouse::minibank::build(42);
            EngineSnapshot::build(
                Arc::new(w.database),
                Arc::new(w.graph),
                SodaConfig::default(),
            )
        };
        let results = snapshot.search("Sara Guttinger").unwrap();
        assert!(!results.is_empty());
        assert!(results[0].sql.starts_with("SELECT"));
    }

    #[test]
    fn a_page_number_past_the_end_yields_an_empty_page_not_an_overflow() {
        let w = soda_warehouse::minibank::build(42);
        let snapshot = EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        );
        let total = snapshot
            .search_paged("customers", 0, usize::MAX)
            .unwrap()
            .total_results;
        assert!(total > 0);
        for page in [usize::MAX, usize::MAX / 2] {
            let got = snapshot.search_paged("customers", page, 10).unwrap();
            assert!(got.results.is_empty());
            assert_eq!(got.total_results, total);
            assert!(!got.has_next);
        }
    }

    #[test]
    fn sharded_snapshot_is_byte_identical_and_reports_stats() {
        let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
        let baseline = EngineSnapshot::build(
            Arc::clone(&db),
            Arc::clone(&graph),
            SodaConfig {
                shards: 1,
                ..SodaConfig::default()
            },
        );
        let sharded = EngineSnapshot::build(
            db,
            graph,
            SodaConfig {
                shards: 4,
                ..SodaConfig::default()
            },
        );
        assert_eq!(sharded.shard_count(), 4);
        for query in ["Sara Guttinger", "wealthy customers", "customers Zurich"] {
            assert_eq!(
                baseline.search(query).unwrap(),
                sharded.search(query).unwrap(),
                "divergence on '{query}'"
            );
        }
        let stats = sharded.shard_stats();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.index_postings.len(), 4);
        assert_eq!(
            stats.index_postings.iter().sum::<usize>(),
            sharded.inverted_index().unwrap().posting_count()
        );
        // The searches above probed the base data, so scan work accumulated
        // on the shards holding the matched tables.
        assert_eq!(stats.probes.len(), 4);
        assert!(stats.total_probes() > 0);
    }

    #[test]
    fn shared_snapshot_serves_multiple_threads() {
        let w = soda_warehouse::minibank::build(42);
        let snapshot = Arc::new(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        ));
        let expected = snapshot.search("Sara Guttinger").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let snapshot = Arc::clone(&snapshot);
                let expected = expected.clone();
                scope.spawn(move || {
                    let got = snapshot.search("Sara Guttinger").unwrap();
                    assert_eq!(got, expected);
                });
            }
        });
    }
}
