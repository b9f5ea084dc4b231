//! Owned, shareable engine state for long-lived query serving.
//!
//! [`SodaEngine`](crate::SodaEngine) borrows its warehouse, which is the
//! right shape for one-shot experiments but not for a service: a serving
//! process builds the warehouse once, then answers queries from many threads
//! for hours.  [`EngineSnapshot`] is the owned counterpart — it holds the
//! base data and the metadata graph behind [`Arc`]s together with the built
//! indexes (classification index, inverted index, join catalog), is
//! `Send + Sync`, and can outlive whatever built it.
//!
//! ```
//! use std::sync::Arc;
//! use soda_core::{EngineSnapshot, SodaConfig};
//!
//! let snapshot = {
//!     // The warehouse is dropped at the end of this scope; the snapshot
//!     // keeps serving.
//!     let warehouse = soda_warehouse::minibank::build(42);
//!     EngineSnapshot::build(
//!         Arc::new(warehouse.database),
//!         Arc::new(warehouse.graph),
//!         SodaConfig::default(),
//!     )
//! };
//! let results = snapshot.search("Sara Guttinger").unwrap();
//! assert!(!results.is_empty());
//! ```

use std::sync::Arc;

use soda_metagraph::MetaGraph;
use soda_relation::{Database, ResultSet, ShardedInvertedIndex};

use crate::classification::ClassificationIndex;
use crate::config::SodaConfig;
use crate::engine::EngineCore;
use crate::error::Result;
use crate::feedback::FeedbackStore;
use crate::joins::JoinCatalog;
use crate::patterns::SodaPatterns;
use crate::pipeline::lookup::LookupResult;
use crate::result::{QueryTrace, ResultPage, SodaResult, StepTimings};
use crate::shard::{ProbeDep, ProbeRecorder, ShardStats};
use crate::suggest::TermSuggestion;

/// An owned, immutable, thread-safe SODA engine.
///
/// Construction cost is identical to [`SodaEngine`](crate::SodaEngine) (the
/// same indexes are built); afterwards every method takes `&self` and the
/// whole snapshot can be wrapped in an [`Arc`] and shared across threads —
/// the `soda-service` crate builds its worker pool on exactly that.
///
/// The snapshot is built around the *sharded* lookup layer: both indexes are
/// partitioned into `config.shards` partitions at construction and every
/// query's lookup step fans its base-data probes out across them;
/// [`shard_stats`](Self::shard_stats) reports the per-shard sizes and probe
/// counts the serving layer folds into its metrics.
///
/// ## Generations
///
/// Every snapshot carries a [`generation`](Self::generation) counter and a
/// per-shard generation vector, stamped by the
/// [`SnapshotHandle`](crate::SnapshotHandle) that publishes it (both stay `0`
/// for snapshots that never go through a handle).  A freshly published full
/// snapshot carries its generation in every slot; a per-shard rebuild bumps
/// only the rebuilt partitions' slots — the vector records *which*
/// partitions each publication touched (surfaced through
/// [`shard_stats`](Self::shard_stats)).  [`cache_fingerprint`](Self::cache_fingerprint)
/// folds the configuration fingerprint together with the publication
/// generation and the vector, so a superseded generation's cached pages
/// stop being addressable; for data-only swaps the serving layer re-keys
/// pages that provably never consulted a dirty shard
/// ([`retains_page`](Self::retains_page)) instead of recomputing them.
pub struct EngineSnapshot {
    db: Arc<Database>,
    graph: Arc<MetaGraph>,
    core: EngineCore,
    /// Generation stamped at publication (0 = never published via a handle).
    generation: u64,
    /// Generation that last rebuilt each lookup-layer partition.
    shard_generations: Vec<u64>,
    /// [`cache_fingerprint`](Self::cache_fingerprint), precomputed.  The
    /// serving layer reads the fingerprint on *every* submission (it keys
    /// the interpretation cache), and its inputs — configuration and the
    /// generation stamps — are immutable once a snapshot is constructed, so
    /// every constructor seals the value eagerly via [`Self::sealed`].
    fingerprint: u64,
}

impl EngineSnapshot {
    /// Builds a snapshot over an owned warehouse with the default patterns.
    pub fn build(db: Arc<Database>, graph: Arc<MetaGraph>, config: SodaConfig) -> Self {
        Self::with_patterns(db, graph, config, SodaPatterns::default())
    }

    /// Builds a snapshot with custom metadata-graph patterns.
    pub fn with_patterns(
        db: Arc<Database>,
        graph: Arc<MetaGraph>,
        config: SodaConfig,
        patterns: SodaPatterns,
    ) -> Self {
        let core = EngineCore::build(&db, &graph, config, patterns);
        Self::from_parts(db, graph, core)
    }

    /// Assembles a snapshot from already-built engine state (used by
    /// [`SodaEngine::into_shared`](crate::SodaEngine::into_shared) to avoid
    /// rebuilding the indexes).
    pub(crate) fn from_parts(db: Arc<Database>, graph: Arc<MetaGraph>, core: EngineCore) -> Self {
        let shards = core.config().shards.max(1);
        Self {
            db,
            graph,
            core,
            generation: 0,
            shard_generations: vec![0; shards],
            fingerprint: 0,
        }
        .sealed()
    }

    /// Stamps this snapshot as published at `generation` (every shard slot
    /// included) — called by [`SnapshotHandle::publish`](crate::SnapshotHandle::publish).
    pub(crate) fn stamped(mut self, generation: u64) -> Self {
        self.generation = generation;
        self.shard_generations = vec![generation; self.shard_generations.len()];
        self.sealed()
    }

    /// A structurally identical snapshot carrying exactly the given
    /// generation stamps — the durable-recovery path uses this (via
    /// [`SnapshotHandle::restore_generations`](crate::SnapshotHandle::restore_generations))
    /// to land a rebooted engine on the same generation vector, and thus the
    /// same [`cache_fingerprint`](Self::cache_fingerprint), a checkpoint
    /// recorded.  Every built structure is shared with `self`.
    pub(crate) fn restored(&self, generation: u64, shard_generations: Vec<u64>) -> Self {
        Self {
            db: Arc::clone(&self.db),
            graph: Arc::clone(&self.graph),
            core: self.core.share(),
            generation,
            shard_generations,
            fingerprint: 0,
        }
        .sealed()
    }

    /// Derives a snapshot over `db` in which only `tables` changed: the
    /// inverted-index partitions owning those tables are rebuilt from `db`
    /// and stamped with `generation`; every other structure — classification
    /// index, join catalog, probe counters, untouched index partitions — is
    /// shared with `self`.
    pub(crate) fn derive_rebuilt_tables(
        &self,
        db: Arc<Database>,
        tables: &[String],
        generation: u64,
    ) -> Self {
        let (core, affected) = self.core.derive_with_rebuilt_tables(&db, tables);
        let mut shard_generations = self.shard_generations.clone();
        for shard in affected {
            if let Some(slot) = shard_generations.get_mut(shard) {
                *slot = generation;
            }
        }
        Self {
            db,
            graph: Arc::clone(&self.graph),
            core,
            generation,
            shard_generations,
            fingerprint: 0,
        }
        .sealed()
    }

    /// Derives a snapshot that has absorbed a row-level change feed: the
    /// events are applied to a copy of the base data and routed into
    /// per-shard side logs — **no frozen index partition is touched**.  The
    /// shards whose logs changed get `generation` stamped into their slot
    /// (they answer differently now), everything else is shared with `self`.
    ///
    /// The feed is consumed (rows move by value) and the derived database
    /// structurally shares every untouched table with `self`'s — the whole
    /// chain is O(delta).  Returns the snapshot plus the ingest report so
    /// callers can surface sharing metrics.
    pub(crate) fn derive_absorbed(
        &self,
        feed: soda_ingest::ChangeFeed,
        generation: u64,
    ) -> Result<(Self, soda_ingest::IngestReport)> {
        let (db, core, report) = self.core.derive_with_ingested(&self.db, feed)?;
        let mut shard_generations = self.shard_generations.clone();
        for &shard in &report.touched_shards {
            if let Some(slot) = shard_generations.get_mut(shard) {
                *slot = generation;
            }
        }
        Ok((
            Self {
                db: Arc::new(db),
                graph: Arc::clone(&self.graph),
                core,
                generation,
                shard_generations,
                fingerprint: 0,
            }
            .sealed(),
            report,
        ))
    }

    /// Derives a snapshot in which the partitions named by `shards` are
    /// rebuilt from the *current* base data, folding (and clearing) their
    /// side logs — a compaction.  Answers are unchanged by construction (the
    /// database already contains every logged row); the folded shards' slots
    /// get `generation` so fingerprint-scoped caches notice.
    pub(crate) fn derive_compacted(&self, shards: &[usize], generation: u64) -> Self {
        let core = self.core.derive_with_rebuilt_partitions(&self.db, shards);
        let mut shard_generations = self.shard_generations.clone();
        for &shard in shards {
            if let Some(slot) = shard_generations.get_mut(shard) {
                *slot = generation;
            }
        }
        Self {
            db: Arc::clone(&self.db),
            graph: Arc::clone(&self.graph),
            core,
            generation,
            shard_generations,
            fingerprint: 0,
        }
        .sealed()
    }

    /// Derives a snapshot over a refreshed metadata graph (unchanged base
    /// data): the classification index is rebuilt sharing every unchanged
    /// partition, the join catalog is rebuilt, and only the classification
    /// partitions the refresh touched get `generation` stamped into their
    /// slot.
    pub(crate) fn derive_refreshed_graph(&self, graph: Arc<MetaGraph>, generation: u64) -> Self {
        let (core, changed) = self.core.derive_with_refreshed_graph(&self.db, &graph);
        let mut shard_generations = self.shard_generations.clone();
        for (slot, changed) in shard_generations.iter_mut().zip(&changed) {
            if *changed {
                *slot = generation;
            }
        }
        Self {
            db: Arc::clone(&self.db),
            graph,
            core,
            generation,
            shard_generations,
            fingerprint: 0,
        }
        .sealed()
    }

    /// Generation stamped at publication (0 when the snapshot never went
    /// through a [`SnapshotHandle`](crate::SnapshotHandle)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generation that last rebuilt each lookup-layer partition.
    pub fn shard_generations(&self) -> &[u64] {
        &self.shard_generations
    }

    /// A stable fingerprint of everything that determines this snapshot's
    /// answers *and* freshness: the configuration fingerprint folded with the
    /// snapshot generation and the per-shard generation vector.  The serving
    /// layer keys its interpretation cache by this, so pages computed against
    /// a swapped-out generation can never be returned for a newer one — they
    /// stop being addressable and the service purges them.
    pub fn cache_fingerprint(&self) -> u64 {
        // Precomputed at construction (see `sealed`): the serving layer
        // calls this on every submission, and hashing the configuration's
        // `Debug` rendering each time dominated the warm cache-hit path.
        self.fingerprint
    }

    /// Computes and stores [`cache_fingerprint`](Self::cache_fingerprint) —
    /// the final step of every constructor, after the generation stamps are
    /// settled.
    fn sealed(mut self) -> Self {
        // FNV-1a over the generation vector, seeded by the config
        // fingerprint: cheap, stable, and sensitive to slot order.
        let mut hash = self.config().fingerprint() ^ 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.generation);
        for &g in &self.shard_generations {
            mix(g);
        }
        self.fingerprint = hash;
        self
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
        self.core.config()
    }

    /// The join catalog (exposed for experiments and figures).
    pub fn join_catalog(&self) -> &JoinCatalog {
        self.core.join_catalog()
    }

    /// The classification index (exposed for experiments and figures).
    pub fn classification_index(&self) -> &ClassificationIndex {
        self.core.classification_index()
    }

    /// The inverted index over the base data, if enabled.
    pub fn inverted_index(&self) -> Option<&ShardedInvertedIndex> {
        self.core.inverted_index()
    }

    /// Number of lookup-layer shards this snapshot was built with.
    pub fn shard_count(&self) -> usize {
        self.config().shards.max(1)
    }

    /// Per-shard sizes and probe counts of the lookup layer, with this
    /// snapshot's per-shard generation vector overlaid.
    pub fn shard_stats(&self) -> ShardStats {
        let mut stats = self.core.shard_stats();
        stats.generations = self.shard_generations.clone();
        stats
    }

    /// The partitions owning `tables`, sorted and deduplicated — the dirty
    /// set of a data-only swap over those tables.
    pub fn shards_for_tables(&self, tables: &[String]) -> Vec<usize> {
        self.core.shards_for_tables(tables)
    }

    /// The shards currently carrying a non-empty ingestion side log —
    /// compaction candidates.
    pub fn shards_with_side_logs(&self) -> Vec<usize> {
        self.core.shards_with_side_logs()
    }

    /// Decides whether a result page computed against an *earlier* snapshot
    /// generation provably still answers correctly against `self`, given
    /// that the swap between them was **data-only** (base rows of the tables
    /// owned by `dirty` changed; schemas, metadata graph and configuration
    /// identical) and given what the page's query actually consulted:
    ///
    /// * `touched_mask` / `touched_overflow` — the shards its probes scanned
    ///   (from a [`ProbeRecorder`]),
    /// * `deps` — the phrases it probed and the probe tokens they selected.
    ///
    /// The page survives when none of its probes scanned a dirty shard, and
    /// for every probed phrase the *new* index still selects the same probe
    /// token with zero candidates in every dirty shard — then the hit set is
    /// computed from the same postings over unchanged rows (non-lookup
    /// pipeline steps only read schema-level catalog data, which a data
    /// delta cannot change).  Everything else is conservatively rejected.
    pub fn retains_page(
        &self,
        touched_mask: u64,
        touched_overflow: bool,
        deps: &[ProbeDep],
        dirty: &[usize],
    ) -> bool {
        RetentionGate::new(self, dirty).retains(touched_mask, touched_overflow, deps)
    }

    /// Whether one probe dependency is provably unchanged by a data-only
    /// swap dirtying `dirty`: the index still selects the same probe token
    /// for the phrase, and no dirty shard holds candidates for it.  The
    /// building block of [`retains_page`](Self::retains_page); swap-time
    /// cache passes memoize it per distinct dependency through a
    /// [`RetentionGate`].
    pub fn probe_dep_unchanged(&self, dep: &ProbeDep, dirty: &[usize]) -> bool {
        let Some(index) = self.core.inverted_index() else {
            // Without an inverted index no query consults base rows during
            // interpretation, so data deltas cannot change any page.
            return true;
        };
        let probe = index.probe(&dep.phrase);
        match (&probe, &dep.token) {
            (None, None) => true,
            (Some(probe), Some(token)) if &probe.token == token => dirty
                .iter()
                .all(|&shard| index.shard_candidates(shard, probe) == 0),
            _ => false,
        }
    }

    /// Like [`search_paged`](Self::search_paged), additionally reporting
    /// into `recorder` which shards the query's base-data probes scanned and
    /// which probe token each phrase selected — the dependency set
    /// [`retains_page`](Self::retains_page) consumes.
    pub fn search_paged_recorded(
        &self,
        input: &str,
        page: usize,
        page_size: usize,
        recorder: &ProbeRecorder,
    ) -> Result<ResultPage> {
        self.core.search_paged(
            &self.db,
            &self.graph,
            input,
            page,
            page_size,
            Some(recorder),
        )
    }

    /// The full observability surface of one paged search: probe
    /// dependencies into `recorder` (when given), pipeline spans into `sink`
    /// — the root `query` span with one child per stage, and per-shard
    /// `probe_shard` sub-spans under `lookup` — and the per-stage
    /// [`StepTimings`] returned alongside the page.
    ///
    /// With [`soda_trace::NoopSink`] this is exactly
    /// [`search_paged_recorded`](Self::search_paged_recorded): span
    /// reporting is guarded by [`soda_trace::TraceSink::enabled`] at every
    /// site, so tracing can never perturb the generated SQL (the
    /// `shard_invariance` suite pins this).
    pub fn search_paged_observed(
        &self,
        input: &str,
        page: usize,
        page_size: usize,
        recorder: Option<&ProbeRecorder>,
        sink: &dyn soda_trace::TraceSink,
    ) -> Result<(ResultPage, StepTimings)> {
        self.core.search_paged_observed(
            &self.db,
            &self.graph,
            input,
            page,
            page_size,
            recorder,
            sink,
        )
    }

    /// Runs only Step 1 (lookup) for an input (see
    /// [`SodaEngine::lookup`](crate::SodaEngine::lookup)).
    pub fn lookup(&self, input: &str) -> Result<LookupResult> {
        self.core.lookup(&self.db, &self.graph, input)
    }

    /// Translates a keyword query into a ranked list of SQL statements.
    pub fn search(&self, input: &str) -> Result<Vec<SodaResult>> {
        self.search_traced(input).map(|(results, _)| results)
    }

    /// Like [`search`](Self::search) but also returns the pipeline trace.
    pub fn search_traced(&self, input: &str) -> Result<(Vec<SodaResult>, QueryTrace)> {
        self.core.search_limited(
            &self.db,
            &self.graph,
            input,
            None,
            self.config().max_results,
            None,
        )
    }

    /// Like [`search`](Self::search) but folding accumulated relevance
    /// feedback into the ranking.
    pub fn search_with_feedback(
        &self,
        input: &str,
        feedback: &FeedbackStore,
    ) -> Result<Vec<SodaResult>> {
        self.core
            .search_limited(
                &self.db,
                &self.graph,
                input,
                Some(feedback),
                self.config().max_results,
                None,
            )
            .map(|(results, _)| results)
    }

    /// One page of the ranked result list (see
    /// [`SodaEngine::search_paged`](crate::SodaEngine::search_paged)).
    pub fn search_paged(&self, input: &str, page: usize, page_size: usize) -> Result<ResultPage> {
        self.core
            .search_paged(&self.db, &self.graph, input, page, page_size, None)
    }

    /// Reformulation suggestions for unmatched input words.
    pub fn suggestions(&self, input: &str) -> Result<Vec<TermSuggestion>> {
        self.core.suggestions(&self.db, &self.graph, input)
    }

    /// Executes one generated statement against the base data.
    pub fn execute(&self, result: &SodaResult) -> Result<ResultSet> {
        self.core.execute(&self.db, result)
    }

    /// Executes a statement and renders the snippet of up to
    /// `config.snippet_rows` rows shown on the result page.
    pub fn snippet(&self, result: &SodaResult) -> Result<String> {
        self.core.snippet(&self.db, result)
    }
}

/// A memoizing retention checker for one data-only swap episode: each
/// distinct probe dependency is checked against the new index at most once,
/// no matter how many cached pages share it — the swap-time pass over a
/// full cache costs `O(distinct dependencies)` probes instead of
/// `O(entries × deps)`.
pub struct RetentionGate<'a> {
    snapshot: &'a EngineSnapshot,
    dirty: &'a [usize],
    memo: std::collections::HashMap<ProbeDep, bool>,
}

impl<'a> RetentionGate<'a> {
    /// A gate for pages crossing the swap that dirtied `dirty` shards,
    /// checked against the *new* snapshot.
    pub fn new(snapshot: &'a EngineSnapshot, dirty: &'a [usize]) -> Self {
        Self {
            snapshot,
            dirty,
            memo: std::collections::HashMap::new(),
        }
    }

    /// [`EngineSnapshot::retains_page`] with the per-dependency probe checks
    /// memoized across calls.
    pub fn retains(
        &mut self,
        touched_mask: u64,
        touched_overflow: bool,
        deps: &[ProbeDep],
    ) -> bool {
        if self.dirty.is_empty() {
            return true;
        }
        if touched_overflow || self.dirty.iter().any(|&s| s >= 64) {
            return false;
        }
        if self.dirty.iter().any(|&s| touched_mask & (1 << s) != 0) {
            return false;
        }
        deps.iter().all(|dep| self.dep_unchanged(dep))
    }

    fn dep_unchanged(&mut self, dep: &ProbeDep) -> bool {
        if let Some(&ok) = self.memo.get(dep) {
            return ok;
        }
        let ok = self.snapshot.probe_dep_unchanged(dep, self.dirty);
        self.memo.insert(dep.clone(), ok);
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SodaEngine;

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
    fn snapshot_matches_borrowed_engine() {
        let w = soda_warehouse::minibank::build(42);
        let engine = SodaEngine::new(&w.database, &w.graph, SodaConfig::default());
        let snapshot = EngineSnapshot::build(
            Arc::new(w.database.clone()),
            Arc::new(w.graph.clone()),
            SodaConfig::default(),
        );
        for query in [
            "Sara Guttinger",
            "wealthy customers",
            "sum (amount) group by (transaction date)",
        ] {
            let borrowed = engine.search(query).unwrap();
            let owned = snapshot.search(query).unwrap();
            assert_eq!(borrowed, owned, "divergence on '{query}'");
        }
    }

    #[test]
    fn into_shared_preserves_behaviour() {
        let w = soda_warehouse::minibank::build(42);
        let engine = SodaEngine::new(&w.database, &w.graph, SodaConfig::default());
        let before = engine.search("wealthy customers").unwrap();
        let snapshot = engine.into_shared();
        drop(w);
        let after = snapshot.search("wealthy customers").unwrap();
        assert_eq!(before, after);
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
        assert_eq!(stats.classification_phrases.len(), 4);
        assert_eq!(stats.index_postings.len(), 4);
        assert_eq!(
            stats.classification_phrases.iter().sum::<usize>(),
            sharded.classification_index().len()
        );
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
    fn retains_page_attests_only_provably_unaffected_queries() {
        // At 8 shards `individuals` (shard 7) and `addresses` (shard 3) land
        // in different partitions — the split this test relies on.
        let shards = 8;
        assert_ne!(
            soda_relation::shard_for_table("individuals", shards),
            soda_relation::shard_for_table("addresses", shards),
        );
        let w = soda_warehouse::minibank::build(42);
        let handle = crate::SnapshotHandle::new(Arc::new(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig {
                shards,
                ..SodaConfig::default()
            },
        )));
        let recorder = crate::shard::ProbeRecorder::new();
        handle
            .load()
            .search_paged_recorded("Sara Guttinger", 0, 10, &recorder)
            .unwrap();
        let deps = recorder.deps();
        assert!(!deps.is_empty(), "the query probes the base data");
        let mask = recorder.touched_mask();
        assert!(!recorder.overflowed());

        // Ingest into `addresses`: the Sara page provably never saw it.
        let feed = crate::ChangeFeed::new().append_row(
            "addresses",
            vec![
                soda_relation::Value::Int(900),
                soda_relation::Value::Int(1),
                soda_relation::Value::from("Retain Lane 1"),
                soda_relation::Value::from("Retainville"),
                soda_relation::Value::from("Switzerland"),
            ],
        );
        handle.absorb(&feed).unwrap();
        let after = handle.load();
        let dirty = after.shards_for_tables(&["addresses".to_string()]);
        assert!(after.retains_page(mask, false, &deps, &dirty));
        // …and the retained answer really is unchanged.
        assert_eq!(
            after.search("Sara Guttinger").unwrap(),
            handle.load().search("Sara Guttinger").unwrap()
        );

        // A swap dirtying a shard the page's probes scanned is rejected.
        let sara_shard = after.shards_for_tables(&["individuals".to_string()]);
        assert!(!after.retains_page(mask, false, &deps, &sara_shard));
        // Overflowed recorders and empty dirty sets take the trivial paths.
        assert!(!after.retains_page(mask, true, &deps, &dirty));
        assert!(after.retains_page(mask, true, &deps, &[]));

        // A feed that gives a previously postings-free phrase candidates in
        // a dirty shard kills pages that probed it: "Retainville" was
        // nowhere before this absorb, so a page that probed it carried a
        // `None` token — and now the probe resolves.
        let nowhere = crate::shard::ProbeRecorder::new();
        handle
            .load()
            .search_paged_recorded("Nowhereville", 0, 10, &nowhere)
            .unwrap();
        let nowhere_deps = nowhere.deps();
        assert!(nowhere_deps.iter().any(|d| d.token.is_none()));
        let retain_probe = crate::shard::ProbeRecorder::new();
        handle
            .load()
            .search_paged_recorded("Retainville", 0, 10, &retain_probe)
            .unwrap();
        assert!(
            retain_probe.deps().iter().any(|d| d.token.is_some()),
            "the absorbed row resolves the probe"
        );
        // Against a hypothetical swap dirtying the addresses shard, the
        // Retainville page (whose probe scanned it) must not be retained.
        assert!(!after.retains_page(
            retain_probe.touched_mask(),
            retain_probe.overflowed(),
            &retain_probe.deps(),
            &dirty
        ));
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
