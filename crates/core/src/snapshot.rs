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
/// patterns, the join catalog and the probe counters here, the index shards
/// and the classification phrases internally),
/// so a snapshot derives its own successor — [`absorbed`](Self::absorbed),
/// [`compacted`](Self::compacted), [`refreshed`](Self::refreshed) — sharing
/// every untouched structure with it instead of copying it.
///
/// ## Generation
///
/// Every snapshot carries a [`generation`](Self::generation): `0` for a
/// fresh build, and one more than its predecessor's for every successor,
/// which stamps itself ([`succeeding`](Self::succeeding) stamps a full
/// reload the same way).  Whoever publishes snapshots serialises its
/// writers, so each successor derives from the live one and the numbers only
/// ever increase: the generation alone names a publication.
/// [`cache_fingerprint`](Self::cache_fingerprint) folds the configuration
/// fingerprint with it, and a superseded generation's cached pages stop
/// being addressable.  For data-only swaps the serving layer
/// re-keys the pages whose probes provably answer the same in both snapshots
/// instead of recomputing them.
pub struct EngineSnapshot {
    db: Arc<Database>,
    graph: Arc<MetaGraph>,
    config: SodaConfig,
    patterns: Arc<SodaPatterns>,
    classification: ClassificationIndex,
    index: Option<ShardedInvertedIndex>,
    joins: Arc<JoinCatalog>,
    probes: Arc<ShardProbes>,
    /// Generation stamped at publication (0 = a fresh build).
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
            patterns: Arc::new(patterns),
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
    /// What every successor below starts from.
    fn share(&self) -> Self {
        Self {
            db: Arc::clone(&self.db),
            graph: Arc::clone(&self.graph),
            config: self.config.clone(),
            patterns: Arc::clone(&self.patterns),
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
    /// every constructor.
    fn stamped(mut self, generation: u64) -> Self {
        self.generation = generation;
        // FNV-1a over the generation, seeded by the config fingerprint.
        self.fingerprint = fnv1a(self.config.fingerprint(), &generation.to_le_bytes());
        self
    }

    /// A structurally identical snapshot stamped `generation` — what
    /// durable recovery lands a rebooted engine on, so it serves under the
    /// generation, and thus the [`cache_fingerprint`](Self::cache_fingerprint),
    /// a checkpoint recorded.  Every built structure is shared with `self`.
    pub fn restored(&self, generation: u64) -> Self {
        self.share().stamped(generation)
    }

    /// `self`, stamped as the successor of `previous` — a full reload (new
    /// warehouse build, new configuration, anything) published in
    /// `previous`'s place.
    ///
    /// ```
    /// use soda_core::{EngineSnapshot, SodaConfig};
    ///
    /// let build = |seed| {
    ///     let (db, graph) = soda_warehouse::minibank::build(seed).shared_parts();
    ///     EngineSnapshot::build(db, graph, SodaConfig::default())
    /// };
    /// let live = build(42);
    /// assert_eq!(live.generation(), 0);
    /// let next = build(43).succeeding(&live);
    /// assert_eq!(next.generation(), 1);
    /// assert_ne!(next.cache_fingerprint(), live.cache_fingerprint());
    /// ```
    pub fn succeeding(self, previous: &EngineSnapshot) -> Self {
        self.stamped(previous.generation + 1)
    }

    /// The successor that has absorbed a row-level change feed: the
    /// events are applied to a copy of the base data and their indexed
    /// consequences written into the side logs of a copy of the index —
    /// **no frozen index partition is touched**, queries merge log and
    /// partition on the fly.  With the inverted index disabled only the base
    /// data moves.  On any feed error (unknown table, arity or type
    /// violation) there is no successor, however far the feed got.
    ///
    /// The feed is consumed (appended rows move by value into the
    /// copy-on-write database derive).  Both copies are copy-on-write: the
    /// derived database shares every table the feed does not touch with
    /// `self`'s, and the index copies only the side logs the feed writes
    /// (see [`ShardedInvertedIndex::log_mut`]), sharing every other log and
    /// every frozen partition — the whole chain is O(delta), not
    /// O(warehouse).  Side logs tax probes on their shard until
    /// [`compacted`](Self::compacted) folds them; nothing folds them on its
    /// own.
    ///
    /// The join catalog — join edges, table ids and the per-node entry
    /// closures — is compiled from the graph, the patterns, the traversal
    /// depth and the database's *schema* (it reads the database only to
    /// resolve table and column names), so a data-only delta cannot change
    /// it — which is what makes sharing it here, and in every successor but
    /// [`refreshed`](Self::refreshed), sound.
    pub fn absorbed(&self, feed: soda_ingest::ChangeFeed) -> Result<Self> {
        let mut next = (*self.db).clone();
        let mut index = self.index.clone();
        soda_ingest::absorb(&mut next, index.as_mut(), feed)?;
        Ok(Self {
            db: Arc::new(next),
            index,
            ..self.share()
        }
        .stamped(self.generation + 1))
    }

    /// The successor in which the side logs of `shards` are merged into
    /// copies of their partitions — a compaction
    /// ([`ShardedInvertedIndex::with_folded_logs`]; no table is read).
    /// Answers are unchanged by construction (a partition plus its log
    /// already count every live row); the new generation moves the fingerprint so
    /// fingerprint-scoped caches notice.  Shards without a log to fold are
    /// skipped; `None` when none of the named shards has one, otherwise the
    /// successor and the shards it folded.
    pub fn compacted(&self, shards: &[usize]) -> Option<(Self, Vec<usize>)> {
        let logged = self.shards_with_side_logs();
        let folded: Vec<usize> = shards
            .iter()
            .copied()
            .filter(|s| logged.contains(s))
            .collect();
        if folded.is_empty() {
            return None;
        }
        let index = self
            .index
            .as_ref()
            .map(|index| index.with_folded_logs(&folded));
        let next = Self {
            index,
            ..self.share()
        };
        Some((next.stamped(self.generation + 1), folded))
    }

    /// The successor over a refreshed metadata graph (unchanged base
    /// data): the classification index is rebuilt and the join catalog
    /// recompiled (its edges and entry closures are graph-derived and
    /// indexed by the graph's node ids — a stale one would answer for nodes
    /// of another graph); the inverted index and probe counters are shared.
    pub fn refreshed(&self, graph: Arc<MetaGraph>) -> Self {
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
        .stamped(self.generation + 1)
    }

    /// Generation stamped at publication: 0 for a fresh build, one more
    /// than its predecessor's for every successor.
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

    /// The metadata-graph patterns this engine was built with.
    pub fn patterns(&self) -> &SodaPatterns {
        &self.patterns
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
    use soda_ingest::ChangeFeed;

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

    fn minibank(shards: usize) -> EngineSnapshot {
        let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
        let config = SodaConfig {
            shards,
            ..SodaConfig::default()
        };
        EngineSnapshot::build(db, graph, config)
    }

    fn address_feed(id: i64, city: &str) -> ChangeFeed {
        ChangeFeed::new().append_row(
            "addresses",
            vec![
                soda_relation::Value::Int(id),
                soda_relation::Value::Int(1),
                soda_relation::Value::from("Stream Lane 1"),
                soda_relation::Value::from(city),
                soda_relation::Value::from("Switzerland"),
            ],
        )
    }

    #[test]
    fn succeeding_stamps_the_next_generation() {
        let live = minibank(4);
        assert_eq!(live.generation(), 0);
        let next = minibank(4).succeeding(&live);
        assert_eq!(next.generation(), 1);
        assert_ne!(
            next.cache_fingerprint(),
            live.cache_fingerprint(),
            "a successor's generation must change the cache fingerprint"
        );
        assert_eq!(minibank(4).succeeding(&next).generation(), 2);
    }

    #[test]
    fn a_predecessor_keeps_its_answers_after_a_reload() {
        let held = minibank(1);
        let expected = held.search("Sara Guttinger").unwrap();
        let (db, graph) = soda_warehouse::minibank::build(7).shared_parts();
        let next = EngineSnapshot::build(db, graph, SodaConfig::default()).succeeding(&held);
        // The held snapshot still answers exactly as before its successor.
        assert_eq!(held.search("Sara Guttinger").unwrap(), expected);
        assert_eq!(held.generation(), 0);
        assert_eq!(next.generation(), 1);
    }

    #[test]
    fn a_replace_absorbed_then_folded_answers_like_a_fresh_build() {
        let w = soda_warehouse::minibank::build(42);
        let before = minibank(4);
        let fp_before = before.cache_fingerprint();

        // Restate `individuals` wholesale: every existing row plus one new
        // individual.
        let individuals = w.database.table("individuals").unwrap();
        let mut rows = individuals.rows().to_vec();
        let mut row = rows[0].clone();
        let name_col = individuals
            .schema()
            .columns
            .iter()
            .position(|c| c.name == "firstname")
            .unwrap();
        row[0] = soda_relation::Value::Int(9_999);
        row[name_col] = soda_relation::Value::from("Zebulon");
        rows.push(row);
        let owner = soda_relation::shard_for_table("individuals", 4);
        let logged = before
            .absorbed(ChangeFeed::new().replace("individuals", rows))
            .unwrap();
        assert_eq!(logged.generation(), 1);
        let (folded, shards) = logged.compacted(&[owner]).expect("a log to fold");
        assert_eq!(shards, vec![owner]);

        // Logged or folded, the successor answers exactly like a full build
        // over the new database and sees the new row.
        let config = before.config().clone();
        let fresh = EngineSnapshot::build(folded.database_arc(), Arc::new(w.graph), config);
        for (after, generation) in [(&logged, 1), (&folded, 2)] {
            assert_eq!(after.generation(), generation);
            assert_ne!(after.cache_fingerprint(), fp_before);
            for query in ["Zebulon", "Sara Guttinger", "wealthy customers"] {
                assert_eq!(
                    after.search(query).unwrap(),
                    fresh.search(query).unwrap(),
                    "generation {generation} diverged from a full build on '{query}'"
                );
            }
            assert!(!after.search("Zebulon").unwrap().is_empty());
        }
        assert!(folded.shards_with_side_logs().is_empty());
        // The old generation still serves its old view.
        assert!(before.search("Zebulon").unwrap().is_empty());
    }

    #[test]
    fn absorbed_serves_new_rows_without_touching_frozen_partitions() {
        let before = minibank(4);
        assert!(before.search("Streamville").unwrap().is_empty());

        let after = before.absorbed(address_feed(900, "Streamville")).unwrap();
        assert_eq!(after.generation(), 1);
        assert!(!after.search("Streamville").unwrap().is_empty());
        // The predecessor still serves its old view.
        assert!(before.search("Streamville").unwrap().is_empty());

        // No frozen partition was rebuilt: every shard Arc is shared.
        for (old, new) in before
            .inverted_index()
            .unwrap()
            .shards()
            .iter()
            .zip(after.inverted_index().unwrap().shards())
        {
            assert!(Arc::ptr_eq(old, new), "absorb must not rebuild partitions");
        }
        let owner = soda_relation::shard_for_table("addresses", 4);
        assert_eq!(after.shards_with_side_logs(), vec![owner]);
        assert_ne!(after.cache_fingerprint(), before.cache_fingerprint());

        // Byte-identical to a full rebuild over the absorbed database.
        let config = after.config().clone();
        let fresh = EngineSnapshot::build(after.database_arc(), after.graph_arc(), config);
        for query in ["Streamville", "Sara Guttinger", "wealthy customers"] {
            assert_eq!(
                after.search(query).unwrap(),
                fresh.search(query).unwrap(),
                "'{query}' diverged from full rebuild"
            );
        }
        assert!(after.shard_stats().log_postings[owner] > 0);

        // Side logs are copied on write: the owner's log is a new copy, every
        // other log is the previous generation's allocation — and so on for
        // a second feed into the same table.
        let logs =
            |snapshot: &EngineSnapshot| snapshot.inverted_index().unwrap().side_logs().to_vec();
        let copied_logs = |old: &EngineSnapshot, new: &EngineSnapshot| -> Vec<usize> {
            let pairs = logs(old).into_iter().zip(logs(new)).enumerate();
            pairs
                .filter(|(_, (o, n))| !Arc::ptr_eq(o, n))
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(copied_logs(&before, &after), vec![owner]);
        let again = after.absorbed(address_feed(901, "Streamtown")).unwrap();
        assert_eq!(again.generation(), 2);
        assert_eq!(copied_logs(&after, &again), vec![owner]);
        assert!(!again.search("Streamtown").unwrap().is_empty());
    }

    /// A result holds its tables and row numbers, not cells, so it must
    /// outlive the snapshot it ran on: a feed into a table whose tail is
    /// unsealed writes a chunk of its own (the tail is written only while no
    /// clone holds it), and the earlier result still reads its own rows.
    #[test]
    fn a_result_outlives_its_snapshot() {
        let before = minibank(1);
        let addresses = before.database().table("addresses").unwrap();
        assert!(addresses.tail_rows() > 0, "the tail is unsealed");
        let stmt = soda_relation::parse_select(
            "SELECT addresses.city, individuals.lastname FROM addresses, individuals \
             WHERE addresses.party_id = individuals.id",
        )
        .unwrap();
        let held = soda_relation::execute(before.database(), &stmt).unwrap();
        let expected = held.tuple_strings();

        let after = before.absorbed(address_feed(900, "Streamville")).unwrap();
        drop(before);
        assert_eq!(held.tuple_strings(), expected);
        let fresh = soda_relation::execute(after.database(), &stmt).unwrap();
        let mut seen = fresh.tuple_strings();
        assert!(seen
            .pop()
            .is_some_and(|row| row.starts_with("Streamville\t")));
        assert_eq!(
            seen, expected,
            "the new snapshot sees the old rows, then the new one"
        );
    }

    #[test]
    fn absorbed_shares_every_untouched_table_with_the_previous_database() {
        let before = minibank(4);
        let after = before.absorbed(address_feed(900, "Streamville")).unwrap();

        // Copy-on-write derive: only `addresses` was copied; every other
        // table of the new database is the *same allocation* as before.
        let table_count = before.database().table_count();
        assert_eq!(
            after.database().tables_shared_with(before.database()),
            table_count - 1
        );
        assert!(!Arc::ptr_eq(
            before.database().table_arc("addresses").unwrap(),
            after.database().table_arc("addresses").unwrap()
        ));
        for name in before.database().table_names() {
            if name != "addresses" {
                assert!(
                    Arc::ptr_eq(
                        before.database().table_arc(name).unwrap(),
                        after.database().table_arc(name).unwrap()
                    ),
                    "table '{name}' must be structurally shared across absorb"
                );
            }
        }
        // The shared-table database still answers like a full rebuild.
        let fresh = EngineSnapshot::build(
            after.database_arc(),
            after.graph_arc(),
            after.config().clone(),
        );
        assert_eq!(
            after.search("Streamville").unwrap(),
            fresh.search("Streamville").unwrap()
        );
    }

    #[test]
    fn compacted_folds_side_logs_without_changing_answers() {
        let logged = minibank(4)
            .absorbed(address_feed(900, "Streamville"))
            .unwrap();
        let owner = soda_relation::shard_for_table("addresses", 4);
        let expected = logged.search("Streamville").unwrap();
        assert!(!expected.is_empty());

        let (folded, shards) = logged.compacted(&[0, 1, 2, 3]).expect("a log to fold");
        assert_eq!((folded.generation(), shards), (2, vec![owner]));
        assert!(folded.shards_with_side_logs().is_empty());
        assert_eq!(folded.shard_stats().log_postings, vec![0; 4]);
        assert_eq!(folded.search("Streamville").unwrap(), expected);
        // Untouched partitions stay shared between the logged and the
        // folded generation.
        for (i, (old, new)) in logged
            .inverted_index()
            .unwrap()
            .shards()
            .iter()
            .zip(folded.inverted_index().unwrap().shards())
            .enumerate()
        {
            assert_eq!(Arc::ptr_eq(old, new), i != owner, "shard {i}");
        }

        // Nothing left to fold: no successor, so no generation is spent.
        assert!(folded.compacted(&[0, 1, 2, 3]).is_none());
    }

    #[test]
    fn a_rejected_feed_has_no_successor_and_leaves_no_generation_gap() {
        let before = minibank(2);
        let valid_then_unknown = ChangeFeed::new()
            .replace("addresses", Vec::new())
            .replace("no_such_dimension", Vec::new());
        for bad in [
            ChangeFeed::new().append_row("no_such_table", vec![]),
            // The first event is valid on its own: it must not escape either.
            valid_then_unknown,
        ] {
            assert!(before.absorbed(bad).is_err());
        }
        // The next accepted feed is the predecessor's direct successor.
        let next = before.absorbed(address_feed(901, "Gapless")).unwrap();
        assert_eq!(next.generation(), 1);
        assert!(!next.search("Gapless").unwrap().is_empty());
    }

    #[test]
    fn restored_relands_the_recorded_fingerprint() {
        let live = minibank(4)
            .absorbed(address_feed(900, "Streamville"))
            .unwrap();
        let expected_fp = live.cache_fingerprint();
        let answer = live.search("Streamville").unwrap();

        // A "rebooted" build over an equivalent snapshot starts at
        // generation 0 with a different fingerprint…
        let rebooted =
            EngineSnapshot::build(live.database_arc(), live.graph_arc(), live.config().clone());
        assert_ne!(rebooted.cache_fingerprint(), expected_fp);
        // …until the checkpoint's generation is restored.
        let restored = rebooted.restored(live.generation());
        assert_eq!(restored.generation(), live.generation());
        assert_eq!(restored.cache_fingerprint(), expected_fp);
        assert_eq!(restored.search("Streamville").unwrap(), answer);
        // The sequence continues densely after restoration.
        let next = restored.absorbed(address_feed(901, "Afterville")).unwrap();
        assert_eq!(next.generation(), live.generation() + 1);
    }

    #[test]
    fn refreshed_keeps_every_inverted_index_partition() {
        let before = minibank(4);
        // A refresh bumps the snapshot generation but rebuilds no
        // inverted-index partition: every one of them is the same allocation
        // as before.
        let after = before.refreshed(before.graph_arc());
        assert_eq!(after.generation(), 1);
        for (old, new) in before
            .inverted_index()
            .unwrap()
            .shards()
            .iter()
            .zip(after.inverted_index().unwrap().shards())
        {
            assert!(
                Arc::ptr_eq(old, new),
                "a refresh must not rebuild partitions"
            );
        }
        // Generation is folded into the fingerprint even when no partition
        // changed, so caches keyed on it can distinguish the publications.
        assert_ne!(after.cache_fingerprint(), before.cache_fingerprint());
        for query in ["wealthy customers", "Sara Guttinger", "customers Zurich"] {
            assert_eq!(
                after.search(query).unwrap(),
                before.search(query).unwrap(),
                "'{query}'"
            );
        }
    }

    #[test]
    fn data_only_swaps_share_the_compiled_join_catalog() {
        let built = minibank(4);
        let logged = built.absorbed(address_feed(900, "Streamville")).unwrap();
        let (folded, _) = logged.compacted(&[0, 1, 2, 3]).expect("a log to fold");
        for derived in [&logged, &folded] {
            assert!(std::ptr::eq(built.join_catalog(), derived.join_catalog()));
        }
    }

    #[test]
    fn refreshed_recompiles_the_entry_closures() {
        let w = soda_warehouse::minibank::build(42);
        let before = EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph.clone()),
            SodaConfig::default(),
        );
        let concept = w.graph.node("onto/private-customers").unwrap();
        let discovered = |snapshot: &EngineSnapshot| -> Vec<String> {
            let catalog = snapshot.join_catalog();
            let closure = catalog.entry_closure(concept);
            let names = closure.discovered.iter().map(|&t| catalog.table_name(t));
            names.map(|name| name.to_string()).collect()
        };
        assert_eq!(discovered(&before), ["individuals"]);
        let stale = before.search("private customers").unwrap();
        assert!(stale
            .iter()
            .all(|r| !r.tables.contains(&"addresses".into())));

        // The concept newly classifies a second table.
        let mut graph = w.graph;
        let addresses = graph.node("phys/addresses").unwrap();
        graph.add_edge(concept, "classifies", addresses);
        let after = before.refreshed(Arc::new(graph));
        assert!(!std::ptr::eq(before.join_catalog(), after.join_catalog()));
        assert_eq!(discovered(&after), ["individuals", "addresses"]);
        let fresh = after.search("private customers").unwrap();
        let joined = &fresh[0];
        assert!(
            joined.tables.contains(&"individuals".into())
                && joined.tables.contains(&"addresses".into()),
            "{:?}",
            joined.tables
        );
        assert!(joined.join_path_complete);
        assert!(
            joined.sql.contains("addresses.party_id = individuals.id"),
            "{}",
            joined.sql
        );
        // The predecessor keeps its own.
        assert_eq!(discovered(&before), ["individuals"]);
    }
}
