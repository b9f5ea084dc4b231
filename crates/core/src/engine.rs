//! The SODA engine: ties the five pipeline steps together.
//!
//! An engine is constructed once per warehouse (it builds the inverted index
//! over the base data, the classification index over the metadata labels and
//! the join catalog) and then answers any number of keyword queries, each
//! returning a ranked list of executable SQL statements — the paper's "result
//! page" from which the business user picks.
//!
//! Two ownership modes exist:
//!
//! * [`SodaEngine`] borrows its [`Database`] and [`MetaGraph`] — the original
//!   one-shot shape, convenient for examples and experiments where the
//!   warehouse outlives the engine on the stack.
//! * [`EngineSnapshot`] owns them behind
//!   [`Arc`]s — the serving shape: `Send + Sync`, can outlive
//!   its builder and be shared across a worker pool (see the `soda-service`
//!   crate).  [`SodaEngine::into_shared`] converts the former into the latter
//!   without rebuilding the indexes.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use soda_metagraph::MetaGraph;
use soda_relation::{print_select, Database, ResultSet, ShardedInvertedIndex};
use soda_trace::{names, NoopSink, SpanId, TraceSink};

use crate::classification::ClassificationIndex;
use crate::config::SodaConfig;
use crate::error::Result;
use crate::feedback::FeedbackStore;
use crate::joins::JoinCatalog;
use crate::patterns::SodaPatterns;
use crate::pipeline::lookup::LookupResult;
use crate::pipeline::{filters, lookup, rank, sqlgen, tables, PipelineContext};
use crate::query::parse_query;
use crate::result::{Interpretation, QueryTrace, ResultPage, SodaResult, StepTimings};
use crate::shard::{ShardProbes, ShardStats};
use crate::snapshot::EngineSnapshot;
use crate::suggest::{suggest_for_term, TermSuggestion};

/// The built, immutable engine state: configuration plus every index the
/// pipeline consults.  It is deliberately independent of *how* the base data
/// and the metadata graph are owned, so the borrowed [`SodaEngine`] and the
/// owned [`EngineSnapshot`](crate::snapshot::EngineSnapshot) share one
/// implementation of the five-step pipeline.
///
/// Both indexes are partitioned into `config.shards` shards by stable hashes
/// (classification by phrase, inverted index by owning table); the lookup
/// step fans base-data probes out across the inverted-index shards and bumps
/// the per-shard [`ShardProbes`] counters.
///
/// Everything expensive sits behind [`Arc`]s (the index shards internally,
/// the join catalog and the probe counters here), so the hot-swap derive
/// paths ([`derive_with_rebuilt_tables`](Self::derive_with_rebuilt_tables),
/// [`derive_with_refreshed_graph`](Self::derive_with_refreshed_graph)) build
/// a next-generation core that shares every untouched structure with its
/// parent instead of copying it.
pub(crate) struct EngineCore {
    config: SodaConfig,
    patterns: SodaPatterns,
    classification: ClassificationIndex,
    index: Option<ShardedInvertedIndex>,
    joins: Arc<JoinCatalog>,
    probes: Arc<ShardProbes>,
    /// Per-shard index sizes, computed once at build: the indexes are
    /// immutable afterwards, and recounting postings on every metrics poll
    /// would be O(distinct tokens).
    sizes: ShardSizes,
}

/// Immutable per-shard size vectors of the built indexes (side-log gauges
/// included — the logs are immutable within one snapshot generation too).
#[derive(Clone)]
struct ShardSizes {
    classification_phrases: Vec<usize>,
    index_tokens: Vec<usize>,
    index_postings: Vec<usize>,
    log_postings: Vec<usize>,
    log_rows: Vec<usize>,
    log_masks: Vec<usize>,
}

impl ShardSizes {
    fn of(classification: &ClassificationIndex, index: Option<&ShardedInvertedIndex>) -> Self {
        let (index_tokens, index_postings, log_postings, log_rows, log_masks) = match index {
            Some(index) => (
                index.shards().iter().map(|s| s.token_count()).collect(),
                index.shards().iter().map(|s| s.posting_count()).collect(),
                index.side_log_postings(),
                index.side_log_rows(),
                index.side_log_masks(),
            ),
            None => (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()),
        };
        Self {
            classification_phrases: classification.shard_sizes(),
            index_tokens,
            index_postings,
            log_postings,
            log_rows,
            log_masks,
        }
    }
}

impl EngineCore {
    /// Builds the sharded classification index, the sharded inverted index
    /// (when enabled) and the join catalog for a warehouse.
    pub(crate) fn build(
        db: &Database,
        graph: &MetaGraph,
        config: SodaConfig,
        patterns: SodaPatterns,
    ) -> Self {
        let shards = config.shards.max(1);
        let classification = ClassificationIndex::build_sharded(graph, config.use_dbpedia, shards);
        let index = if config.use_inverted_index {
            Some(ShardedInvertedIndex::build_sharded(db, shards))
        } else {
            None
        };
        let joins = Arc::new(JoinCatalog::build(graph, &patterns, db));
        let sizes = ShardSizes::of(&classification, index.as_ref());
        Self {
            config,
            patterns,
            classification,
            index,
            joins,
            probes: Arc::new(ShardProbes::new(shards)),
            sizes,
        }
    }

    /// Derives a next-generation core for a database in which only `tables`
    /// changed: the inverted-index partitions owning those tables are rebuilt
    /// from `db`, everything else (classification, join catalog, probe
    /// counters, the untouched index partitions) is shared with `self`.
    /// Returns the derived core plus the rebuilt partition indexes, sorted.
    ///
    /// The join catalog reads the database only to resolve schema-level
    /// names, so a data-only delta cannot change it — which is what makes
    /// sharing it here sound.
    pub(crate) fn derive_with_rebuilt_tables(
        &self,
        db: &Database,
        tables: &[String],
    ) -> (Self, Vec<usize>) {
        let affected = self.shards_for_tables(tables);
        (self.derive_with_rebuilt_partitions(db, &affected), affected)
    }

    /// The partitions owning `tables`, sorted and deduplicated.
    pub(crate) fn shards_for_tables(&self, tables: &[String]) -> Vec<usize> {
        let shard_count = self.config.shards.max(1);
        let mut affected: Vec<usize> = tables
            .iter()
            .map(|t| soda_relation::shard_for_table(t, shard_count))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// Derives a next-generation core in which exactly the inverted-index
    /// partitions named by `affected` are rebuilt from `db` (folding — and
    /// clearing — their side logs); everything else is shared with `self`.
    /// This is both the tail of [`derive_with_rebuilt_tables`] and the whole
    /// of a side-log compaction, where `db` is the *current* database (its
    /// rows already include everything the logs index).
    /// A structurally identical core sharing every built structure with
    /// `self` — the indexes clone by `Arc` internally, so this is cheap.
    /// Used by recovery to restamp a snapshot's generation vector without
    /// rebuilding anything.
    pub(crate) fn share(&self) -> Self {
        Self {
            config: self.config.clone(),
            patterns: self.patterns.clone(),
            classification: self.classification.clone(),
            index: self.index.clone(),
            joins: Arc::clone(&self.joins),
            probes: Arc::clone(&self.probes),
            sizes: self.sizes.clone(),
        }
    }

    pub(crate) fn derive_with_rebuilt_partitions(&self, db: &Database, affected: &[usize]) -> Self {
        let index = self
            .index
            .as_ref()
            .map(|index| index.with_rebuilt_shards(db, affected));
        let sizes = ShardSizes::of(&self.classification, index.as_ref());
        Self {
            config: self.config.clone(),
            patterns: self.patterns.clone(),
            classification: self.classification.clone(),
            index,
            joins: Arc::clone(&self.joins),
            probes: Arc::clone(&self.probes),
            sizes,
        }
    }

    /// Derives a next-generation core that has absorbed a row-level change
    /// feed: the events are applied to a copy of `db` and their indexed
    /// consequences routed into per-shard side logs — **no frozen partition
    /// is rebuilt**, queries merge log and partition on the fly.  Returns
    /// the new database, the derived core and the ingest report (sizes plus
    /// touched shards).  With the inverted index disabled only the base data
    /// moves.
    ///
    /// The feed is consumed: appended rows move by value into the
    /// copy-on-write database derive, and the derive itself shares every
    /// table (and side log) the feed does not touch, so the cost is
    /// proportional to the delta, not the warehouse.
    pub(crate) fn derive_with_ingested(
        &self,
        db: &Database,
        feed: soda_ingest::ChangeFeed,
    ) -> soda_relation::Result<(Database, Self, soda_ingest::IngestReport)> {
        let ingestor = soda_ingest::Ingestor::new(self.config.shards.max(1));
        let mut next = db.clone();
        let (index, report) = match &self.index {
            Some(index) => {
                // Clone only the logs the feed will touch (the others get
                // cheap empty placeholders and are `Arc`-shared afterwards),
                // so an ingest never copies the accumulated overlays of
                // unrelated shards.
                let will_touch: Vec<usize> = self.shards_for_tables(&feed.tables());
                let mut logs: Vec<soda_relation::SideLog> = index
                    .side_logs()
                    .iter()
                    .enumerate()
                    .map(|(i, log)| {
                        if will_touch.contains(&i) {
                            (**log).clone()
                        } else {
                            soda_relation::SideLog::default()
                        }
                    })
                    .collect();
                let report = ingestor.absorb_feed(&mut next, &mut logs, feed)?;
                debug_assert_eq!(
                    report.touched_shards, will_touch,
                    "ingestor routing must agree with shards_for_tables"
                );
                let patches: Vec<(usize, soda_relation::SideLog)> = report
                    .touched_shards
                    .iter()
                    .map(|&shard| (shard, std::mem::take(&mut logs[shard])))
                    .collect();
                (Some(index.with_patched_side_logs(patches)), report)
            }
            None => {
                let report = ingestor.apply_feed(&mut next, feed)?;
                (None, report)
            }
        };
        let sizes = ShardSizes::of(&self.classification, index.as_ref());
        Ok((
            next,
            Self {
                config: self.config.clone(),
                patterns: self.patterns.clone(),
                classification: self.classification.clone(),
                index,
                joins: Arc::clone(&self.joins),
                probes: Arc::clone(&self.probes),
                sizes,
            },
            report,
        ))
    }

    /// The shards currently carrying a non-empty side log — compaction
    /// candidates.
    pub(crate) fn shards_with_side_logs(&self) -> Vec<usize> {
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

    /// Derives a next-generation core for a refreshed metadata graph over an
    /// unchanged database: the classification index is rebuilt but shares
    /// every partition whose content survived the refresh
    /// ([`ClassificationIndex::rebuild_shared`]), the join catalog is rebuilt
    /// (it is graph-derived), and the inverted index and probe counters are
    /// shared.  Returns the derived core plus the per-partition `changed`
    /// vector of the classification rebuild.
    pub(crate) fn derive_with_refreshed_graph(
        &self,
        db: &Database,
        graph: &MetaGraph,
    ) -> (Self, Vec<bool>) {
        let (classification, changed) = self
            .classification
            .rebuild_shared(graph, self.config.use_dbpedia);
        let joins = Arc::new(JoinCatalog::build(graph, &self.patterns, db));
        let sizes = ShardSizes::of(&classification, self.index.as_ref());
        (
            Self {
                config: self.config.clone(),
                patterns: self.patterns.clone(),
                classification,
                index: self.index.clone(),
                joins,
                probes: Arc::clone(&self.probes),
                sizes,
            },
            changed,
        )
    }

    pub(crate) fn config(&self) -> &SodaConfig {
        &self.config
    }

    pub(crate) fn join_catalog(&self) -> &JoinCatalog {
        &self.joins
    }

    pub(crate) fn classification_index(&self) -> &ClassificationIndex {
        &self.classification
    }

    pub(crate) fn inverted_index(&self) -> Option<&ShardedInvertedIndex> {
        self.index.as_ref()
    }

    /// Per-shard sizes of both indexes (precomputed at build) plus the live
    /// probe counters — cheap enough for every metrics poll.  The generation
    /// vector is zeroed here; [`EngineSnapshot`](crate::EngineSnapshot)
    /// overlays its own.
    pub(crate) fn shard_stats(&self) -> ShardStats {
        let shards = self.config.shards.max(1);
        ShardStats {
            shards,
            classification_phrases: self.sizes.classification_phrases.clone(),
            index_tokens: self.sizes.index_tokens.clone(),
            index_postings: self.sizes.index_postings.clone(),
            log_postings: self.sizes.log_postings.clone(),
            log_rows: self.sizes.log_rows.clone(),
            log_masks: self.sizes.log_masks.clone(),
            probes: self.probes.counts(),
            generations: vec![0; shards],
        }
    }

    fn context<'a>(
        &'a self,
        db: &'a Database,
        graph: &'a MetaGraph,
        recorder: Option<&'a crate::shard::ProbeRecorder>,
        sink: &'a dyn TraceSink,
    ) -> PipelineContext<'a> {
        PipelineContext {
            db,
            graph,
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

    /// Runs only Step 1 (lookup) for an input — exposed for benchmarks and
    /// diagnostics.
    pub(crate) fn lookup(
        &self,
        db: &Database,
        graph: &MetaGraph,
        input: &str,
    ) -> Result<LookupResult> {
        let ctx = self.context(db, graph, None, &NoopSink);
        let query = parse_query(input)?;
        Ok(lookup::run(&ctx, &query, SpanId::NONE))
    }

    pub(crate) fn search_paged(
        &self,
        db: &Database,
        graph: &MetaGraph,
        input: &str,
        page: usize,
        page_size: usize,
        recorder: Option<&crate::shard::ProbeRecorder>,
    ) -> Result<ResultPage> {
        self.search_paged_observed(db, graph, input, page, page_size, recorder, &NoopSink)
            .map(|(page, _)| page)
    }

    /// [`search_paged`](Self::search_paged) with the full observability
    /// surface: probe dependencies into `recorder`, spans into `sink`, and
    /// the per-stage timings returned alongside the page.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn search_paged_observed(
        &self,
        db: &Database,
        graph: &MetaGraph,
        input: &str,
        page: usize,
        page_size: usize,
        recorder: Option<&crate::shard::ProbeRecorder>,
        sink: &dyn TraceSink,
    ) -> Result<(ResultPage, StepTimings)> {
        let page_size = page_size.max(1);
        // `page` comes straight off a client request: every step saturates,
        // so a hostile page number yields an empty page, not an overflow.
        let needed = page
            .saturating_add(1)
            .saturating_mul(page_size)
            .saturating_add(1);
        let (results, trace) =
            self.search_limited_observed(db, graph, input, None, needed, recorder, sink)?;
        let total_results = results.len();
        let start = page.saturating_mul(page_size).min(total_results);
        let end = start.saturating_add(page_size).min(total_results);
        Ok((
            ResultPage {
                results: results[start..end].to_vec(),
                page,
                page_size,
                total_results,
                has_next: total_results > end,
            },
            trace.timings,
        ))
    }

    pub(crate) fn suggestions(
        &self,
        db: &Database,
        graph: &MetaGraph,
        input: &str,
    ) -> Result<Vec<TermSuggestion>> {
        let (_, trace) =
            self.search_limited(db, graph, input, None, self.config.max_results, None)?;
        Ok(trace
            .unmatched
            .iter()
            .map(|term| TermSuggestion {
                term: term.clone(),
                candidates: suggest_for_term(&self.classification, term, 5),
            })
            .filter(|s| !s.candidates.is_empty())
            .collect())
    }

    pub(crate) fn search_limited(
        &self,
        db: &Database,
        graph: &MetaGraph,
        input: &str,
        feedback: Option<&FeedbackStore>,
        max_results: usize,
        recorder: Option<&crate::shard::ProbeRecorder>,
    ) -> Result<(Vec<SodaResult>, QueryTrace)> {
        self.search_limited_observed(db, graph, input, feedback, max_results, recorder, &NoopSink)
    }

    /// The five-step pipeline with span reporting.  Stage durations are
    /// measured unconditionally (they always were — the per-query
    /// [`StepTimings`] predate the sink); span construction is guarded by
    /// [`TraceSink::enabled`], so the [`NoopSink`] path adds one virtual
    /// call per stage over the untraced pipeline.
    ///
    /// The lookup and rank stages run once and get live spans; tables,
    /// filters and SQL generation run once *per solution*, so their
    /// accumulated durations are reported as one aggregate span each after
    /// the loop ([`TraceSink::record_span`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn search_limited_observed(
        &self,
        db: &Database,
        graph: &MetaGraph,
        input: &str,
        feedback: Option<&FeedbackStore>,
        max_results: usize,
        recorder: Option<&crate::shard::ProbeRecorder>,
        sink: &dyn TraceSink,
    ) -> Result<(Vec<SodaResult>, QueryTrace)> {
        let ctx = self.context(db, graph, recorder, sink);
        let enabled = sink.enabled();
        let root = if enabled {
            let root = sink.begin_span(names::QUERY, SpanId::NONE);
            sink.annotate(root, "input", input.into());
            root
        } else {
            SpanId::NONE
        };
        let query = parse_query(input)?;
        let mut timings = StepTimings::default();

        // Step 1 — lookup.
        let t0 = Instant::now();
        let lookup_span = if enabled {
            sink.begin_span(names::LOOKUP, root)
        } else {
            SpanId::NONE
        };
        let lookup_result = lookup::run(&ctx, &query, lookup_span);
        if enabled {
            sink.annotate(lookup_span, "terms", lookup_result.matches.len().into());
            sink.annotate(lookup_span, "complexity", lookup_result.complexity().into());
            sink.end_span(lookup_span);
        }
        timings.lookup = t0.elapsed();

        // Step 2 — rank and top N.
        let t0 = Instant::now();
        let rank_span = if enabled {
            sink.begin_span(names::RANK, root)
        } else {
            SpanId::NONE
        };
        let solutions = rank::enumerate_and_rank_boosted(
            &lookup_result,
            &self.config.weights,
            self.config.top_n.max(max_results),
            1_000,
            |entry| {
                feedback
                    .map(|f| f.adjustment(&entry.phrase, graph.uri(entry.node)))
                    .unwrap_or(0.0)
            },
        );
        if enabled {
            sink.annotate(rank_span, "solutions", solutions.len().into());
            sink.end_span(rank_span);
        }
        timings.rank = t0.elapsed();

        let mut results: Vec<SodaResult> = Vec::new();
        let mut seen_sql: HashSet<String> = HashSet::new();

        for solution in &solutions {
            // Step 3 — tables and joins.
            let t0 = Instant::now();
            let mut plan = tables::run(&ctx, solution);
            timings.tables += t0.elapsed();

            // Step 4 — filters.
            let t0 = Instant::now();
            let (filter_exprs, notes) =
                filters::run(&ctx, solution, &mut plan, &lookup_result.constraints);
            timings.filters += t0.elapsed();

            // Step 5 — SQL.
            let t0 = Instant::now();
            let statement = sqlgen::run(&ctx, &plan, &filter_exprs, &lookup_result);
            timings.sql += t0.elapsed();

            let Some(statement) = statement else { continue };
            let sql = print_select(&statement);
            if !seen_sql.insert(sql.clone()) {
                continue;
            }
            results.push(SodaResult {
                sql,
                statement,
                score: solution.score,
                tables: plan.tables.iter().cloned().collect(),
                interpretation: solution
                    .entries
                    .iter()
                    .map(|e| Interpretation {
                        phrase: e.phrase.clone(),
                        provenance: e.provenance,
                        entry_uri: graph.uri(e.node).to_string(),
                    })
                    .collect(),
                join_path_complete: plan.join_path_complete,
                used_bridges: plan.used_bridges.clone(),
                notes,
            });
            if results.len() >= max_results {
                break;
            }
        }

        // Optional compactness re-ranking (BLINKS-inspired extension): among
        // interpretations, the ones that connect their entry points with fewer
        // tables and a complete join path are more likely to reflect the
        // user's intent, so they are promoted.  The paper's default ranking is
        // provenance-only, hence the flag.
        if self.config.compactness_rerank {
            for result in &mut results {
                let extra_tables = result.tables.len().saturating_sub(1) as f64;
                let incomplete = if result.join_path_complete { 0.0 } else { 0.5 };
                result.score /= 1.0 + 0.1 * extra_tables + incomplete;
            }
            results.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        if enabled {
            sink.record_span(
                names::TABLES,
                root,
                timings.tables,
                vec![("solutions", solutions.len().into())],
            );
            sink.record_span(names::FILTERS, root, timings.filters, Vec::new());
            sink.record_span(
                names::SQLGEN,
                root,
                timings.sql,
                vec![("results", results.len().into())],
            );
            sink.annotate(root, "results", results.len().into());
            sink.end_span(root);
        }

        let trace = QueryTrace {
            input: input.to_string(),
            complexity: lookup_result.complexity(),
            solutions: solutions.len(),
            results: results.len(),
            classification: lookup_result
                .matches
                .iter()
                .map(|m| {
                    (
                        m.phrase.clone(),
                        m.candidates.iter().map(|c| c.provenance).collect(),
                    )
                })
                .collect(),
            unmatched: lookup_result.unmatched.clone(),
            timings,
        };
        Ok((results, trace))
    }

    pub(crate) fn execute(&self, db: &Database, result: &SodaResult) -> Result<ResultSet> {
        Ok(soda_relation::execute(db, &result.statement)?)
    }

    pub(crate) fn snippet(&self, db: &Database, result: &SodaResult) -> Result<String> {
        let rs = self.execute(db, result)?;
        Ok(rs.snippet(self.config.snippet_rows))
    }
}

/// The SODA engine (borrowed form).
pub struct SodaEngine<'a> {
    db: &'a Database,
    graph: &'a MetaGraph,
    core: EngineCore,
}

impl<'a> SodaEngine<'a> {
    /// Builds an engine over a warehouse with the default patterns.
    pub fn new(db: &'a Database, graph: &'a MetaGraph, config: SodaConfig) -> Self {
        Self::with_patterns(db, graph, config, SodaPatterns::default())
    }

    /// Builds an engine with custom metadata-graph patterns (how SODA is
    /// ported to a warehouse with different modelling conventions).
    pub fn with_patterns(
        db: &'a Database,
        graph: &'a MetaGraph,
        config: SodaConfig,
        patterns: SodaPatterns,
    ) -> Self {
        let core = EngineCore::build(db, graph, config, patterns);
        Self { db, graph, core }
    }

    /// Converts this borrowed engine into an owned, shareable
    /// [`EngineSnapshot`] without rebuilding the classification index, the
    /// inverted index or the join catalog.
    ///
    /// The base data and the metadata graph are cloned once into
    /// [`Arc`]s; the resulting snapshot is `Send + Sync` and
    /// independent of the warehouse it was built from.
    pub fn into_shared(self) -> EngineSnapshot {
        EngineSnapshot::from_parts(
            Arc::new(self.db.clone()),
            Arc::new(self.graph.clone()),
            self.core,
        )
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

    /// Per-shard sizes and probe counts of the lookup layer.
    pub fn shard_stats(&self) -> ShardStats {
        self.core.shard_stats()
    }

    /// Runs only Step 1 (lookup) for an input: keyword segmentation plus the
    /// per-shard classification/base-data probes, without ranking or SQL
    /// generation.  This is what the `lookup_sharding` benchmark measures.
    pub fn lookup(&self, input: &str) -> Result<LookupResult> {
        self.core.lookup(self.db, self.graph, input)
    }

    /// Translates a keyword query into a ranked list of SQL statements.
    pub fn search(&self, input: &str) -> Result<Vec<SodaResult>> {
        self.search_traced(input).map(|(results, _)| results)
    }

    /// Like [`search`](Self::search) but also returns the pipeline trace
    /// (classification, complexity, step timings).
    pub fn search_traced(&self, input: &str) -> Result<(Vec<SodaResult>, QueryTrace)> {
        self.search_internal(input, None)
    }

    /// Like [`search`](Self::search) but folding accumulated relevance
    /// feedback (§6.3 — users like or dislike results) into the Step 2
    /// ranking: interpretation choices the user liked gain score, disliked
    /// ones lose it.
    pub fn search_with_feedback(
        &self,
        input: &str,
        feedback: &FeedbackStore,
    ) -> Result<Vec<SodaResult>> {
        self.search_internal(input, Some(feedback))
            .map(|(results, _)| results)
    }

    /// [`search_with_feedback`](Self::search_with_feedback) plus the trace.
    pub fn search_with_feedback_traced(
        &self,
        input: &str,
        feedback: &FeedbackStore,
    ) -> Result<(Vec<SodaResult>, QueryTrace)> {
        self.search_internal(input, Some(feedback))
    }

    /// One page of the ranked result list (the paper's "next result page"):
    /// page `0` returns the first `page_size` statements, page `1` the next
    /// ones, and so on.  The engine materialises up to
    /// `(page + 1) * page_size` statements for the request, independent of
    /// `config.max_results`.
    pub fn search_paged(&self, input: &str, page: usize, page_size: usize) -> Result<ResultPage> {
        self.core
            .search_paged(self.db, self.graph, input, page, page_size, None)
    }

    /// Reformulation suggestions for the input words the lookup step could not
    /// match anywhere (NaLIX-style feedback, §6.3): the closest metadata
    /// phrases per unmatched word.
    pub fn suggestions(&self, input: &str) -> Result<Vec<TermSuggestion>> {
        self.core.suggestions(self.db, self.graph, input)
    }

    fn search_internal(
        &self,
        input: &str,
        feedback: Option<&FeedbackStore>,
    ) -> Result<(Vec<SodaResult>, QueryTrace)> {
        self.core.search_limited(
            self.db,
            self.graph,
            input,
            feedback,
            self.core.config().max_results,
            None,
        )
    }

    /// Executes one generated statement against the base data (the paper
    /// executes the top 10 partially to produce result snippets; experiments
    /// execute them fully to compute precision and recall).
    pub fn execute(&self, result: &SodaResult) -> Result<ResultSet> {
        self.core.execute(self.db, result)
    }

    /// Executes a statement and renders the snippet of up to
    /// `config.snippet_rows` rows shown on the result page.
    pub fn snippet(&self, result: &SodaResult) -> Result<String> {
        self.core.snippet(self.db, result)
    }
}
