//! Every call into the program, one function per layer entry point.
//!
//! The first half is the surface the **untraced** runs (the end-to-end
//! numbers) go through: `enterprise::build_with_dimensions`,
//! `EngineSnapshot::build` / `execute`, `QueryService::start` / `recover` /
//! `query` / `admin` / `metrics` / `engine`, `QueryRequest::new`,
//! `JobHandle::is_ready` / `wait`, `TenantAdmin::ingest_owned` / `compact`,
//! `ResultSet::snippet` — none of the deprecated wrappers and none of the
//! `search_*` variants ROADMAP item 4 plans to merge, with one exception:
//! [`reference_page`], the correctness gate's oracle, which runs outside
//! every timed region.
//!
//! The second half is the adapter of the **traced** run: it reaches below
//! the service into `soda-core`'s query and pipeline modules.  A refactor of
//! those layers can break this half and nothing else.

use std::path::Path;
use std::sync::Arc;

use soda::core::pipeline::lookup::LookupResult;
use soda::core::pipeline::rank::Solution;
use soda::core::pipeline::tables::TablePlan;
use soda::core::pipeline::{self, PipelineContext};
use soda::core::{
    ChangeFeed, Database, EngineSnapshot, Interpretation, MetaGraph, NoopSink, ResultPage,
    ShardProbes, SodaConfig, SodaPatterns, SodaQuery, SodaResult, SpanId,
};
use soda::relation::{print_select, Expr, ResultSet, SelectStatement};
use soda::service::{
    DurabilityConfig, FsyncPolicy, JobHandle, QueryRequest, QueryService, SamplingConfig,
    ServiceConfig, ServiceMetrics, SloConfig,
};
use soda::warehouse::datagen;
use soda::warehouse::enterprise::{self, EnterpriseConfig};

use crate::gen::Literals;

// ---------------------------------------------------------------------------
// Inputs the program's own data modules define
// ---------------------------------------------------------------------------

/// The keywords of the 13 Table-2 queries, in the paper's order.
pub fn table2_keywords() -> Vec<String> {
    soda::eval::workload::workload()
        .into_iter()
        .map(|q| q.keywords.to_string())
        .collect()
}

/// The literal pools the warehouse generator draws its base data from.
pub fn literals() -> Literals {
    let owned = |pool: &[&str]| pool.iter().map(|s| s.to_string()).collect();
    Literals {
        given: owned(datagen::GIVEN_NAMES),
        family: owned(datagen::FAMILY_NAMES),
        organisations: owned(datagen::ORG_NAMES),
        agreements: owned(datagen::AGREEMENT_NAMES),
        currencies: datagen::CURRENCIES
            .iter()
            .map(|(code, _)| code.to_string())
            .collect(),
        products: owned(datagen::PRODUCT_NAMES),
        countries: owned(datagen::COUNTRIES),
        cities: owned(datagen::CITIES),
    }
}

/// `feeds` change feeds of `customers` onboarded private customers each
/// (one `party` + one `individual` row per customer), with party ids
/// continuing after `db`'s maximum across the whole series.
pub fn onboarding_feeds(
    db: &Database,
    seed: u64,
    feeds: usize,
    customers: usize,
) -> Vec<ChangeFeed> {
    // One delta for the whole series keeps the ids consecutive; its feed
    // form is one append event per row, `individual` rows first.
    let events = enterprise::data::onboarding_feed(db, seed, feeds * customers).into_events();
    let (individuals, parties) = events.split_at(feeds * customers);
    (0..feeds)
        .map(|i| {
            let mut feed = ChangeFeed::new();
            let rows = i * customers..(i + 1) * customers;
            for event in parties[rows.clone()].iter().chain(&individuals[rows]) {
                feed.push(event.clone());
            }
            feed
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The untraced surface
// ---------------------------------------------------------------------------

/// The paper's Table 1 schema complexity (472 tables, 3 181 columns) over
/// ≈ 48.7 k rows.  The warehouse seed is fixed: `--seed` varies the
/// questions asked, not the warehouse they are asked of.
pub fn build_warehouse() -> (Arc<Database>, Arc<MetaGraph>) {
    let warehouse = enterprise::build_with_dimensions(
        EnterpriseConfig {
            seed: 42,
            padding: true,
            data_scale: 8.0,
        },
        8.0,
    );
    (Arc::new(warehouse.database), Arc::new(warehouse.graph))
}

/// `shards` is always explicit: the default reads `SODA_TEST_SHARDS`.
fn engine_config(shards: usize) -> SodaConfig {
    SodaConfig {
        shards,
        ..SodaConfig::default()
    }
}

pub fn build_engine(
    db: Arc<Database>,
    graph: Arc<MetaGraph>,
    shards: usize,
) -> Arc<EngineSnapshot> {
    Arc::new(EngineSnapshot::build(db, graph, engine_config(shards)))
}

/// One worker: generator + worker = 2 threads = this box's `nproc`.
fn service_config(cache_capacity: Option<usize>) -> ServiceConfig {
    let config = ServiceConfig::default().workers(1);
    match cache_capacity {
        Some(capacity) => config.cache_capacity(capacity),
        None => config,
    }
}

pub fn start_service(engine: Arc<EngineSnapshot>, cache_capacity: Option<usize>) -> QueryService {
    QueryService::start(engine, service_config(cache_capacity))
}

/// Boots a durable service from `dir` (created and empty on first boot):
/// no cache persistence and no background compaction, so nothing runs on a
/// timer.  Returns the service and the number of journaled feeds replayed.
pub fn recover_service(
    db: Arc<Database>,
    graph: Arc<MetaGraph>,
    shards: usize,
    dir: &Path,
    fsync: FsyncPolicy,
) -> Result<(QueryService, u64), String> {
    let durability = DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync,
        persist_cache: false,
    };
    QueryService::recover(
        db,
        graph,
        engine_config(shards),
        service_config(None),
        durability,
    )
    .map(|(service, report)| (service, report.replayed_feeds))
    .map_err(|e| e.to_string())
}

#[inline]
pub fn query(service: &QueryService, input: &str) -> JobHandle {
    service.query(QueryRequest::new(input))
}

#[inline]
pub fn is_ready(handle: &JobHandle) -> bool {
    handle.is_ready()
}

#[inline]
pub fn wait(handle: JobHandle) -> Result<ResultPage, String> {
    handle
        .wait()
        .map(|response| response.page)
        .map_err(|e| e.to_string())
}

pub fn live_engine(service: &QueryService) -> Arc<EngineSnapshot> {
    service.engine()
}

/// The database the service currently answers from, ingested rows included.
pub fn live_database(service: &QueryService) -> Arc<Database> {
    service.engine().database_arc()
}

#[inline]
pub fn execute(engine: &EngineSnapshot, result: &SodaResult) -> Result<ResultSet, String> {
    engine.execute(result).map_err(|e| e.to_string())
}

/// The result page's snippet: the first 20 rows, rendered.
#[inline]
pub fn snippet(rows: &ResultSet) -> String {
    rows.snippet(20)
}

pub fn ingest(service: &QueryService, feed: ChangeFeed) -> Result<u64, String> {
    service
        .admin("default")
        .and_then(|admin| admin.ingest_owned(feed))
        .map_err(|e| e.to_string())
}

/// Folds every shard's side log back into its partition (and, on a durable
/// service, checkpoints the journal).
pub fn compact(service: &QueryService) -> Result<Option<u64>, String> {
    let due = service.engine().shards_with_side_logs();
    service
        .admin("default")
        .map(|admin| admin.compact(&due))
        .map_err(|e| e.to_string())
}

pub fn metrics(service: &QueryService) -> ServiceMetrics {
    service.metrics()
}

/// The correctness gate's oracle: the page the engine computes when asked
/// directly, with no service in between.
pub fn reference_page(engine: &EngineSnapshot, input: &str) -> Result<ResultPage, String> {
    engine.search_paged(input, 0, 10).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// The traced adapter
// ---------------------------------------------------------------------------

/// A service with default trace sampling and an SLO declared — the
/// observability a deployment might switch on by default.
pub fn start_observed_service(engine: Arc<EngineSnapshot>) -> QueryService {
    let config = service_config(None)
        .sampling(SamplingConfig::default())
        .slo(SloConfig::default());
    QueryService::start(engine, config)
}

#[inline]
pub fn normalize(input: &str) -> Result<String, String> {
    soda::core::normalize_query(input).map_err(|e| e.to_string())
}

#[inline]
pub fn parse(input: &str) -> Result<SodaQuery, String> {
    soda::core::parse_query(input).map_err(|e| e.to_string())
}

/// Total postings of the inverted index across shards.
pub fn index_postings(engine: &EngineSnapshot) -> usize {
    engine.shard_stats().index_postings.iter().sum()
}

/// Σ rows of the statement's FROM tables — what the executor has to look at.
pub fn from_table_rows(engine: &EngineSnapshot, result: &SodaResult) -> usize {
    result
        .statement
        .from
        .iter()
        .filter_map(|table| engine.database().table(&table.name).ok())
        .map(|table| table.row_count())
        .sum()
}

/// The five pipeline stages over one snapshot, callable one at a time.
///
/// Built from the snapshot's public accessors exactly as `EngineCore` builds
/// its own context, except that the probe counters and the sink are the
/// harness's (so driving the stages does not disturb the snapshot's
/// counters, and the program records no spans of its own).
pub struct Stages<'a> {
    engine: &'a EngineSnapshot,
    patterns: SodaPatterns,
    probes: ShardProbes,
}

impl<'a> Stages<'a> {
    pub fn new(engine: &'a EngineSnapshot) -> Self {
        Self {
            engine,
            patterns: SodaPatterns::default(),
            probes: ShardProbes::new(engine.shard_count()),
        }
    }

    fn context(&self) -> PipelineContext<'_> {
        PipelineContext {
            db: self.engine.database(),
            graph: self.engine.graph(),
            config: self.engine.config(),
            classification: self.engine.classification_index(),
            index: self.engine.inverted_index(),
            probes: &self.probes,
            recorder: None,
            sink: &NoopSink,
            patterns: &self.patterns,
            joins: self.engine.join_catalog(),
        }
    }

    /// Base-data probes the lookup stage has issued through this adapter.
    pub fn probes(&self) -> u64 {
        self.probes.total()
    }

    pub fn lookup(&self, query: &SodaQuery) -> LookupResult {
        pipeline::lookup::run(&self.context(), query, SpanId::NONE)
    }

    /// `results_wanted` is what a paged search asks for: one more than the
    /// page holds, so `has_next` is known.
    pub fn rank(&self, lookup: &LookupResult, results_wanted: usize) -> Vec<Solution> {
        let config = self.engine.config();
        pipeline::rank::enumerate_and_rank(
            lookup,
            &config.weights,
            config.top_n.max(results_wanted),
            1_000,
        )
    }

    pub fn tables(&self, solution: &Solution) -> TablePlan {
        pipeline::tables::run(&self.context(), solution)
    }

    /// The filter expressions and the notes the stage leaves for the user.
    pub fn filters(
        &self,
        solution: &Solution,
        plan: &mut TablePlan,
        lookup: &LookupResult,
    ) -> (Vec<Expr>, Vec<String>) {
        pipeline::filters::run(&self.context(), solution, plan, &lookup.constraints)
    }

    /// The statement and its printed SQL, or `None` for a plan without
    /// tables.
    pub fn sqlgen(
        &self,
        plan: &TablePlan,
        filters: &[Expr],
        lookup: &LookupResult,
    ) -> Option<(SelectStatement, String)> {
        let statement = pipeline::sqlgen::run(&self.context(), plan, filters, lookup)?;
        let sql = print_select(&statement);
        Some((statement, sql))
    }

    /// What the engine does after the five stages for every kept statement:
    /// wrap it with its score, tables, interpretation and notes.
    pub fn assemble(
        &self,
        solution: &Solution,
        plan: &TablePlan,
        statement: SelectStatement,
        sql: String,
        notes: Vec<String>,
    ) -> SodaResult {
        let graph = self.engine.graph();
        SodaResult {
            sql,
            statement,
            score: solution.score,
            tables: plan.tables.iter().cloned().collect(),
            interpretation: solution
                .entries
                .iter()
                .map(|entry| Interpretation {
                    phrase: entry.phrase.clone(),
                    provenance: entry.provenance,
                    entry_uri: graph.uri(entry.node).to_string(),
                })
                .collect(),
            join_path_complete: plan.join_path_complete,
            used_bridges: plan.used_bridges.clone(),
            notes,
        }
    }

    /// The first page of ten cut from the ranked results, as the engine
    /// cuts it (a copy of the slice).
    pub fn first_page(results: &[SodaResult]) -> ResultPage {
        let end = results.len().min(10);
        ResultPage {
            results: results[..end].to_vec(),
            page: 0,
            page_size: 10,
            total_results: results.len(),
            has_next: results.len() > end,
        }
    }
}
