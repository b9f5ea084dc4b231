//! The query service: a bounded worker pool over per-tenant hot-swappable
//! [`EngineSnapshot`]s, with one shared LRU interpretation cache in front.
//!
//! ## Life of a query
//!
//! 1. [`QueryService::query`] resolves the request's tenant (the default
//!    tenant unless [`QueryRequest::tenant`] named another), canonicalizes
//!    the input ([`soda_core::normalize_query`]) and probes the cache under
//!    (normalized query, tenant-folded snapshot fingerprint, page
//!    coordinates).  A hit is answered immediately on the caller's thread —
//!    no queueing, no pipeline: under the store lock it stamps the slot and
//!    clones the cached page's `Arc`; the response's own copy of the page is
//!    made with the lock released.
//! 2. A miss becomes a job in the tenant's queue lane.  Admission control
//!    blocks the submitting thread while the lane is at its per-tenant
//!    quota or the whole queue is at capacity — backpressure instead of
//!    unbounded memory growth, and no tenant can squat the entire queue.
//! 3. A worker pops the next job round-robin across the tenant lanes, runs
//!    the five-step pipeline via [`EngineSnapshot::search_with`] — the
//!    only place the input is parsed; the front door just canonicalizes it —
//!    and shares the page it computed: one `Arc` goes into the cache, one to
//!    the caller's [`JobHandle`] and one to each coalesced waiter.
//!    [`JobHandle::wait`] turns it into the [`QueryResponse`]'s own page on
//!    the waiting thread.
//!
//! Concurrent misses on one key are **coalesced**: the first miss enqueues
//! the job and registers it in a pending-jobs map; every further submission
//! of the same key while that job is in flight just attaches a waiter to the
//! pending entry instead of enqueuing a duplicate, so N concurrent identical
//! cold queries execute the pipeline exactly once.  The cache probe, the
//! pending check and the completion hand-off happen under one lock, which is
//! never held across the pipeline itself — nor across a page copy: inside
//! the service a page is shared, and the one deep copy the by-value
//! [`QueryResponse::page`] costs is made per answer, outside every lock, by
//! the thread that receives it.
//!
//! ## Multi-tenant hosting
//!
//! One service hosts many tenants: the boot snapshot is the **default**
//! tenant, and [`QueryService::add_tenant`] registers further warehouses at
//! runtime (each wrapped in its own [`SnapshotHandle`], tracked by the
//! [`TenantRegistry`]).  All tenants share
//! the worker pool, the queue and the cache — isolation comes from keys and
//! quotas, not duplication:
//!
//! * Cache keys fold the tenant fingerprint into the snapshot fingerprint
//!   ([`soda_core::TenantId::fold`]); the fold is the identity for the
//!   default tenant, so a single-tenant service's cache keys are its
//!   snapshot fingerprints.
//! * The queue keeps one lane per tenant, scanned round-robin, with an
//!   admission quota of `ceil(capacity / tenants)` slots per tenant — a
//!   tenant flooding cold queries saturates its own lane and blocks *its
//!   own* submitters, while other tenants' warm hits (which never queue)
//!   and cold queries proceed.
//! * Mutations are tenant-scoped: [`QueryService::admin`] returns a
//!   [`TenantAdmin`] facade whose `reload` / `refresh_graph` /
//!   `ingest_owned` / `compact` / `clear_cache` touch exactly one tenant's
//!   snapshot and cached pages.
//!
//! ## Hot snapshot swapping
//!
//! Every submission pins the snapshot that is current *at submission time* —
//! the job carries that `Arc` to the worker, so a concurrent reload never
//! changes what an in-flight query computes; new submissions load the new
//! generation.  The cache key carries the tenant-folded
//! [`EngineSnapshot::cache_fingerprint`] (configuration ⊕ generation),
//! which also scopes the coalescing map: a pending cold query keyed
//! against generation G can only ever hand its page to waiters that also
//! pinned G — a post-swap requester computes a different key and recomputes
//! against the new snapshot.  No queries are drained, dropped or errored by
//! a swap.
//!
//! ## Changing base data
//!
//! Base data changes one way.  [`TenantAdmin::ingest_owned`] absorbs a
//! row-level change feed (appends, replacements, truncations) into a new
//! generation of that tenant's snapshot without rebuilding any index
//! partition: the events land in per-shard side logs that every probe
//! merges on the fly.  The logs grow until [`TenantAdmin::compact`] folds
//! them into rebuilt partitions; the service never folds on its own.
//! Data-only swaps (ingest, compaction) run a
//! *generation-aware retention* pass over the tenant's cached pages instead
//! of the wholesale purge: pages whose recorded probes provably never
//! consulted a dirty shard are re-keyed to the new fingerprint
//! ([`CacheStats::retained`](crate::CacheStats)), everything else of that
//! tenant's superseded generation is purged.  Other tenants' pages are
//! never touched.
//!
//! Shutdown is graceful: dropping the service stops intake, lets the
//! workers drain every queued job (resolving their coalesced waiters), then
//! joins them.
//!
//! ## Durable restart
//!
//! A service started through [`QueryService::recover`] with a
//! [`DurabilityConfig`] survives crashes: every ingest appends the feed to an
//! on-disk [`FeedJournal`](soda_journal::FeedJournal) *before* the engine
//! absorbs it (write-ahead), and every compaction / swap writes a
//! [`Checkpoint`](soda_journal::Checkpoint) that folds the replay prefix away,
//! so the journal stays bounded.  On the next boot, `recover` replays the
//! journal — checkpoint first, then the feeds appended after it — and restores
//! the recorded generation stamps, so the recovered engine serves
//! **byte-identical pages under the same cache fingerprints** as the instance
//! that died.  A torn tail (crash mid-append) is truncated; a journal written
//! under a different engine configuration is a hard error.
//!
//! Tenants registered on a durable service get their **own** journal under
//! `tenants/<name>-<fingerprint>/` ([`soda_journal::tenant_journal_dir`]),
//! header-stamped with the tenant fingerprint so one tenant's history can
//! never replay into another's snapshot; [`QueryService::add_tenant`]
//! replays it against the snapshot the caller hands in.
//!
//! On a *graceful* drain (dropping the service) the warm entries of the
//! interpretation cache are additionally serialized to a page-cache file,
//! which `recover` reloads — so the first repeated queries after a restart are
//! answered at warm-hit latency instead of re-running the pipeline.  The cache
//! file is best-effort: a stale, torn or foreign file is ignored (counted in
//! [`DurabilityMetrics::cache_pages_stale`](crate::DurabilityMetrics::cache_pages_stale)),
//! never an error.
//!
//! One caveat: the metadata **graph is not journaled** — `recover` (and
//! `add_tenant`) take the graph as part of the snapshot, so after a
//! [`TenantAdmin::refresh_graph`] the operator must hand the refreshed
//! graph to the next recovery.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use soda_core::{
    normalize_query, Database, EngineSnapshot, MetaGraph, ProbeDep, ResultPage, SearchOptions,
    SnapshotHandle, SodaConfig, StepTimings, TenantId,
};
use soda_journal::tenant_journal_dir;
use soda_trace::{
    names, BoundedLog, CollectingSink, HeadDecision, OpEvent, QueryTrace, SampleReason, SpanId,
    TraceSink, TraceValue,
};

use crate::admin::TenantAdmin;
use crate::cache::{CacheKey, LruCache};
use crate::config::{DurabilityConfig, ServiceConfig};
use crate::durability::{
    load_cache_pages, persist_cache_pages, recover_journal, DurabilityState, RecoveryBase,
    RecoveryReport,
};
use crate::metrics::LatencyRecorder;
use crate::queue::{Job, QueueState, Waiter};
use crate::request::{
    owned_page, JobHandle, JobResult, QueryRequest, QueryResponse, SampledTrace, ServiceError,
    WireResult,
};
use crate::slo::AlertState;
use crate::tenants::{TenantRegistry, TenantState};
use crate::worker::worker_loop;

/// Capacity of the operational-event log ([`QueryService::events`]).
const EVENT_LOG: usize = 256;

/// A cached result page together with what its query actually probed —
/// the evidence the retention pass (`admin.rs`) needs to carry the page
/// across a data-only snapshot swap instead of purging it.
#[derive(Debug)]
pub(crate) struct CachedPage {
    /// Shared with whoever is being answered from it right now: a hit
    /// clones the pointer under the store lock and copies the page outside.
    pub(crate) page: Arc<ResultPage>,
    /// The phrases the query probed and the probe tokens they selected.
    pub(crate) deps: Vec<ProbeDep>,
}

/// The cache and the pending-jobs map live under ONE mutex so that
/// probe-then-register is atomic: between a cache miss and the pending
/// registration no completion can slip through unobserved.
pub(crate) struct StoreState {
    pub(crate) cache: LruCache<CacheKey, CachedPage>,
    /// Keys with a job in flight (queued or executing), each with the
    /// waiters coalesced onto it.  An entry is created by the submission
    /// that enqueues the job and removed by the worker at completion (or by
    /// the submitter itself when shutdown aborts the enqueue).
    pub(crate) pending: HashMap<CacheKey, Vec<Waiter>>,
    /// Submissions that attached to an in-flight job instead of enqueuing.
    pub(crate) coalesced: u64,
}

/// Everything the submitting threads, the workers and the admin facades
/// share.  Facts counted per tenant (executions, swaps,
/// feeds, compactions, slow queries) live on each [`TenantState`] only —
/// tenants are never removed, so `metrics()` sums them.
pub(crate) struct Shared {
    /// Every hosted tenant — the default tenant (the boot snapshot) plus
    /// whatever [`QueryService::add_tenant`] registered.
    pub(crate) tenants: TenantRegistry,
    /// Streaming-ingestion lifetime counters, all tenants.
    pub(crate) ingest_events: AtomicU64,
    pub(crate) ingest_rows: AtomicU64,
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) not_empty: Condvar,
    pub(crate) not_full: Condvar,
    pub(crate) store: Mutex<StoreState>,
    /// Queue wait, execution and stage latency of executed queries; never
    /// locked on the cache-hit path.
    pub(crate) latency: Mutex<LatencyRecorder>,
    pub(crate) started: Instant,
    /// Operational history: swaps, ingests, compactions, checkpoints,
    /// recoveries and slow queries, newest [`EVENT_LOG`] retained.
    pub(crate) events: Mutex<BoundedLog<OpEvent>>,
    /// The durability configuration the service booted with (`None` for a
    /// non-durable service) — [`QueryService::add_tenant`] derives each new
    /// tenant's journal directory from it.  The per-tenant journal *state*
    /// lives on each [`TenantState`].
    pub(crate) durability_config: Option<DurabilityConfig>,
    /// Serializes [`QueryService::add_tenant`] end to end, so the duplicate
    /// / fingerprint-collision check and the journal recovery form one
    /// atomic episode — two racing registrations of the same id must never
    /// both hold a write handle to the same journal file.  Never taken on
    /// the query path.
    add_tenants: Mutex<()>,
    /// The configuration the service booted with — queue capacity and
    /// slow-query threshold are read off it, [`QueryService::add_tenant`]
    /// builds each new tenant's sampler and SLO window from it, and the SLO
    /// evaluation reads the latency objectives off it.
    pub(crate) config: ServiceConfig,
    /// Last observed state of each `(tenant, objective)` burn alert, so
    /// [`QueryService::alerts`] emits one `slo_burn` event per transition
    /// instead of one per poll.
    pub(crate) alert_states: Mutex<HashMap<(String, &'static str), AlertState>>,
}

impl Shared {
    /// Accounts a query answered without executing the pipeline — a cache
    /// hit or a coalesced waiter: the tenant's latency distribution and its
    /// SLO window.  Returns the end-to-end latency.
    pub(crate) fn account_unexecuted(
        &self,
        tenant: &TenantState,
        submitted: Instant,
        ok: bool,
    ) -> Duration {
        let e2e = submitted.elapsed();
        self.record_answered(tenant, e2e, ok);
        e2e
    }

    /// Accounts a submission answered from the cache at submission time,
    /// after making the response's own copy of the cached page — with the
    /// store lock released, and before the clock is read, so the recorded
    /// latency is the whole hit.
    fn account_hit(
        &self,
        tenant: &TenantState,
        page: Arc<ResultPage>,
        submitted: Instant,
    ) -> (ResultPage, Duration) {
        let page = owned_page(page);
        tenant.warm_hits.fetch_add(1, Ordering::Relaxed);
        (page, self.account_unexecuted(tenant, submitted, true))
    }

    /// Accounts an executed query: its queue-wait / execution split and
    /// per-stage timings, the tenant's latency distribution and its SLO
    /// window.
    pub(crate) fn account_executed(
        &self,
        tenant: &TenantState,
        e2e: Duration,
        (queue_wait, execution): (Duration, Duration),
        timings: Option<&StepTimings>,
        ok: bool,
    ) {
        self.latency
            .lock()
            .expect("latency recorder poisoned")
            .record_executed(queue_wait, execution, timings);
        self.record_answered(tenant, e2e, ok);
    }

    /// Records one answered query's end-to-end latency — once, on its
    /// tenant: the latency distribution and, when [`ServiceConfig::slo`] is
    /// on, the rolling SLO window.
    fn record_answered(&self, tenant: &TenantState, e2e: Duration, ok: bool) {
        tenant
            .e2e
            .lock()
            .expect("tenant latency recorder poisoned")
            .record(e2e);
        if let Some(slo) = &tenant.slo {
            slo.lock()
                .expect("slo window poisoned")
                .record(self.started.elapsed(), e2e, ok);
        }
    }

    /// Appends one operational event (stamped with its sequence number, the
    /// originating tenant and the offset from service start) to the bounded
    /// event log.
    pub(crate) fn event(&self, kind: &'static str, tenant: &TenantId, detail: String) {
        let at = self.started.elapsed();
        let mut events = self.events.lock().expect("event log poisoned");
        let seq = events.pushed() + 1;
        events.push(OpEvent {
            seq,
            at,
            kind,
            tenant: tenant.as_str().to_string(),
            detail,
        });
    }

    /// [`event`](Self::event) for a mutation of one tenant: the detail is
    /// suffixed with the tenant's name — except for the default tenant, so
    /// single-tenant operational logs read exactly as before the
    /// multi-tenant redesign.
    pub(crate) fn tenant_event(
        &self,
        kind: &'static str,
        tenant: &TenantState,
        mut detail: String,
    ) {
        if !tenant.id.is_default() {
            let _ = write!(detail, ", tenant {}", tenant.id);
        }
        self.event(kind, &tenant.id, detail);
    }

    /// The one decision on whether an answered query's trace is kept: the
    /// slow rule on the final end-to-end latency, then the head draw (`head`
    /// — made at submission for queued jobs, drawn here for cache hits).  A
    /// slow query is counted and raised as a `slow_query` event here and
    /// nowhere else — warm hits included, the end-to-end figure decides.
    /// A kept query lands the span tree `trace` yields, with its
    /// `(queue wait, execution)` split, in the tenant's bounded ring.
    pub(crate) fn sample(
        &self,
        tenant: &TenantState,
        head: Option<HeadDecision>,
        input: &str,
        e2e: Duration,
        (queue_wait, execution): (Duration, Duration),
        trace: impl FnOnce() -> Option<QueryTrace>,
    ) {
        let Some(kept) = &tenant.kept else {
            return;
        };
        let head = head.unwrap_or_else(|| kept.sampler.head_sample());
        let Some(reason) = kept.sampler.decide(head.sampled, e2e) else {
            return;
        };
        let Some(trace) = trace() else {
            return;
        };
        if reason == SampleReason::TailSlow {
            tenant.slow_queries.fetch_add(1, Ordering::Relaxed);
            self.event(
                "slow_query",
                &tenant.id,
                format!("{e2e:?} end-to-end: {input}"),
            );
        }
        kept.total.fetch_add(1, Ordering::Relaxed);
        kept.ring
            .lock()
            .expect("sampled-trace ring poisoned")
            .push(SampledTrace {
                tenant: tenant.id.clone(),
                trace_id: head.trace_id.to_string(),
                input: input.to_string(),
                reason: reason.as_str(),
                total: e2e,
                queue_wait,
                execution,
                trace,
            });
    }
}

/// Synthesizes the span tree of a warm cache hit: a `query` root holding a
/// single [`names::CACHE_HIT`] event — what a sampled (or traced) request
/// records when the page is served from the cache instead of re-running
/// the pipeline.
pub(crate) fn cache_hit_trace(input: &str, e2e: Duration) -> QueryTrace {
    let sink = CollectingSink::new();
    let root = sink.begin_span(names::QUERY, SpanId::NONE);
    sink.event(
        names::CACHE_HIT,
        root,
        vec![
            ("input", TraceValue::from(input)),
            (
                "e2e_us",
                TraceValue::from(u64::try_from(e2e.as_micros()).unwrap_or(u64::MAX)),
            ),
        ],
    );
    sink.end_span(root);
    sink.finish()
}

/// A long-lived, thread-safe, multi-tenant SODA query service.
///
/// ```
/// use std::sync::Arc;
/// use soda_core::{EngineSnapshot, SodaConfig};
/// use soda_service::{QueryRequest, QueryService, ServiceConfig};
///
/// let warehouse = soda_warehouse::minibank::build(42);
/// let snapshot = EngineSnapshot::build(
///     Arc::new(warehouse.database),
///     Arc::new(warehouse.graph),
///     SodaConfig::default(),
/// );
/// let service = QueryService::start(Arc::new(snapshot), ServiceConfig::default());
///
/// let response = service.query(QueryRequest::new("Sara Guttinger")).wait().unwrap();
/// assert!(!response.page.results.is_empty());
///
/// // The repeat is answered from the cache.
/// let again = service.query(QueryRequest::new("sara   guttinger")).wait().unwrap();
/// assert_eq!(response.page, again.page);
/// assert_eq!(service.metrics().cache.hits, 1);
/// ```
pub struct QueryService {
    pub(crate) shared: Arc<Shared>,
    pub(crate) workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Starts the worker pool over a shared engine snapshot, which becomes
    /// the **default tenant**'s warehouse (wrapped in a [`SnapshotHandle`]
    /// internally, so it can be reloaded later without restarting the
    /// pool).  Further tenants join through
    /// [`add_tenant`](Self::add_tenant).
    ///
    /// Process-wide side effect, here and in [`recover`](Self::recover): on
    /// glibc the first service started raises the allocator's trim threshold
    /// (see `heap.rs`), so freed memory stays with the process.
    pub fn start(engine: Arc<EngineSnapshot>, config: ServiceConfig) -> Self {
        Self::start_with(SnapshotHandle::new(engine), config, None)
    }

    /// The constructor shared by [`start`](Self::start) and
    /// [`recover`](Self::recover): wraps an already-prepared handle (recovery
    /// restores generation stamps and replays feeds before any worker
    /// exists) and spawns the pool.
    fn start_with(
        handle: SnapshotHandle,
        config: ServiceConfig,
        durability: Option<(DurabilityState, DurabilityConfig)>,
    ) -> Self {
        crate::heap::retain_freed_heap();
        let (state, durability_config) = durability.unzip();
        let default = Arc::new(TenantState::new(
            TenantId::default(),
            handle,
            state,
            &config,
        ));
        let shared = Arc::new(Shared {
            tenants: TenantRegistry::new(default),
            ingest_events: AtomicU64::new(0),
            ingest_rows: AtomicU64::new(0),
            queue: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            store: Mutex::new(StoreState {
                cache: LruCache::new(config.cache_capacity),
                pending: HashMap::new(),
                coalesced: 0,
            }),
            latency: Mutex::new(LatencyRecorder::new()),
            started: Instant::now(),
            events: Mutex::new(BoundedLog::new(EVENT_LOG)),
            durability_config,
            add_tenants: Mutex::new(()),
            config: config.clone(),
            alert_states: Mutex::new(HashMap::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("soda-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn service worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Boots a **durable** service from the journal under
    /// [`DurabilityConfig::dir`], creating it when missing — this is both
    /// the first-boot and the post-crash entry point.  The recovered
    /// snapshot becomes the default tenant; tenants registered through
    /// [`add_tenant`](Self::add_tenant) recover from their own journals at
    /// registration time.
    ///
    /// `base_db` and `graph` must be the warehouse and metadata graph the
    /// journaled history started from (the graph is *not* journaled; after a
    /// [`TenantAdmin::refresh_graph`] pass the refreshed one).
    /// Recovery then replays the journal: the latest checkpoint's table
    /// contents are applied over `base_db` and its generation stamps are
    /// restored, every feed appended after it is re-absorbed in order, and —
    /// because absorbed state answers identically to a rebuild over the same
    /// rows — the recovered engine serves byte-identical pages under the
    /// same cache fingerprints as the instance that died.  Warm pages
    /// persisted by a graceful drain are reloaded into the cache when they
    /// still match.  The replay's side logs stay in place until
    /// [`TenantAdmin::compact`] folds them.
    ///
    /// Errors are [`ServiceError::Durability`] for journal I/O, decode or
    /// checkpoint-apply failures — including a journal written under a
    /// different engine configuration, which must not be silently dropped —
    /// and [`ServiceError::Engine`] for malformed generation stamps.  A
    /// torn journal tail and any page-cache problem are *not* errors: the
    /// tail is truncated and the cache file ignored, both reported in the
    /// [`RecoveryReport`].
    pub fn recover(
        base_db: Arc<Database>,
        graph: Arc<MetaGraph>,
        config: SodaConfig,
        service: ServiceConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let (handle, mut state) = recover_journal(
            &durability.dir,
            &TenantId::default(),
            durability.fsync,
            RecoveryBase::Warehouse(base_db, graph, config),
        )?;
        let live = handle.load().cache_fingerprint();
        let restored = load_cache_pages(&durability, &mut state, live);
        let report = state.recovery.clone();
        let service = Self::start_with(handle, service, Some((state, durability)));
        {
            // The file was written oldest-first, so sequential re-insertion
            // reproduces the drained cache's recency order.
            let mut store = service.shared.store.lock().expect("store poisoned");
            for (key, entry) in restored {
                store.cache.insert(key, entry);
            }
        }
        service.shared.event(
            "recovery",
            &TenantId::default(),
            format!(
                "checkpoint {}, {} feeds replayed, {} rejected, {} bytes truncated, \
                 {} pages restored",
                if report.checkpoint_applied {
                    "applied"
                } else {
                    "absent"
                },
                report.replayed_feeds,
                report.rejected_feeds,
                report.truncated_bytes,
                report.cache_pages_restored,
            ),
        );
        Ok((service, report))
    }

    /// Registers a new tenant: `engine` becomes what queries routed via
    /// [`QueryRequest::tenant`] are answered from.  The tenant gets its own
    /// [`SnapshotHandle`] (so its reloads and ingests never block another
    /// tenant's), its own queue lane and quota, and — on a durable service —
    /// its own write-ahead journal under `tenants/<name>-<fingerprint>/`,
    /// which is replayed over `engine` right here (so a re-registered
    /// tenant resumes exactly where its journaled history left off).
    ///
    /// Rejects the default id with [`ServiceError::TenantExists`] (the
    /// default tenant always exists), any already-registered id, and an id
    /// whose fingerprint collides with a hosted tenant's
    /// ([`ServiceError::TenantFingerprintCollision`] — fingerprints are the
    /// isolation boundary for cache keys, queue lanes and journal
    /// directories, so a collision must never be hosted).
    pub fn add_tenant(
        &self,
        id: impl Into<TenantId>,
        engine: Arc<EngineSnapshot>,
    ) -> Result<(), ServiceError> {
        let id = id.into();
        // One registration at a time: the validation below and the journal
        // recovery must be atomic, or two racing calls with the same id
        // would both open (and possibly truncate/replay) the same journal
        // file before `register` rejects the loser.
        let _adding = self
            .shared
            .add_tenants
            .lock()
            .expect("tenant registration lock poisoned");
        if id.is_default() {
            return Err(ServiceError::TenantExists(id.as_str().to_string()));
        }
        // Validate *before* the journal side effects — a rejected tenant
        // (duplicate or fingerprint collision) must not create or replay
        // any journal directory.  In particular, a named tenant whose
        // fingerprint collides with `0` would otherwise map onto the
        // default tenant's top-level journal.
        self.shared.tenants.validate_new(&id)?;
        let (handle, durability) = match &self.shared.durability_config {
            Some(config) => {
                let dir = tenant_journal_dir(&config.dir, id.as_str(), id.fingerprint());
                let (handle, state) =
                    recover_journal(&dir, &id, config.fsync, RecoveryBase::Engine(engine))?;
                (handle, Some(state))
            }
            None => (SnapshotHandle::new(engine), None),
        };
        let replayed = durability.as_ref().map_or(0, |d| d.recovery.replayed_feeds);
        let tenant = Arc::new(TenantState::new(
            id,
            handle,
            durability,
            &self.shared.config,
        ));
        self.shared.tenants.register(Arc::clone(&tenant))?;
        self.shared.event(
            "add_tenant",
            &tenant.id,
            format!("tenant {}, {replayed} feeds replayed", tenant.id),
        );
        Ok(())
    }

    /// The ids of every hosted tenant, the default tenant first.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.shared
            .tenants
            .all()
            .iter()
            .map(|t| t.id.clone())
            .collect()
    }

    /// The administration facade for one tenant — every mutation of what
    /// that tenant serves (`reload`, `refresh_graph`, `ingest_owned`,
    /// `compact`, `clear_cache`) lives on the
    /// returned [`TenantAdmin`], scoped to exactly that tenant.
    pub fn admin(&self, tenant: impl Into<TenantId>) -> Result<TenantAdmin<'_>, ServiceError> {
        Ok(TenantAdmin {
            shared: &self.shared,
            tenant: self.shared.tenants.resolve(&tenant.into())?,
        })
    }

    /// Submits one query — the single request surface of the service.
    ///
    /// The request's tenant (default unless [`QueryRequest::tenant`] named
    /// another) is resolved first; an unknown tenant resolves the handle
    /// immediately with [`ServiceError::UnknownTenant`], a malformed input
    /// with the parse error.  Every request then probes the cache and
    /// returns a resolved handle on a hit.  On a miss, a
    /// [`traced`](QueryRequest::traced) request runs the pipeline on the
    /// calling thread — never queued, never coalesced — and returns a
    /// resolved handle whose response carries the span tree; an untraced
    /// one coalesces onto an identical in-flight job when one exists, and
    /// otherwise enqueues the job in the tenant's lane, blocking while the
    /// lane is at its admission quota or the queue at capacity
    /// (backpressure).
    pub fn query(&self, request: QueryRequest) -> JobHandle {
        let submitted = Instant::now();
        let (tenant, engine, key) = match self.pin(&request) {
            Ok(pinned) => pinned,
            Err(e) => return JobHandle::ready(Err(e)),
        };
        if request.traced {
            return JobHandle::ready(self.run_traced(&tenant, &request, &engine, &key, submitted));
        }

        // One critical section decides the submission's fate: cache hit,
        // coalesce onto an in-flight job, or become the job that computes.
        // Bind the outcome before accounting it — holding the store guard
        // while recording would nest locks that `metrics()` takes in
        // another order.
        enum Probe {
            Hit(Arc<ResultPage>),
            Coalesced(mpsc::Receiver<WireResult>),
            Compute,
        }
        let probe = {
            let mut store = self.shared.store.lock().expect("store poisoned");
            if let Some(entry) = store.cache.get(&key) {
                Probe::Hit(Arc::clone(&entry.page))
            } else if let Some(waiters) = store.pending.get_mut(&key) {
                let (tx, rx) = mpsc::channel();
                waiters.push(Waiter { submitted, tx });
                store.coalesced += 1;
                Probe::Coalesced(rx)
            } else {
                store.pending.insert(key.clone(), Vec::new());
                Probe::Compute
            }
        };
        match probe {
            Probe::Hit(page) => {
                let (page, e2e) = self.shared.account_hit(&tenant, page, submitted);
                // The sampler sees warm hits too — always-on sampling covers
                // the *normal* serving path, not just pipeline executions.
                // A kept hit records a synthesized `cache_hit` span tree.
                let trace = || Some(cache_hit_trace(&request.input, e2e));
                let unqueued = (Duration::ZERO, Duration::ZERO);
                self.shared
                    .sample(&tenant, None, &request.input, e2e, unqueued, trace);
                return JobHandle::ready(Ok(QueryResponse::untraced(page)));
            }
            Probe::Coalesced(rx) => return JobHandle::pending(rx),
            Probe::Compute => {}
        }

        let (tx, rx) = mpsc::channel();
        let job = Job {
            key: key.clone(),
            input: request.input,
            engine,
            head: tenant.kept.as_ref().map(|k| k.sampler.head_sample()),
            tenant,
            submitted,
            tx,
        };
        if !self.shared.admit(job) {
            // The job will never run: withdraw the pending entry and resolve
            // any waiters that coalesced onto it in the meantime.
            let waiters = {
                let mut store = self.shared.store.lock().expect("store poisoned");
                store.pending.remove(&key).unwrap_or_default()
            };
            for waiter in waiters {
                let _ = waiter.tx.send(Err(ServiceError::ShuttingDown));
            }
            return JobHandle::ready(Err(ServiceError::ShuttingDown));
        }
        JobHandle::pending(rx)
    }

    /// The one front half of every submission: resolves the tenant,
    /// canonicalizes the input (a malformed input fails identically whether
    /// or not some page happens to be warm) and pins the tenant's current
    /// snapshot.  The key carries the snapshot's tenant-folded fingerprint,
    /// so hits and coalescing stay within one tenant and one generation;
    /// the caller keeps the `Arc`, so whatever computes the page computes
    /// against the generation the key names.
    fn pin(
        &self,
        request: &QueryRequest,
    ) -> Result<(Arc<TenantState>, Arc<EngineSnapshot>, CacheKey), ServiceError> {
        let tenant = self.shared.tenants.resolve(&request.tenant)?;
        let normalized = normalize_query(&request.input).map_err(ServiceError::Engine)?;
        let engine = tenant.handle.load();
        let key = CacheKey {
            normalized: normalized.into(),
            snapshot_fingerprint: tenant.id.fold(engine.cache_fingerprint()),
            page: request.page,
            page_size: request.page_size.max(1),
        };
        Ok((tenant, engine, key))
    }

    /// The traced answer behind [`query`](Self::query): probes the cache
    /// like any untraced submission — a warm page is served as a cache hit
    /// whose trace is a synthesized `cache_hit` root, exactly what the
    /// untraced path would have answered — and a miss runs the pipeline on
    /// the caller's thread through a [`CollectingSink`] (counted as a
    /// pipeline execution; the page is not cached, so no probe
    /// dependencies are recorded).  The served page is byte-identical to
    /// the untraced answer either way — tracing never changes an answer.
    fn run_traced(
        &self,
        tenant: &TenantState,
        request: &QueryRequest,
        engine: &EngineSnapshot,
        key: &CacheKey,
        submitted: Instant,
    ) -> JobResult {
        let cached = self
            .shared
            .store
            .lock()
            .expect("store poisoned")
            .cache
            .get(key)
            .map(|entry| Arc::clone(&entry.page));
        if let Some(page) = cached {
            let (page, e2e) = self.shared.account_hit(tenant, page, submitted);
            return Ok(QueryResponse {
                page,
                trace: Some(cache_hit_trace(&request.input, e2e)),
            });
        }
        let sink = CollectingSink::new();
        let options = SearchOptions {
            sink: &sink,
            ..SearchOptions::page(request.page, request.page_size)
        };
        let found = engine
            .search_with(&request.input, &options)
            .map_err(ServiceError::Engine)?;
        let e2e = submitted.elapsed();
        tenant.executions.fetch_add(1, Ordering::Relaxed);
        let timings = Some(&found.trace.timings);
        self.shared
            .account_executed(tenant, e2e, (Duration::ZERO, e2e), timings, true);
        Ok(QueryResponse {
            page: found.page,
            trace: Some(sink.finish()),
        })
    }

    /// Jobs currently waiting in the queue, all tenant lanes combined.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue poisoned").total
    }

    /// The engine snapshot the **default tenant** currently serves.  A
    /// subsequent reload does not invalidate the returned `Arc`; it just
    /// stops being what new submissions see.  Other tenants' snapshots are
    /// reached through [`admin`](Self::admin).
    pub fn engine(&self) -> Arc<EngineSnapshot> {
        self.shared.tenants.default_tenant().handle.load()
    }

    /// Generation of the snapshot the default tenant currently serves.
    pub fn generation(&self) -> u64 {
        self.shared.tenants.default_tenant().handle.generation()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        {
            let mut state = self.shared.queue.lock().expect("queue poisoned");
            state.shutdown = true;
        }
        // Wake every waiter: workers drain the remaining jobs and exit;
        // blocked submitters observe the shutdown flag and bail out.
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        persist_cache_pages(&self.shared);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use soda_core::{ChangeFeed, SodaConfig, SodaError};

    fn assert_send_sync<T: Send + Sync>() {}

    pub(crate) fn admin(service: &QueryService) -> TenantAdmin<'_> {
        service
            .admin(TenantId::default())
            .expect("the default tenant always exists")
    }

    pub(crate) fn minibank_service(config: ServiceConfig) -> QueryService {
        let w = soda_warehouse::minibank::build(42);
        let snapshot = EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        );
        QueryService::start(Arc::new(snapshot), config)
    }

    pub(crate) fn address_feed(id: i64, city: &str) -> ChangeFeed {
        ChangeFeed::new().append_row(
            "addresses",
            vec![
                soda_core::Value::Int(id),
                soda_core::Value::Int(1),
                soda_core::Value::from("Stream Lane 1"),
                soda_core::Value::from(city),
                soda_core::Value::from("Switzerland"),
            ],
        )
    }

    #[test]
    fn service_is_send_and_sync() {
        assert_send_sync::<QueryService>();
        assert_send_sync::<ServiceConfig>();
    }

    #[test]
    fn serves_the_same_page_as_the_engine() {
        let service = minibank_service(ServiceConfig::default());
        let direct = service
            .engine()
            .search_paged("Sara Guttinger", 0, 10)
            .unwrap();
        let served = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(direct, served.page);
    }

    #[test]
    fn equivalent_spellings_share_one_cache_slot() {
        let service = minibank_service(ServiceConfig::default());
        let first = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let second = service
            .query(QueryRequest::new("  sara   GUTTINGER "))
            .wait()
            .unwrap();
        assert_eq!(first, second);
        let stats = service.metrics().cache;
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn pages_are_cached_independently() {
        let service = minibank_service(ServiceConfig::default());
        let p0 = service
            .query(QueryRequest::new("customers").page_size(2))
            .wait()
            .unwrap()
            .page;
        let p1 = service
            .query(QueryRequest::new("customers").page(1).page_size(2))
            .wait()
            .unwrap()
            .page;
        assert_eq!(p0.page, 0);
        assert_eq!(p1.page, 1);
        assert_ne!(p0.results, p1.results);
        assert_eq!(service.metrics().cache.len, 2);
    }

    #[test]
    fn parse_errors_resolve_immediately() {
        let service = minibank_service(ServiceConfig::default());
        let handle = service.query(QueryRequest::new("   "));
        assert!(handle.is_ready());
        match handle.wait() {
            Err(ServiceError::Engine(SodaError::EmptyQuery)) => {}
            other => panic!("expected EmptyQuery, got {other:?}"),
        }
    }

    #[test]
    fn batch_preserves_request_order() {
        let service = minibank_service(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        });
        let queries = ["Sara Guttinger", "wealthy customers", "customers"];
        let expected: Vec<ResultPage> = queries
            .iter()
            .map(|q| service.engine().search_paged(q, 0, 10).unwrap())
            .collect();
        let handles: Vec<JobHandle> = queries
            .iter()
            .map(|q| service.query(QueryRequest::new(*q)))
            .collect();
        let got: Vec<JobResult> = handles.into_iter().map(JobHandle::wait).collect();
        for (want, got) in expected.iter().zip(&got) {
            assert_eq!(want, &got.as_ref().unwrap().page);
        }
    }

    #[test]
    fn concurrent_clients_get_consistent_answers() {
        let service = minibank_service(ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            cache_capacity: 64,
            ..ServiceConfig::default()
        });
        let queries = ["Sara Guttinger", "wealthy customers", "customers"];
        let expected: Vec<ResultPage> = queries
            .iter()
            .map(|q| service.engine().search_paged(q, 0, 10).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for (query, want) in queries.iter().zip(&expected) {
                        let got = service
                            .query(QueryRequest::new(*query))
                            .wait()
                            .unwrap()
                            .page;
                        assert_eq!(&got, want);
                    }
                });
            }
        });
        assert_eq!(service.metrics().completed, 8 * 3);
    }

    #[test]
    fn concurrent_identical_cold_queries_execute_the_pipeline_once() {
        let service = minibank_service(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 16,
            ..ServiceConfig::default()
        });
        // Two distinct cold queries occupy the single worker so the identical
        // submissions below all land while their key is still in flight.
        let blockers = [
            service.query(QueryRequest::new("wealthy customers")),
            service.query(QueryRequest::new("customers Zurich")),
        ];

        const CLIENTS: usize = 8;
        let query = "Sara Guttinger";
        let pages: Vec<ResultPage> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| service.query(QueryRequest::new(query)).wait().unwrap().page)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for blocker in blockers {
            blocker.wait().unwrap();
        }

        for page in &pages {
            assert_eq!(page, &pages[0]);
        }
        let m = service.metrics();
        // Two blockers plus exactly ONE execution for the identical batch —
        // whether a client coalesced or arrived late enough for a cache hit.
        assert_eq!(m.pipeline_executions, 3);
        assert_eq!(
            m.coalesced + m.cache.hits,
            (CLIENTS - 1) as u64,
            "every duplicate must be served without recomputation: {m:?}"
        );
        assert_eq!(m.completed, (CLIENTS + 2) as u64);
    }

    #[test]
    fn coalesced_and_computing_submissions_get_equal_pages() {
        let service = minibank_service(ServiceConfig::default().workers(1));
        let shared = &service.shared;
        let (tenant, engine, key) = service.pin(&QueryRequest::new("customers")).unwrap();
        // Register the computing submission's pending entry but hold its job
        // back, so the duplicates below find the key in flight whatever the
        // scheduler does.
        let mut store = shared.store.lock().unwrap();
        store.pending.insert(key.clone(), Vec::new());
        drop(store);
        let duplicates = ["customers", "  CUSTOMERS  ", "Customers"];
        let waiters = duplicates.map(|q| service.query(QueryRequest::new(q)));
        assert!(waiters.iter().all(|handle| !handle.is_ready()));
        let (tx, rx) = mpsc::channel();
        assert!(shared.admit(Job {
            key: key.clone(),
            input: "customers".to_string(),
            engine,
            head: None,
            tenant,
            submitted: Instant::now(),
            tx,
        }));
        let computed = JobHandle::pending(rx).wait().unwrap();
        // The worker copied nothing: the cache slot and the three answers
        // still in their channels are one page.
        let holders = || {
            let store = shared.store.lock().unwrap();
            let (_, entry) = store.cache.iter_oldest_first().next().unwrap();
            Arc::strong_count(&entry.page)
        };
        assert_eq!(holders(), 1 + duplicates.len());
        for waiter in waiters {
            assert_eq!(waiter.wait().unwrap(), computed);
        }
        assert_eq!(holders(), 1, "every answer took its own copy");
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 1);
        assert_eq!(m.coalesced, duplicates.len() as u64);
        assert_eq!(m.cache.hits, 0);
        assert_eq!(m.completed, 1 + duplicates.len() as u64);
    }

    #[test]
    fn traced_queries_match_untraced_and_yield_the_span_tree() {
        let service = minibank_service(ServiceConfig::default());
        let expected = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        // A traced request for a warm page is a cache hit like any other
        // submission: the cached page comes back with a synthesized
        // `cache_hit` root instead of a re-execution.
        let traced = service
            .query(QueryRequest::new("Sara Guttinger").traced())
            .wait()
            .unwrap();
        assert_eq!(
            traced.page, expected.page,
            "tracing must not change answers"
        );
        let warm_trace = traced
            .trace
            .as_ref()
            .expect("a traced response carries its trace");
        let warm_root = warm_trace.find("query").expect("query root span");
        assert!(
            warm_root.children.iter().any(|c| c.name == "cache_hit"),
            "warm traced hit should record a cache_hit event:\n{}",
            warm_trace.render()
        );
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 1);
        assert_eq!(m.cache.hits, 1);
        // A cold traced request executes the full pipeline and yields the
        // five-stage span tree.
        admin(&service).clear_cache();
        let traced = service
            .query(QueryRequest::new("Sara Guttinger").traced())
            .wait()
            .unwrap();
        assert_eq!(
            traced.page, expected.page,
            "tracing must not change answers"
        );
        let trace = traced
            .trace
            .as_ref()
            .expect("a traced response carries its trace");
        let root = trace.find("query").expect("query root span");
        assert_eq!(root.children.len(), 5, "{}", trace.render());
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 2);
        assert_eq!(m.completed, 3);
    }

    #[test]
    fn traced_queries_surface_engine_errors() {
        let service = minibank_service(ServiceConfig::default());
        match service.query(QueryRequest::new("   ").traced()).wait() {
            Err(ServiceError::Engine(SodaError::EmptyQuery)) => {}
            other => panic!("expected EmptyQuery, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tenants_are_rejected_up_front() {
        let service = minibank_service(ServiceConfig::default());
        let handle = service.query(QueryRequest::new("customers").tenant("nobody"));
        assert!(
            handle.is_ready(),
            "unknown tenants must not reach the queue"
        );
        match handle.wait() {
            Err(ServiceError::UnknownTenant(t)) => assert_eq!(t, "nobody"),
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        assert!(service.admin("nobody").is_err());
        assert_eq!(service.metrics().completed, 0);
    }

    #[test]
    fn hosted_tenants_answer_from_their_own_warehouse() {
        let service = minibank_service(ServiceConfig::default());
        let other = soda_warehouse::minibank::build(7);
        let snapshot = Arc::new(EngineSnapshot::build(
            Arc::new(other.database),
            Arc::new(other.graph),
            SodaConfig::default(),
        ));
        service.add_tenant("acme", Arc::clone(&snapshot)).unwrap();
        // Registering the same name (or the default name) again is an error.
        assert!(service.add_tenant("acme", Arc::clone(&snapshot)).is_err());
        assert!(service.add_tenant("default", snapshot).is_err());

        let default_page = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap()
            .page;
        let acme_page = service
            .query(QueryRequest::new("Sara Guttinger").tenant("acme"))
            .wait()
            .unwrap()
            .page;
        // Both warehouses answer; the tenant-folded fingerprints (and thus
        // the cache keys) differ even if the snapshots were identical.
        assert!(!default_page.results.is_empty());
        assert!(!acme_page.results.is_empty());
        let acme_admin = service.admin("acme").unwrap();
        assert_ne!(
            TenantId::default().fold(service.engine().cache_fingerprint()),
            acme_admin
                .id()
                .fold(acme_admin.engine().cache_fingerprint()),
            "tenants must never share cache keys"
        );
        let m = service.metrics();
        assert_eq!(m.tenants.len(), 2);
        let acme = m.tenants.iter().find(|t| t.tenant == "acme").unwrap();
        assert_eq!(acme.completed, 1);
        assert_eq!(acme.executions, 1);
    }

    #[test]
    fn a_hostile_page_number_resolves_and_leaves_the_worker_alive() {
        let service = minibank_service(ServiceConfig::default().workers(1));
        let direct = service.engine().search_paged("customers", 0, 10).unwrap();
        for page in [usize::MAX, usize::MAX / 2] {
            let got = service
                .query(QueryRequest::new("customers").page(page))
                .wait()
                .expect("an out-of-range page is an empty page, not a dead worker")
                .page;
            assert!(got.results.is_empty());
            assert_eq!(got.total_results, direct.total_results);
            assert!(!got.has_next);
        }
        // The single worker survived: the next cold query still resolves.
        let next = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert!(!next.page.results.is_empty());
    }
}
