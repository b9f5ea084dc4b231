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
//!    and shares the page it computed: one `Arc` goes into the cache and one
//!    into the key's completion, which it sets once.  The caller's
//!    [`JobHandle`] waits on that completion, and [`JobHandle::wait`] copies
//!    the [`QueryResponse`]'s own page on the waiting thread.
//!
//! Concurrent misses on one key are **coalesced**: the first miss enqueues
//! the job and registers the key's completion in a pending-jobs map; every
//! further submission of the same key while that job is in flight takes a
//! handle on the same completion instead of enqueuing a duplicate, so N
//! concurrent identical cold queries execute the pipeline exactly once.  The
//! cache probe, the pending check and the page's publication happen under
//! one lock, which is never held across the pipeline itself — nor across a
//! page copy: inside the service a page is shared, and the one deep copy the
//! by-value [`QueryResponse::page`] costs is made per answer, outside every
//! lock, by the thread that receives it.
//!
//! ## Multi-tenant hosting
//!
//! One service hosts many tenants: the boot snapshot is the **default**
//! tenant, and [`QueryService::add_tenant`] registers further warehouses at
//! runtime (each with its own live snapshot, tracked by the
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
//! against generation G can only ever hand its page to submissions that also
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
//! merges on the fly.  The logs grow until [`TenantAdmin::compact`] merges
//! them into copies of their partitions; the service never folds on its own.
//! Data-only swaps (ingest, compaction) run a
//! *generation-aware retention* pass over the tenant's cached pages instead
//! of the wholesale purge: pages whose recorded probes provably never
//! consulted a dirty shard are re-keyed to the new fingerprint
//! ([`CacheStats::retained`](crate::CacheStats)), everything else of that
//! tenant's superseded generation is purged.  Other tenants' pages are
//! never touched.
//!
//! Shutdown is graceful: dropping the service lets the workers drain every
//! queued job (completing each key's handles, coalesced ones included),
//! then joins them.  A handle outlives the service and still answers.
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
//! under a different engine configuration is a hard error — a checkpoint
//! stamps the configuration of the snapshot it records.
//!
//! Tenants registered on a durable service get their **own** journal under
//! `tenants/<name>-<fingerprint>/` ([`soda_journal::tenant_journal_dir`]),
//! header-stamped with the tenant fingerprint so one tenant's history can
//! never replay into another's snapshot; [`QueryService::add_tenant`]
//! replays it against the snapshot the caller hands in.
//!
//! On a *graceful* drain (dropping the service) the keys of the
//! interpretation cache's warm entries are additionally written to a
//! page-cache file (`SODACSH5`), whose pages `recover` recomputes before the
//! service serves — so the first repeated queries after a restart are
//! answered at warm-hit latency.  The cache file is best-effort: a stale,
//! torn, foreign or older-format file is ignored (counted in
//! [`RecoveryReport::cache_pages_stale`](crate::RecoveryReport::cache_pages_stale)),
//! never an error.
//!
//! One caveat: the metadata **graph is not journaled** — `recover` (and
//! `add_tenant`) take the graph as part of the snapshot, so after a
//! [`TenantAdmin::refresh_graph`] the operator must hand the refreshed
//! graph to the next recovery.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use soda_core::{
    normalize_query, Database, EngineSnapshot, MetaGraph, ProbeDep, ResultPage, SodaConfig,
    StepTimings, TenantId,
};
use soda_journal::tenant_journal_dir;
use soda_trace::{
    names, BoundedLog, CollectingSink, HeadDecision, OpEvent, QueryTrace, SampleReason, Sampler,
    SpanId, TraceSink, TraceValue,
};

use crate::admin::TenantAdmin;
use crate::cache::{CacheKey, LruCache};
use crate::config::{DurabilityConfig, ServiceConfig};
use crate::durability::{
    load_cache_pages, persist_cache_pages, recover_journal, DurabilityState, RecoveryBase,
    RecoveryReport,
};
use crate::queue::{Job, QueueState};
use crate::request::{
    Completion, JobHandle, QueryRequest, QueryResponse, SampledTrace, ServiceError,
};
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

/// A key with a job in flight (queued or executing).
#[derive(Default)]
pub(crate) struct InFlight {
    /// What the submitter and every coalesced handle wait on.
    pub(crate) done: Completion,
    /// When each coalesced submission arrived, for its end-to-end latency.
    pub(crate) coalesced: Vec<Instant>,
}

/// The cache and the pending-jobs map live under ONE mutex so that
/// probe-then-register is atomic: between a cache miss and the pending
/// registration no completion can slip through unobserved.
pub(crate) struct StoreState {
    pub(crate) cache: LruCache<CacheKey, CachedPage>,
    /// Keys with a job in flight.  An entry is created by the submission
    /// that enqueues the job and removed by the worker that runs it.
    pub(crate) pending: HashMap<CacheKey, InFlight>,
    /// Submissions that attached to an in-flight job instead of enqueuing.
    pub(crate) coalesced: u64,
}

/// Everything the submitting threads, the workers and the admin facades
/// share: the queue, the cache, the event log and the registration lock.
/// Every fact about an answer or a write (latency, counters, journal
/// figures, alert states) lives on its [`TenantState`] only — tenants are
/// never removed, so `metrics()` sums and merges them.
pub(crate) struct Shared {
    /// Every hosted tenant — the default tenant (the boot snapshot) plus
    /// whatever [`QueryService::add_tenant`] registered.
    pub(crate) tenants: TenantRegistry,
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) not_empty: Condvar,
    pub(crate) not_full: Condvar,
    pub(crate) store: Mutex<StoreState>,
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
    /// The configuration the service booted with — queue capacity is read
    /// off it, [`QueryService::add_tenant`] builds each new tenant's sampler
    /// and SLO window from it, and the SLO evaluation reads the latency
    /// objectives off it.
    pub(crate) config: ServiceConfig,
}

/// How an answered query was served — what [`Shared::answered`] books
/// beside its end-to-end latency.
pub(crate) enum Served<'a> {
    /// From the cache at submission: kept, when the sampler draws it or it
    /// was slow, as a synthesized `cache_hit` span tree.
    Hit { input: &'a str },
    /// A submission coalesced onto another one's execution: never kept
    /// (the execution's own trace tells its story).
    Coalesced,
    /// By a pipeline execution on a worker.
    Executed {
        input: &'a str,
        /// The head draw made at submission.
        head: Option<HeadDecision>,
        /// `(queue wait, execution)`.
        split: (Duration, Duration),
        timings: Option<&'a StepTimings>,
        /// The span tree, when the worker collected one.
        sink: Option<CollectingSink>,
    },
}

impl Served<'_> {
    /// The trace the tenant's sampler keeps for this answer, if any: the
    /// slow rule on the final end-to-end latency first, then the head draw
    /// (made at submission for an execution, drawn here for a hit).
    fn kept(self, sampler: &Sampler, tenant: &TenantId, e2e: Duration) -> Option<SampledTrace> {
        let (input, head, (queue_wait, execution)) = match &self {
            Served::Hit { input } => (*input, None, (Duration::ZERO, Duration::ZERO)),
            Served::Coalesced => return None,
            Served::Executed {
                input, head, split, ..
            } => (*input, *head, *split),
        };
        let head = head.unwrap_or_else(|| sampler.head_sample());
        let reason = sampler.decide(head.sampled, e2e)?;
        let trace = match self {
            // A kept execution always has a collected tree: the worker
            // collects whenever the sampler says it may be kept.
            Served::Executed { sink, .. } => sink?.finish(),
            _ => cache_hit_trace(input, e2e),
        };
        Some(SampledTrace {
            tenant: tenant.clone(),
            trace_id: head.trace_id.to_string(),
            input: input.to_string(),
            reason: reason.as_str(),
            total: e2e,
            queue_wait,
            execution,
            trace,
        })
    }
}

impl Shared {
    /// Books one answered query, once, under the tenant's one `facts`
    /// lock: its end-to-end latency, an execution's queue-wait / execution
    /// split and stage timings, the SLO window, the counters and, when the
    /// sampler keeps the query, its trace.  A slow query is counted there
    /// and raised as a `slow_query` event after the lock is released.
    pub(crate) fn answered(
        &self,
        tenant: &TenantState,
        served: Served<'_>,
        e2e: Duration,
        ok: bool,
    ) {
        let (hits, executed) = match &served {
            Served::Hit { .. } => (1, None),
            Served::Coalesced => (0, None),
            Served::Executed { split, timings, .. } => (0, Some((*split, timings.copied()))),
        };
        let kept = tenant
            .sampler
            .as_ref()
            .and_then(|sampler| served.kept(sampler, &tenant.id, e2e));
        let slow = kept
            .as_ref()
            .filter(|kept| kept.reason == SampleReason::TailSlow.as_str())
            .map(|kept| format!("{e2e:?} end-to-end: {}", kept.input));
        {
            let mut facts = tenant.facts();
            facts.e2e.record(e2e);
            if let Some(slo) = &mut facts.slo {
                slo.record(self.started.elapsed(), e2e, ok);
            }
            facts.warm_hits += hits;
            if let Some(((queue_wait, execution), timings)) = executed {
                facts
                    .latency
                    .record_executed(queue_wait, execution, timings.as_ref());
            }
            facts.slow_queries += u64::from(slow.is_some());
            if let (Some(ring), Some(kept)) = (&mut facts.kept, kept) {
                ring.push(kept);
            }
        }
        if let Some(detail) = slow {
            self.event("slow_query", &tenant.id, detail);
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
}

/// Synthesizes the span tree of a warm cache hit: a `query` root holding a
/// single [`names::CACHE_HIT`] event — what a kept hit records, as the page
/// was served from the cache instead of re-running the pipeline.
fn cache_hit_trace(input: &str, e2e: Duration) -> QueryTrace {
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
    /// the **default tenant**'s live snapshot (so it can be reloaded later
    /// without restarting the pool).  Further tenants join through
    /// [`add_tenant`](Self::add_tenant).
    ///
    /// Process-wide side effect, here and in [`recover`](Self::recover): on
    /// glibc the first service started raises the allocator's trim threshold
    /// (see `heap.rs`), so freed memory stays with the process.
    pub fn start(engine: Arc<EngineSnapshot>, config: ServiceConfig) -> Self {
        Self::start_with(engine, config, None, None)
    }

    /// The constructor shared by [`start`](Self::start) and
    /// [`recover`](Self::recover): serves an already-prepared snapshot
    /// (recovery restores generation stamps and replays feeds before any
    /// worker exists) and spawns the pool.
    fn start_with(
        engine: Arc<EngineSnapshot>,
        config: ServiceConfig,
        journal: Option<(DurabilityState, RecoveryReport)>,
        durability_config: Option<DurabilityConfig>,
    ) -> Self {
        crate::heap::retain_freed_heap();
        let default = Arc::new(TenantState::new(
            TenantId::default(),
            engine,
            journal,
            &config,
        ));
        let shared = Arc::new(Shared {
            tenants: TenantRegistry::new(default),
            queue: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            store: Mutex::new(StoreState {
                cache: LruCache::new(config.cache_capacity),
                pending: HashMap::new(),
                coalesced: 0,
            }),
            started: Instant::now(),
            events: Mutex::new(BoundedLog::new(EVENT_LOG)),
            durability_config,
            add_tenants: Mutex::new(()),
            config: config.clone(),
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
    /// [`TenantAdmin::refresh_graph`] pass the refreshed one), and `config`
    /// the one it last served: a durable reload journals its configuration.
    /// Recovery then replays the journal: the latest checkpoint's table
    /// contents are applied over `base_db` and its generation stamps are
    /// restored, every feed appended after it is re-absorbed in order, and —
    /// because absorbed state answers identically to a rebuild over the same
    /// rows — the recovered engine serves byte-identical pages under the
    /// same cache fingerprints as the instance that died.  The keys a
    /// graceful drain persisted are recomputed into the cache, on this
    /// thread, when their fingerprint still matches.  The replay's side logs stay in place until
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
        let (engine, state, mut report) = recover_journal(
            &durability.dir,
            &TenantId::default(),
            durability.fsync,
            RecoveryBase::Warehouse(base_db, graph, config),
        )?;
        let restored = load_cache_pages(&durability, &mut report, &engine);
        let journal = Some((state, report));
        let service = Self::start_with(engine, service, journal, Some(durability));
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
    /// live snapshot and writer lock (so its reloads and ingests never
    /// block another tenant's), its own queue lane and quota, and — on a
    /// durable service — its own write-ahead journal under
    /// `tenants/<name>-<fingerprint>/`, which is replayed over `engine`
    /// right here (so a re-registered tenant resumes exactly where its
    /// journaled history left off).
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
        let (engine, journal, report) = match &self.shared.durability_config {
            Some(config) => {
                let dir = tenant_journal_dir(&config.dir, id.as_str(), id.fingerprint());
                let (engine, state, report) =
                    recover_journal(&dir, &id, config.fsync, RecoveryBase::Engine(engine))?;
                (engine, Some(state), report)
            }
            None => (engine, None, RecoveryReport::default()),
        };
        let tenant = Arc::new(TenantState::new(
            id,
            engine,
            journal.map(|state| (state, report)),
            &self.shared.config,
        ));
        self.shared.tenants.register(Arc::clone(&tenant))?;
        self.shared.event(
            "add_tenant",
            &tenant.id,
            format!("{} feeds replayed", report.replayed_feeds),
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
    /// returns a resolved handle on a hit.  A miss coalesces onto an
    /// identical in-flight job when one exists, and otherwise enqueues the
    /// job in the tenant's lane, blocking while the lane is at its
    /// admission quota or the queue at capacity (backpressure).  The
    /// worker pool is the only place the service runs the pipeline; a
    /// served query's span tree is kept, when the tenant's sampler says
    /// so, in [`sampled_traces`](Self::sampled_traces).
    pub fn query(&self, request: QueryRequest) -> JobHandle {
        let submitted = Instant::now();
        let (tenant, engine, key) = match self.pin(&request) {
            Ok(pinned) => pinned,
            Err(e) => return JobHandle::ready(Err(e)),
        };
        // One critical section decides the submission's fate: cache hit,
        // coalesce onto an in-flight job, or become the job that computes.
        // A hit or a new job releases the store lock before it copies or
        // accounts: the tenant's facts are never locked under it.
        let mut store = self.shared.store.lock().expect("store poisoned");
        if let Some(entry) = store.cache.get(&key) {
            let page = Arc::clone(&entry.page);
            drop(store);
            // The response's own copy is made before the clock is read, so
            // the recorded latency is the whole hit.
            let page = ResultPage::clone(&page);
            let served = Served::Hit {
                input: &request.input,
            };
            self.shared
                .answered(&tenant, served, submitted.elapsed(), true);
            return JobHandle::ready(Ok(QueryResponse { page }));
        }
        if let Some(in_flight) = store.pending.get_mut(&key) {
            in_flight.coalesced.push(submitted);
            let done = Arc::clone(&in_flight.done);
            store.coalesced += 1;
            return JobHandle::pending(done);
        }
        let in_flight = InFlight::default();
        let done = Arc::clone(&in_flight.done);
        store.pending.insert(key.clone(), in_flight);
        drop(store);

        self.shared.admit(Job {
            key,
            input: request.input,
            engine,
            head: tenant.sampler.as_ref().map(Sampler::head_sample),
            tenant,
            submitted,
            done: Arc::clone(&done),
        });
        JobHandle::pending(done)
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
        let engine = tenant.snapshot();
        let key = CacheKey {
            normalized: normalized.into(),
            snapshot_fingerprint: tenant.id.fold(engine.cache_fingerprint()),
            page: request.page,
            page_size: request.page_size.max(1),
        };
        Ok((tenant, engine, key))
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
        self.shared.tenants.default_tenant().snapshot()
    }

    /// Generation of the snapshot the default tenant currently serves.
    pub fn generation(&self) -> u64 {
        self.shared.tenants.default_tenant().snapshot().generation()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        {
            let mut state = self.shared.queue.lock().expect("queue poisoned");
            state.shutdown = true;
        }
        // Wake the workers: they drain every queued job, completing each
        // key's handles, and exit.  No submitter can be blocked in
        // admission: `drop` holds `&mut self`, so no `query` is running.
        self.shared.not_empty.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // A job is left queued only when every worker died of a panic: its
        // handles resolve as a panicked job's do.
        if let Ok(mut queue) = self.shared.queue.lock() {
            while let Some(job) = queue.pop_round_robin() {
                let _ = job.done.set(Err(ServiceError::Disconnected));
            }
        }
        persist_cache_pages(&self.shared);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::request::JobResult;
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
    fn a_hostile_length_query_is_refused_and_the_service_keeps_answering() {
        let service = minibank_service(ServiceConfig::default());
        let handle = service.query(QueryRequest::new("customers Zurich ".repeat(100_000)));
        assert!(handle.is_ready());
        match handle.wait() {
            Err(ServiceError::Engine(SodaError::Query(e))) => {
                assert!(e.starts_with("query too long"), "{e}")
            }
            other => panic!("expected a length error, got {other:?}"),
        }
        let next = service.query(QueryRequest::new("Sara Guttinger")).wait();
        assert!(!next.unwrap().page.results.is_empty());
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
        let in_flight = InFlight::default();
        let done = Arc::clone(&in_flight.done);
        let mut store = shared.store.lock().unwrap();
        store.pending.insert(key.clone(), in_flight);
        drop(store);
        let duplicates = ["customers", "  CUSTOMERS  ", "Customers"];
        let waiters = duplicates.map(|q| service.query(QueryRequest::new(q)));
        assert!(waiters.iter().all(|handle| !handle.is_ready()));
        shared.admit(Job {
            key,
            input: "customers".to_string(),
            engine,
            head: None,
            tenant,
            submitted: Instant::now(),
            done: Arc::clone(&done),
        });
        let computed = JobHandle::pending(done).wait().unwrap();
        // The worker copied nothing: the cache slot and the completion the
        // three waiters still hold are one page.
        let holders = || {
            let store = shared.store.lock().unwrap();
            let (_, entry) = store.cache.iter_oldest_first().next().unwrap();
            Arc::strong_count(&entry.page)
        };
        assert_eq!(holders(), 2);
        for waiter in waiters {
            assert_eq!(waiter.wait().unwrap(), computed);
        }
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 1);
        assert_eq!(m.coalesced, duplicates.len() as u64);
        assert_eq!(m.cache.hits, 0);
        assert_eq!(m.completed, 1 + duplicates.len() as u64);
        // Once the single worker has answered the next query, it has dropped
        // the job before, and with it the last hold on the completion.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(holders(), 1, "every answer took its own copy");
    }

    #[test]
    fn dropping_the_service_answers_every_outstanding_handle() {
        let service = minibank_service(ServiceConfig::default().workers(1));
        let engine = service.engine();
        let queries = ["Sara Guttinger", "wealthy customers", "customers Zurich"];
        let spellings = ["sara guttinger", "  SARA   Guttinger "];
        let mut handles: Vec<(&str, JobHandle)> = queries
            .iter()
            .map(|q| (*q, service.query(QueryRequest::new(*q))))
            .chain(spellings.map(|q| (queries[0], service.query(QueryRequest::new(q)))))
            .collect();
        drop(handles.remove(1));
        drop(service);
        for (query, handle) in handles {
            let want = engine.search_paged(query, 0, 10).unwrap();
            assert_eq!(handle.wait().unwrap().page, want, "{query}");
        }
    }

    #[test]
    fn a_job_outliving_every_worker_resolves_disconnected() {
        let mut service = minibank_service(ServiceConfig::default().workers(1));
        // Retire the only worker, as a panic would, leaving the service up.
        service.shared.queue.lock().unwrap().shutdown = true;
        service.shared.not_empty.notify_all();
        for worker in service.workers.drain(..) {
            worker.join().unwrap();
        }
        service.shared.queue.lock().unwrap().shutdown = false;
        let handle = service.query(QueryRequest::new("Sara Guttinger"));
        let coalesced = service.query(QueryRequest::new("sara guttinger"));
        assert_eq!(service.queue_depth(), 1);
        drop(service);
        for handle in [handle, coalesced] {
            assert_eq!(handle.wait(), Err(ServiceError::Disconnected));
        }
    }

    #[test]
    fn sampled_queries_match_unsampled_and_keep_the_span_tree() {
        let plain = minibank_service(ServiceConfig::default());
        let expected = plain.query(QueryRequest::new("Sara Guttinger")).wait();
        let service = minibank_service(
            ServiceConfig::default().sampling(crate::SamplingConfig::default().rate(1.0)),
        );
        let ask = || {
            let got = service.query(QueryRequest::new("Sara Guttinger")).wait();
            assert_eq!(got, expected, "sampling must not change answers");
        };
        let kept = |n: usize| {
            let kept = service.sampled_traces(TenantId::default()).unwrap();
            assert_eq!(kept.len(), n);
            kept[n - 1].trace.clone()
        };
        // A cold query executes the pipeline and keeps the five-stage tree.
        ask();
        let trace = kept(1);
        let root = trace.find("query").expect("query root span");
        assert_eq!(root.children.len(), 5, "{}", trace.render());
        // A warm page is a cache hit like any other submission: the cached
        // page comes back and a synthesized `cache_hit` root is kept.
        ask();
        let warm_trace = kept(2);
        let warm_root = warm_trace.find("query").expect("query root span");
        assert!(
            warm_root.children.iter().any(|c| c.name == "cache_hit"),
            "a kept warm hit should record a cache_hit event:\n{}",
            warm_trace.render()
        );
        let m = service.metrics();
        assert_eq!((m.pipeline_executions, m.cache.hits), (1, 1));
        // Once the page is dropped, the repeat executes again.
        admin(&service).clear_cache();
        ask();
        let trace = kept(3);
        let root = trace.find("query").expect("query root span");
        assert_eq!(root.children.len(), 5, "{}", trace.render());
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 2);
        assert_eq!(m.completed, 3);
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
