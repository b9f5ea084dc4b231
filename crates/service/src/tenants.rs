//! Multi-tenant hosting: the tenant registry and the per-tenant serving
//! state.
//!
//! A hosted deployment of the SODA service runs **one** worker pool, **one**
//! bounded queue and **one** interpretation cache for many tenants, each of
//! which brings its own warehouse snapshot and (on a durable service) its
//! own write-ahead feed journal.  The pieces here keep those tenants
//! isolated without duplicating the machinery:
//!
//! * [`TenantRegistry`] — maps a [`TenantId`] to its serving state: the
//!   live snapshot plus the per-tenant counters.  The default tenant always
//!   exists (it is the service's boot snapshot); further tenants are
//!   registered at runtime through
//!   [`QueryService::add_tenant`](crate::QueryService::add_tenant).
//! * `TenantState` (private) — one tenant's serving state under exactly
//!   three locks.  `writer` serializes the tenant's swaps (so two tenants can
//!   reload concurrently) and, on a durable service, *is* the tenant's
//!   journal; its guard, `Writer`, is the only thing that publishes.
//!   `live` is the published snapshot, held for one refcount bump or one
//!   store.  `facts` holds everything the tenant's answers and writes
//!   record: the latency histograms, the SLO window and its alert states,
//!   the kept-trace ring, the journal figures and the counters surfaced by
//!   [`ServiceMetrics::tenants`](crate::ServiceMetrics).  Lock order:
//!   writer → store; `live` and `facts` are leaves.
//! * [`TenantAdmin`](crate::TenantAdmin) (in [`crate::admin`]) — the
//!   mutation facade returned by
//!   [`QueryService::admin`](crate::QueryService::admin): every operation
//!   that changes what a tenant serves, scoped to exactly one tenant.
//!
//! Isolation invariants: cache keys fold the tenant fingerprint into the
//! snapshot fingerprint ([`TenantId::fold`]), so all tenants share one LRU
//! without any possibility of cross-tenant hits; the queue gives each
//! tenant its own lane with a round-robin scan and an admission quota, so
//! one tenant's cold-query storm cannot starve another tenant's traffic.

use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use soda_core::{EngineSnapshot, TenantId};
use soda_trace::{BoundedLog, LogHistogram, Sampler};

use crate::config::ServiceConfig;
use crate::durability::{DurabilityState, RecoveryReport};
use crate::metrics::{DurabilityMetrics, LatencyRecorder};
use crate::request::{SampledTrace, ServiceError};
use crate::slo::{AlertState, SloWindow, RESOLUTION, SLOW_WINDOW};

/// Seed of the samplers' deterministic decision sequences.  Each tenant's
/// sampler is seeded with `SAMPLING_SEED ^ tenant_fingerprint`, so co-hosted
/// tenants draw independent — but individually reproducible — sequences.
const SAMPLING_SEED: u64 = 0x50DA;

/// One tenant's serving state: identity, snapshot, sampler, and its three
/// locks — the writer (swaps and the journal), the live snapshot and the
/// facts.
pub(crate) struct TenantState {
    pub(crate) id: TenantId,
    /// Serializes this tenant's swap paths (reload, graph refresh, ingest,
    /// compaction) so each one's pre-swap snapshot, the journal write, the
    /// publication and the cache retention/purge form one atomic episode.
    /// The guarded value is the tenant's journal (`None` on a non-durable
    /// service), so only a writer can touch it.  Per-tenant on purpose:
    /// tenant A's reload never blocks tenant B's ingest.  Taken before the
    /// store lock, never after it.
    writer: Mutex<Option<DurabilityState>>,
    /// The snapshot the tenant serves.  Submissions load it once and pin
    /// what they got; only [`Writer::publish`] replaces it.  A leaf, held
    /// for one refcount bump or one store.
    live: Mutex<Arc<EngineSnapshot>>,
    /// Decides which answered queries keep their span tree, and so which
    /// executions collect one — present when `ServiceConfig::sampling` is
    /// set.
    pub(crate) sampler: Option<Sampler>,
    /// Everything recorded about the tenant's answers and writes, under one
    /// lock so a `metrics()` poll reads one consistent snapshot and never
    /// waits on a writer.  A leaf: no lock is taken while it is held.
    facts: Mutex<TenantFacts>,
}

/// What a tenant's answers and writes record — read by `metrics()`, the
/// scrape, `sampled_traces()` and `alerts()`.
pub(crate) struct TenantFacts {
    /// End-to-end latency of every answered query — the only place it is
    /// recorded (the service-wide distribution is the tenants' merge).  Its
    /// sample count is the tenant's completed-query count.
    pub(crate) e2e: LogHistogram,
    /// Queue wait, execution and stage latency of the tenant's executed
    /// queries (the service-wide distributions are the tenants' merge).
    /// Its execution count is the tenant's pipeline-execution count.
    pub(crate) latency: LatencyRecorder,
    /// The rolling SLO window (`None` when `ServiceConfig::slo` is off).
    pub(crate) slo: Option<SloWindow>,
    /// The last state `alerts()` saw of the latency and the availability
    /// burn alert, in that order, so it logs one `slo_burn` event per
    /// transition instead of one per poll.
    pub(crate) alerts: [AlertState; 2],
    /// Kept traces, newest retained (present exactly when the sampler is);
    /// its lifetime push count is the tenant's kept-trace count.
    pub(crate) kept: Option<BoundedLog<SampledTrace>>,
    /// Submissions answered from the cache at submission time.
    pub(crate) warm_hits: u64,
    /// Answers whose end-to-end latency reached the slow-query threshold.
    pub(crate) slow_queries: u64,
    /// Submissions that blocked in admission control (tenant lane at quota,
    /// or the whole queue at capacity) before enqueueing.
    pub(crate) admission_waits: u64,
    /// Snapshot swaps (reloads and graph refreshes).
    pub(crate) reloads: u64,
    /// Change feeds absorbed, the row events they carried and the rows
    /// those events carried.
    pub(crate) ingest_feeds: u64,
    pub(crate) ingest_events: u64,
    pub(crate) ingest_rows: u64,
    /// Side-log compactions.
    pub(crate) compactions: u64,
    /// The journal's figures: seeded by the recovery that opened it,
    /// advanced by the writer after every append and checkpoint.
    pub(crate) durability: DurabilityMetrics,
}

impl TenantState {
    pub(crate) fn new(
        id: TenantId,
        live: Arc<EngineSnapshot>,
        durability: Option<(DurabilityState, RecoveryReport)>,
        config: &ServiceConfig,
    ) -> Self {
        let sampling = config.sampling.as_ref();
        let sampler = sampling.map(|sampling| {
            Sampler::new(SAMPLING_SEED ^ id.fingerprint(), sampling.rate).with_slow(sampling.slow)
        });
        let slo = config.slo.as_ref().map(|slo| {
            let objective = slo.objective_for(id.as_str());
            SloWindow::new(objective, SLOW_WINDOW, RESOLUTION)
        });
        let (journal, durability) = match durability {
            Some((state, report)) => {
                let metrics = DurabilityMetrics::recovered(report, state.journal.len_bytes());
                (Some(state), metrics)
            }
            None => (None, DurabilityMetrics::default()),
        };
        let facts = TenantFacts {
            e2e: LogHistogram::new(),
            latency: LatencyRecorder::new(),
            slo,
            alerts: [AlertState::Ok; 2],
            kept: sampling.map(|sampling| BoundedLog::new(sampling.trace_log)),
            warm_hits: 0,
            slow_queries: 0,
            admission_waits: 0,
            reloads: 0,
            ingest_feeds: 0,
            ingest_events: 0,
            ingest_rows: 0,
            compactions: 0,
            durability,
        };
        Self {
            id,
            writer: Mutex::new(journal),
            live: Mutex::new(live),
            sampler,
            facts: Mutex::new(facts),
        }
    }

    /// The tenant's writer lock, whose guard is its journal and its one
    /// way to publish.  Hold it for the whole of one swap; take the store
    /// lock under it, never the other way round.
    pub(crate) fn writer(&self) -> Writer<'_> {
        Writer {
            live: &self.live,
            journal: self.writer.lock().expect("tenant writer poisoned"),
        }
    }

    /// The snapshot this tenant serves now.  The `Arc` stays coherent for
    /// as long as the caller holds it, whatever is published meanwhile —
    /// what a query pins for its whole pipeline run.  Under the writer
    /// lock it is the snapshot the next publication succeeds.
    pub(crate) fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.live.lock().expect("tenant snapshot poisoned"))
    }

    /// The tenant's facts, locked.  Hold the guard for a few field updates
    /// or one read, never across another lock.
    pub(crate) fn facts(&self) -> MutexGuard<'_, TenantFacts> {
        self.facts.lock().expect("tenant facts poisoned")
    }

    /// The tenant-folded fingerprint of the snapshot this tenant serves
    /// *now* — what a submission arriving this instant would key its cache
    /// entry by.
    pub(crate) fn folded_live(&self) -> u64 {
        self.id.fold(self.snapshot().cache_fingerprint())
    }
}

/// A guard of one tenant's writer lock: the proof that its holder is the
/// tenant's one writer, and the only way to replace the live snapshot.
pub(crate) struct Writer<'a> {
    live: &'a Mutex<Arc<EngineSnapshot>>,
    /// The tenant's journal (`None` on a non-durable service).
    pub(crate) journal: MutexGuard<'a, Option<DurabilityState>>,
}

impl Writer<'_> {
    /// Publishes `next` — a successor of the live snapshot, which stamped
    /// its own generation — and returns it.  In-flight readers finish on
    /// whatever they pinned; new submissions see `next`.
    pub(crate) fn publish(&self, next: EngineSnapshot) -> Arc<EngineSnapshot> {
        let next = Arc::new(next);
        let mut live = self.live.lock().expect("tenant snapshot poisoned");
        debug_assert_eq!(next.generation(), live.generation() + 1);
        *live = Arc::clone(&next);
        next
    }
}

/// The tenant table of a [`QueryService`](crate::QueryService): the default
/// tenant plus every tenant registered through
/// [`QueryService::add_tenant`](crate::QueryService::add_tenant).
///
/// Lookups for the default tenant bypass the lock entirely — the warm-hit
/// path of a single-tenant deployment pays nothing for the registry.
pub struct TenantRegistry {
    /// Every hosted tenant, the default one at index 0.  Tenants are never
    /// removed, so the vector only grows.
    tenants: RwLock<Vec<Arc<TenantState>>>,
    /// The always-present default tenant, reachable without the lock.
    default: Arc<TenantState>,
}

impl TenantRegistry {
    pub(crate) fn new(default: Arc<TenantState>) -> Self {
        Self {
            tenants: RwLock::new(vec![Arc::clone(&default)]),
            default,
        }
    }

    /// The default tenant (the service's boot snapshot).
    pub(crate) fn default_tenant(&self) -> &Arc<TenantState> {
        &self.default
    }

    /// Resolves a tenant id to its state; an id the service does not host
    /// is [`ServiceError::UnknownTenant`].
    pub(crate) fn resolve(&self, id: &TenantId) -> Result<Arc<TenantState>, ServiceError> {
        if id.is_default() {
            return Ok(Arc::clone(&self.default));
        }
        self.tenants
            .read()
            .expect("tenant registry poisoned")
            .iter()
            .find(|t| t.id == *id)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTenant(id.as_str().to_string()))
    }

    /// Checks that `id` can be hosted alongside the currently registered
    /// tenants: the id must be new, and its 64-bit fingerprint must not
    /// collide with any hosted tenant's.  Fingerprints are the entire
    /// isolation boundary — cache keys, queue lanes and journal
    /// directories are all derived from them — so a collision (including a
    /// named tenant whose fingerprint happens to be `0`, the default
    /// tenant's reserved value) would silently share another tenant's
    /// state and must be rejected, never hosted.
    pub(crate) fn validate_new(&self, id: &TenantId) -> Result<(), ServiceError> {
        let tenants = self.tenants.read().expect("tenant registry poisoned");
        validate_against(&tenants, id)
    }

    /// Registers a new tenant; rejects a duplicate id or a fingerprint
    /// collision (see [`validate_new`](Self::validate_new)).
    pub(crate) fn register(&self, tenant: Arc<TenantState>) -> Result<(), ServiceError> {
        let mut tenants = self.tenants.write().expect("tenant registry poisoned");
        validate_against(&tenants, &tenant.id)?;
        tenants.push(tenant);
        Ok(())
    }

    /// A snapshot of every hosted tenant, default first, registration order
    /// after.
    pub(crate) fn all(&self) -> Vec<Arc<TenantState>> {
        self.tenants
            .read()
            .expect("tenant registry poisoned")
            .clone()
    }

    /// Hosted tenant count (the default tenant included) — the denominator
    /// of the admission quota.
    pub(crate) fn len(&self) -> usize {
        self.tenants.read().expect("tenant registry poisoned").len()
    }
}

/// The duplicate-id / fingerprint-collision check behind
/// [`TenantRegistry::validate_new`] and [`TenantRegistry::register`],
/// against one consistent view of the hosted tenants.  The default tenant
/// is always in `hosted` (fingerprint `0`), so a named tenant whose
/// fingerprint folds to `0` is caught here too.
fn validate_against(hosted: &[Arc<TenantState>], id: &TenantId) -> Result<(), ServiceError> {
    if let Some(existing) = hosted.iter().find(|t| t.id == *id) {
        return Err(ServiceError::TenantExists(existing.id.as_str().to_string()));
    }
    let pairs = hosted.iter().map(|t| (t.id.as_str(), t.id.fingerprint()));
    if let Some(existing) = fingerprint_collision(pairs, id.fingerprint()) {
        return Err(ServiceError::TenantFingerprintCollision {
            tenant: id.as_str().to_string(),
            existing,
        });
    }
    Ok(())
}

/// Returns the name of the hosted tenant whose fingerprint equals
/// `fingerprint`, if any.  Pure (testable with synthetic fingerprints — a
/// real FNV collision cannot be constructed in a test): the default tenant
/// is always among `hosted` with fingerprint `0`, so a named tenant whose
/// fingerprint folds to `0` — which would make [`TenantId::fold`] the
/// identity and alias the default tenant's cache keys, queue lane and
/// top-level journal directory — is caught by the same scan as any other
/// collision.
fn fingerprint_collision<'a>(
    hosted: impl IntoIterator<Item = (&'a str, u64)>,
    fingerprint: u64,
) -> Option<String> {
    hosted
        .into_iter()
        .find(|(_, fp)| *fp == fingerprint)
        .map(|(name, _)| name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_collisions_name_the_colliding_tenant() {
        let hosted = [("default", 0u64), ("acme", 0xA1), ("globex", 0xB2)];
        // A distinct fingerprint passes.
        assert_eq!(fingerprint_collision(hosted, 0xC3), None);
        // An exact collision reports who it collides with.
        assert_eq!(fingerprint_collision(hosted, 0xB2), Some("globex".into()));
        // A named tenant whose fingerprint folds to 0 collides with the
        // default tenant — hosting it would alias the default tenant's
        // cache keys, queue lane and top-level journal directory.
        assert_eq!(fingerprint_collision(hosted, 0), Some("default".into()));
    }
}
