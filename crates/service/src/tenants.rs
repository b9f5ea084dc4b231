//! Multi-tenant hosting: the tenant registry and the per-tenant serving
//! state.
//!
//! A hosted deployment of the SODA service runs **one** worker pool, **one**
//! bounded queue and **one** interpretation cache for many tenants, each of
//! which brings its own warehouse snapshot and (on a durable service) its
//! own write-ahead feed journal.  The pieces here keep those tenants
//! isolated without duplicating the machinery:
//!
//! * [`TenantRegistry`] — maps a [`TenantId`] to its live
//!   [`SnapshotHandle`] plus the per-tenant
//!   counters.  The default tenant always exists (it is the service's boot
//!   snapshot); further tenants are registered at runtime through
//!   [`QueryService::add_tenant`](crate::QueryService::add_tenant).
//! * `TenantState` (private) — one tenant's serving state: the swappable
//!   snapshot,
//!   the per-tenant swap lock (so two tenants can reload concurrently), the
//!   fairness counters surfaced by
//!   [`ServiceMetrics::tenants`](crate::ServiceMetrics) and, on a durable
//!   service, the tenant's own journal.
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

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, RwLock};

use soda_core::{SnapshotHandle, TenantId};
use soda_trace::hist::LogHistogram;
use soda_trace::{BoundedLog, Sampler};

use crate::config::{SamplingConfig, ServiceConfig};
use crate::durability::DurabilityState;
use crate::request::{SampledTrace, ServiceError};
use crate::slo::{SloWindow, RESOLUTION, SLOW_WINDOW};

/// Seed of the samplers' deterministic decision sequences.  Each tenant's
/// sampler is seeded with `SAMPLING_SEED ^ tenant_fingerprint`, so co-hosted
/// tenants draw independent — but individually reproducible — sequences.
const SAMPLING_SEED: u64 = 0x50DA;

/// What a tenant that keeps traces carries — absent as a whole on a
/// service with neither `ServiceConfig::sampling` nor
/// `ServiceConfig::slow_query_threshold`.
pub(crate) struct KeptTraces {
    /// Decides which answered queries are kept.
    pub(crate) sampler: Sampler,
    /// Bounded ring of kept traces, newest retained
    /// ([`QueryService::sampled_traces`](crate::QueryService::sampled_traces)).
    pub(crate) ring: Mutex<BoundedLog<SampledTrace>>,
    /// Lifetime count of traces kept for this tenant.
    pub(crate) total: AtomicU64,
}

/// One tenant's serving state: identity, snapshot, swap lock, fairness
/// counters and (optionally) its write-ahead journal.
pub(crate) struct TenantState {
    pub(crate) id: TenantId,
    /// The tenant's swappable current snapshot.  Submissions load it once and
    /// pin what they got; the [`TenantAdmin`](crate::TenantAdmin) paths
    /// publish replacements.
    pub(crate) handle: SnapshotHandle,
    /// Serializes this tenant's swap paths (reload, graph refresh, ingest,
    /// compaction) so each one's pre-swap fingerprint capture, the handle
    /// publication and the cache retention/purge form one atomic episode.  Per-tenant on purpose: tenant A's reload never
    /// blocks tenant B's ingest.
    pub(crate) swaps: Mutex<()>,
    /// Snapshot swaps this tenant performed (reloads + graph refreshes).
    pub(crate) reloads: AtomicU64,
    /// Change feeds absorbed for this tenant.
    pub(crate) ingest_feeds: AtomicU64,
    /// Side-log compactions performed for this tenant.
    pub(crate) compactions: AtomicU64,
    /// Full pipeline executions performed for this tenant.
    pub(crate) executions: AtomicU64,
    /// Submissions answered from the cache at submission time.
    pub(crate) warm_hits: AtomicU64,
    /// Submissions that had to block in admission control (tenant lane at
    /// quota, or the whole queue at capacity) before enqueueing.
    pub(crate) admission_waits: AtomicU64,
    /// End-to-end latency of this tenant's answered queries — the only
    /// place a query's end-to-end latency is recorded (the service-wide
    /// distribution is the tenants' merge).  Its sample count doubles as
    /// the tenant's completed-query counter.
    pub(crate) e2e: Mutex<LogHistogram>,
    /// Queries of this tenant whose end-to-end latency crossed the
    /// service's slow-query threshold.
    pub(crate) slow_queries: AtomicU64,
    /// The tenant's sampler, kept-trace ring and kept count — present when
    /// `ServiceConfig::sampling` or `ServiceConfig::slow_query_threshold`
    /// is set.
    pub(crate) kept: Option<KeptTraces>,
    /// The tenant's rolling SLO window (`None` when `ServiceConfig::slo`
    /// is off).
    pub(crate) slo: Option<Mutex<SloWindow>>,
    /// The tenant's crash-safety state (`None` on a non-durable service).
    /// Lock order matches the service-wide rule:
    /// tenant swap lock → durability → store.
    pub(crate) durability: Option<Mutex<DurabilityState>>,
}

impl TenantState {
    pub(crate) fn new(
        id: TenantId,
        handle: SnapshotHandle,
        durability: Option<DurabilityState>,
        config: &ServiceConfig,
    ) -> Self {
        // A slow-query threshold alone keeps traces too: in the default
        // ring, with nothing head-sampled.
        let sampling = config.sampling.clone().or_else(|| {
            config
                .slow_query_threshold
                .map(|_| SamplingConfig::default().rate(0.0))
        });
        let kept = sampling.map(|sampling| KeptTraces {
            sampler: Sampler::new(SAMPLING_SEED ^ id.fingerprint(), sampling.rate)
                .with_slow(config.slow_query_threshold),
            ring: Mutex::new(BoundedLog::new(sampling.trace_log)),
            total: AtomicU64::new(0),
        });
        let slo = config.slo.as_ref().map(|slo| {
            let objective = slo.objective_for(id.as_str());
            Mutex::new(SloWindow::new(objective, SLOW_WINDOW, RESOLUTION))
        });
        Self {
            id,
            handle,
            swaps: Mutex::new(()),
            reloads: AtomicU64::new(0),
            ingest_feeds: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            admission_waits: AtomicU64::new(0),
            e2e: Mutex::new(LogHistogram::new()),
            slow_queries: AtomicU64::new(0),
            kept,
            slo,
            durability: durability.map(Mutex::new),
        }
    }

    /// The tenant-folded fingerprint of the snapshot this tenant serves
    /// *now* — what a submission arriving this instant would key its cache
    /// entry by.
    pub(crate) fn folded_live(&self) -> u64 {
        self.id.fold(self.handle.load().cache_fingerprint())
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
