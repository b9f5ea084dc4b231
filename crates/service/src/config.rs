//! The configuration types of the service: [`ServiceConfig`] and the
//! opt-in sub-configurations it carries ([`SamplingConfig`],
//! [`SloConfig`]), plus the [`DurabilityConfig`] handed to
//! [`QueryService::recover`](crate::QueryService::recover).

use std::path::PathBuf;
use std::time::Duration;

use soda_journal::FsyncPolicy;

use crate::slo::SloConfig;

/// Tuning knobs of the service.
///
/// Construct fluently from the defaults — the builder methods are consuming
/// setters over the same public fields, so struct-literal construction
/// keeps working and `Default` semantics are unchanged:
///
/// ```
/// use soda_service::ServiceConfig;
/// let config = ServiceConfig::default().workers(2).queue_capacity(64);
/// assert_eq!(config.workers, 2);
/// assert_eq!(config.cache_capacity, ServiceConfig::default().cache_capacity);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads executing the pipeline.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submissions block.
    pub queue_capacity: usize,
    /// Maximum result pages held by the interpretation cache.
    pub cache_capacity: usize,
    /// When set, every tenant keeps the span trees its sampler draws or
    /// finds [`slow`](SamplingConfig::slow) in a bounded ring of its own
    /// ([`QueryService::sampled_traces`](crate::QueryService::sampled_traces)).
    /// `None` — the default — keeps sampling entirely off the hot path.
    pub sampling: Option<SamplingConfig>,
    /// When set, per-tenant SLO burn-rate tracking: every completed query
    /// lands in a rolling multi-window ring, and
    /// [`QueryService::alerts`](crate::QueryService::alerts) / the
    /// `soda_slo_*` families surface the fast- and slow-window burn rates
    /// against the declared objectives.
    pub slo: Option<SloConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 1024,
            sampling: None,
            slo: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker-pool size.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the queue capacity.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the interpretation-cache capacity.
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Enables trace sampling: head draws and, when set, the slow rule.
    pub fn sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = Some(sampling);
        self
    }

    /// Enables per-tenant SLO burn-rate tracking.
    pub fn slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// Configuration of trace sampling ([`ServiceConfig::sampling`]): which
/// answered queries keep their span tree, and how many are kept.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingConfig {
    /// Head-sampling probability in `[0, 1]`: the fraction of queries whose
    /// full span tree is captured regardless of latency.
    pub rate: f64,
    /// Capacity of each tenant's sampled-trace ring
    /// ([`QueryService::sampled_traces`](crate::QueryService::sampled_traces)).
    pub trace_log: usize,
    /// When set, every answered query, warm hits included, whose
    /// **end-to-end** latency reaches the threshold is kept as a
    /// `"tail_slow"` trace, counted and raised as a `slow_query` event; every
    /// execution then collects its span tree.  Set [`rate`](Self::rate) to
    /// 0 to keep slow queries alone.  `None` by default.
    pub slow: Option<Duration>,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            rate: 0.01,
            trace_log: 32,
            slow: None,
        }
    }
}

impl SamplingConfig {
    /// Sets the head-sampling rate.
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Sets the per-tenant sampled-trace ring capacity.
    pub fn trace_log(mut self, trace_log: usize) -> Self {
        self.trace_log = trace_log;
        self
    }

    /// Keeps, counts and reports every query at or past `threshold`.
    pub fn slow(mut self, threshold: Duration) -> Self {
        self.slow = Some(threshold);
        self
    }
}

/// Where and how the service persists its crash-safety state.
///
/// The directory holds the default tenant's two files: `feed.journal` (the
/// write-ahead feed journal, [`soda_journal::journal_path`]) and `pages.cache`
/// (the keys of the warm result pages, written on a graceful drain), plus one
/// `tenants/<name>-<fingerprint>/` journal directory per tenant registered
/// through [`QueryService::add_tenant`](crate::QueryService::add_tenant).
/// Pass the same directory, and the configuration the service last served,
/// to [`QueryService::recover`](crate::QueryService::recover) on every boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the journal and the page-cache file (created if
    /// missing).
    pub dir: PathBuf,
    /// Whether every journal append forces the bytes to disk before the
    /// engine absorbs the feed.  [`FsyncPolicy::Always`] (the default) makes
    /// acknowledged ingests survive power loss; [`FsyncPolicy::Never`]
    /// trades that for append latency.
    pub fsync: FsyncPolicy,
    /// Whether a graceful drain writes the keys of the warm cache pages to
    /// disk (`SODACSH5`) and recovery recomputes their pages.  Off, recovery
    /// reads no page-cache file and runs no search.  Default true.
    pub persist_cache: bool,
}

impl DurabilityConfig {
    /// Durability under `dir` with the safe defaults: fsync on every append,
    /// cache persistence on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            persist_cache: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluent_config_builder_matches_struct_literals() {
        let built = ServiceConfig::default()
            .workers(3)
            .queue_capacity(17)
            .cache_capacity(9)
            .sampling(SamplingConfig::default().slow(Duration::from_millis(5)));
        let literal = ServiceConfig {
            workers: 3,
            queue_capacity: 17,
            cache_capacity: 9,
            sampling: Some(SamplingConfig {
                slow: Some(Duration::from_millis(5)),
                ..SamplingConfig::default()
            }),
            ..ServiceConfig::default()
        };
        assert_eq!(built, literal);
    }
}
