//! Service observability: per-query latency accounting and the
//! [`ServiceMetrics`] snapshot (QPS, latency percentiles, cache hit rate,
//! queue depth).
//!
//! Every distribution is one fixed-memory [`LogHistogram`], so memory stays
//! constant no matter how long the service runs and the percentiles cover
//! the **whole lifetime**, not a recent window.  Every latency is recorded
//! once, on the tenant that answered; the service-wide figure is the merge
//! of the tenants' histograms at read time.  The recorder here keeps what
//! only executed queries have: queue wait, pipeline execution and the five
//! pipeline stages.

use std::time::Duration;

use soda_core::{ShardStats, StepTimings};
use soda_trace::LogHistogram;

use crate::cache::CacheStats;
use crate::durability::RecoveryReport;

/// Aggregated latency figures, all over the service lifetime.
///
/// `min`, `mean` and `max` are exact; `p50` and `p95` come from a
/// log-bucketed histogram and over-report by at most one sub-bucket
/// (≤ `value/32 + 1ns`), never under-report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Fastest sample.
    pub min: Duration,
    /// Lifetime mean.
    pub mean: Duration,
    /// Lifetime median (bounded-error, see the struct docs).
    pub p50: Duration,
    /// Lifetime 95th percentile (bounded-error, see the struct docs).
    pub p95: Duration,
    /// Slowest sample.
    pub max: Duration,
}

impl LatencySummary {
    pub(crate) fn of(hist: &LogHistogram) -> Self {
        if hist.count() == 0 {
            return Self::default();
        }
        Self {
            min: hist.min(),
            mean: hist.mean(),
            p50: hist.quantile(0.50),
            p95: hist.quantile(0.95),
            max: hist.max(),
        }
    }
}

/// Lifetime latency summaries of the five pipeline stages, embedded in
/// [`ServiceMetrics`].  Only **executed** pipelines contribute (cache hits
/// and coalesced waiters never ran the stages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatencies {
    /// Step 1 — lookup.
    pub lookup: LatencySummary,
    /// Step 2 — rank and top N.
    pub rank: LatencySummary,
    /// Step 3 — tables and joins.
    pub tables: LatencySummary,
    /// Step 4 — filters.
    pub filters: LatencySummary,
    /// Step 5 — SQL generation.
    pub sqlgen: LatencySummary,
}

/// Streaming-ingestion counters, embedded in [`ServiceMetrics`].
///
/// Current side-log *sizes* live in [`ServiceMetrics::shards`]
/// (`log_postings`, re-sampled from the live snapshot); these are the
/// lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestMetrics {
    /// Change feeds absorbed ([`TenantAdmin::ingest_owned`](crate::TenantAdmin::ingest_owned)).
    pub ingests: u64,
    /// Row events those feeds carried.
    pub events: u64,
    /// Rows those events carried.
    pub rows: u64,
    /// Compactions performed ([`TenantAdmin::compact`](crate::TenantAdmin::compact)).
    pub compactions: u64,
}

/// Durable-restart counters, embedded in [`ServiceMetrics`].  All zero (and
/// `enabled` false) for a service started without a
/// [`DurabilityConfig`](crate::DurabilityConfig).
///
/// [`recovery`](Self::recovery) is the report of the recovery that
/// *created* this service instance
/// ([`QueryService::recover`](crate::QueryService::recover)) and stays
/// constant afterwards; the journal gauges and checkpoint counters advance
/// as the service runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityMetrics {
    /// True when the service journals its ingests.
    pub enabled: bool,
    /// Current size of the feed journal in bytes (header included) — drops
    /// back to one checkpoint record after every compaction.
    pub journal_bytes: u64,
    /// Change feeds appended to the journal since this instance started.
    pub journal_appends: u64,
    /// Checkpoints written (each one truncates the journal).
    pub checkpoints: u64,
    /// Checkpoint attempts that failed and left the journal untouched (the
    /// journal remains replayable; the next durable ingest retries the
    /// checkpoint before it appends).
    pub checkpoint_failures: u64,
    /// What the recovery that opened the journal found and rebuilt.
    pub recovery: RecoveryReport,
}

impl DurabilityMetrics {
    /// The figures of a journal `recover` just opened at `journal_bytes`.
    pub(crate) fn recovered(recovery: RecoveryReport, journal_bytes: u64) -> Self {
        Self {
            enabled: true,
            journal_bytes,
            recovery,
            ..Self::default()
        }
    }
}

/// One snapshot of the service's health, returned by
/// [`QueryService::metrics`](crate::QueryService::metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Time since the service started.
    pub uptime: Duration,
    /// Queries answered (cache hits included).
    pub completed: u64,
    /// Lifetime queries per second (`completed / uptime`).
    pub qps: f64,
    /// End-to-end latency (submission to completion: queue wait **and**
    /// execution), over every answered query — cache hits included.
    pub latency: LatencySummary,
    /// Time executed jobs spent waiting in the queue before a worker picked
    /// them up.  Only queued jobs contribute; cache hits never queue.
    pub queue_wait: LatencySummary,
    /// Time executed jobs spent in the pipeline itself (dequeue to
    /// completion) — end-to-end minus queue wait.
    pub execution: LatencySummary,
    /// Per-stage pipeline latency of executed jobs.
    pub stages: StageLatencies,
    /// Interpretation-cache effectiveness.
    pub cache: CacheStats,
    /// Full pipeline executions performed by the workers — cache misses that
    /// were actually computed (coalesced duplicates excluded).
    pub pipeline_executions: u64,
    /// Submissions that joined an identical in-flight computation instead of
    /// enqueuing a duplicate job.
    pub coalesced: u64,
    /// Queries whose end-to-end latency reached
    /// [`SamplingConfig::slow`](crate::SamplingConfig::slow) —
    /// each one kept as a `"tail_slow"` trace
    /// ([`QueryService::sampled_traces`](crate::QueryService::sampled_traces)).
    pub slow_queries: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Size of the worker pool.
    pub workers: usize,
    /// Generation of the snapshot currently being served (bumped by every
    /// [`reload`](crate::TenantAdmin::reload),
    /// [`refresh_graph`](crate::TenantAdmin::refresh_graph),
    /// [`ingest_owned`](crate::TenantAdmin::ingest_owned) and
    /// [`compact`](crate::TenantAdmin::compact) that publishes).
    pub generation: u64,
    /// Snapshot swaps performed since the service started (full reloads and
    /// graph refreshes; ingests and compactions count separately, in
    /// [`ingest`](Self::ingest)).
    pub reloads: u64,
    /// Streaming-ingestion counters (feeds absorbed, rows ingested,
    /// compactions).
    pub ingest: IngestMetrics,
    /// Per-shard sizes and probe counts of the lookup layer —
    /// re-sampled from the *live* snapshot on every call, so the gauges
    /// track whatever generation is currently serving.
    pub shards: ShardStats,
    /// Crash-safety counters: journal size and appends, checkpoints, and the
    /// replay / cache-restore figures of the recovery that created this
    /// instance.
    pub durability: DurabilityMetrics,
    /// The per-tenant fairness split, one entry per hosted tenant (the
    /// default tenant first).  A single-tenant service reports exactly one
    /// entry whose figures mirror the service-wide ones.
    pub tenants: Vec<TenantMetrics>,
}

/// One hosted tenant's share of the service, embedded in
/// [`ServiceMetrics::tenants`] — the figures an operator compares across
/// tenants to see who is flooding, who is starving and whether admission
/// control is biting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// The tenant name.
    pub tenant: String,
    /// Queries answered for this tenant (warm hits, coalesced waiters and
    /// executed queries alike).
    pub completed: u64,
    /// End-to-end latency of this tenant's answered queries.
    pub latency: LatencySummary,
    /// Submissions answered from the cache at submission time.
    pub warm_hits: u64,
    /// Full pipeline executions performed for this tenant.
    pub executions: u64,
    /// Submissions that blocked in admission control (tenant lane at quota,
    /// or the whole queue at capacity) before enqueueing.
    pub admission_waits: u64,
    /// Queries of this tenant whose end-to-end latency crossed the
    /// slow-query threshold.
    pub slow_queries: u64,
    /// Span trees the adaptive trace sampler retained for this tenant.
    pub sampled_traces: u64,
    /// Jobs currently waiting in this tenant's queue lane.
    pub queue_depth: usize,
    /// Generation of the snapshot this tenant currently serves.
    pub generation: u64,
    /// Snapshot swaps performed for this tenant (reloads and graph
    /// refreshes).
    pub reloads: u64,
    /// Change feeds absorbed for this tenant.
    pub ingest_feeds: u64,
    /// Side-log compactions performed for this tenant.
    pub compactions: u64,
    /// This tenant's crash-safety counters — journal size and appends,
    /// checkpoints, and the replay figures of the recovery that registered
    /// it.  All zero (`enabled` false) on a non-durable service.  For the
    /// default tenant this mirrors [`ServiceMetrics::durability`].
    pub durability: DurabilityMetrics,
}

/// Latency accounting of one tenant's executed queries: one log-bucketed
/// histogram per distribution (~15 KiB each, fixed).  Not internally
/// synchronised; it lives in the tenant's facts.
#[derive(Debug, Clone)]
pub(crate) struct LatencyRecorder {
    /// Submission → dequeue, executed jobs only.
    pub(crate) queue_wait: LogHistogram,
    /// Dequeue → completion, executed jobs only.
    pub(crate) execution: LogHistogram,
    /// Pipeline stages of executed jobs, in [`soda_trace::names::STAGES`] order.
    pub(crate) stages: [LogHistogram; 5],
}

impl LatencyRecorder {
    pub(crate) fn new() -> Self {
        Self {
            queue_wait: LogHistogram::new(),
            execution: LogHistogram::new(),
            stages: std::array::from_fn(|_| LogHistogram::new()),
        }
    }

    /// Records a query that was actually executed: its queue-wait /
    /// execution split and the per-stage timings.
    pub(crate) fn record_executed(
        &mut self,
        queue_wait: Duration,
        execution: Duration,
        timings: Option<&StepTimings>,
    ) {
        self.queue_wait.record(queue_wait);
        self.execution.record(execution);
        if let Some(t) = timings {
            for (hist, stage) in self.stages.iter_mut().zip(stage_durations(t)) {
                hist.record(stage);
            }
        }
    }

    /// Adds `other`'s samples — exact, as every histogram shares one
    /// bucket layout.
    pub(crate) fn merge(&mut self, other: &LatencyRecorder) {
        self.queue_wait.merge(&other.queue_wait);
        self.execution.merge(&other.execution);
        for (hist, other) in self.stages.iter_mut().zip(&other.stages) {
            hist.merge(other);
        }
    }

    /// Per-stage summaries (executed jobs only).
    pub(crate) fn stage_summaries(&self) -> StageLatencies {
        StageLatencies {
            lookup: LatencySummary::of(&self.stages[0]),
            rank: LatencySummary::of(&self.stages[1]),
            tables: LatencySummary::of(&self.stages[2]),
            filters: LatencySummary::of(&self.stages[3]),
            sqlgen: LatencySummary::of(&self.stages[4]),
        }
    }
}

/// The five stage durations of one execution, in [`soda_trace::names::STAGES`] order.
fn stage_durations(t: &StepTimings) -> [Duration; 5] {
    [t.lookup, t.rank, t.tables, t.filters, t.sql]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: impl IntoIterator<Item = Duration>) -> LogHistogram {
        let mut hist = LogHistogram::new();
        for sample in samples {
            hist.record(sample);
        }
        hist
    }

    #[test]
    fn empty_distributions_report_zeros() {
        let r = LatencyRecorder::new();
        assert_eq!(LatencySummary::of(&hist([])), LatencySummary::default());
        assert_eq!(LatencySummary::of(&r.queue_wait), LatencySummary::default());
        assert_eq!(r.stage_summaries(), StageLatencies::default());
    }

    #[test]
    fn summary_tracks_min_mean_max() {
        let s = LatencySummary::of(&hist([10u64, 20, 30].map(Duration::from_millis)));
        // The extremes and the mean are exact; the quantiles are
        // histogram-backed with a bounded over-report (≤ value/32 + 1ns).
        assert_eq!(s.min, Duration::from_millis(10));
        assert_eq!(s.mean, Duration::from_millis(20));
        assert_eq!(s.max, Duration::from_millis(30));
        assert!(s.p50 >= Duration::from_millis(20));
        assert!(s.p50 <= Duration::from_micros(20_626), "p50 = {:?}", s.p50);
    }

    #[test]
    fn quantiles_are_monotone_and_within_extremes() {
        let samples = [3u64, 5000, 70, 70, 900, 12, 40_000, 7].map(Duration::from_micros);
        let s = LatencySummary::of(&hist(samples));
        assert!(s.min <= s.p50);
        assert!(s.p50 <= s.p95);
        assert!(s.p95 <= s.max);
    }

    #[test]
    fn executed_jobs_split_queue_wait_from_execution() {
        let mut r = LatencyRecorder::new();
        let timings = StepTimings {
            lookup: Duration::from_millis(4),
            rank: Duration::from_millis(1),
            tables: Duration::from_millis(2),
            filters: Duration::from_millis(1),
            sql: Duration::from_millis(2),
        };
        r.record_executed(
            Duration::from_millis(5),
            Duration::from_millis(10),
            Some(&timings),
        );
        assert_eq!(r.queue_wait.max(), Duration::from_millis(5));
        assert_eq!(r.execution.max(), Duration::from_millis(10));
        let stages = r.stage_summaries();
        assert_eq!(stages.lookup.max, Duration::from_millis(4));
        assert_eq!(stages.sqlgen.max, Duration::from_millis(2));
    }
}
