//! The read side of the service: the [`ServiceMetrics`] snapshot, the
//! Prometheus exposition and the operational logs.
//!
//! The exposition is **one declaration**: `FAMILIES` lists every metric
//! family — name, help text, kind and source (the extractor, which also
//! fixes the labels and the presence rule) — and one renderer walks it.
//! The golden tests and the family table in `docs/OBSERVABILITY.md` are
//! checked against that table.

use soda_core::{ShardStats, TenantId};
use soda_trace::names;
use soda_trace::prom::{MetricKind, PromWriter};
use soda_trace::{BoundedLog, LogHistogram, OpEvent};

use crate::metrics::{
    DurabilityMetrics, IngestMetrics, LatencyRecorder, LatencySummary, ServiceMetrics,
    TenantMetrics,
};
use crate::request::{SampledTrace, ServiceError};
use crate::service::QueryService;
use crate::slo::{AlertState, BurnAlert};

/// One sample value: integers (counters, exact gauges) render without a
/// decimal point, floats through the exposition's float formatting.
pub(crate) enum Sample {
    Int(u64),
    Float(f64),
}

impl Sample {
    fn write(self, w: &mut PromWriter, name: &str, labels: &[(&str, String)]) {
        match self {
            Sample::Int(value) => w.int_value(name, labels, value),
            Sample::Float(value) => w.value(name, labels, value),
        }
    }
}

/// Where a family's samples come from, which also fixes its label set.
pub(crate) enum Source {
    /// One unlabelled sample off the service snapshot.
    Scalar(fn(&ServiceMetrics) -> Sample),
    /// One sample per shard of the live snapshot, labelled `shard`.
    PerShard(fn(&ShardStats) -> Vec<u64>),
    /// One sample per hosted tenant, labelled `tenant`.
    PerTenant(fn(&TenantMetrics) -> Sample),
    /// [`PerTenant`](Self::PerTenant) over each tenant's journal counters —
    /// present only on a durable service ([`QueryService::recover`]).
    TenantJournal(fn(&DurabilityMetrics) -> Sample),
    /// One sample per evaluated burn alert, labelled `tenant`, `objective`
    /// — present only when [`ServiceConfig::slo`](crate::ServiceConfig::slo)
    /// declares objectives.
    PerAlert(fn(&BurnAlert) -> Sample),
    /// One unlabelled service-wide histogram of executed queries.
    Latency(fn(&LatencyRecorder) -> &LogHistogram),
    /// One histogram per pipeline stage, labelled `stage`.
    StageLatency,
    /// One end-to-end histogram per hosted tenant, labelled `tenant`.
    TenantLatency,
}

/// One metric family of the exposition.
pub(crate) struct Family {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) kind: MetricKind,
    pub(crate) source: Source,
}

/// A family under declaration: kind and name given, help text next.
struct Metric(MetricKind, &'static str);

/// A family under declaration: only its source is missing.
struct Described(MetricKind, &'static str, &'static str);

impl Metric {
    const fn help(self, help: &'static str) -> Described {
        Described(self.0, self.1, help)
    }
}

impl Described {
    const fn from(self, source: Source) -> Family {
        Family {
            name: self.1,
            help: self.2,
            kind: self.0,
            source,
        }
    }
}

use MetricKind::{Counter, Gauge, Histogram};
use Sample::{Float, Int};
use Source::{
    Latency, PerAlert, PerShard, PerTenant, Scalar, StageLatency, TenantJournal, TenantLatency,
};

/// Every family of [`QueryService::metrics_text`], in document order.  The
/// names, kinds and label sets are a stable scrape interface (pinned by
/// `tests/golden/metrics_types.txt` and `metrics_help.txt`).
///
/// Two rules decide what is a row.  No aggregate beside its parts: what is
/// counted per tenant is exported per tenant only (a scraper writes
/// `sum without (tenant)`).  No reader, no family: every row names what
/// reads it in the "Read by" column of `docs/OBSERVABILITY.md`.
pub(crate) static FAMILIES: &[Family] = &[
    Metric(Gauge, "soda_uptime_seconds")
        .help("Time since the service started.")
        .from(Scalar(|m| Float(m.uptime.as_secs_f64()))),
    Metric(Counter, "soda_coalesced_total")
        .help("Submissions that joined an identical in-flight computation.")
        .from(Scalar(|m| Int(m.coalesced))),
    Metric(Counter, "soda_cache_hits_total")
        .help("Interpretation-cache hits.")
        .from(Scalar(|m| Int(m.cache.hits))),
    Metric(Counter, "soda_cache_misses_total")
        .help("Interpretation-cache misses.")
        .from(Scalar(|m| Int(m.cache.misses))),
    Metric(Counter, "soda_cache_evicted_total")
        .help("Pages evicted by LRU capacity pressure.")
        .from(Scalar(|m| Int(m.cache.evictions))),
    Metric(Counter, "soda_cache_purged_total")
        .help("Pages purged by snapshot swaps.")
        .from(Scalar(|m| Int(m.cache.purged))),
    Metric(Counter, "soda_cache_retained_total")
        .help("Pages carried across data-only swaps by retention proofs.")
        .from(Scalar(|m| Int(m.cache.retained))),
    Metric(Gauge, "soda_cache_pages")
        .help("Result pages currently cached.")
        .from(Scalar(|m| Int(m.cache.len as u64))),
    Metric(Counter, "soda_ingest_events_total")
        .help("Row events those feeds carried.")
        .from(Scalar(|m| Int(m.ingest.events))),
    Metric(Counter, "soda_ingest_rows_total")
        .help("Rows those events carried.")
        .from(Scalar(|m| Int(m.ingest.rows))),
    Metric(Counter, "soda_shard_probes_total")
        .help("Inverted-index probes served, per shard of the live snapshot.")
        .from(PerShard(|s| s.probes.clone())),
    Metric(Gauge, "soda_shard_postings")
        .help("Frozen index postings, per shard of the live snapshot.")
        .from(PerShard(|s| as_u64(&s.index_postings))),
    Metric(Gauge, "soda_shard_log_postings")
        .help("Ingestion side-log postings awaiting compaction, per shard.")
        .from(PerShard(|s| as_u64(&s.log_postings))),
    // The per-tenant fairness split: how an operator sees which tenant is
    // flooding, which is starving and whether admission control is biting.
    Metric(Counter, "soda_tenant_queries_completed_total")
        .help("Queries answered, per tenant.")
        .from(PerTenant(|t| Int(t.completed))),
    Metric(Counter, "soda_tenant_warm_hits_total")
        .help("Submissions answered from the cache at submission time, per tenant.")
        .from(PerTenant(|t| Int(t.warm_hits))),
    Metric(Counter, "soda_tenant_pipeline_executions_total")
        .help("Full pipeline executions, per tenant.")
        .from(PerTenant(|t| Int(t.executions))),
    Metric(Counter, "soda_tenant_admission_waits_total")
        .help("Submissions that blocked in admission control, per tenant.")
        .from(PerTenant(|t| Int(t.admission_waits))),
    Metric(Counter, "soda_tenant_slow_queries_total")
        .help("Queries whose end-to-end latency reached the slow-query threshold, per tenant.")
        .from(PerTenant(|t| Int(t.slow_queries))),
    Metric(Counter, "soda_tenant_sampled_traces_total")
        .help("Span trees retained by the adaptive trace sampler, per tenant.")
        .from(PerTenant(|t| Int(t.sampled_traces))),
    Metric(Gauge, "soda_tenant_queue_depth")
        .help("Jobs currently waiting in the tenant's queue lane.")
        .from(PerTenant(|t| Int(t.queue_depth as u64))),
    Metric(Gauge, "soda_tenant_generation")
        .help("Generation of the snapshot the tenant currently serves.")
        .from(PerTenant(|t| Int(t.generation))),
    Metric(Counter, "soda_tenant_reloads_total")
        .help("Snapshot swaps performed, per tenant.")
        .from(PerTenant(|t| Int(t.reloads))),
    Metric(Counter, "soda_tenant_ingest_feeds_total")
        .help("Change feeds absorbed, per tenant.")
        .from(PerTenant(|t| Int(t.ingest_feeds))),
    Metric(Counter, "soda_tenant_compactions_total")
        .help("Side-log compactions performed, per tenant.")
        .from(PerTenant(|t| Int(t.compactions))),
    // Per-tenant journaling is only live on a durable service.
    Metric(Gauge, "soda_tenant_journal_bytes")
        .help("Current size of the tenant's feed journal in bytes.")
        .from(TenantJournal(|d| Int(d.journal_bytes))),
    Metric(Counter, "soda_tenant_journal_appends_total")
        .help("Change feeds appended to the tenant's journal.")
        .from(TenantJournal(|d| Int(d.journal_appends))),
    Metric(Counter, "soda_tenant_checkpoints_total")
        .help("Checkpoints written to the tenant's journal.")
        .from(TenantJournal(|d| Int(d.checkpoints))),
    Metric(Counter, "soda_tenant_checkpoint_failures_total")
        .help("Checkpoint attempts that failed (the tenant's journal left replayable).")
        .from(TenantJournal(|d| Int(d.checkpoint_failures))),
    Metric(Counter, "soda_tenant_replayed_feeds_total")
        .help("Journaled feeds re-absorbed when the tenant was recovered.")
        .from(TenantJournal(|d| Int(d.recovery.replayed_feeds))),
    Metric(Gauge, "soda_slo_fast_burn_rate")
        .help("Error-budget burn rate over the fast window, per tenant and objective.")
        .from(PerAlert(|alert| Float(alert.fast_burn))),
    Metric(Gauge, "soda_slo_slow_burn_rate")
        .help("Error-budget burn rate over the slow window, per tenant and objective.")
        .from(PerAlert(|alert| Float(alert.slow_burn))),
    Metric(Gauge, "soda_slo_alert_state")
        .help("Multi-window burn-alert state (0 = ok, 1 = pending, 2 = firing).")
        .from(PerAlert(|alert| Int(alert.state.code()))),
    Metric(Histogram, "soda_queue_wait_seconds")
        .help("Time executed jobs waited in the queue before a worker picked them up.")
        .from(Latency(|l| &l.queue_wait)),
    Metric(Histogram, "soda_execution_duration_seconds")
        .help("Pipeline execution time of executed jobs (dequeue to completion).")
        .from(Latency(|l| &l.execution)),
    Metric(Histogram, "soda_stage_duration_seconds")
        .help("Per-stage pipeline latency of executed jobs.")
        .from(StageLatency),
    Metric(Histogram, "soda_tenant_query_duration_seconds")
        .help("End-to-end query latency, per tenant.")
        .from(TenantLatency),
];

fn as_u64(sizes: &[usize]) -> Vec<u64> {
    sizes.iter().map(|&size| size as u64).collect()
}

/// Everything one scrape reads, gathered up front by
/// [`QueryService::scrape`], so rendering is a pure walk over `FAMILIES`.
pub(crate) struct Scrape {
    pub(crate) metrics: ServiceMetrics,
    /// The evaluated burn alerts, when objectives are declared.
    pub(crate) slo: Option<Vec<BurnAlert>>,
    /// Queue wait, execution and the stages of executed queries, all
    /// tenants merged.
    pub(crate) latency: LatencyRecorder,
    /// `(tenant name, end-to-end distribution)` per hosted tenant.
    pub(crate) tenant_latency: Vec<(String, LogHistogram)>,
}

impl Scrape {
    /// A family is exposed exactly when the data its source reads exists.
    pub(crate) fn exposes(&self, family: &Family) -> bool {
        match family.source {
            TenantJournal(_) => self.metrics.durability.enabled,
            PerAlert(_) => self.slo.is_some(),
            _ => true,
        }
    }

    /// Writes one family: its header, then one sample (or histogram) per
    /// label value its source yields.
    pub(crate) fn write(&self, w: &mut PromWriter, family: &Family) {
        let name = family.name;
        w.header(name, family.help, family.kind);
        match &family.source {
            Scalar(get) => get(&self.metrics).write(w, name, &[]),
            PerShard(get) => {
                for (shard, value) in get(&self.metrics.shards).into_iter().enumerate() {
                    w.int_value(name, &[("shard", shard.to_string())], value);
                }
            }
            PerTenant(get) => {
                for t in &self.metrics.tenants {
                    get(t).write(w, name, &[("tenant", t.tenant.clone())]);
                }
            }
            TenantJournal(get) => {
                for t in &self.metrics.tenants {
                    get(&t.durability).write(w, name, &[("tenant", t.tenant.clone())]);
                }
            }
            PerAlert(get) => {
                for alert in self.slo.iter().flatten() {
                    let labels = [
                        ("tenant", alert.tenant.clone()),
                        ("objective", alert.objective.to_string()),
                    ];
                    get(alert).write(w, name, &labels);
                }
            }
            Latency(get) => w.histogram(name, &[], get(&self.latency)),
            StageLatency => {
                for (hist, stage) in self.latency.stages.iter().zip(names::STAGES) {
                    w.histogram(name, &[("stage", stage.to_string())], hist);
                }
            }
            TenantLatency => {
                for (tenant, hist) in &self.tenant_latency {
                    w.histogram(name, &[("tenant", tenant.clone())], hist);
                }
            }
        }
    }

    /// The whole document: every exposed family, in table order.
    pub(crate) fn render(&self) -> String {
        let mut w = PromWriter::new();
        for family in FAMILIES.iter().filter(|f| self.exposes(f)) {
            self.write(&mut w, family);
        }
        w.finish()
    }
}

impl QueryService {
    /// A point-in-time snapshot of the service's health, the per-tenant
    /// fairness split ([`ServiceMetrics::tenants`]) included.
    pub fn metrics(&self) -> ServiceMetrics {
        self.scrape().metrics
    }

    /// Gathers everything one read reports — each lock taken alone and
    /// released, each tenant's facts once, so every figure of a tenant is
    /// one snapshot and no read waits on a writer.  Facts are kept once,
    /// on the tenant; the service-wide figures are their sums and merges
    /// (tenants are never removed).  The burn alerts are read-only here:
    /// the transition ledger is only advanced by [`alerts`](Self::alerts).
    pub(crate) fn scrape(&self) -> Scrape {
        let uptime = self.shared.started.elapsed();
        let (cache, coalesced) = {
            let store = self.shared.store.lock().expect("store poisoned");
            (store.cache.stats(), store.coalesced)
        };
        let hosted = self.shared.tenants.all();
        let (queue_depth, lane_depths) = {
            let state = self.shared.queue.lock().expect("queue poisoned");
            let lanes = hosted.iter().map(|t| state.depth_of(t.id.fingerprint()));
            (state.total, lanes.collect::<Vec<usize>>())
        };
        let mut e2e = LogHistogram::new();
        let mut latency = LatencyRecorder::new();
        let (mut events, mut rows) = (0, 0);
        let mut slo = self.shared.config.slo.as_ref().map(|_| Vec::new());
        let mut tenant_latency = Vec::with_capacity(hosted.len());
        let mut tenants = Vec::with_capacity(hosted.len());
        for (t, queue_depth) in hosted.iter().zip(lane_depths) {
            let name = t.id.as_str().to_string();
            let generation = t.snapshot().generation();
            let facts = t.facts();
            e2e.merge(&facts.e2e);
            latency.merge(&facts.latency);
            events += facts.ingest_events;
            rows += facts.ingest_rows;
            if let (Some(alerts), Some(window)) = (&mut slo, &facts.slo) {
                alerts.extend(window.burn_alerts(uptime, &name));
            }
            tenant_latency.push((name.clone(), facts.e2e.clone()));
            tenants.push(TenantMetrics {
                tenant: name,
                completed: facts.e2e.count(),
                latency: LatencySummary::of(&facts.e2e),
                warm_hits: facts.warm_hits,
                executions: facts.latency.execution.count(),
                admission_waits: facts.admission_waits,
                slow_queries: facts.slow_queries,
                sampled_traces: facts.kept.as_ref().map_or(0, BoundedLog::pushed),
                queue_depth,
                generation,
                reloads: facts.reloads,
                ingest_feeds: facts.ingest_feeds,
                compactions: facts.compactions,
                durability: facts.durability,
            });
        }
        let completed = e2e.count();
        let total = |field: fn(&TenantMetrics) -> u64| tenants.iter().map(field).sum::<u64>();
        // Re-sampled from the live snapshot on every call (not captured at
        // construction), so the per-shard gauges and the generation always
        // describe the snapshot that is serving *now*, including after a
        // swap.  The top-level figures describe the default tenant; the
        // per-tenant split is in `tenants`.
        let snapshot = self.shared.tenants.default_tenant().snapshot();
        let uptime_secs = uptime.as_secs_f64();
        let metrics = ServiceMetrics {
            uptime,
            completed,
            qps: if uptime_secs > 0.0 {
                completed as f64 / uptime_secs
            } else {
                0.0
            },
            latency: LatencySummary::of(&e2e),
            queue_wait: LatencySummary::of(&latency.queue_wait),
            execution: LatencySummary::of(&latency.execution),
            stages: latency.stage_summaries(),
            cache,
            pipeline_executions: total(|t| t.executions),
            coalesced,
            slow_queries: total(|t| t.slow_queries),
            queue_depth,
            workers: self.workers.len(),
            generation: snapshot.generation(),
            reloads: total(|t| t.reloads),
            ingest: IngestMetrics {
                ingests: total(|t| t.ingest_feeds),
                events,
                rows,
                compactions: total(|t| t.compactions),
            },
            shards: snapshot.shard_stats(),
            durability: tenants[0].durability,
            tenants,
        };
        Scrape {
            metrics,
            slo,
            latency,
            tenant_latency,
        }
    }

    /// Renders the service's health as a Prometheus text-exposition
    /// document (format 0.0.4): the lifetime counters and point-in-time
    /// gauges of [`metrics`](Self::metrics), the per-tenant fairness
    /// families (`soda_tenant_*`, one sample per hosted tenant, labelled
    /// `tenant="<name>"`), the `soda_slo_*` burn-rate families when an SLO
    /// is declared, and the latency **histograms** (queue wait, execution,
    /// per-stage, and end-to-end per tenant, all in seconds) — the
    /// full-fidelity surface a scrape-based monitoring stack ingests.
    ///
    /// The document always validates against
    /// [`soda_trace::prom::validate`]; the metric names and label sets are a
    /// stable interface, pinned by a golden test.
    pub fn metrics_text(&self) -> String {
        self.scrape().render()
    }

    /// A snapshot of the operational-event log, oldest retained entry
    /// first: snapshot swaps, ingests, compactions, checkpoints, recoveries,
    /// tenant registrations and slow queries, each with a sequence number
    /// and an offset from service start.  The newest 256 are retained.
    pub fn events(&self) -> Vec<OpEvent> {
        self.shared
            .events
            .lock()
            .expect("event log poisoned")
            .to_vec()
    }

    /// One tenant's operational events, oldest retained entry first — the
    /// tenant-filtered view of [`events`](Self::events).
    pub fn events_for(&self, tenant: impl Into<TenantId>) -> Result<Vec<OpEvent>, ServiceError> {
        let id = tenant.into();
        self.shared.tenants.resolve(&id)?;
        Ok(self
            .events()
            .into_iter()
            .filter(|e| e.tenant == id.as_str())
            .collect())
    }

    /// One tenant's kept traces, oldest retained first — the span trees of
    /// the queries its sampler
    /// ([`ServiceConfig::sampling`](crate::ServiceConfig::sampling)) kept:
    /// the slow ones ([`SamplingConfig::slow`](crate::SamplingConfig::slow))
    /// and the head-sampled ones, each with its trace id, retention reason,
    /// end-to-end latency and queue-wait / execution split.  Bounded by
    /// [`SamplingConfig::trace_log`](crate::SamplingConfig::trace_log); empty
    /// when sampling is off.
    pub fn sampled_traces(
        &self,
        tenant: impl Into<TenantId>,
    ) -> Result<Vec<SampledTrace>, ServiceError> {
        let tenant = self.shared.tenants.resolve(&tenant.into())?;
        let facts = tenant.facts();
        Ok(facts
            .kept
            .as_ref()
            .map_or_else(Vec::new, BoundedLog::to_vec))
    }

    /// Evaluates every tenant's burn rates against the declared objectives
    /// ([`ServiceConfig::slo`](crate::ServiceConfig::slo)), emits one
    /// `slo_burn` [`OpEvent`] per alert-state *transition*, and returns the
    /// alerts that are currently pending or firing (an all-healthy fleet
    /// returns an empty vector).  Each tenant's alerts are scored and its
    /// last-seen states advanced under that tenant's facts lock.
    ///
    /// The multi-window rule: an alert **fires** only when both the fast
    /// and the slow window burn faster than the burn threshold
    /// (`slo::BURN_THRESHOLD`); one window alone marks it **pending**.
    /// Returns an empty vector when no SLO is configured.
    pub fn alerts(&self) -> Vec<BurnAlert> {
        let now = self.shared.started.elapsed();
        let mut raised = Vec::new();
        for tenant in self.shared.tenants.all() {
            let mut transitions = Vec::new();
            {
                let mut facts = tenant.facts();
                let facts = &mut *facts;
                let Some(window) = &facts.slo else {
                    continue;
                };
                let alerts = window.burn_alerts(now, tenant.id.as_str());
                for (alert, seen) in alerts.into_iter().zip(&mut facts.alerts) {
                    let prev = std::mem::replace(seen, alert.state);
                    if prev != alert.state {
                        transitions.push(format!(
                            "{} alert {} (was {}): fast burn {:.2}, slow burn {:.2}",
                            alert.objective,
                            alert.state.as_str(),
                            prev.as_str(),
                            alert.fast_burn,
                            alert.slow_burn,
                        ));
                    }
                    if alert.state != AlertState::Ok {
                        raised.push(alert);
                    }
                }
            }
            for detail in transitions {
                self.shared.event("slo_burn", &tenant.id, detail);
            }
        }
        raised
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use soda_core::{EngineSnapshot, SodaConfig};

    use super::*;
    use crate::service::tests::{address_feed, admin, minibank_service};
    use crate::{QueryRequest, SamplingConfig, ServiceConfig};

    #[test]
    fn metrics_cover_latency_cache_and_queue() {
        let service = minibank_service(ServiceConfig::default());
        for _ in 0..3 {
            service
                .query(QueryRequest::new("Sara Guttinger"))
                .wait()
                .unwrap();
        }
        let m = service.metrics();
        assert_eq!(m.completed, 3);
        assert_eq!(m.cache.hits, 2);
        assert!(m.qps > 0.0);
        assert!(m.latency.max >= m.latency.min);
        assert!(m.latency.mean > Duration::ZERO);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.workers, 4);
    }

    #[test]
    fn metrics_report_shard_sizes_and_probes() {
        let w = soda_warehouse::minibank::build(42);
        let snapshot = EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig {
                shards: 4,
                ..SodaConfig::default()
            },
        );
        let service = QueryService::start(Arc::new(snapshot), ServiceConfig::default());
        let m = service.metrics();
        assert_eq!(m.shards.shards, 4);
        assert_eq!(m.shards.index_postings.len(), 4);
        assert_eq!(m.shards.total_probes(), 0);
        // A base-data query scans the shards holding its candidate postings.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.shards.probes.len(), 4);
        assert!(m.shards.total_probes() > 0);
    }

    #[test]
    fn metrics_resample_the_live_snapshot_per_call() {
        // Regression test for the shard gauge being captured once: after a
        // reload with a different shard count, metrics() must describe the
        // swapped-in snapshot, not the boot-time one.
        let w = soda_warehouse::minibank::build(42);
        let service = QueryService::start(
            Arc::new(EngineSnapshot::build(
                Arc::new(w.database.clone()),
                Arc::new(w.graph.clone()),
                SodaConfig {
                    shards: 2,
                    ..SodaConfig::default()
                },
            )),
            ServiceConfig::default(),
        );
        assert_eq!(service.metrics().shards.shards, 2);
        admin(&service).reload(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig {
                shards: 4,
                ..SodaConfig::default()
            },
        ));
        let m = service.metrics();
        assert_eq!(m.shards.shards, 4);
        assert_eq!(m.shards.index_postings.len(), 4);
        // Probes land on the live snapshot's counters.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert!(service.metrics().shards.total_probes() > 0);
    }

    #[test]
    fn metrics_polling_does_not_deadlock_cache_hits() {
        // Regression test: a hit takes the store, then the tenant's facts,
        // while `metrics` reads both — with nested guards in either path
        // this interleaving deadlocks within a few iterations.
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        service
                            .query(QueryRequest::new("Sara Guttinger"))
                            .wait()
                            .unwrap();
                    }
                });
                scope.spawn(|| {
                    for _ in 0..500 {
                        let m = service.metrics();
                        assert!(m.completed >= 1);
                    }
                });
            }
        });
    }

    /// An answer bumps its kind's counter and its tenant's completed count
    /// under one lock, so no poll sees one without the other.
    #[test]
    fn a_tenants_figures_are_one_snapshot() {
        let service = minibank_service(ServiceConfig::default());
        let ask = |request: QueryRequest| service.query(request).wait().unwrap();
        ask(QueryRequest::new("Sara Guttinger"));
        std::thread::scope(|scope| {
            let hammers = [
                scope.spawn(|| {
                    for _ in 0..2_000 {
                        ask(QueryRequest::new("Sara Guttinger"));
                    }
                }),
                scope.spawn(|| {
                    for page in 0..200 {
                        ask(QueryRequest::new("customers").page(page));
                    }
                }),
            ];
            while !hammers.iter().all(|hammer| hammer.is_finished()) {
                for t in service.metrics().tenants {
                    assert!(t.completed >= t.warm_hits + t.executions, "{t:?}");
                }
            }
        });
        let t = &service.metrics().tenants[0];
        assert_eq!((t.warm_hits, t.executions), (2_000, 201));
    }

    #[test]
    fn latency_accounting_splits_queue_wait_from_execution() {
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        // And one cache hit, which must not touch the executed
        // distributions.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.completed, 2);
        assert!(m.execution.max > Duration::ZERO, "{m:?}");
        // The split is exhaustive: neither component exceeds the end-to-end
        // figure of the executed query.
        assert!(m.queue_wait.max <= m.latency.max);
        assert!(m.execution.max <= m.latency.max);
        // Histogram-backed percentiles are monotone by construction.
        assert!(m.latency.min <= m.latency.p50);
        assert!(m.latency.p50 <= m.latency.p95);
        assert!(m.latency.p95 <= m.latency.max);
        // Stage latencies cover the executed pipeline (lookup ran).
        assert!(m.stages.lookup.max > Duration::ZERO);
        assert_eq!(m.stages.lookup.min, m.stages.lookup.max, "one execution");
    }

    /// End-to-end latency is recorded once, on the tenant that answered:
    /// whatever mix of hits, coalesced waiters and executions a tenant
    /// served, the service-wide figures of a one-tenant service are that
    /// tenant's, exactly.
    #[test]
    fn service_wide_latency_is_the_one_tenants_latency() {
        let service = minibank_service(ServiceConfig::default().workers(1));
        // The blocker occupies the single worker, so the duplicate
        // coalesces onto `first` (or, preempted, hits its page).
        let blocker = service.query(QueryRequest::new("wealthy customers"));
        let first = service.query(QueryRequest::new("customers"));
        let duplicate = service.query(QueryRequest::new("customers"));
        for handle in [blocker, first, duplicate] {
            handle.wait().unwrap();
        }
        for _ in 0..3 {
            let hit = service.query(QueryRequest::new("customers"));
            assert!(hit.is_ready());
        }
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 2);
        assert_eq!(m.coalesced + m.cache.hits, 4);
        assert_eq!(m.completed, 6);
        assert_eq!(m.completed, m.tenants[0].completed);
        assert_eq!(m.latency, m.tenants[0].latency);
    }

    /// With two tenants the service-wide count is the sum and the
    /// service-wide latency is the merge of the exported histograms.
    #[test]
    fn service_wide_latency_is_the_tenants_merge() {
        let service = minibank_service(ServiceConfig::default());
        service.add_tenant("acme", service.engine()).unwrap();
        for query in ["Sara Guttinger", "customers", "Sara Guttinger"] {
            service.query(QueryRequest::new(query)).wait().unwrap();
        }
        for query in ["wealthy customers", "wealthy customers"] {
            let request = QueryRequest::new(query).tenant("acme");
            service.query(request).wait().unwrap();
        }
        let m = service.metrics();
        let of = |name: &str| m.tenants.iter().find(|t| t.tenant == name).unwrap();
        assert_eq!((of("default").completed, of("acme").completed), (3, 2));
        assert_eq!(m.completed, 5);

        let mut merged = LogHistogram::new();
        for (_, hist) in &service.scrape().tenant_latency {
            merged.merge(hist);
        }
        assert_eq!(m.latency, LatencySummary::of(&merged));
    }

    #[test]
    fn metrics_text_validates_and_names_every_family() {
        let sampling = SamplingConfig::default().rate(0.0).slow(Duration::ZERO);
        let service = minibank_service(ServiceConfig::default().sampling(sampling));
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        admin(&service)
            .ingest_owned(address_feed(900, "Streamville"))
            .unwrap();
        let text = service.metrics_text();
        soda_trace::prom::validate(&text).expect("exposition must validate");
        // Every family the table declares for this service — not durable,
        // no SLO — is in the document, and no other.
        let scrape = service.scrape();
        for family in FAMILIES {
            assert_eq!(
                text.contains(&format!("# TYPE {} ", family.name)),
                scrape.exposes(family),
                "{}",
                family.name
            );
        }
        // The stage histograms carry one series per pipeline stage.
        for stage in soda_trace::names::STAGES {
            assert!(text.contains(&format!("stage=\"{stage}\"")), "{stage}");
        }
        // Every tenant family is labelled with the tenant name.
        assert!(text.contains("soda_tenant_queries_completed_total{tenant=\"default\"} 2"));
        // A non-durable service exposes no journal families.
        assert!(!text.contains("soda_tenant_journal_bytes"));
    }

    fn kind_name(kind: MetricKind) -> &'static str {
        match kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    /// The table is the interface: its (name, kind) pairs, in order, are
    /// the golden `# TYPE` surface, and no family is declared twice.
    #[test]
    fn the_table_is_the_golden_type_surface() {
        let declared: Vec<String> = FAMILIES
            .iter()
            .map(|f| format!("# TYPE {} {}", f.name, kind_name(f.kind)))
            .collect();
        let golden = include_str!("../../../tests/golden/metrics_types.txt");
        assert_eq!(declared, golden.lines().collect::<Vec<_>>());
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAMILIES.len(), "a family is declared twice");
    }

    /// The generated cells of a family's markdown row.  In
    /// `docs/OBSERVABILITY.md` each row continues with one hand-written
    /// cell, "Read by", so the documented surface cannot drift from the
    /// table and no family is exported without naming what consumes it.
    fn markdown_row(family: &Family) -> String {
        let labels = match family.source {
            Scalar(_) | Latency(_) => "—",
            PerShard(_) => "`shard`",
            PerTenant(_) | TenantJournal(_) | TenantLatency => "`tenant`",
            PerAlert(_) => "`tenant`, `objective`",
            StageLatency => "`stage`",
        };
        let when = match family.source {
            TenantJournal(_) => " *(durable service only)*",
            PerAlert(_) => " *(SLO declared only)*",
            _ => "",
        };
        format!(
            "| `{}` | {} | {labels} | {}{when} |",
            family.name,
            kind_name(family.kind),
            family.help
        )
    }

    /// The "Read by" cell the doc gives `row`, when the doc has the row.
    fn read_by<'a>(doc: &'a str, row: &str) -> Option<&'a str> {
        let rest = doc.lines().find_map(|line| line.strip_prefix(row))?;
        Some(rest.strip_suffix('|')?.trim())
    }

    const DOC: &str = include_str!("../../../docs/OBSERVABILITY.md");

    #[test]
    fn every_family_is_documented() {
        for family in FAMILIES {
            let row = markdown_row(family);
            let reader = read_by(DOC, &row);
            assert!(
                reader.is_some(),
                "docs/OBSERVABILITY.md lacks the row\n{row}"
            );
            assert_ne!(reader, Some(""), "no \"Read by\" cell in the row\n{row}");
        }
    }

    /// Prints the family table for `docs/OBSERVABILITY.md`, carrying over
    /// the "Read by" cells the doc already has: `cargo test -p soda-service
    /// -- --ignored print_family_table --nocapture`.
    #[test]
    #[ignore = "prints the docs table"]
    fn print_family_table() {
        println!("| Family | Kind | Labels | Help | Read by |\n|---|---|---|---|---|");
        for family in FAMILIES {
            let row = markdown_row(family);
            println!("{row} {} |", read_by(DOC, &row).unwrap_or(""));
        }
    }

    #[test]
    fn prometheus_rendering_validates() {
        let mut r = LatencyRecorder::new();
        r.record_executed(
            Duration::from_millis(1),
            Duration::from_millis(2),
            Some(&soda_core::StepTimings::default()),
        );
        let scrape = Scrape {
            latency: r,
            ..minibank_service(ServiceConfig::default()).scrape()
        };
        let mut w = PromWriter::new();
        for family in FAMILIES {
            if matches!(family.source, Latency(_) | StageLatency) {
                scrape.write(&mut w, family);
            }
        }
        let text = w.finish();
        soda_trace::prom::validate(&text).expect("latency families must validate");
        assert!(text.contains("soda_stage_duration_seconds_count{stage=\"lookup\"} 1"));
        assert!(text.contains("soda_queue_wait_seconds_count 1"));
    }
}
