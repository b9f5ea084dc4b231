//! Cross-crate acceptance tests of the observability surface: end-to-end
//! query traces (span trees with per-shard probe sub-spans), the queue-wait /
//! execution latency split, the per-tenant ring of kept traces and the
//! Prometheus text exposition — including the golden `# TYPE` surface that
//! pins the metric names as a stable interface.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use soda::prelude::*;
use soda::warehouse::enterprise::{self, EnterpriseConfig};
use soda_trace::names;

/// A unique scratch directory removed on drop (`std`-only — the workspace
/// has no tempfile crate).
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(label: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "soda-observability-{label}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).expect("creating temp dir");
        Self { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

fn enterprise_service(shards: usize) -> QueryService {
    enterprise_service_with(shards, ServiceConfig::default())
}

fn enterprise_service_with(shards: usize, config: ServiceConfig) -> QueryService {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.1,
    });
    let snapshot = EngineSnapshot::build(
        Arc::new(warehouse.database),
        Arc::new(warehouse.graph),
        SodaConfig {
            shards,
            ..SodaConfig::default()
        },
    );
    QueryService::start(Arc::new(snapshot), config)
}

/// A head-sampled service at rate 1 keeps every answer's span tree.
fn sampled_enterprise_service(shards: usize) -> QueryService {
    let sampling = SamplingConfig::default().rate(1.0);
    enterprise_service_with(shards, ServiceConfig::default().sampling(sampling))
}

/// The tentpole acceptance: a kept query on the enterprise warehouse
/// yields a span tree with all five pipeline stages and at least one
/// per-shard probe sub-span, and the stage durations account for the bulk
/// of the end-to-end execution.
#[test]
fn traced_enterprise_query_yields_the_full_span_tree() {
    let service = sampled_enterprise_service(4);
    let queries = [
        "financial instruments customers Zurich",
        "customers Zurich",
        "Credit Suisse",
    ];
    for query in queries {
        let answer = service
            .query(QueryRequest::new(query))
            .wait()
            .expect("the query succeeds");
        assert!(!answer.page.results.is_empty(), "{query}");
    }
    let kept = service.sampled_traces(TenantId::default()).unwrap();
    assert_eq!(kept.len(), queries.len(), "every execution is kept");
    // What each trace's five stages cover of its root span.
    let mut coverage = Vec::new();
    for kept in &kept {
        let trace = &kept.trace;
        let root = trace.find(names::QUERY).expect("query root span");
        for stage in names::STAGES {
            assert!(
                root.children.iter().any(|c| c.name == stage),
                "missing stage {stage} in\n{}",
                trace.render()
            );
        }
        let probes = trace.all_spans();
        // Probe sub-spans carry the frozen/side-log candidate split and the
        // owning shard.
        let shard_span = probes
            .iter()
            .find(|s| s.name == names::PROBE_SHARD)
            .unwrap_or_else(|| {
                panic!(
                    "expected at least one per-shard probe sub-span in\n{}",
                    trace.render()
                )
            });
        assert!(shard_span.field("shard").is_some());
        assert!(shard_span.field("frozen_candidates").is_some());
        assert!(shard_span.field("log_candidates").is_some());
        let stage_sum: Duration = names::STAGES.iter().map(|s| trace.sum_durations(s)).sum();
        assert!(
            stage_sum <= root.duration,
            "stage sum {stage_sum:?} exceeds the root span {:?}",
            root.duration
        );
        let covered = stage_sum.as_secs_f64() / root.duration.as_secs_f64();
        coverage.push((covered, stage_sum, root.duration, trace.render()));
    }

    // The five stages account for (almost all of) the end-to-end execution:
    // their durations sum to at least half of the root (parsing and page
    // slicing are the only work outside the stages).  Judged on the
    // best-covered trace: on a busy host the test's other threads can
    // deschedule the worker between two stages of any one query, and the
    // gap then lands outside every stage span.
    let (_, stage_sum, root, render) = coverage
        .into_iter()
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("three traces");
    assert!(
        stage_sum * 2 >= root,
        "stages cover too little of the root span: {stage_sum:?} of {root:?}\n{render}"
    );
}

/// The queue-wait / execution split: with a single worker pinned down by a
/// batch, later jobs provably wait in the queue, and the split figures are
/// consistent with the end-to-end latency.
#[test]
fn queue_wait_is_split_from_execution() {
    let w = soda::warehouse::minibank::build(42);
    let snapshot = EngineSnapshot::build(
        Arc::new(w.database),
        Arc::new(w.graph),
        SodaConfig::default(),
    );
    let service = QueryService::start(
        Arc::new(snapshot),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    // Distinct cold queries: each one occupies the single worker while the
    // rest wait in the queue, so queue wait is structurally non-zero.
    let handles: Vec<JobHandle> = [
        "Sara Guttinger",
        "wealthy customers",
        "customers Zurich",
        "Credit Suisse",
    ]
    .iter()
    .map(|q| service.query(QueryRequest::new(*q)))
    .collect();
    let results: Vec<JobResult> = handles.into_iter().map(JobHandle::wait).collect();
    assert!(results.iter().all(|r| r.is_ok()));

    let m = service.metrics();
    assert_eq!(m.completed, 4);
    assert_eq!(m.pipeline_executions, 4);
    assert!(m.execution.max > Duration::ZERO);
    assert!(
        m.queue_wait.max > Duration::ZERO,
        "with one worker the later jobs must have queued: {m:?}"
    );
    // Every component of an executed query is bounded by some end-to-end
    // sample: the slowest query waited and executed within the max latency.
    assert!(m.queue_wait.max <= m.latency.max);
    assert!(m.execution.max <= m.latency.max);
    // Stage latencies only ever cover executed pipelines, and their maxima
    // are bounded by the slowest execution.
    assert!(m.stages.lookup.max <= m.execution.max);
    assert!(m.stages.sqlgen.max <= m.execution.max);
}

/// A query over the slow-query threshold lands its full span tree in its
/// tenant's bounded ring of kept traces, with the queue-wait / execution
/// split attached.
#[test]
fn slow_queries_land_full_traces_in_the_log() {
    let w = soda::warehouse::minibank::build(42);
    let snapshot = EngineSnapshot::build(
        Arc::new(w.database),
        Arc::new(w.graph),
        SodaConfig {
            shards: 4,
            ..SodaConfig::default()
        },
    );
    // A zero threshold makes every answered query slow — a demo setting:
    // only it can see that the end-to-end figure decides for warm hits too
    // (there are none here).
    let service = QueryService::start(
        Arc::new(snapshot),
        ServiceConfig::default().sampling(
            SamplingConfig::default()
                .rate(0.0)
                .trace_log(2)
                .slow(Duration::ZERO),
        ),
    );
    for query in ["Sara Guttinger", "wealthy customers", "Credit Suisse"] {
        service.query(QueryRequest::new(query)).wait().unwrap();
    }
    let m = service.metrics();
    assert_eq!(m.slow_queries, 3);
    assert_eq!(m.tenants[0].sampled_traces, 3);
    // The ring is bounded: only the newest two captures survive.
    let slow = service.sampled_traces(TenantId::default()).unwrap();
    assert_eq!(slow.len(), 2);
    assert_eq!(slow[0].input, "wealthy customers");
    assert_eq!(slow[1].input, "Credit Suisse");
    for capture in &slow {
        assert_eq!(capture.reason, "tail_slow");
        assert!(capture.total >= capture.queue_wait + capture.execution);
        let root = capture.trace.find(names::QUERY).expect("query root");
        assert_eq!(root.children.len(), 5, "{}", capture.trace.render());
    }
    // The base-data query captured its per-shard probes.
    assert!(slow[1]
        .trace
        .all_spans()
        .iter()
        .any(|s| s.name == names::PROBE_SHARD));
}

/// The exposition of a durable + sampling + SLO service that served one
/// query and one ingest — every family present, the state the golden files
/// were captured from.
fn golden_metrics_text() -> String {
    let (db, graph) = {
        let w = soda::warehouse::minibank::build(42);
        (Arc::new(w.database), Arc::new(w.graph))
    };
    let dir = TempDir::new("golden");
    // A durable service exposes every family, journal gauges included.
    let (service, _report) = QueryService::recover(
        db,
        graph,
        SodaConfig::default(),
        ServiceConfig {
            // A demo threshold: every answered query is slow, so the one
            // query below is kept as `tail_slow`, not `head`.
            sampling: Some(SamplingConfig::default().rate(1.0).slow(Duration::ZERO)),
            // An SLO is declared so the `soda_slo_*` families are part of
            // the golden surface.
            slo: Some(SloConfig::default()),
            ..ServiceConfig::default()
        },
        DurabilityConfig::new(dir.path()),
    )
    .expect("durable boot");
    service
        .query(QueryRequest::new("Sara Guttinger"))
        .wait()
        .unwrap();
    service
        .admin(TenantId::default())
        .expect("default tenant")
        .ingest_owned(ChangeFeed::new().append_row(
            "addresses",
            vec![
                Value::Int(900),
                Value::Int(1),
                Value::from("Metric Lane 1"),
                Value::from("Promville"),
                Value::from("Switzerland"),
            ],
        ))
        .unwrap();

    service.metrics_text()
}

/// The `# HELP` and `# TYPE` lines of a document, in order.
fn header_lines(text: &str) -> Vec<&str> {
    text.lines().filter(|l| l.starts_with("# ")).collect()
}

/// The Prometheus exposition parses as valid text format 0.0.4 and its
/// family surface (`# TYPE` lines: names and kinds) matches the checked-in
/// golden file — the scrape interface is stable.  The `# HELP` texts are
/// pinned beside it.
#[test]
fn metrics_text_matches_the_golden_type_surface() {
    let text = golden_metrics_text();
    soda::trace::prom::validate(&text).expect("exposition must validate");

    let got: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    let golden = include_str!("golden/metrics_types.txt");
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(
        got, want,
        "the metric-family surface changed; update tests/golden/metrics_types.txt \
         only on a deliberate interface change"
    );
    let golden = include_str!("golden/metrics_help.txt");
    assert_eq!(
        header_lines(&text),
        golden.lines().collect::<Vec<_>>(),
        "the HELP/TYPE headers changed; regenerate tests/golden/metrics_help.txt \
         only on a deliberate interface change"
    );
}

/// Rewrites `tests/golden/metrics_help.txt` from the current exposition.
/// Run by hand only:
/// `cargo test --test observability -- --ignored regenerate`.
#[test]
#[ignore = "rewrites tests/golden/metrics_help.txt"]
fn regenerate() {
    let text = golden_metrics_text();
    let mut out = header_lines(&text).join("\n");
    out.push('\n');
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_help.txt");
    fs::write(path, out).expect("writing the golden file");
}

/// Tracing is invisible to callers: a service that keeps every span tree
/// answers byte-identically to one that keeps none, across shard counts.
#[test]
fn traced_and_untraced_answers_are_byte_identical() {
    for shards in [1usize, 4] {
        let untraced = enterprise_service(shards);
        let traced = sampled_enterprise_service(shards);
        for query in ["customers Zurich", "Credit Suisse"] {
            let expected = untraced.query(QueryRequest::new(query)).wait().unwrap();
            let got = traced.query(QueryRequest::new(query)).wait().unwrap();
            assert_eq!(
                got.page, expected.page,
                "'{query}' diverged under tracing at {shards} shards"
            );
        }
        let kept = traced.sampled_traces(TenantId::default()).unwrap();
        assert_eq!(kept.len(), 2, "both executions kept at {shards} shards");
    }
}

/// Adaptive sampling is invisible to callers too: with head sampling at
/// 100% the answers stay byte-identical to an unsampled service, every
/// query (cold executions *and* warm cache hits) lands its span tree in
/// the per-tenant ring, and the exposition still validates.
#[test]
fn sampled_queries_answer_byte_identically_and_land_in_the_ring() {
    let plain = enterprise_service(4);
    let sampled = sampled_enterprise_service(4);
    for query in ["customers Zurich", "Credit Suisse"] {
        let expected = plain.query(QueryRequest::new(query)).wait().unwrap();
        let cold = sampled.query(QueryRequest::new(query)).wait().unwrap();
        assert_eq!(
            cold.page, expected.page,
            "'{query}' diverged under sampling"
        );
        let warm = sampled.query(QueryRequest::new(query)).wait().unwrap();
        assert_eq!(
            warm.page, expected.page,
            "'{query}' diverged on the warm hit"
        );
    }

    let traces = sampled
        .sampled_traces(TenantId::default())
        .expect("default tenant");
    assert_eq!(traces.len(), 4, "two cold + two warm captures");
    assert!(traces.iter().all(|t| t.reason == "head"));
    assert!(traces
        .iter()
        .all(|t| t.trace_id.len() == 16 && t.trace_id.chars().all(|c| c.is_ascii_hexdigit())));
    // Cold captures fold the full five-stage pipeline tree; warm hits get a
    // synthesized `cache_hit` event under the query root instead.
    let warm_hits = traces
        .iter()
        .filter(|t| t.trace.find(names::CACHE_HIT).is_some())
        .count();
    assert_eq!(warm_hits, 2, "both repeat queries were warm-hit captures");
    assert!(traces.iter().any(|t| {
        t.trace
            .find(names::QUERY)
            .is_some_and(|root| root.children.len() == 5)
    }));

    let text = sampled.metrics_text();
    soda::trace::prom::validate(&text).expect("exposition must validate");
    assert!(text.contains("soda_tenant_sampled_traces_total{tenant=\"default\"} 4"));
}

/// The end-to-end SLO story: of two co-hosted tenants with declared latency
/// objectives, the one pushed past its objective raises a Firing burn-rate
/// alert — visible via [`QueryService::alerts`], the `slo_burn` event kind
/// and the `soda_slo_*` metric families — while the healthy tenant raises
/// none.
#[test]
fn a_breached_latency_objective_raises_a_burn_alert_for_that_tenant_only() {
    let w = soda::warehouse::minibank::build(42);
    let snapshot = Arc::new(EngineSnapshot::build(
        Arc::new(w.database),
        Arc::new(w.graph),
        SodaConfig::default(),
    ));
    // The default tenant's objective is unreachable by construction (an
    // hour), the "stress" tenant's is zero — every one of its queries
    // burns budget, deterministically on any machine.
    let service = QueryService::start(
        Arc::clone(&snapshot),
        ServiceConfig::default().slo(
            SloConfig::default()
                .latency_objective(Duration::from_secs(3600))
                .tenant_latency("stress", Duration::ZERO),
        ),
    );
    service
        .add_tenant("stress", Arc::clone(&snapshot))
        .expect("hosting the stress tenant");
    for query in ["Sara Guttinger", "wealthy customers", "Credit Suisse"] {
        service.query(QueryRequest::new(query)).wait().unwrap();
        service
            .query(QueryRequest::new(query).tenant("stress"))
            .wait()
            .unwrap();
    }

    let alerts = service.alerts();
    let firing = alerts
        .iter()
        .find(|a| a.tenant == "stress" && a.objective == "latency")
        .expect("the stress tenant's latency budget is burning");
    assert_eq!(firing.state, AlertState::Firing);
    assert!(
        firing.fast_burn > 1.0 && firing.slow_burn > 1.0,
        "{firing:?}"
    );
    // The healthy co-hosted tenant raises nothing: every surfaced alert
    // belongs to the breaching tenant.
    assert!(
        alerts.iter().all(|a| a.tenant == "stress"),
        "unexpected alerts: {alerts:?}"
    );

    // The Ok -> Firing transition landed in the operational event log,
    // attributed to the breaching tenant — and only there.
    let stress_events = service.events_for("stress").expect("stress tenant");
    assert!(stress_events
        .iter()
        .any(|e| e.kind == "slo_burn" && e.detail.contains("latency alert firing")));
    let default_events = service.events_for(TenantId::default()).expect("default");
    assert!(default_events.iter().all(|e| e.kind != "slo_burn"));

    // A second poll sees no transition, so it logs no second event.
    let again = service.alerts();
    assert!(again
        .iter()
        .any(|a| a.tenant == "stress" && a.objective == "latency"));
    let stress_events = service.events_for("stress").expect("stress tenant");
    let burns = stress_events.iter().filter(|e| e.kind == "slo_burn");
    assert_eq!(burns.count(), 1, "{stress_events:?}");

    // And the scrape surface tells the same story per tenant.
    let text = service.metrics_text();
    soda::trace::prom::validate(&text).expect("exposition must validate");
    assert!(text.contains("soda_slo_alert_state{tenant=\"stress\",objective=\"latency\"} 2"));
    assert!(text.contains("soda_slo_alert_state{tenant=\"default\",objective=\"latency\"} 0"));
}
