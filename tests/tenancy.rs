//! Cross-crate acceptance tests of multi-tenant hosting: tenants sharing
//! one `QueryService` (one worker pool, one queue, one cache) must answer
//! **byte-identically** to dedicated single-tenant services, never share a
//! cache key, keep their warm hits instant while another tenant floods the
//! queue with cold work, and — on a durable service — recover each from
//! their own write-ahead journal.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use soda::prelude::*;
use soda::warehouse::minibank;
use soda_core::TenantId as CoreTenantId;

const QUERIES: &[&str] = &[
    "Sara Guttinger",
    "wealthy customers",
    "financial instruments customers Zurich",
    "sum (amount) group by (transaction date)",
];

/// A unique scratch directory removed on drop (`std`-only — the workspace
/// has no tempfile crate).
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(label: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "soda-tenancy-{label}-{}-{}",
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

fn snapshot_for_seed(seed: u64) -> Arc<EngineSnapshot> {
    let w = minibank::build(seed);
    Arc::new(EngineSnapshot::build(
        Arc::new(w.database),
        Arc::new(w.graph),
        SodaConfig::default(),
    ))
}

fn page_for(service: &QueryService, tenant: &str, query: &str) -> ResultPage {
    service
        .query(QueryRequest::new(query).tenant(tenant))
        .wait()
        .expect("query serves")
        .page
}

/// Two tenants with different warehouses on ONE shared service answer every
/// query byte-identically (SQL text included) to two dedicated
/// single-tenant services over the same warehouses — hosting is invisible.
#[test]
fn hosted_tenants_match_dedicated_services_byte_for_byte() {
    let shared = QueryService::start(snapshot_for_seed(42), ServiceConfig::default());
    shared
        .add_tenant("acme", snapshot_for_seed(7))
        .expect("acme registers");

    let solo_default = QueryService::start(snapshot_for_seed(42), ServiceConfig::default());
    let solo_acme = QueryService::start(snapshot_for_seed(7), ServiceConfig::default());

    // Two passes: the second is answered from the shared cache, and must
    // still match — per-tenant keys can never cross warehouses.
    for _pass in 0..2 {
        for query in QUERIES {
            let want_default = page_for(&solo_default, "default", query);
            let want_acme = page_for(&solo_acme, "default", query);
            assert_eq!(
                page_for(&shared, "default", query),
                want_default,
                "default tenant diverged on '{query}'"
            );
            assert_eq!(
                page_for(&shared, "acme", query),
                want_acme,
                "acme diverged on '{query}'"
            );
            // The two warehouses genuinely differ, so equality above is
            // meaningful per tenant.
            let d_sql: Vec<&str> = want_default
                .results
                .iter()
                .map(|r| r.sql.as_str())
                .collect();
            let a_sql: Vec<&str> = want_acme.results.iter().map(|r| r.sql.as_str()).collect();
            assert!(!d_sql.is_empty() || !a_sql.is_empty());
        }
    }

    let m = shared.metrics();
    assert_eq!(m.tenants.len(), 2);
    let per_tenant_completed: u64 = m.tenants.iter().map(|t| t.completed).sum();
    assert_eq!(
        per_tenant_completed, m.completed,
        "tenant counters must partition the shared total: {m:?}"
    );
    // Pass two was all warm hits — across BOTH tenants in the one LRU.
    assert_eq!(m.cache.hits, 2 * QUERIES.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache keys can never collide across tenants: for any two distinct
    /// tenant names and any snapshot fingerprint, the tenant-folded
    /// fingerprints differ — even when both tenants serve the *identical*
    /// snapshot.
    #[test]
    fn tenant_folded_cache_keys_never_collide(
        a in "[a-z][a-z0-9-]{0,24}",
        b in "[a-z][a-z0-9-]{0,24}",
        fingerprint in any::<u64>(),
    ) {
        let ta = CoreTenantId::new(&a);
        let tb = CoreTenantId::new(&b);
        if ta != tb {
            prop_assert_ne!(
                ta.fold(fingerprint),
                tb.fold(fingerprint),
                "tenants '{}' and '{}' folded fingerprint {:#x} to one key",
                a, b, fingerprint
            );
        }
        // Folding is deterministic — the same tenant always lands on the
        // same key for the same snapshot.
        prop_assert_eq!(ta.fold(fingerprint), CoreTenantId::new(&a).fold(fingerprint));
    }
}

/// Admission control: tenant A flooding the queue with distinct cold
/// queries must not starve tenant B — B's warm hits are answered at
/// submission time (never queued behind A), and B's lane keeps its share
/// of the queue while A is forced to wait for admission.
#[test]
fn a_cold_storm_on_one_tenant_cannot_starve_anothers_warm_hits() {
    let service = QueryService::start(
        snapshot_for_seed(42),
        ServiceConfig::default()
            .workers(2)
            .queue_capacity(4) // tiny on purpose: A saturates it instantly
            // Roomier than the whole storm: B's warm page must stay because
            // of per-tenant keys, not because eviction happened to spare it.
            .cache_capacity(256),
    );
    service
        .add_tenant("bank-b", snapshot_for_seed(42))
        .expect("bank-b registers");

    // Prime tenant B's warm page before the storm.
    let warm_query = "Sara Guttinger";
    page_for(&service, "bank-b", warm_query);

    let storm_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let service = &service;
        let storm_done = &storm_done;

        // Tenant A: a storm of *distinct* cold queries (every one a cache
        // miss) from two threads, far outnumbering the queue capacity.
        // Handles are collected in bursts — submission runs ahead of the
        // workers, so the storm provably presses against A's admission
        // quota instead of politely pacing itself.  Each query carries a
        // full aggregation (plus a nonce keeping the cache keys distinct)
        // so executing one always costs more than submitting one — the
        // workers cannot outpace the submitters and leave the queue empty.
        for thread in 0..2 {
            scope.spawn(move || {
                let handles: Vec<JobHandle> = (0..40)
                    .map(|i| {
                        service.query(QueryRequest::new(format!(
                            "Nowhere{thread}x{i} sum (amount) group by (transaction date)"
                        )))
                    })
                    .collect();
                for handle in handles {
                    handle.wait().expect("cold queries still serve");
                }
            });
        }

        // Tenant B: repeated warm hits while the storm rages.  Every one
        // must resolve synchronously — a warm hit never enters the queue,
        // so A's backlog cannot delay it.
        scope.spawn(move || {
            let mut warm_hits = 0u64;
            while !storm_done.load(Ordering::Acquire) || warm_hits < 20 {
                let handle = service.query(QueryRequest::new(warm_query).tenant("bank-b"));
                assert!(
                    handle.is_ready(),
                    "a warm hit blocked behind another tenant's storm"
                );
                handle.wait().expect("warm hit serves");
                warm_hits += 1;
                if warm_hits >= 2_000 {
                    break; // plenty of evidence; don't spin forever
                }
            }
        });

        scope.spawn(move || {
            // Closes the storm flag once both flood threads are provably
            // done submitting: the flag only gates the asserting thread's
            // minimum sample count.
            std::thread::sleep(std::time::Duration::from_millis(50));
            storm_done.store(true, Ordering::Release);
        });
    });

    let m = service.metrics();
    let a = m.tenants.iter().find(|t| t.tenant == "default").unwrap();
    let b = m.tenants.iter().find(|t| t.tenant == "bank-b").unwrap();
    assert_eq!(a.executions, 80, "every storm query was a cold execution");
    assert!(b.warm_hits >= 20, "B kept serving warm: {b:?}");
    assert_eq!(
        b.admission_waits, 0,
        "warm hits must never block in admission control: {b:?}"
    );
    // The tiny queue forced A to wait — proof the storm actually pressed
    // against capacity while B stayed instant.
    assert!(
        a.admission_waits > 0,
        "the storm never hit the admission quota: {a:?}"
    );
}

/// Durable multi-tenancy: each tenant journals to its own directory, and a
/// restarted service replays each tenant's journal into byte-identical
/// answers — tenant A's feeds never leak into tenant B's warehouse.
#[test]
fn tenants_recover_from_their_own_journals() {
    let dir = TempDir::new("per-tenant-journal");
    let recover = |dir: &Path| -> QueryService {
        let w = minibank::build(42);
        let (service, _report) = QueryService::recover(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
            ServiceConfig::default(),
            DurabilityConfig::new(dir),
        )
        .expect("durable boot");
        service
    };
    let feed = |id: i64, city: &str| -> ChangeFeed {
        ChangeFeed::new().append_row(
            "addresses",
            vec![
                Value::Int(id),
                Value::Int(1),
                Value::from("Tenant Lane 1"),
                Value::from(city),
                Value::from("Switzerland"),
            ],
        )
    };

    let (before_default, before_acme) = {
        let service = recover(dir.path());
        service
            .add_tenant("acme", snapshot_for_seed(42))
            .expect("acme registers");
        // Different ingests per tenant: the journals must not mix.
        service
            .admin(TenantId::default())
            .unwrap()
            .ingest_owned(feed(900, "Defaultville"))
            .unwrap();
        service
            .admin("acme")
            .unwrap()
            .ingest_owned(feed(901, "Acmeville"))
            .unwrap();
        (
            page_for(&service, "default", "Defaultville"),
            page_for(&service, "acme", "Acmeville"),
        )
        // Drop = graceful drain.
    };
    assert!(!before_default.results.is_empty());
    assert!(!before_acme.results.is_empty());

    // Restart: the default journal replays on boot, acme's on
    // re-registration over the same base snapshot.
    let service = recover(dir.path());
    service
        .add_tenant("acme", snapshot_for_seed(42))
        .expect("acme re-registers");

    assert_eq!(
        page_for(&service, "default", "Defaultville"),
        before_default
    );
    assert_eq!(page_for(&service, "acme", "Acmeville"), before_acme);
    // Isolation after replay: neither tenant serves the other's row.
    assert!(page_for(&service, "default", "Acmeville")
        .results
        .is_empty());
    assert!(page_for(&service, "acme", "Defaultville")
        .results
        .is_empty());
}

/// A named tenant's durable reload writes its configuration into the
/// tenant's journal: after a reload under another configuration, an ingest
/// and a crash, re-registering the tenant with an engine built under that
/// configuration replays the journal into the pages it served.
#[test]
fn a_tenant_reloaded_under_another_config_recovers_under_it() {
    let dir = TempDir::new("tenant-reload");
    let reloaded = SodaConfig {
        top_n: 7,
        ..SodaConfig::default()
    };
    let build = |config: &SodaConfig| {
        let w = minibank::build(7);
        EngineSnapshot::build(Arc::new(w.database), Arc::new(w.graph), config.clone())
    };
    let boot = |dir: &Path| {
        let w = minibank::build(42);
        QueryService::recover(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
            ServiceConfig::default(),
            DurabilityConfig::new(dir),
        )
        .expect("durable boot")
        .0
    };
    let queries: Vec<&str> = QUERIES.iter().copied().chain(["Reloadville"]).collect();
    let before: Vec<ResultPage> = {
        let service = boot(dir.path());
        service
            .add_tenant("acme", snapshot_for_seed(7))
            .expect("acme registers");
        let acme = service.admin("acme").unwrap();
        acme.reload(build(&reloaded));
        let feed = ChangeFeed::new().append_row(
            "addresses",
            vec![
                Value::Int(900),
                Value::Int(1),
                Value::from("Tenant Lane 1"),
                Value::from("Reloadville"),
                Value::from("Switzerland"),
            ],
        );
        acme.ingest_owned(feed).unwrap();
        let pages = queries
            .iter()
            .map(|q| page_for(&service, "acme", q))
            .collect();
        // A crash: nothing is drained.
        std::mem::forget(service);
        pages
    };
    assert!(!before[QUERIES.len()].results.is_empty());

    let service = boot(dir.path());
    service
        .add_tenant("acme", Arc::new(build(&reloaded)))
        .expect("acme recovers under the configuration it last served");
    for (query, before) in queries.iter().zip(&before) {
        assert_eq!(&page_for(&service, "acme", query), before, "{query}");
    }
}

/// The samples of one `tenant`-labelled family of an exposition document,
/// as `(tenant, value)` pairs.
fn tenant_samples<'a>(text: &'a str, family: &str) -> Vec<(&'a str, u64)> {
    let labelled = format!("{family}{{tenant=\"");
    text.lines()
        .filter_map(|line| line.strip_prefix(&labelled)?.split_once("\"} "))
        .map(|(tenant, value)| (tenant, value.parse().expect("an integer sample")))
        .collect()
}

/// The scrape surface exports what is counted per tenant per tenant only,
/// and that lost nothing: summed over `tenant`, each labelled family equals
/// the service-wide `ServiceMetrics` figure that used to be a family of its
/// own, and the default tenant's sample equals what used to be exported as
/// its unlabelled projection.
#[test]
fn tenant_families_sum_to_the_service_wide_figures() {
    let dir = TempDir::new("family-sums");
    let w = minibank::build(42);
    let (service, _report) = QueryService::recover(
        Arc::new(w.database),
        Arc::new(w.graph),
        SodaConfig::default(),
        // A zero threshold: every answered query counts as slow.
        ServiceConfig::default().sampling(SamplingConfig::default().rate(0.0).slow(Duration::ZERO)),
        DurabilityConfig::new(dir.path()),
    )
    .expect("durable boot");
    service
        .add_tenant("acme", snapshot_for_seed(7))
        .expect("acme registers");
    for query in QUERIES {
        page_for(&service, "default", query);
        page_for(&service, "acme", query);
    }
    page_for(&service, "acme", QUERIES[0]); // one warm hit
    let feed = |id: i64| {
        ChangeFeed::new().append_row(
            "addresses",
            vec![
                Value::Int(id),
                Value::Int(1),
                Value::from("Family Lane 1"),
                Value::from("Sumville"),
                Value::from("Switzerland"),
            ],
        )
    };
    let default = service.admin(TenantId::default()).unwrap();
    let acme = service.admin("acme").unwrap();
    default.ingest_owned(feed(900)).unwrap();
    default.ingest_owned(feed(901)).unwrap();
    acme.ingest_owned(feed(902)).unwrap();
    let shards: Vec<usize> = (0..acme.engine().shard_count()).collect();
    acme.compact(&shards).expect("a side log to fold");
    let w = minibank::build(7);
    acme.reload(EngineSnapshot::build(
        Arc::new(w.database),
        Arc::new(w.graph),
        SodaConfig::default(),
    ));

    let m = service.metrics();
    let text = service.metrics_text();
    soda::trace::prom::validate(&text).expect("exposition must validate");
    let sum = |family: &str| -> u64 {
        let samples = tenant_samples(&text, family);
        assert_eq!(
            samples.len(),
            m.tenants.len(),
            "{family}: one sample a tenant"
        );
        samples.iter().map(|(_, value)| value).sum()
    };
    assert_eq!(m.completed, 2 * QUERIES.len() as u64 + 1);
    assert_eq!(sum("soda_tenant_queries_completed_total"), m.completed);
    assert_eq!(
        sum("soda_tenant_query_duration_seconds_count"),
        m.completed,
        "the merged histogram counts every answered query"
    );
    assert_eq!(
        sum("soda_tenant_pipeline_executions_total"),
        m.pipeline_executions
    );
    assert_eq!(m.slow_queries, m.completed);
    assert_eq!(sum("soda_tenant_slow_queries_total"), m.slow_queries);
    assert_eq!(sum("soda_tenant_queue_depth"), m.queue_depth as u64);
    assert_eq!(
        (m.reloads, m.ingest.ingests, m.ingest.compactions),
        (1, 3, 1)
    );
    assert_eq!(sum("soda_tenant_reloads_total"), m.reloads);
    assert_eq!(sum("soda_tenant_ingest_feeds_total"), m.ingest.ingests);
    assert_eq!(sum("soda_tenant_compactions_total"), m.ingest.compactions);

    // The unlabelled families merge what each tenant recorded: every
    // execution lands in the queue-wait, execution and stage histograms
    // once, and every feed's events and rows are counted once.
    let sample = |series: &str| -> u64 {
        let line = text.lines().find_map(|line| line.strip_prefix(series));
        let value = line.and_then(|rest| rest.strip_prefix(' '));
        let value = value.unwrap_or_else(|| panic!("no sample {series}"));
        value.parse().expect("an integer sample")
    };
    for histogram in ["soda_execution_duration_seconds", "soda_queue_wait_seconds"] {
        let count = sample(&format!("{histogram}_count"));
        assert_eq!(count, m.pipeline_executions, "{histogram}");
    }
    for stage in soda::trace::names::STAGES {
        let series = format!("soda_stage_duration_seconds_count{{stage=\"{stage}\"}}");
        assert_eq!(sample(&series), m.pipeline_executions, "{stage}");
    }
    assert_eq!(sample("soda_ingest_events_total"), 3);
    assert_eq!(sample("soda_ingest_rows_total"), 3);

    // The unlabelled generation and journal families described the default
    // tenant: its labelled sample is that figure.
    let of_default = |family: &str| -> u64 {
        let samples = tenant_samples(&text, family);
        let found = samples.iter().find(|(tenant, _)| *tenant == "default");
        found
            .unwrap_or_else(|| panic!("{family} lacks the default tenant"))
            .1
    };
    assert_eq!(of_default("soda_tenant_generation"), m.generation);
    let d = &m.durability;
    assert_eq!(of_default("soda_tenant_journal_bytes"), d.journal_bytes);
    assert_eq!((d.journal_appends, d.checkpoint_failures), (2, 0));
    assert_eq!(
        of_default("soda_tenant_journal_appends_total"),
        d.journal_appends
    );
    assert_eq!(of_default("soda_tenant_checkpoints_total"), d.checkpoints);
    assert_eq!(
        of_default("soda_tenant_checkpoint_failures_total"),
        d.checkpoint_failures
    );
}

/// `tenants()` lists the default tenant first and new tenants in
/// registration order; unknown tenants stay rejected after registrations.
#[test]
fn the_tenant_roster_tracks_registrations() {
    let service = QueryService::start(snapshot_for_seed(42), ServiceConfig::default());
    let roster = |service: &QueryService| -> Vec<String> {
        service
            .tenants()
            .iter()
            .map(|t| t.as_str().to_string())
            .collect()
    };
    assert_eq!(roster(&service), vec!["default"]);
    assert!(service.tenants()[0].is_default());
    service
        .add_tenant("acme", snapshot_for_seed(7))
        .expect("acme registers");
    service
        .add_tenant("globex", snapshot_for_seed(9))
        .expect("globex registers");
    assert_eq!(roster(&service), vec!["default", "acme", "globex"]);
    assert!(matches!(
        service.query(QueryRequest::new("x").tenant("initech")).wait(),
        Err(soda_service::ServiceError::UnknownTenant(t)) if t == "initech"
    ));
    // A tenant that has taken no traffic still scrapes, as zero samples.
    let text = service.metrics_text();
    soda::trace::prom::validate(&text).expect("exposition must validate");
    assert_eq!(
        tenant_samples(&text, "soda_tenant_queries_completed_total"),
        vec![("default", 0), ("acme", 0), ("globex", 0)]
    );
}
