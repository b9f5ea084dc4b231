//! Cross-crate fault-injection tests of the durable-restart layer: a
//! crashed `QueryService` must recover from its write-ahead feed journal
//! into **byte-identical answers** — torn tails truncated, corrupt frames
//! dropped, checkpoints applied — and a gracefully drained one must answer
//! its first repeated queries from the warm cache it recomputes from the
//! persisted keys.

use std::fs;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use soda::journal::frame::write_frame_file;
use soda::journal::{crc32, journal_path};
use soda::prelude::*;
use soda_service::ServiceError;

/// A unique scratch directory removed on drop (`std`-only — the workspace
/// has no tempfile crate).
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(label: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "soda-durability-{label}-{}-{}",
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

fn minibank_parts() -> (Arc<Database>, Arc<MetaGraph>) {
    let w = soda::warehouse::minibank::build(42);
    (Arc::new(w.database), Arc::new(w.graph))
}

fn address_row(id: i64, city: &str) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(1),
        Value::from("Journal Lane 1"),
        Value::from(city),
        Value::from("Switzerland"),
    ]
}

fn address_feed(id: i64, city: &str) -> ChangeFeed {
    ChangeFeed::new().append_row("addresses", address_row(id, city))
}

fn recover_under(
    dir: &Path,
    config: SodaConfig,
) -> Result<(QueryService, RecoveryReport), ServiceError> {
    let (db, graph) = minibank_parts();
    let durability = DurabilityConfig::new(dir);
    QueryService::recover(db, graph, config, ServiceConfig::default(), durability)
}

fn recover_at(dir: &Path) -> (QueryService, RecoveryReport) {
    recover_under(dir, SodaConfig::default()).expect("recovery must succeed")
}

fn page_for(service: &QueryService, query: &str) -> ResultPage {
    service
        .query(QueryRequest::new(query))
        .wait()
        .expect("query must succeed")
        .page
}

fn admin(service: &QueryService) -> TenantAdmin<'_> {
    service
        .admin(TenantId::default())
        .expect("the default tenant always exists")
}

#[test]
fn first_boot_creates_an_empty_journal_and_serves() {
    let dir = TempDir::new("first-boot");
    let (service, report) = recover_at(dir.path());
    assert!(report.journal_created);
    assert!(!report.checkpoint_applied);
    assert_eq!(report.replayed_feeds, 0);
    assert_eq!(report.truncated_bytes, 0);
    assert!(journal_path(dir.path()).exists());

    assert!(!page_for(&service, "Sara Guttinger").results.is_empty());
    let m = service.metrics();
    assert!(m.durability.enabled);
    assert_eq!(m.durability.journal_appends, 0);
    assert!(m.durability.journal_bytes > 0, "the header is on disk");
}

/// The acceptance scenario: kill a service after N ingested feeds — with a
/// mid-frame torn tail on top — and recovery must replay the journal into a
/// service whose every page is byte-identical to one that never crashed.
#[test]
fn crash_after_ingests_recovers_byte_identical_pages() {
    const FEEDS: usize = 5;
    let live_dir = TempDir::new("crash-live");
    let crash_dir = TempDir::new("crash-image");
    let queries = ["Sara Guttinger", "City0", "City3", "wealthy customers"];

    let (before, generation) = {
        let (service, _) = recover_at(live_dir.path());
        for i in 0..FEEDS {
            admin(&service)
                .ingest_owned(address_feed(900 + i as i64, &format!("City{i}")))
                .unwrap();
        }
        let pages: Vec<ResultPage> = queries.iter().map(|q| page_for(&service, q)).collect();
        assert!(!pages[1].results.is_empty(), "the ingested rows must serve");

        // Crash image: the journal is copied while the service is still
        // running (fsync=Always keeps it current), so the graceful-drain
        // cache persist below never reaches this copy — exactly the state a
        // kill -9 leaves behind.
        fs::copy(
            journal_path(live_dir.path()),
            journal_path(crash_dir.path()),
        )
        .unwrap();
        (pages, service.generation())
    };

    // The kill additionally lands mid-append: a frame header announcing 64
    // payload bytes with only 3 behind it.
    let torn = {
        let mut torn = Vec::new();
        torn.extend_from_slice(&64u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        let mut file = OpenOptions::new()
            .append(true)
            .open(journal_path(crash_dir.path()))
            .unwrap();
        file.write_all(&torn).unwrap();
        torn.len() as u64
    };

    let (recovered, report) = recover_at(crash_dir.path());
    assert!(!report.journal_created);
    assert_eq!(report.replayed_feeds, FEEDS as u64);
    assert_eq!(report.rejected_feeds, 0);
    assert_eq!(report.truncated_bytes, torn);
    assert_eq!(report.cache_pages_restored, 0, "a crash persists no cache");
    assert_eq!(
        recovered.generation(),
        generation,
        "replay must reproduce the generation sequence"
    );

    // A reference service that never crashed: same base, same feeds.
    let (db, graph) = minibank_parts();
    let reference = QueryService::start(
        Arc::new(EngineSnapshot::build(db, graph, SodaConfig::default())),
        ServiceConfig::default(),
    );
    for i in 0..FEEDS {
        admin(&reference)
            .ingest_owned(address_feed(900 + i as i64, &format!("City{i}")))
            .unwrap();
    }

    for (query, before) in queries.iter().zip(&before) {
        let after = page_for(&recovered, query);
        assert_eq!(&after, before, "pre-crash page for '{query}' must match");
        assert_eq!(
            after,
            page_for(&reference, query),
            "never-crashed page for '{query}' must match"
        );
    }
    let m = recovered.metrics();
    assert_eq!(m.durability.recovery.replayed_feeds, FEEDS as u64);
    assert_eq!(m.durability.recovery.truncated_bytes, torn);
}

/// A flipped byte fails the frame checksum: the corrupt record and
/// everything behind it are dropped, the intact prefix replays.
#[test]
fn corrupt_tail_is_dropped_and_the_prefix_replays() {
    const FEEDS: usize = 4;
    let live_dir = TempDir::new("corrupt-live");
    let crash_dir = TempDir::new("corrupt-image");
    {
        let (service, _) = recover_at(live_dir.path());
        for i in 0..FEEDS {
            admin(&service)
                .ingest_owned(address_feed(900 + i as i64, &format!("City{i}")))
                .unwrap();
        }
        fs::copy(
            journal_path(live_dir.path()),
            journal_path(crash_dir.path()),
        )
        .unwrap();
    }
    let path = journal_path(crash_dir.path());
    let mut bytes = fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();

    let (recovered, report) = recover_at(crash_dir.path());
    assert_eq!(
        report.replayed_feeds,
        FEEDS as u64 - 1,
        "exactly the corrupted last feed is lost"
    );
    assert!(report.truncated_bytes > 0);
    assert!(!page_for(&recovered, "City0").results.is_empty());
    assert!(
        page_for(&recovered, &format!("City{}", FEEDS - 1))
            .results
            .is_empty(),
        "the corrupted feed's rows must not serve"
    );
}

/// Graceful drain → recover: the pages recomputed from the persisted keys
/// answer the first repeated queries without a worker running the
/// pipeline.  The file is the default tenant's: another hosted tenant's
/// keys are not written to it, so none of the persisted keys is stale.
#[test]
fn graceful_drain_restores_the_warm_cache() {
    let dir = TempDir::new("warm-cache");
    let queries = ["Sara Guttinger", "Streamville"];
    let before: Vec<ResultPage> = {
        let (service, _) = recover_at(dir.path());
        let w = soda::warehouse::minibank::build(7);
        let acme = EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        );
        service.add_tenant("acme", Arc::new(acme)).unwrap();
        admin(&service)
            .ingest_owned(address_feed(900, "Streamville"))
            .unwrap();
        for query in queries {
            let request = QueryRequest::new(query).tenant("acme");
            service.query(request).wait().unwrap();
        }
        queries.iter().map(|q| page_for(&service, q)).collect()
        // Drop = graceful drain: the cache's keys go to pages.cache.
    };
    assert!(dir.path().join("pages.cache").exists());

    let (recovered, report) = recover_at(dir.path());
    assert_eq!(report.cache_pages_restored, queries.len() as u64);
    assert_eq!(report.cache_pages_stale, 0);
    assert_eq!(report.replayed_feeds, 1);

    for (query, before) in queries.iter().zip(&before) {
        assert_eq!(&page_for(&recovered, query), before);
    }
    let m = recovered.metrics();
    assert_eq!(
        m.cache.hits,
        queries.len() as u64,
        "every repeat must be a warm hit"
    );
    assert_eq!(m.pipeline_executions, 0, "no pipeline ran after recovery");
    assert_eq!(
        m.durability.recovery.cache_pages_restored,
        queries.len() as u64
    );
}

/// Compaction writes a checkpoint that truncates the journal; recovery then
/// applies the checkpoint instead of replaying the folded feeds.
#[test]
fn checkpoints_bound_replay_and_recover_exactly() {
    let dir = TempDir::new("checkpoint");
    {
        let (service, _) = recover_at(dir.path());
        for i in 0..3 {
            admin(&service)
                .ingest_owned(address_feed(900 + i, &format!("City{i}")))
                .unwrap();
        }
        let shards: Vec<usize> = (0..service.engine().shard_count()).collect();
        admin(&service).compact(&shards).expect("a log to fold");
        assert_eq!(service.metrics().durability.checkpoints, 1);
        // One more feed lands *after* the checkpoint.
        admin(&service)
            .ingest_owned(address_feed(950, "PostCheckpoint"))
            .unwrap();
    }

    let (recovered, report) = recover_at(dir.path());
    assert!(report.checkpoint_applied);
    assert!(report.checkpoint_rows > 0);
    assert_eq!(
        report.replayed_feeds, 1,
        "only the post-checkpoint feed replays"
    );
    for city in ["City0", "City1", "City2", "PostCheckpoint"] {
        assert!(
            !page_for(&recovered, city).results.is_empty(),
            "rows for {city} must survive"
        );
    }
}

/// Recovering the same directory twice (replay idempotence) changes nothing:
/// same pages, same generation, no duplicated rows.
#[test]
fn recovery_is_idempotent() {
    let dir = TempDir::new("idempotent");
    {
        let (service, _) = recover_at(dir.path());
        admin(&service)
            .ingest_owned(address_feed(900, "Onceville"))
            .unwrap();
        admin(&service)
            .ingest_owned(address_feed(901, "Onceville"))
            .unwrap();
    }
    let (first_page, generation) = {
        let (service, report) = recover_at(dir.path());
        assert_eq!(report.replayed_feeds, 2);
        (page_for(&service, "Onceville"), service.generation())
    };
    let (service, report) = recover_at(dir.path());
    assert_eq!(report.replayed_feeds, 2);
    assert_eq!(service.generation(), generation);
    let second_page = page_for(&service, "Onceville");
    assert_eq!(first_page, second_page, "twice must equal once");
}

/// A durability directory of an earlier format is a foreign journal:
/// version 1 (`SODAJNL1` magic, 16-byte frame header with no tenant field)
/// and version 2 (`SODAJNL2`, whose checkpoints carried a per-shard
/// generation vector).  Recovery refuses either through the bad-magic error
/// and leaves the file byte-identical (never misparsed as a torn tail, never
/// truncated).
#[test]
fn a_version_one_durability_directory_is_rejected_untouched() {
    let dir = TempDir::new("version-one");
    {
        let (service, _) = recover_at(dir.path());
        admin(&service)
            .ingest_owned(address_feed(900, "Oldville"))
            .unwrap();
    }
    let path = journal_path(dir.path());
    let current = fs::read(&path).unwrap();
    assert_eq!(&current[..8], b"SODAJNL3");
    // The version-1 layout: old magic, config fingerprint, frames — no
    // tenant field (bytes 16..24 removed).
    let mut v1 = b"SODAJNL1".to_vec();
    v1.extend_from_slice(&current[8..16]);
    v1.extend_from_slice(&current[24..]);
    // The version-2 layout differs from the current one in checkpoint
    // records only; the magic alone must refuse it.
    let mut v2 = b"SODAJNL2".to_vec();
    v2.extend_from_slice(&current[8..]);

    for old in [v1, v2] {
        fs::write(&path, &old).unwrap();
        let (db, graph) = minibank_parts();
        match QueryService::recover(
            db,
            graph,
            SodaConfig::default(),
            ServiceConfig::default(),
            DurabilityConfig::new(dir.path()),
        ) {
            Err(ServiceError::Durability(msg)) => {
                assert!(msg.contains("bad magic"), "the error must name it: {msg}");
            }
            Err(other) => panic!("expected a durability error, got {other:?}"),
            Ok(_) => panic!("an old-version journal must refuse to recover"),
        }
        assert_eq!(fs::read(&path).unwrap(), old, "rejected journal modified");
    }
}

/// Page-cache files that do not fit — foreign fingerprint, wrong magic, or
/// written for engine state the journal no longer reproduces — are ignored,
/// never an error.
#[test]
fn stale_or_foreign_cache_files_are_ignored_not_fatal() {
    // A cache file stamped with a foreign config fingerprint.
    let dir = TempDir::new("foreign-cache");
    write_frame_file(
        &dir.path().join("pages.cache"),
        *b"SODACSH5",
        0xDEAD_BEEF,
        TenantId::default().fingerprint(),
        &[b"not a page".as_slice()],
    )
    .unwrap();
    let (service, report) = recover_at(dir.path());
    assert_eq!(report.cache_pages_restored, 0);
    assert_eq!(report.cache_pages_stale, 1);
    assert!(!page_for(&service, "Sara Guttinger").results.is_empty());
    drop(service);

    // A cache file with the wrong magic restores nothing (and counts
    // nothing — there is no way to know what it held).
    let dir = TempDir::new("wrong-magic-cache");
    fs::write(dir.path().join("pages.cache"), b"garbage").unwrap();
    let (_service, report) = recover_at(dir.path());
    assert_eq!(report.cache_pages_restored, 0);

    // A cache file of the previous format version — whole pages, each
    // statement stored as its SQL — restores nothing, even under the right
    // fingerprints.
    let dir = TempDir::new("version-four-cache");
    {
        let (service, _) = recover_at(dir.path());
        page_for(&service, "Sara Guttinger");
    }
    let cache = dir.path().join("pages.cache");
    let mut v4 = fs::read(&cache).unwrap();
    assert_eq!(&v4[..8], b"SODACSH5");
    v4[..8].copy_from_slice(b"SODACSH4");
    fs::write(&cache, &v4).unwrap();
    let (_service, report) = recover_at(dir.path());
    assert_eq!(report.cache_pages_restored, 0);

    // A genuinely stale file: persisted after an ingest, but the journal is
    // deleted, so recovery rebuilds generation 0 and the persisted keys'
    // fingerprints no longer match.
    let dir = TempDir::new("stale-cache");
    {
        let (service, _) = recover_at(dir.path());
        admin(&service)
            .ingest_owned(address_feed(900, "Staleville"))
            .unwrap();
        page_for(&service, "Staleville");
    }
    fs::remove_file(journal_path(dir.path())).unwrap();
    let (service, report) = recover_at(dir.path());
    assert_eq!(report.cache_pages_restored, 0);
    assert!(report.cache_pages_stale > 0);
    assert!(
        page_for(&service, "Staleville").results.is_empty(),
        "without the journal the ingested row is gone — and so must be the page"
    );
}

/// A journal written under a different engine configuration is a hard error:
/// silently ignoring it would discard acknowledged ingests.
#[test]
fn journal_config_mismatch_is_a_hard_error() {
    let dir = TempDir::new("config-mismatch");
    {
        let (service, _) = recover_at(dir.path());
        admin(&service)
            .ingest_owned(address_feed(900, "Mismatchville"))
            .unwrap();
    }
    let (db, graph) = minibank_parts();
    let err = match QueryService::recover(
        db,
        graph,
        SodaConfig {
            shards: 2,
            ..SodaConfig::default()
        },
        ServiceConfig::default(),
        DurabilityConfig::new(dir.path()),
    ) {
        Ok(_) => panic!("a foreign journal must refuse to recover"),
        Err(err) => err,
    };
    match err {
        ServiceError::Durability(msg) => {
            assert!(
                msg.contains("config fingerprint"),
                "the error must name the mismatch: {msg}"
            );
        }
        other => panic!("expected a durability error, got {other:?}"),
    }
}

/// The two configurations of the reload scenarios: `A` boots the service,
/// and `B`, which differs in `top_n`, is what a reload swaps in.  Both set
/// `shards`, so `SODA_TEST_SHARDS` cannot make them equal.
fn config_a_and_b() -> (SodaConfig, SodaConfig) {
    let a = SodaConfig {
        shards: 2,
        ..SodaConfig::default()
    };
    let b = SodaConfig {
        top_n: 7,
        ..a.clone()
    };
    assert_ne!(a.fingerprint(), b.fingerprint());
    (a, b)
}

/// Boots under `A`, reloads under `B`, ingests one feed and asks
/// `queries`; returns the service with its pages.
fn reloaded_and_fed(dir: &Path, queries: &[&str]) -> (QueryService, Vec<ResultPage>) {
    let (a, b) = config_a_and_b();
    let (service, _) = recover_under(dir, a).expect("first boot");
    let (db, graph) = minibank_parts();
    admin(&service).reload(EngineSnapshot::build(db, graph, b));
    admin(&service)
        .ingest_owned(address_feed(900, "Reloadville"))
        .unwrap();
    let pages = queries.iter().map(|q| page_for(&service, q)).collect();
    (service, pages)
}

/// A durable reload writes its configuration into the journal: after a
/// reload under another configuration, an ingest and a crash, `recover`
/// under the configuration the service last served replays the journal
/// into the pages it served.
#[test]
fn a_reload_under_another_config_recovers_under_that_config() {
    let dir = TempDir::new("reload-crash");
    let queries = ["Sara Guttinger", "Reloadville", "wealthy customers"];
    let (service, before) = reloaded_and_fed(dir.path(), &queries);
    assert!(!before[1].results.is_empty(), "the ingested row must serve");
    let generation = service.generation();
    // A crash: no drain, no page-cache file.
    std::mem::forget(service);

    let (_, b) = config_a_and_b();
    let (recovered, report) = recover_under(dir.path(), b).expect("recovery under B");
    assert!(report.checkpoint_applied);
    assert_eq!(report.replayed_feeds, 1);
    assert_eq!(report.cache_pages_restored, 0, "a crash persists no cache");
    assert_eq!(recovered.generation(), generation);
    for (query, before) in queries.iter().zip(&before) {
        assert_eq!(&page_for(&recovered, query), before, "{query}");
    }
}

/// The graceful variant: the drained page-cache file carries the live
/// configuration too, so recovery under it restores every warm key and no
/// pipeline runs while they are served.
#[test]
fn a_reload_under_another_config_restores_the_warm_cache() {
    let dir = TempDir::new("reload-drain");
    let queries = ["Sara Guttinger", "Reloadville", "wealthy customers"];
    let (service, before) = reloaded_and_fed(dir.path(), &queries);
    // Drop = graceful drain.
    drop(service);

    let (_, b) = config_a_and_b();
    let (recovered, report) = recover_under(dir.path(), b).expect("recovery under B");
    assert_eq!(report.cache_pages_restored, queries.len() as u64);
    assert_eq!(report.cache_pages_stale, 0);
    for (query, before) in queries.iter().zip(&before) {
        assert_eq!(&page_for(&recovered, query), before, "{query}");
    }
    let m = recovered.metrics();
    assert_eq!(m.cache.hits, queries.len() as u64);
    assert_eq!(m.pipeline_executions, 0, "no pipeline ran after recovery");
}

/// A header-only journal (boot, no ingests, drop) and a checkpoint-only
/// journal (every feed folded away) both recover cleanly.
#[test]
fn empty_and_checkpoint_only_journals_recover() {
    // Header-only: the file exists but holds no records.
    let dir = TempDir::new("empty-journal");
    drop(recover_at(dir.path()));
    let (service, report) = recover_at(dir.path());
    assert!(!report.journal_created, "the journal already existed");
    assert!(!report.checkpoint_applied);
    assert_eq!(report.replayed_feeds, 0);
    assert!(!page_for(&service, "Sara Guttinger").results.is_empty());
    drop(service);

    // Checkpoint-only: compaction folded every feed into the checkpoint.
    let dir = TempDir::new("checkpoint-only");
    let generation = {
        let (service, _) = recover_at(dir.path());
        admin(&service)
            .ingest_owned(address_feed(900, "Foldville"))
            .unwrap();
        let shards: Vec<usize> = (0..service.engine().shard_count()).collect();
        admin(&service).compact(&shards).expect("a log to fold");
        service.generation()
    };
    let (service, report) = recover_at(dir.path());
    assert!(report.checkpoint_applied);
    assert_eq!(
        report.replayed_feeds, 0,
        "everything lives in the checkpoint"
    );
    assert_eq!(service.generation(), generation);
    assert!(!page_for(&service, "Foldville").results.is_empty());
}

/// An ingest on a recovered service keeps journaling: a second crash after
/// further feeds still recovers everything.
#[test]
fn recovered_services_keep_journaling() {
    let dir = TempDir::new("rejournal");
    {
        let (service, _) = recover_at(dir.path());
        admin(&service)
            .ingest_owned(address_feed(900, "FirstLife"))
            .unwrap();
    }
    {
        let (service, report) = recover_at(dir.path());
        assert_eq!(report.replayed_feeds, 1);
        admin(&service)
            .ingest_owned(address_feed(901, "SecondLife"))
            .unwrap();
        assert_eq!(service.metrics().durability.journal_appends, 1);
    }
    let (service, report) = recover_at(dir.path());
    assert_eq!(report.replayed_feeds, 2);
    for city in ["FirstLife", "SecondLife"] {
        assert!(!page_for(&service, city).results.is_empty());
    }
}

/// A feed without events changes nothing, so it must cost nothing: no
/// journal frame (an fsync), no new generation, no pass over the cache.
#[test]
fn an_empty_feed_journals_publishes_and_retains_nothing() {
    let dir = TempDir::new("empty-feed");
    let (service, _) = recover_at(dir.path());
    admin(&service)
        .ingest_owned(address_feed(900, "Streamville"))
        .unwrap();
    let warm = page_for(&service, "Sara Guttinger");
    let before = service.metrics();
    let events_before = service.events().len();
    assert_eq!(before.cache.len, 1);

    let generation = admin(&service).ingest_owned(ChangeFeed::new()).unwrap();

    assert_eq!(generation, before.generation, "the live generation");
    let after = service.metrics();
    assert_eq!(after.generation, before.generation);
    assert_eq!(
        after.durability.journal_appends,
        before.durability.journal_appends
    );
    assert_eq!(
        after.durability.journal_bytes,
        before.durability.journal_bytes
    );
    assert_eq!(after.ingest.ingests, before.ingest.ingests);
    assert_eq!(after.cache.retained, before.cache.retained);
    assert_eq!(after.cache.len, before.cache.len);
    assert_eq!(service.events().len(), events_before, "no event is logged");
    assert_eq!(page_for(&service, "Sara Guttinger"), warm);
    assert_eq!(service.metrics().cache.hits, before.cache.hits + 1);
}

/// `Replace` and `Truncate` frames are journaled and replayed like appends,
/// and the tables they rewrote land in the next checkpoint: a crash after
/// either leaves a service answering byte for byte like an engine built
/// from scratch over the same rows.
#[test]
fn a_replaced_and_a_truncated_table_survive_a_crash_and_a_checkpoint() {
    let queries = [
        "Sara Guttinger",
        "Crashbond",
        "Afterville",
        "customers Zurich",
    ];
    // What a kill -9 leaves behind: the journal as it is on disk while the
    // service still runs (fsync=Always keeps it current), and no cache file.
    let crash_image = |live: &TempDir, label: &str| {
        let image = TempDir::new(label);
        fs::copy(journal_path(live.path()), journal_path(image.path())).unwrap();
        image
    };
    let fresh_pages = |service: &QueryService| -> Vec<ResultPage> {
        let live = service.engine();
        let fresh =
            EngineSnapshot::build(live.database_arc(), live.graph_arc(), live.config().clone());
        queries
            .iter()
            .map(|q| fresh.search_paged(q, 0, 10).expect("reference query runs"))
            .collect()
    };
    let served_pages = |service: &QueryService| -> Vec<ResultPage> {
        queries.iter().map(|q| page_for(service, q)).collect()
    };

    let live_dir = TempDir::new("rewrite-live");
    let (before, generation, first_crash) = {
        let (service, _) = recover_at(live_dir.path());
        let bond = vec![
            Value::Int(1),
            Value::from("Crashbond 2031"),
            Value::from("CH0000000099"),
        ];
        admin(&service)
            .ingest_owned(ChangeFeed::new().replace("securities", vec![bond]))
            .unwrap();
        admin(&service)
            .ingest_owned(
                ChangeFeed::new()
                    .truncate("addresses")
                    .merge(address_feed(900, "Afterville")),
            )
            .unwrap();
        let pages = served_pages(&service);
        assert!(!pages[1].results.is_empty(), "the replacement row serves");
        assert!(!pages[2].results.is_empty(), "the re-appended row serves");
        let image = crash_image(&live_dir, "rewrite-crash-1");
        (pages, service.generation(), image)
    };

    // First crash: both feeds replay from their frames.
    let (recovered, report) = recover_at(first_crash.path());
    assert!(!report.checkpoint_applied);
    assert_eq!(report.replayed_feeds, 2);
    assert_eq!(report.rejected_feeds, 0);
    assert_eq!(recovered.generation(), generation);
    let db = recovered.engine().database_arc();
    assert_eq!(db.table("securities").unwrap().row_count(), 1);
    assert_eq!(db.table("addresses").unwrap().row_count(), 1);
    assert_eq!(served_pages(&recovered), before);
    assert_eq!(before, fresh_pages(&recovered));

    // The fold checkpoints the rewritten tables and truncates the journal.
    let shards: Vec<usize> = (0..recovered.engine().shard_count()).collect();
    admin(&recovered).compact(&shards).expect("a log to fold");
    let folded_generation = recovered.generation();
    let second_crash = crash_image(&first_crash, "rewrite-crash-2");
    drop(recovered);

    // Second crash: everything comes out of the checkpoint.
    let (recovered, report) = recover_at(second_crash.path());
    assert!(report.checkpoint_applied);
    assert_eq!(report.replayed_feeds, 0);
    assert_eq!(recovered.generation(), folded_generation);
    assert_eq!(served_pages(&recovered), before);
    assert_eq!(before, fresh_pages(&recovered));
}

/// Blocks every checkpoint under `dir`: a journal checkpoint is written to
/// a temporary file beside the journal, and a directory stands in its way.
fn block_checkpoints(dir: &Path) -> PathBuf {
    let blocker = dir.join("feed.journal.tmp");
    fs::create_dir(&blocker).unwrap();
    blocker
}

/// Copies the running service's journal into `crash_dir` (fsync=Always
/// keeps it current), drops the service and recovers the copy under the
/// default configuration: the state a kill -9 leaves behind.
fn crash_and_recover(service: QueryService, live_dir: &Path, crash_dir: &Path) -> QueryService {
    fs::copy(journal_path(live_dir), journal_path(crash_dir)).unwrap();
    drop(service);
    recover_at(crash_dir).0
}

/// A reload whose checkpoint fails leaves the journal owing one: the next
/// ingest is refused while the checkpoint still fails, and writes it before
/// appending once it can, so recovery never replays a feed over the
/// pre-reload history.
#[test]
fn a_failed_reload_checkpoint_is_written_before_the_next_append() {
    let (live_dir, crash_dir) = (TempDir::new("owed-live"), TempDir::new("owed-crash"));
    let queries = ["Cityzero", "Reloadville", "Cityone"];
    let (service, _) = recover_at(live_dir.path());
    admin(&service)
        .ingest_owned(address_feed(900, "Cityzero"))
        .unwrap();
    let blocker = block_checkpoints(live_dir.path());
    let (db, graph) = minibank_parts();
    let mut reloaded = (*db).clone();
    reloaded
        .insert("addresses", address_row(901, "Reloadville"))
        .unwrap();
    let config = SodaConfig::default();
    let generation =
        admin(&service).reload(EngineSnapshot::build(Arc::new(reloaded), graph, config));
    assert_eq!(service.metrics().durability.checkpoint_failures, 1);

    let refused = admin(&service).ingest_owned(address_feed(902, "Cityone"));
    assert!(
        matches!(refused, Err(ServiceError::Durability(_))),
        "{refused:?}"
    );
    assert_eq!(
        service.generation(),
        generation,
        "a refused feed publishes nothing"
    );
    assert!(page_for(&service, "Cityone").results.is_empty());
    assert_eq!(service.metrics().durability.checkpoint_failures, 2);

    fs::remove_dir(&blocker).unwrap();
    admin(&service)
        .ingest_owned(address_feed(902, "Cityone"))
        .unwrap();
    let served: Vec<ResultPage> = queries.iter().map(|q| page_for(&service, q)).collect();
    let found: Vec<bool> = served.iter().map(|p| !p.results.is_empty()).collect();
    assert_eq!(found, [false, true, true], "the reload dropped Cityzero");
    let generation = service.generation();

    let recovered = crash_and_recover(service, live_dir.path(), crash_dir.path());
    assert_eq!(recovered.generation(), generation);
    for (query, served) in queries.iter().zip(&served) {
        assert_eq!(&page_for(&recovered, query), served, "{query}");
    }
}

/// A compaction whose checkpoint fails owes it too: once the checkpoint can
/// be written, the next ingest writes it first, and recovery reproduces the
/// served generation, compaction included, and pages.
#[test]
fn a_failed_compaction_checkpoint_is_written_before_the_next_append() {
    let (live_dir, crash_dir) = (
        TempDir::new("owed-fold-live"),
        TempDir::new("owed-fold-crash"),
    );
    let queries = ["Cityzero", "Cityone", "Sara Guttinger"];
    let (service, _) = recover_at(live_dir.path());
    admin(&service)
        .ingest_owned(address_feed(900, "Cityzero"))
        .unwrap();
    let blocker = block_checkpoints(live_dir.path());
    let shards: Vec<usize> = (0..service.engine().shard_count()).collect();
    admin(&service).compact(&shards).expect("a log to fold");
    assert_eq!(service.metrics().durability.checkpoint_failures, 1);

    fs::remove_dir(&blocker).unwrap();
    admin(&service)
        .ingest_owned(address_feed(901, "Cityone"))
        .unwrap();
    let served: Vec<ResultPage> = queries.iter().map(|q| page_for(&service, q)).collect();
    let generation = service.generation();

    let recovered = crash_and_recover(service, live_dir.path(), crash_dir.path());
    assert_eq!(recovered.generation(), generation);
    for (query, served) in queries.iter().zip(&served) {
        assert_eq!(&page_for(&recovered, query), served, "{query}");
    }
}

/// A graph refresh changes no rows, so its checkpoint re-records only the
/// tables feeds changed: recovery applies the one ingested table, not the
/// whole database, and serves the same page.
#[test]
fn a_graph_refresh_checkpoints_only_the_tables_feeds_changed() {
    let dir = TempDir::new("refresh-checkpoint");
    let (service, _) = recover_at(dir.path());
    admin(&service)
        .ingest_owned(address_feed(900, "Refreshville"))
        .unwrap();
    let (_, graph) = minibank_parts();
    admin(&service).refresh_graph(graph);
    let before = page_for(&service, "Refreshville");
    assert!(!before.results.is_empty());
    let addresses = service
        .engine()
        .database()
        .table("addresses")
        .unwrap()
        .row_count();
    // A crash: no drain, so no cache file either.
    std::mem::forget(service);

    let (recovered, report) = recover_at(dir.path());
    assert!(report.checkpoint_applied);
    assert_eq!(report.replayed_feeds, 0);
    assert_eq!(report.checkpoint_rows, addresses);
    assert_eq!(page_for(&recovered, "Refreshville"), before);
}

/// CRC-32 one byte at a time, straight from the polynomial: what every
/// frame of a journal or cache file written so far was checked with.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

proptest! {
    /// The sliced checksum equals the byte-at-a-time one on every length
    /// up to 4 KiB and from every start offset 0–7, so frames written
    /// before it still verify and the words it folds need no alignment.
    #[test]
    fn crc32_matches_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..4_096),
    ) {
        for start in 0..8.min(bytes.len() + 1) {
            let tail = &bytes[start..];
            prop_assert_eq!(crc32(tail), reference_crc32(tail), "{} bytes from {}", tail.len(), start);
        }
    }
}

/// A reload records every table under the name the catalog folds it to,
/// and a feed names its tables folded too, so a table whose schema spells
/// its name in capitals is recorded — and replayed — once.
#[test]
fn a_checkpoint_records_each_table_once() {
    let dir = TempDir::new("each-table-once");
    let (db, graph) = minibank_parts();
    let mut db = (*db).clone();
    let schema = soda::relation::TableSchema::builder("Branch_Office")
        .column("id", soda::relation::DataType::Int)
        .column("city", soda::relation::DataType::Text)
        .build();
    db.create_table(schema).unwrap();
    let base = Arc::new(db.clone());
    db.insert("Branch_Office", vec![Value::Int(1), Value::from("Zurich")])
        .unwrap();
    let recover = || {
        let config = SodaConfig::default();
        let durability = DurabilityConfig::new(dir.path());
        let (base, graph) = (Arc::clone(&base), Arc::clone(&graph));
        QueryService::recover(base, graph, config, ServiceConfig::default(), durability)
            .expect("recovery must succeed")
    };
    let (service, _) = recover();
    let (tables, rows) = (db.table_count(), db.total_rows() + 1);
    let config = SodaConfig::default();
    admin(&service).reload(EngineSnapshot::build(
        Arc::new(db),
        Arc::clone(&graph),
        config,
    ));
    let feed =
        ChangeFeed::new().append_row("Branch_Office", vec![Value::Int(2), Value::from("Basel")]);
    admin(&service).ingest_owned(feed).unwrap();
    let shards: Vec<usize> = (0..service.engine().shard_count()).collect();
    admin(&service)
        .compact(&shards)
        .expect("the feed left a log to fold");
    let checkpoint = service
        .events()
        .into_iter()
        .rev()
        .find(|event| event.kind == "checkpoint")
        .expect("the compaction checkpointed");
    assert!(
        checkpoint.detail.contains(&format!(", {tables} tables,")),
        "{tables} tables: {}",
        checkpoint.detail
    );
    let before = page_for(&service, "Basel");
    std::mem::forget(service);

    let (recovered, report) = recover();
    assert!(report.checkpoint_applied);
    assert_eq!(report.checkpoint_rows, rows, "every table's rows, once");
    assert_eq!(page_for(&recovered, "Basel"), before);
}

/// A tenant's engine may bring its own metadata-graph patterns (how SODA is
/// ported to another warehouse's modelling conventions).  Recovering it from
/// a checkpoint rebuilds it with those patterns, not the defaults, so it
/// answers as it did before the restart.
#[test]
fn a_recovered_tenant_keeps_its_patterns() {
    let dir = TempDir::new("patterns");
    let engine = || {
        // An Inheritance-Child pattern no node matches: no inheritance
        // parent is ever joined to its child.
        let never = "( y inheritance_child x ) & ( y type no_such_node ) & \
                     ( y inheritance_parent p ) & ( y inheritance_child c1 ) & \
                     ( y inheritance_child c2 )";
        let mut patterns = soda::core::SodaPatterns::default();
        patterns.register(Pattern::parse("inheritance_child", never).unwrap());
        let (db, graph) = minibank_parts();
        let config = SodaConfig::default();
        Arc::new(EngineSnapshot::with_patterns(db, graph, config, patterns))
    };
    let ask = |service: &QueryService| {
        let request = QueryRequest::new("private customers Zurich").tenant("acme");
        service.query(request).wait().unwrap().page
    };
    let before = {
        let (service, _) = recover_at(dir.path());
        service.add_tenant("acme", engine()).unwrap();
        let acme = service.admin("acme").unwrap();
        // A graph refresh writes a checkpoint, which recovery rebuilds from.
        acme.refresh_graph(acme.engine().graph_arc());
        ask(&service)
    };
    let top = &before.results[0].sql;
    assert!(top.contains("FROM addresses, individuals WHERE"), "{top}");

    let (recovered, _) = recover_at(dir.path());
    recovered.add_tenant("acme", engine()).unwrap();
    assert_eq!(recovered.admin("acme").unwrap().generation(), 1);
    assert_eq!(ask(&recovered), before);
}

/// The questions whose pages `tests/golden/pages_cache.bin` holds: a
/// base-data hit, a LIKE filter, a metadata-defined filter, an aggregate
/// with grouping and a limit, and joins over several tables.
const GOLDEN_CACHE_QUERIES: [&str; 7] = [
    "Sara Guttinger",
    "wealthy customers",
    "Top 5 sum (amount) group by (transaction date)",
    "count (transactions) group by (company name)",
    "customers Zürich",
    "firstname like ara",
    "salary > 100000",
];

/// `recover_at` with `shards` lookup partitions whatever
/// `SODA_TEST_SHARDS` says: the shard count is part of the fingerprint a
/// persisted key carries, and decides which feeds a page's probes see.
fn recover_sharded(dir: &Path, shards: usize) -> (QueryService, RecoveryReport) {
    let config = SodaConfig {
        shards,
        ..SodaConfig::default()
    };
    recover_under(dir, config).expect("recovery must succeed")
}

/// A page-cache file written by an earlier build restores pages equal to
/// freshly computed ones without a worker running the pipeline, and a
/// drain writes it back byte for byte: the format (`SODACSH5`) holds each
/// page's key alone, so it does not depend on how a page is held in
/// memory.  The same keys under the previous magic restore nothing.
#[test]
fn a_golden_page_cache_file_restores_and_persists_byte_identical() {
    let golden = fs::read("tests/golden/pages_cache.bin").expect("the golden file");
    let dir = TempDir::new("golden-cache");
    fs::write(dir.path().join("pages.cache"), &golden).unwrap();
    {
        let (service, report) = recover_sharded(dir.path(), 1);
        assert_eq!(
            report.cache_pages_restored,
            GOLDEN_CACHE_QUERIES.len() as u64
        );
        assert_eq!(report.cache_pages_stale, 0);
        // Asked in the order the file holds them, so the drain below writes
        // the same recency order back.
        for query in GOLDEN_CACHE_QUERIES {
            let fresh = service.engine().search_paged(query, 0, 10).unwrap();
            assert_eq!(page_for(&service, query), fresh, "{query}");
        }
        assert_eq!(
            service.metrics().pipeline_executions,
            0,
            "every page was a restored one"
        );
        drop(service);
    }
    let written = fs::read(dir.path().join("pages.cache")).unwrap();
    assert!(
        written == golden,
        "the drained file differs from the golden"
    );

    let mut v4 = golden;
    v4[..8].copy_from_slice(b"SODACSH4");
    fs::write(dir.path().join("pages.cache"), &v4).unwrap();
    let (_service, report) = recover_sharded(dir.path(), 1);
    assert_eq!(report.cache_pages_restored, 0);
}

/// Rewrites `tests/golden/pages_cache.bin` from the current build.
#[test]
#[ignore = "rewrites tests/golden/pages_cache.bin"]
fn regenerate_page_cache() {
    let dir = TempDir::new("golden-cache-regenerate");
    {
        let (service, _) = recover_sharded(dir.path(), 1);
        for query in GOLDEN_CACHE_QUERIES {
            assert!(!page_for(&service, query).results.is_empty(), "{query}");
        }
    }
    fs::copy(
        dir.path().join("pages.cache"),
        "tests/golden/pages_cache.bin",
    )
    .unwrap();
}

/// A restored key keeps its page coordinates: page 1 at size 3 comes back
/// as page 1 at size 3, answered as a warm hit.
#[test]
fn a_restored_key_keeps_its_paging() {
    let dir = TempDir::new("paged-cache");
    let query = "name amount";
    let paged = || QueryRequest::new(query).page(1).page_size(3);
    {
        let (service, _) = recover_at(dir.path());
        service.query(paged()).wait().unwrap();
    }
    let (service, report) = recover_at(dir.path());
    assert_eq!(report.cache_pages_restored, 1);
    let page = service.query(paged()).wait().unwrap().page;
    assert_eq!((page.page, page.page_size), (1, 3));
    assert_eq!(page.results.len(), 3, "page 1 of {query} is a full one");
    assert_eq!(page, service.engine().search_paged(query, 1, 3).unwrap());
    let m = service.metrics();
    assert_eq!((m.cache.hits, m.pipeline_executions), (1, 0));
}

/// A restored page carries the probe evidence a data-only swap's
/// retention pass reads: a feed that touches none of its tokens retains
/// it, one that adds hits for them purges it — exactly as on a service
/// that never restarted.
#[test]
fn a_restored_page_keeps_its_retention_evidence() {
    // 8 shards: `addresses` (the feeds' target) is apart from the tables
    // holding the pages' postings, so a feed of another city is provably
    // harmless.
    let shards = 8;
    let queries = ["Sara Guttinger", "Sara"];
    let restarted_dir = TempDir::new("retention-restarted");
    {
        let (service, _) = recover_sharded(restarted_dir.path(), shards);
        for query in queries {
            page_for(&service, query);
        }
    }
    let (restarted, report) = recover_sharded(restarted_dir.path(), shards);
    assert_eq!(report.cache_pages_restored, queries.len() as u64);
    let steady_dir = TempDir::new("retention-steady");
    let (steady, _) = recover_sharded(steady_dir.path(), shards);
    for query in queries {
        page_for(&steady, query);
    }

    let moves = |service: &QueryService, feed: ChangeFeed| {
        let before = service.metrics().cache;
        admin(service).ingest_owned(feed).unwrap();
        let after = service.metrics().cache;
        (
            after.retained - before.retained,
            after.purged - before.purged,
        )
    };
    // Another city: both pages are retained, none purged.
    let untouched = || address_feed(900, "Retainville");
    assert_eq!(moves(&restarted, untouched()), (2, 0));
    assert_eq!(moves(&steady, untouched()), (2, 0));
    // "Sara" as a city: the page that probed it is purged.
    let touched = || address_feed(901, "Sara");
    let moved = moves(&steady, touched());
    assert!(moved.1 > 0, "a feed adding a page's hits purges it");
    assert_eq!(moves(&restarted, touched()), moved);
    for query in queries {
        assert_eq!(page_for(&restarted, query), page_for(&steady, query));
    }
}
