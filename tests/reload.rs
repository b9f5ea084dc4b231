//! Cross-crate integration tests of hot snapshot swapping: a `QueryService`
//! must survive full reloads, ingested table replacements and folds under
//! sustained concurrent load with **zero dropped or errored queries**, every
//! returned page byte-identical to a single-threaded run against *some*
//! published generation, and coalesced requesters never crossing generations.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use soda::ingest::absorb;
use soda::prelude::*;
use soda::warehouse::minibank;
use soda_core::SodaError;

/// Distinct inverted-index partitions so per-shard swaps are meaningful.
const SHARDS: usize = 4;
/// Published generations beyond the boot snapshot.
const GENERATIONS: usize = 6;

fn admin(service: &QueryService) -> TenantAdmin<'_> {
    service
        .admin(TenantId::default())
        .expect("the default tenant always exists")
}

fn config() -> SodaConfig {
    SodaConfig {
        shards: SHARDS,
        ..SodaConfig::default()
    }
}

/// The database of generation `g`: the seeded mini-bank plus exactly one
/// extra address whose city embeds the generation number.  Each generation
/// derives from the *base*, so any two generations differ only in the
/// `addresses` table, and the marker query below gets a different — single,
/// distinct — matching cell value per generation.
fn generation_db(base: &Database, g: usize) -> Database {
    let mut db = base.clone();
    db.insert(
        "addresses",
        vec![
            Value::Int(900 + g as i64),
            Value::Int(1),
            Value::from("Swap Lane 1"),
            Value::from(format!("Reloadville Gen{g}")),
            Value::from("Switzerland"),
        ],
    )
    .expect("generation row inserts");
    db
}

/// Generation `g` as a data change against *any* other generation: the
/// wholesale replacement of the one table they differ in.
fn generation_feed(base: &Database, g: usize) -> ChangeFeed {
    let addresses = generation_db(base, g)
        .table("addresses")
        .expect("addresses exists")
        .rows()
        .to_vec();
    ChangeFeed::new().replace("addresses", addresses)
}

/// The query whose answer identifies the generation that served it.
const MARKER_QUERY: &str = "Reloadville";
/// A query whose answer is generation-invariant (its tables never change).
const STABLE_QUERY: &str = "Sara Guttinger";

fn snapshot_over(db: Database, graph: &MetaGraph) -> EngineSnapshot {
    EngineSnapshot::build(Arc::new(db), Arc::new(graph.clone()), config())
}

/// Single-threaded reference pages, one per generation (index 0 = boot).
fn expected_pages(base: &Database, graph: &MetaGraph) -> Vec<ResultPage> {
    (0..=GENERATIONS)
        .map(|g| {
            let db = if g == 0 {
                base.clone()
            } else {
                generation_db(base, g)
            };
            snapshot_over(db, graph)
                .search_paged(MARKER_QUERY, 0, 10)
                .expect("reference query runs")
        })
        .collect()
}

/// N client threads hammer `submit` while a writer publishes generation
/// after generation — alternating full reloads and ingested replacements.
/// Every page served must be byte-identical to the single-threaded answer
/// of *some* published generation; nothing may error or drop.
#[test]
fn concurrent_reloads_never_drop_or_corrupt_a_query() {
    let w = minibank::build(42);
    let expected = expected_pages(&w.database, &w.graph);
    // Sanity: the marker pages identify their generation unambiguously.
    for (i, a) in expected.iter().enumerate() {
        for b in expected.iter().skip(i + 1) {
            assert_ne!(a, b, "marker pages must differ between generations");
        }
    }
    let stable_expected = snapshot_over(w.database.clone(), &w.graph)
        .search_paged(STABLE_QUERY, 0, 10)
        .expect("stable query runs");

    let service = QueryService::start(
        Arc::new(snapshot_over(w.database.clone(), &w.graph)),
        ServiceConfig {
            workers: 4,
            queue_capacity: 32,
            cache_capacity: 64,
            ..ServiceConfig::default()
        },
    );

    let writer_done = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let service = &service;
        let expected = &expected;
        let stable_expected = &stable_expected;
        let writer_done = &writer_done;
        let served = &served;

        // The writer: publish every generation, alternating the full-swap
        // and the feed path, while the clients below keep submitting.
        scope.spawn(move || {
            for g in 1..=GENERATIONS {
                let generation = if g % 2 == 0 {
                    admin(service).reload(snapshot_over(generation_db(&w.database, g), &w.graph))
                } else {
                    admin(service)
                        .ingest_owned(generation_feed(&w.database, g))
                        .expect("feed absorbs")
                };
                assert_eq!(generation, g as u64);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            writer_done.store(true, Ordering::Release);
        });

        for _ in 0..6 {
            scope.spawn(move || {
                // Keep querying until the writer finishes, then once more so
                // every thread provably observes the final generation path.
                loop {
                    let done = writer_done.load(Ordering::Acquire);
                    let marker = service
                        .query(QueryRequest::new(MARKER_QUERY))
                        .wait()
                        .expect("marker query must never error during a swap")
                        .page;
                    assert!(
                        expected.contains(&marker),
                        "page must match some published generation: {marker:?}"
                    );
                    let stable = service
                        .query(QueryRequest::new(STABLE_QUERY))
                        .wait()
                        .expect("stable query must never error during a swap")
                        .page;
                    assert_eq!(
                        &stable, stable_expected,
                        "untouched tables must answer identically in every generation"
                    );
                    served.fetch_add(2, Ordering::Relaxed);
                    if done {
                        break;
                    }
                }
            });
        }
    });

    // After the dust settles: the service serves exactly the final
    // generation, and bookkeeping is coherent.
    let final_page = service
        .query(QueryRequest::new(MARKER_QUERY))
        .wait()
        .expect("final query runs")
        .page;
    assert_eq!(final_page, expected[GENERATIONS]);
    let m = service.metrics();
    assert_eq!(m.generation, GENERATIONS as u64);
    assert_eq!(m.reloads, (GENERATIONS / 2) as u64, "the even generations");
    assert_eq!(
        m.ingest.ingests,
        (GENERATIONS - GENERATIONS / 2) as u64,
        "the odd generations"
    );
    assert_eq!(m.completed, served.load(Ordering::Relaxed) + 1);
    assert!(m.completed >= (GENERATIONS as u64) * 2);
    assert_eq!(m.shards.shards, SHARDS);
}

/// The coalescing map must be generation-scoped: a cold query pinned before
/// a swap may not hand its page to a requester that arrived after the swap,
/// even though both share the same normalized text.
#[test]
fn pending_cold_queries_do_not_leak_across_a_swap() {
    let w = minibank::build(42);
    let expected = expected_pages(&w.database, &w.graph);
    let service = QueryService::start(
        Arc::new(snapshot_over(w.database.clone(), &w.graph)),
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );

    // Occupy the single worker so both marker submissions below are still
    // pending when they land.
    let blocker = service.query(QueryRequest::new("financial instruments customers Zurich"));
    // Pinned to generation 0, queued behind the blocker.
    let old = service.query(QueryRequest::new(MARKER_QUERY));
    // Swap to generation 1 while that job is still queued…
    let generation = admin(&service)
        .ingest_owned(generation_feed(&w.database, 1))
        .expect("feed absorbs");
    assert_eq!(generation, 1);
    // …then submit the identical text: it must NOT coalesce onto the old
    // pending job — different generation, different key.
    let new = service.query(QueryRequest::new(MARKER_QUERY));

    blocker.wait().expect("blocker serves");
    let old_page = old.wait().expect("pre-swap query serves").page;
    let new_page = new.wait().expect("post-swap query serves").page;
    assert_eq!(old_page, expected[0], "pre-swap submission serves gen 0");
    assert_eq!(new_page, expected[1], "post-swap submission serves gen 1");
    assert_ne!(old_page, new_page);

    let m = service.metrics();
    assert_eq!(
        m.coalesced, 0,
        "submissions from different generations must never coalesce"
    );
    assert_eq!(m.pipeline_executions, 3, "blocker + one run per generation");
    // Only the post-swap page is cacheable: the blocker and the pre-swap
    // marker completed under a superseded fingerprint, so their inserts are
    // skipped instead of evicting live entries.
    assert_eq!(
        m.cache.len, 1,
        "pages of superseded generations must not enter the cache: {m:?}"
    );
}

/// Within one generation, coalescing still works across a swap of *other*
/// shards: identical submissions pinned to the same generation share one
/// pipeline execution.
#[test]
fn same_generation_submissions_still_coalesce_after_swaps() {
    let w = minibank::build(42);
    let service = QueryService::start(
        Arc::new(snapshot_over(w.database.clone(), &w.graph)),
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    admin(&service).reload(snapshot_over(generation_db(&w.database, 1), &w.graph));

    let blocker = service.query(QueryRequest::new("wealthy customers"));
    let first = service.query(QueryRequest::new(MARKER_QUERY));
    let second = service.query(QueryRequest::new(MARKER_QUERY));
    blocker.wait().expect("blocker serves");
    assert_eq!(
        first.wait().expect("first serves"),
        second.wait().expect("second serves")
    );
    let m = service.metrics();
    assert_eq!(m.coalesced + m.cache.hits, 1);
    assert_eq!(m.pipeline_executions, 2);
    assert_eq!(m.generation, 1);
}

// ---------------------------------------------------------------------------
// Cumulative ingestion: the reload guarantees must hold when every generation
// is published by `ingest_owned` (side logs) and the fold that ends it.
// ---------------------------------------------------------------------------

/// The ingestion marker feed of generation `g`: one appended address whose
/// city embeds the generation number plus a wholesale *replacement* of the
/// one-row `securities` table with a gen-stamped bond — appends and
/// replacements (log masking) both stay on the hot path, and the
/// replacement keeps the marker pages distinct even though the accumulated
/// address rows collapse into one `LIKE` filter.
fn marker_feed(g: usize) -> ChangeFeed {
    ChangeFeed::new()
        .append_row(
            "addresses",
            vec![
                Value::Int(900 + g as i64),
                Value::Int(1),
                Value::from("Swap Lane 1"),
                Value::from(format!("Reloadville Gen{g}")),
                Value::from("Switzerland"),
            ],
        )
        .replace(
            "securities",
            vec![vec![
                Value::Int(1),
                Value::from(format!("Reloadville Bond {g}")),
                Value::from("CH0000000042"),
            ]],
        )
}

/// Ingestion is cumulative (unlike `generation_db`, which derives each
/// generation from the base): the reference database after `g` ingests
/// carries the markers of every generation up to `g`.
fn cumulative_db(base: &Database, g: usize) -> Database {
    let mut db = base.clone();
    for i in 1..=g {
        absorb(&mut db, None, marker_feed(i)).expect("marker feed applies");
    }
    db
}

/// Clients hammer `submit` while a writer ingests generation after
/// generation and compacts every side log after each ingest.  Every served
/// page must be byte-identical to a full-rebuild reference of *some*
/// ingested state; nothing may error or drop; every ingest must have been
/// folded.
#[test]
fn streaming_ingest_compacted_after_every_feed_never_drops_or_corrupts() {
    let w = minibank::build(42);
    let expected: Vec<ResultPage> = (0..=GENERATIONS)
        .map(|g| {
            snapshot_over(cumulative_db(&w.database, g), &w.graph)
                .search_paged(MARKER_QUERY, 0, 10)
                .expect("reference query runs")
        })
        .collect();
    for (i, a) in expected.iter().enumerate() {
        for b in expected.iter().skip(i + 1) {
            assert_ne!(a, b, "marker pages must differ between ingest states");
        }
    }
    let stable_expected = snapshot_over(w.database.clone(), &w.graph)
        .search_paged(STABLE_QUERY, 0, 10)
        .expect("stable query runs");

    let service = QueryService::start(
        Arc::new(snapshot_over(w.database.clone(), &w.graph)),
        ServiceConfig {
            workers: 4,
            queue_capacity: 32,
            cache_capacity: 64,
            ..ServiceConfig::default()
        },
    );

    let writer_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let service = &service;
        let expected = &expected;
        let stable_expected = &stable_expected;
        let writer_done = &writer_done;

        scope.spawn(move || {
            for g in 1..=GENERATIONS {
                admin(service)
                    .ingest_owned(marker_feed(g))
                    .expect("feed absorbs");
                admin(service)
                    .compact(&service.engine().shards_with_side_logs())
                    .expect("a log to fold");
                std::thread::sleep(Duration::from_millis(5));
            }
            writer_done.store(true, Ordering::Release);
        });

        for _ in 0..6 {
            scope.spawn(move || loop {
                let done = writer_done.load(Ordering::Acquire);
                let marker = service
                    .query(QueryRequest::new(MARKER_QUERY))
                    .wait()
                    .expect("marker query must never error during ingestion")
                    .page;
                assert!(
                    expected.contains(&marker),
                    "page must match some ingested state: {marker:?}"
                );
                let stable = service
                    .query(QueryRequest::new(STABLE_QUERY))
                    .wait()
                    .expect("stable query must never error during ingestion")
                    .page;
                assert_eq!(
                    &stable, stable_expected,
                    "untouched tables must answer identically in every generation"
                );
                if done {
                    break;
                }
            });
        }
    });

    // After the dust settles: exactly the final ingested state serves.
    let final_page = service
        .query(QueryRequest::new(MARKER_QUERY))
        .wait()
        .expect("final query runs")
        .page;
    assert_eq!(final_page, expected[GENERATIONS]);
    let m = service.metrics();
    assert_eq!(m.ingest.ingests, GENERATIONS as u64);
    assert_eq!(m.ingest.events, 2 * GENERATIONS as u64);
    assert_eq!(m.ingest.rows, 2 * GENERATIONS as u64);
    assert_eq!(m.ingest.compactions, GENERATIONS as u64, "{m:?}");
    assert_eq!(m.reloads, 0, "no reload was involved");
    assert_eq!(
        m.generation,
        2 * GENERATIONS as u64,
        "every ingest and every fold published one generation: {m:?}"
    );
    assert!(service.engine().shards_with_side_logs().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of appends, replacements, truncations,
    /// compactions and queries: after every step, every query served (fresh, coalesced,
    /// cached or swap-retained) is byte-identical to a snapshot fully
    /// rebuilt over a reference database that replayed the same events.
    #[test]
    fn interleaved_ingest_compact_query_is_byte_identical(
        ops in proptest::collection::vec(0usize..5, 1..7)
    ) {
        let w = minibank::build(42);
        let service = QueryService::start(
            Arc::new(snapshot_over(w.database.clone(), &w.graph)),
            ServiceConfig {
                workers: 2,
                queue_capacity: 16,
                cache_capacity: 32,
                ..ServiceConfig::default()
            },
        );
        let mut reference = w.database.clone();
        let mut queries: Vec<String> =
            vec![STABLE_QUERY.to_string(), "customers Zurich".to_string()];
        for (i, &op) in ops.iter().enumerate() {
            let feed = match op {
                0 => {
                    queries.push(format!("Propville{i}"));
                    Some(ChangeFeed::new().append_row(
                        "addresses",
                        vec![
                            Value::Int(2_000 + i as i64),
                            Value::Int(1),
                            Value::from("Prop Lane 1"),
                            Value::from(format!("Propville{i}")),
                            Value::from("Switzerland"),
                        ],
                    ))
                }
                1 => {
                    let mut row = reference.table("individuals").unwrap().rows()[0].to_vec();
                    row[0] = Value::Int(20_000 + i as i64);
                    row[1] = Value::from(format!("Streamer{i}"));
                    queries.push(format!("Streamer{i}"));
                    Some(ChangeFeed::new().append_row("individuals", row))
                }
                2 => {
                    queries.push(format!("Goldbond{i}"));
                    Some(ChangeFeed::new().replace(
                        "securities",
                        vec![vec![
                            Value::Int(1),
                            Value::from(format!("Goldbond{i}")),
                            Value::from("CH0000000077"),
                        ]],
                    ))
                }
                3 => Some(ChangeFeed::new().truncate("securities")),
                _ => None, // compact
            };
            match feed {
                Some(feed) => {
                    admin(&service)
                        .ingest_owned(feed.clone())
                        .expect("feed absorbs");
                    absorb(&mut reference, None, feed).expect("reference replays");
                }
                None => {
                    let _ = admin(&service).compact(&(0..SHARDS).collect::<Vec<_>>());
                }
            }
            let rebuilt = snapshot_over(reference.clone(), &w.graph);
            for query in &queries {
                let served = service
                    .query(QueryRequest::new(query.clone()))
                    .wait()
                    .expect("query serves").page;
                let direct = rebuilt
                    .search_paged(query, 0, 10)
                    .expect("reference query runs");
                prop_assert_eq!(
                    &served, &direct,
                    "'{}' diverged from the full-rebuild reference after op {} ({})",
                    query, i, op
                );
            }
            // The copy-on-write database behind the served snapshot holds
            // exactly the deep-clone reference's rows, table by table —
            // structural sharing never changes content.
            let live = service.engine();
            for name in reference.table_names() {
                prop_assert_eq!(
                    live.database().table(name).unwrap().rows().to_vec(),
                    reference.table(name).unwrap().rows().to_vec(),
                    "table '{}' diverged from the reference after op {} ({})",
                    name, i, op
                );
            }
        }
        // The tracked queries exercised the retention path: repeats of the
        // stable query across data-only swaps are served without
        // recomputation whenever provably safe — and the asserts above
        // guarantee those retained pages were still byte-correct.
        prop_assert!(service.metrics().completed >= (queries.len() as u64));
    }
}

/// Parse errors still resolve synchronously mid-swap, and a reload with an
/// *identical* warehouse changes no answers — only the generation.
#[test]
fn reload_with_identical_data_is_answer_invariant() {
    let w = minibank::build(42);
    let service = QueryService::start(
        Arc::new(snapshot_over(w.database.clone(), &w.graph)),
        ServiceConfig::default(),
    );
    let before = service
        .query(QueryRequest::new(STABLE_QUERY))
        .wait()
        .expect("serves");
    admin(&service).reload(snapshot_over(w.database.clone(), &w.graph));
    match service.query(QueryRequest::new("   ")).wait() {
        Err(e) => assert!(e.to_string().contains("engine error")),
        Ok(_) => panic!("blank query must fail"),
    }
    let after = service
        .query(QueryRequest::new(STABLE_QUERY))
        .wait()
        .expect("serves");
    assert_eq!(before, after);
    assert_eq!(service.metrics().generation, 1);
    // The blank query surfaced the engine's EmptyQuery — proving errors
    // flow through unchanged across generations.
    let direct = service.engine().search_paged("   ", 0, 10);
    assert!(matches!(direct, Err(SodaError::EmptyQuery)));
}
