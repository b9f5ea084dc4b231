//! Shard-invariance property tests: partitioning the lookup layer must never
//! change what the engine produces.  For generated warehouses and a corpus of
//! queries, the generated SQL is byte-identical and the ranking (scores and
//! order) identical across shard counts 1, 2 and 8 — the invariant that lets
//! the serving layer treat `shards` purely as a latency knob.

use std::sync::Arc;

use proptest::prelude::*;

use soda_core::{Database, EngineSnapshot, MetaGraph, SodaConfig};
use soda_warehouse::enterprise::{self, EnterpriseConfig};
use soda_warehouse::{minibank, Warehouse};

const SHARD_COUNTS: &[usize] = &[1, 2, 8];

/// A corpus covering every query shape: plain keywords, base-data lookups,
/// business terms, comparisons, aggregation, grouping and paging.
const CORPUS: &[&str] = &[
    "Sara Guttinger",
    "wealthy customers",
    "financial instruments customers Zurich",
    "customers Switzerland",
    "Credit Suisse",
    "salary >= 100000",
    "sum (amount) group by (currency)",
    "count (transactions) group by (company name)",
    "Top 10 sum (amount) group by (company name)",
    "YEN trade orders",
    "addresses Zurich Switzerland",
];

fn engine_with_shards(
    (db, graph): &(Arc<Database>, Arc<MetaGraph>),
    shards: usize,
) -> EngineSnapshot {
    EngineSnapshot::build(
        Arc::clone(db),
        Arc::clone(graph),
        SodaConfig {
            shards,
            ..SodaConfig::default()
        },
    )
}

/// Runs the corpus on one warehouse and asserts full result equality
/// (SQL text, scores, ranking order, interpretations) across shard counts.
fn assert_corpus_invariant(name: &str, warehouse: Warehouse) {
    let parts = warehouse.shared_parts();
    let baseline = engine_with_shards(&parts, 1);
    for &shards in &SHARD_COUNTS[1..] {
        let sharded = engine_with_shards(&parts, shards);
        for query in CORPUS {
            let expected = baseline.search(query);
            let got = sharded.search(query);
            match (&expected, &got) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a, b,
                    "{name}: '{query}' diverged between 1 and {shards} shards"
                ),
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "{name}: '{query}' error behaviour diverged between 1 and {shards} shards"
                ),
            }
        }
    }
}

#[test]
fn corpus_is_shard_invariant_on_minibank() {
    let warehouse = minibank::build(42);
    assert_corpus_invariant("minibank", warehouse);
}

#[test]
fn corpus_is_shard_invariant_on_the_enterprise_warehouse() {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.1,
    });
    assert_corpus_invariant("enterprise", warehouse);
}

/// The acceptance invariant of streaming ingestion: with live (uncompacted)
/// side logs covering appends *and* a wholesale replacement, generated SQL
/// is byte-identical to a snapshot fully rebuilt over the absorbed database
/// — at every shard count, and identical across shard counts.
#[test]
fn corpus_is_invariant_with_live_side_logs() {
    use soda_core::{ChangeFeed, Value};

    let (db, graph) = minibank::build(42).shared_parts();
    let individual = {
        let table = db.table("individuals").unwrap();
        let mut row = table.rows()[0].to_vec();
        row[0] = Value::Int(9_999);
        row[1] = Value::from("Zebulon");
        row
    };
    let feed = ChangeFeed::new()
        .append_row(
            "addresses",
            vec![
                Value::Int(900),
                Value::Int(1),
                Value::from("Log Lane 1"),
                Value::from("Sidelogville"),
                Value::from("Switzerland"),
            ],
        )
        .append_row("individuals", individual)
        .replace(
            "securities",
            vec![vec![
                Value::Int(1),
                Value::from("Alpine Gold Bond"),
                Value::from("CH0000000001"),
            ]],
        );
    let corpus: Vec<&str> = CORPUS
        .iter()
        .copied()
        .chain(["Sidelogville", "Zebulon", "Alpine Gold Bond", "securities"])
        .collect();

    let mut per_shard_answers: Vec<Vec<String>> = Vec::new();
    for &shards in SHARD_COUNTS {
        let config = SodaConfig {
            shards,
            ..SodaConfig::default()
        };
        let absorbed = EngineSnapshot::build(Arc::clone(&db), Arc::clone(&graph), config.clone())
            .absorbed(feed.clone())
            .expect("feed absorbs");
        assert!(
            !absorbed.shards_with_side_logs().is_empty(),
            "the probes below must exercise live side logs"
        );
        let rebuilt = EngineSnapshot::build(absorbed.database_arc(), absorbed.graph_arc(), config);
        let mut answers: Vec<String> = Vec::new();
        for query in &corpus {
            match (absorbed.search(query), rebuilt.search(query)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a, b,
                        "'{query}' diverged from a full rebuild at {shards} shards"
                    );
                    answers.extend(a.into_iter().map(|r| r.sql));
                }
                (Err(_), Err(_)) => {}
                _ => panic!("'{query}' error behaviour diverged at {shards} shards"),
            }
        }
        assert!(
            answers.iter().any(|sql| sql.contains("Sidelogville")),
            "the appended row must be reachable"
        );
        per_shard_answers.push(answers);
    }
    for (i, answers) in per_shard_answers.iter().enumerate().skip(1) {
        assert_eq!(
            &per_shard_answers[0], answers,
            "live-side-log answers diverged between {} and {} shards",
            SHARD_COUNTS[0], SHARD_COUNTS[i]
        );
    }
}

/// Option invariance: a query answers byte-identically — and leaves the
/// cache fingerprint untouched — whether or not it runs with a probe
/// recorder, a collecting [`TraceSink`](soda_core::TraceSink) or an empty
/// [`FeedbackStore`](soda_core::FeedbackStore), at every shard count.
/// Observability must never change an answer, and neither must feedback
/// nobody has given.
#[test]
fn tracing_never_changes_answers_or_fingerprints() {
    use soda_core::{
        CollectingSink, FeedbackStore, NoopSink, ProbeRecorder, SearchOptions, TraceSink,
    };

    let parts = minibank::build(42).shared_parts();
    let no_votes = FeedbackStore::new();
    for &shards in &[1usize, 4] {
        let snapshot = engine_with_shards(&parts, shards);
        let fingerprint = snapshot.cache_fingerprint();
        for query in CORPUS {
            let plain = snapshot.search_paged(query, 0, 10);
            for combination in 0..8 {
                let (recorded, traced, with_feedback) = (
                    combination & 1 != 0,
                    combination & 2 != 0,
                    combination & 4 != 0,
                );
                let recorder = ProbeRecorder::new();
                let collecting = CollectingSink::new();
                let sink: &dyn TraceSink = if traced { &collecting } else { &NoopSink };
                let options = SearchOptions {
                    feedback: with_feedback.then_some(&no_votes),
                    recorder: recorded.then_some(&recorder),
                    sink,
                    ..SearchOptions::page(0, 10)
                };
                let what = format!(
                    "'{query}' (recorder {recorded}, tracing {traced}, feedback \
                     {with_feedback}) at {shards} shards"
                );
                match (&plain, snapshot.search_with(query, &options)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, &b.page, "{what} diverged"),
                    (Err(_), Err(_)) => {}
                    _ => panic!("{what}: error behaviour diverged"),
                }
                let trace = collecting.finish();
                if let Some(root) = trace.find("query") {
                    // Traced executions carry the full stage taxonomy.
                    for stage in soda_core::trace::names::STAGES {
                        assert!(
                            root.children.iter().any(|c| c.name == stage),
                            "'{query}': missing {stage} span at {shards} shards"
                        );
                    }
                }
            }
        }
        assert_eq!(
            snapshot.cache_fingerprint(),
            fingerprint,
            "tracing must not move the cache fingerprint at {shards} shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary keyword combinations over the mini-bank vocabulary produce
    /// byte-identical SQL and identical scores at 1, 2 and 8 shards.
    #[test]
    fn random_keyword_queries_are_shard_invariant(
        words in proptest::collection::vec(
            prop_oneof![
                Just("customers"), Just("Zurich"), Just("financial"), Just("instruments"),
                Just("Sara"), Just("wealthy"), Just("Switzerland"), Just("volume"),
                Just("organizations"), Just("transactions"), Just("gibberishword")
            ],
            1..5
        )
    ) {
        thread_local! {
            static WAREHOUSE: (Arc<Database>, Arc<MetaGraph>) = minibank::build(42).shared_parts();
        }
        WAREHOUSE.with(|warehouse| {
            let input = words.join(" ");
            let baseline: Vec<_> = match engine_with_shards(warehouse, 1).search(&input) {
                Ok(results) => results,
                Err(_) => return Ok(()),
            };
            for &shards in &SHARD_COUNTS[1..] {
                let got = engine_with_shards(warehouse, shards)
                    .search(&input)
                    .expect("sharded engine must accept what the baseline accepted");
                prop_assert_eq!(
                    &baseline, &got,
                    "'{}' diverged between 1 and {} shards", input, shards
                );
            }
            Ok(())
        })?;
    }
}
