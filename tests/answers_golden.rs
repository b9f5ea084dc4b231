//! Golden answers of the interpretation pipeline, captured before the
//! inverted index was rebuilt around value-level postings.
//!
//! * `tests/golden/lookup_digests.txt` — for the 13 Table-2 queries and 101
//!   literal substitutions drawn from `soda::warehouse::datagen`, one line
//!   per query with a digest of the lookup step's result (every entry point
//!   and base-data filter) and a digest of the printed SQL of every
//!   statement, on the enterprise warehouse before and after a streaming
//!   ingest (an onboarding feed plus one wholesale table replacement).
//! * `tests/golden/table3_ranking.txt` — Table 3 pinned exactly: per Table-2
//!   query the best precision/recall, and every generated statement in rank
//!   order with its own precision, recall and row count
//!   (`workload_reproduction.rs` only checks the shape, with tolerances).
//!
//! Both are asserted at 1 and 4 lookup shards.  Regenerate only on a
//! deliberate change of the answers:
//!
//! ```sh
//! cargo test --test answers_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use soda::core::{ChangeFeed, EngineSnapshot, SodaConfig};
use soda::eval::experiments::run_workload;
use soda::warehouse::enterprise::{self, EnterpriseConfig};

mod common;
use common::{assert_matches, fnv1a, questions};

const LOOKUP_GOLDEN: &str = "tests/golden/lookup_digests.txt";
const RANKING_GOLDEN: &str = "tests/golden/table3_ranking.txt";

fn config(shards: usize) -> SodaConfig {
    SodaConfig {
        shards,
        ..SodaConfig::default()
    }
}

/// Sixteen onboarded customers (appends to `party` and `individual`) and
/// `organization` replaced by every second of its rows.
fn feed(snapshot: &EngineSnapshot) -> ChangeFeed {
    let db = snapshot.database();
    let kept = db
        .table("organization")
        .expect("the enterprise warehouse has organizations")
        .rows()
        .iter()
        .step_by(2)
        .map(<[_]>::to_vec)
        .collect();
    enterprise::data::onboarding_feed(db, 7, 16).replace("organization", kept)
}

fn digest_lines(phase: &str, snapshot: &EngineSnapshot, out: &mut String) {
    for question in questions() {
        let lookup = match snapshot.lookup(&question) {
            Ok(lookup) => format!("{:016x}", fnv1a(&format!("{lookup:?}"))),
            Err(e) => format!("error: {e}"),
        };
        let sql = match snapshot.search(&question) {
            Ok(results) => {
                let printed: Vec<&str> = results.iter().map(|r| r.sql.as_str()).collect();
                format!(
                    "{} statements · sql {:016x}",
                    printed.len(),
                    fnv1a(&printed.join("\n"))
                )
            }
            Err(e) => format!("error: {e}"),
        };
        writeln!(out, "{phase} · {question} · lookup {lookup} · {sql}").expect("String");
    }
}

fn lookup_digests(shards: usize) -> String {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: true,
        data_scale: 1.0,
    });
    let built = EngineSnapshot::build(
        Arc::new(warehouse.database),
        Arc::new(warehouse.graph),
        config(shards),
    );
    let mut out = String::new();
    digest_lines("built", &built, &mut out);
    let ingested = built.absorbed(feed(&built)).expect("the feed applies");
    digest_lines("ingested", &ingested, &mut out);
    out
}

fn table3_ranking(shards: usize) -> String {
    let (db, graph) = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    })
    .shared_parts();
    let mut out = String::new();
    for e in run_workload(&EngineSnapshot::build(db, graph, config(shards))) {
        writeln!(
            out,
            "{} · best P={:.4} R={:.4} · complexity {} · {} statements",
            e.id, e.best.precision, e.best.recall, e.complexity, e.num_results
        )
        .expect("String");
        for (rank, r) in e.per_result.iter().enumerate() {
            writeln!(
                out,
                "{} · {} · P={:.4} R={:.4} · {} rows · {}",
                e.id,
                rank + 1,
                r.precision,
                r.recall,
                r.rows,
                r.sql
            )
            .expect("String");
        }
    }
    out
}

#[test]
fn lookup_and_sql_reproduce_the_golden_digests() {
    for shards in [1, 4] {
        assert_matches(
            LOOKUP_GOLDEN,
            include_str!("golden/lookup_digests.txt"),
            &lookup_digests(shards),
            shards,
        );
    }
}

#[test]
fn table3_and_the_statement_ranking_reproduce_the_golden() {
    for shards in [1, 4] {
        assert_matches(
            RANKING_GOLDEN,
            include_str!("golden/table3_ranking.txt"),
            &table3_ranking(shards),
            shards,
        );
    }
}

/// Rewrites both golden files from the current pipeline.  Run by hand only.
#[test]
#[ignore = "rewrites tests/golden/lookup_digests.txt and table3_ranking.txt"]
fn regenerate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::write(root.join(LOOKUP_GOLDEN), lookup_digests(1)).expect("writing the golden file");
    std::fs::write(root.join(RANKING_GOLDEN), table3_ranking(1)).expect("writing the golden file");
}
