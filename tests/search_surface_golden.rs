//! Golden answers of the part of the search surface no other golden covers:
//! paging, relevance feedback, reformulation suggestions and the per-query
//! trace report.  `tests/golden/search_surface.txt` was captured from the
//! API as it stood before PR 17 folded the `search_*` family into
//! `EngineSnapshot::search_with`, so it pins that the fold changed no answer.
//!
//! For the 13 Table-2 queries and the feedback / suggestion inputs of
//! `crates/core/tests/enterprise_engine.rs`, on mini-bank and on the
//! 0.2-scale enterprise warehouse:
//!
//! * pages 0 to 3 of size 3 — a digest of the printed SQL with
//!   `total_results` and `has_next`;
//! * the trace report — `complexity`, `solutions`, `results`,
//!   `classification`, `unmatched`;
//! * the statement order of "Credit Suisse" after three dislikes of the
//!   unbiased top statement and, separately, after one like of it;
//! * the suggestions for "Sara agreemnt".
//!
//! Asserted at 1 and 4 lookup shards.  Regenerate only on a deliberate
//! change of the answers:
//!
//! ```sh
//! cargo test --test search_surface_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use soda::core::{
    EngineSnapshot, FeedbackStore, SearchLimit, SearchOptions, SodaConfig, SodaResult,
};
use soda::eval::workload;
use soda::warehouse::enterprise::{self, EnterpriseConfig};
use soda::warehouse::{minibank, Warehouse};

const GOLDEN: &str = "tests/golden/search_surface.txt";

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn questions() -> Vec<String> {
    let mut out: Vec<String> = workload().iter().map(|q| q.keywords.to_string()).collect();
    // The feedback input "Credit Suisse" is Table 2's Q3 already.
    out.extend(["Sara agreemnt", "private customers"].map(String::from));
    out
}

fn statement_order(results: &[SodaResult]) -> String {
    let tables: Vec<String> = results.iter().map(|r| r.tables.join("+")).collect();
    let printed: Vec<&str> = results.iter().map(|r| r.sql.as_str()).collect();
    format!(
        "{} · sql {:016x}",
        tables.join(" | "),
        fnv1a(&printed.join("\n"))
    )
}

fn surface_lines(name: &str, warehouse: Warehouse, shards: usize, out: &mut String) {
    let (db, graph) = warehouse.shared_parts();
    let engine = EngineSnapshot::build(
        db,
        graph,
        SodaConfig {
            shards,
            ..SodaConfig::default()
        },
    );
    for question in questions() {
        for page in 0..=3 {
            let options = SearchOptions {
                limit: SearchLimit::Page { page, page_size: 3 },
                ..SearchOptions::default()
            };
            let line = match engine.search_with(&question, &options) {
                Ok(outcome) => {
                    let got = outcome.page;
                    let printed: Vec<&str> = got.results.iter().map(|r| r.sql.as_str()).collect();
                    format!(
                        "{} statements of {} · next {} · sql {:016x}",
                        printed.len(),
                        got.total_results,
                        got.has_next,
                        fnv1a(&printed.join("\n"))
                    )
                }
                Err(e) => format!("error: {e}"),
            };
            writeln!(out, "{name} · {question} · page {page} · {line}").expect("String");
        }
        let line = match engine.search_with(&question, &SearchOptions::default()) {
            Ok(outcome) => {
                let trace = outcome.trace;
                format!(
                    "complexity {} · solutions {} · results {} · classification {:?} · \
                     unmatched {:?}",
                    trace.complexity,
                    trace.solutions,
                    outcome.page.total_results,
                    trace.classification,
                    trace.unmatched
                )
            }
            Err(e) => format!("error: {e}"),
        };
        writeln!(out, "{name} · {question} · trace · {line}").expect("String");
    }

    let unbiased = engine.search("Credit Suisse").expect("a keyword query");
    writeln!(
        out,
        "{name} · Credit Suisse · unbiased · {}",
        statement_order(&unbiased)
    )
    .expect("String");
    if let Some(top) = unbiased.first() {
        let mut disliked = FeedbackStore::new();
        for _ in 0..3 {
            disliked.dislike(top);
        }
        let mut liked = FeedbackStore::new();
        liked.like(top);
        for (label, store) in [("three dislikes", &disliked), ("one like", &liked)] {
            let options = SearchOptions {
                feedback: Some(store),
                ..SearchOptions::default()
            };
            let reranked = engine
                .search_with("Credit Suisse", &options)
                .expect("a keyword query");
            writeln!(
                out,
                "{name} · Credit Suisse · {label} · {}",
                statement_order(&reranked.page.results)
            )
            .expect("String");
        }
    }

    let suggestions = engine
        .suggestions("Sara agreemnt")
        .expect("a keyword query");
    writeln!(
        out,
        "{name} · Sara agreemnt · suggestions · {suggestions:?}"
    )
    .expect("String");
}

fn search_surface(shards: usize) -> String {
    let mut out = String::new();
    surface_lines("mini-bank", minibank::build(42), shards, &mut out);
    let enterprise = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    });
    surface_lines("enterprise", enterprise, shards, &mut out);
    out
}

#[test]
fn the_search_surface_reproduces_the_golden() {
    let want = include_str!("golden/search_surface.txt");
    for shards in [1, 4] {
        let got = search_surface(shards);
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "line {} of {GOLDEN} differs at {shards} shards",
                i + 1
            );
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "{GOLDEN} has a different number of lines at {shards} shards"
        );
    }
}

/// Rewrites the golden file from the current engine.  Run by hand only.
#[test]
#[ignore = "rewrites tests/golden/search_surface.txt"]
fn regenerate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::write(root.join(GOLDEN), search_surface(1)).expect("writing the golden file");
}
