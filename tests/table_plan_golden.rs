//! Golden table plans of Step 3, captured before the join catalog started
//! compiling the schema (per-node entry closures, table ids).
//!
//! `tests/golden/table_plans.txt` holds one line per (warehouse, question):
//! under each configuration that changes what the tables step does, the
//! number of ranked solutions and a digest of the `Debug` form of the
//! [`TablePlan`] of every one of them.  The questions are the pool of
//! `answers_golden.rs` (plus the worked examples on mini-bank); the
//! warehouses are mini-bank, the 0.2-scale enterprise warehouse and its
//! annotated variant, whose graph carries historization nodes.
//!
//! Asserted at 1 and 4 lookup shards.  Regenerate only on a deliberate
//! change of the plans:
//!
//! ```sh
//! cargo test --test table_plan_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use soda::core::pipeline::{self, PipelineContext};
use soda::core::{parse_query, EngineSnapshot, NoopSink, ShardProbes, SodaConfig, SpanId};
use soda::warehouse::enterprise::{self, EnterpriseConfig};
use soda::warehouse::{minibank, Warehouse};

mod common;
use common::{assert_matches, fnv1a, questions};

const GOLDEN: &str = "tests/golden/table_plans.txt";

const ENTERPRISE: EnterpriseConfig = EnterpriseConfig {
    seed: 42,
    padding: false,
    data_scale: 0.2,
};

/// The configurations under which the tables step takes a different branch.
fn variants(shards: usize) -> Vec<(&'static str, SodaConfig)> {
    let base = SodaConfig {
        shards,
        ..SodaConfig::default()
    };
    vec![
        ("default", base.clone()),
        (
            "no-pruning",
            SodaConfig {
                direct_path_pruning: false,
                ..base.clone()
            },
        ),
        (
            "no-bridges",
            SodaConfig {
                use_bridge_tables: false,
                ..base.clone()
            },
        ),
        (
            "no-historization",
            SodaConfig {
                use_historization: false,
                ..base.clone()
            },
        ),
        (
            "path-1",
            SodaConfig {
                max_join_path_length: 1,
                ..base.clone()
            },
        ),
        (
            "path-3",
            SodaConfig {
                max_join_path_length: 3,
                ..base
            },
        ),
    ]
}

fn warehouses() -> Vec<(&'static str, Warehouse, Vec<String>)> {
    let mut minibank_questions = questions();
    minibank_questions.extend(
        [
            "customers Zurich financial instruments",
            "salary >= 100000 and birthday = date(1981-04-23)",
            "sum (amount) group by (transaction date)",
            "count (transactions) group by (company name)",
            "wealthy customers",
            "addresses Sara Guttinger",
            "Zurich",
        ]
        .map(String::from),
    );
    vec![
        ("minibank", minibank::build(42), minibank_questions),
        (
            "enterprise",
            enterprise::build_with(ENTERPRISE),
            questions(),
        ),
        (
            "annotated",
            enterprise::build_with_historization(ENTERPRISE),
            questions(),
        ),
    ]
}

/// `<solutions>:<digest of every plan>` for one question on one snapshot —
/// lookup, rank and the tables step driven through the public stage
/// functions, ranked as a first page of ten is (`top_n.max(11)`).
fn plans_digest(engine: &EngineSnapshot, question: &str) -> String {
    let Ok(query) = parse_query(question) else {
        return "rejected".into();
    };
    let probes = ShardProbes::new(engine.shard_count());
    let patterns = soda::core::SodaPatterns::default();
    let ctx = PipelineContext {
        db: engine.database(),
        graph: engine.graph(),
        config: engine.config(),
        classification: engine.classification_index(),
        index: engine.inverted_index(),
        probes: &probes,
        recorder: None,
        sink: &NoopSink,
        patterns: &patterns,
        joins: engine.join_catalog(),
    };
    let lookup = pipeline::lookup::run(&ctx, &query, SpanId::NONE);
    let config = engine.config();
    let solutions =
        pipeline::rank::enumerate_and_rank(&lookup, &config.weights, config.top_n.max(11), 1_000);
    let mut rendered = String::new();
    for solution in &solutions {
        writeln!(rendered, "{:?}", pipeline::tables::run(&ctx, solution)).expect("String");
    }
    format!("{}:{:016x}", solutions.len(), fnv1a(&rendered))
}

fn table_plans(shards: usize) -> String {
    let mut out = String::new();
    for (name, warehouse, questions) in warehouses() {
        let (db, graph) = warehouse.shared_parts();
        let engines: Vec<(&str, EngineSnapshot)> = variants(shards)
            .into_iter()
            .map(|(variant, config)| {
                (
                    variant,
                    EngineSnapshot::build(db.clone(), graph.clone(), config),
                )
            })
            .collect();
        for question in &questions {
            write!(out, "{name} · {question}").expect("String");
            for (variant, engine) in &engines {
                write!(out, " · {variant} {}", plans_digest(engine, question)).expect("String");
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn the_tables_step_reproduces_the_golden_plans() {
    let want = include_str!("golden/table_plans.txt");
    for shards in [1, 4] {
        assert_matches(GOLDEN, want, &table_plans(shards), shards);
    }
}

/// Rewrites the golden file from the current pipeline.  Run by hand only.
#[test]
#[ignore = "rewrites tests/golden/table_plans.txt"]
fn regenerate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::write(root.join(GOLDEN), table_plans(1)).expect("writing the golden file");
}
