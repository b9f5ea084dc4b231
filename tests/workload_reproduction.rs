//! Cross-crate integration test: runs the full Table 2 workload through the
//! SODA engine on the enterprise warehouse and checks that the *shape* of the
//! paper's Table 3 is reproduced — who scores perfectly, where recall drops
//! because of bi-temporal historisation, and which queries fail on the complex
//! inheritance/bridge part of the schema.

use soda::core::{EngineSnapshot, SodaConfig};
use soda::eval::experiments::run_workload;
use soda::eval::report;
use soda::warehouse::enterprise::{self, EnterpriseConfig};

fn engine(data_scale: f64) -> EngineSnapshot {
    let (db, graph) = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale,
    })
    .shared_parts();
    EngineSnapshot::build(db, graph, SodaConfig::default())
}

fn evaluations() -> Vec<soda::eval::QueryEvaluation> {
    run_workload(&engine(0.2))
}

#[test]
fn table3_shape_is_reproduced() {
    let evals = evaluations();
    println!("{}", report::print_table3(&evals));
    println!("{}", report::print_table4(&evals));

    let by_id = |id: &str| evals.iter().find(|e| e.id == id).unwrap();

    // Queries the paper reports at precision 1.0 / recall 1.0.
    for id in ["1.0", "2.3", "3.1", "3.2", "4.0", "6.0", "8.0", "10.0"] {
        let e = by_id(id);
        assert!(
            e.best.precision >= 0.99 && e.best.recall >= 0.99,
            "query {id} expected P=R=1, got P={:.2} R={:.2}",
            e.best.precision,
            e.best.recall
        );
    }

    // Q7.0: the paper reports P=0.5, R=1.0; we only require full recall with
    // positive precision (the generated join is correct, extra tuples may
    // appear depending on the interpretation).
    let q7 = by_id("7.0");
    assert!(q7.best.recall >= 0.99, "Q7.0 recall {:.2}", q7.best.recall);
    assert!(q7.best.precision > 0.0);

    // Bi-temporal historisation: the join keys of the *_name_hist tables are
    // not annotated in the metadata graph, so recall drops to the share of
    // current names — the paper reports 0.20 for Q2.1/Q2.2.
    for id in ["2.1", "2.2"] {
        let e = by_id(id);
        assert!(
            (e.best.recall - 0.20).abs() < 0.05,
            "query {id} expected recall ~0.2, got {:.2}",
            e.best.recall
        );
        assert!(
            e.best.precision >= 0.99,
            "query {id} precision {:.2}",
            e.best.precision
        );
    }

    // The complex inheritance + sibling-bridge part of the schema defeats the
    // join discovery for Q5.0 and Q9.0 (the paper reports precision 0.12 and
    // 0.00 respectively).
    for id in ["5.0", "9.0"] {
        let e = by_id(id);
        assert!(
            e.best.precision < 0.5,
            "query {id} expected a low-precision failure, got P={:.2}",
            e.best.precision
        );
    }
}

#[test]
fn table4_complexity_and_runtime_shape() {
    let evals = evaluations();
    for e in &evals {
        // Every query decomposes into at least one entry point and produces at
        // least one interpretation within the configured top-N.
        assert!(e.complexity >= 1, "{}: complexity", e.id);
        assert!(e.num_results >= 1, "{}: no results", e.id);
        assert!(e.num_results <= 10, "{}: more than top-N results", e.id);
        // SODA's own processing stays in the milliseconds on this hardware and
        // is dominated by executing the generated SQL, as in the paper.
        assert!(
            e.soda_runtime.as_secs_f64() < 5.0,
            "{}: SODA runtime unexpectedly high",
            e.id
        );
    }
    // The ambiguous "Credit Suisse" query produces several interpretations.
    let q31 = evals.iter().find(|e| e.id == "3.1").unwrap();
    assert!(q31.num_results >= 2);
    // The aggregation query with the 5-way join has the largest total runtime
    // in the paper (40 minutes); relatively, it must also be among our slower
    // queries, but the assertion is kept loose: it only needs to be non-trivial.
    let q10 = evals.iter().find(|e| e.id == "10.0").unwrap();
    assert!(q10.total_runtime.as_nanos() > 0);
}

#[test]
fn every_produced_statement_is_executable() {
    let engine = engine(0.1);
    let evals = run_workload(&engine);
    for e in &evals {
        for r in &e.per_result {
            // The evaluation records rows for executable statements; a parse or
            // execution failure would have been counted as zero rows AND zero
            // precision/recall. Re-execute explicitly to be sure.
            let parsed = soda::relation::parse_select(&r.sql);
            assert!(
                parsed.is_ok(),
                "query {}: generated SQL does not parse: {}",
                e.id,
                r.sql
            );
            assert!(
                engine.database().run_sql(&r.sql).is_ok(),
                "query {}: generated SQL does not execute: {}",
                e.id,
                r.sql
            );
        }
    }
}
