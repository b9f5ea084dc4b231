//! Property-based tests of the SODA engine: the input-query parser never
//! panics, generated SQL always parses and executes, and ranking respects the
//! provenance weights.

use std::sync::Arc;

use proptest::prelude::*;

use soda_core::{parse_query, Database, EngineSnapshot, MetaGraph, SodaConfig};
use soda_relation::parse_select;
use soda_warehouse::minibank;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The input parser never panics on arbitrary printable input, and any
    /// successfully parsed query preserves at least one term.
    #[test]
    fn query_parser_never_panics(input in "[ -~]{0,60}") {
        if let Ok(query) = parse_query(&input) { prop_assert!(!query.terms.is_empty()) }
    }

    /// Keyword-only inputs over a small vocabulary always yield SQL that both
    /// parses and executes on the warehouse.
    #[test]
    fn generated_sql_is_always_executable(
        words in proptest::collection::vec(
            prop_oneof![
                Just("customers"), Just("Zurich"), Just("financial"), Just("instruments"),
                Just("Sara"), Just("wealthy"), Just("trading"), Just("volume"),
                Just("private"), Just("organizations"), Just("gibberishword")
            ],
            1..5
        )
    ) {
        // Building the warehouse per case would dominate; a thread-local
        // warehouse keeps the property fast.
        thread_local! {
            static ENGINE_DATA: (Arc<Database>, Arc<MetaGraph>) = minibank::build(42).shared_parts();
        }
        ENGINE_DATA.with(|(db, graph)| {
            let engine = EngineSnapshot::build(Arc::clone(db), Arc::clone(graph), SodaConfig::default());
            let input = words.join(" ");
            if let Ok(results) = engine.search(&input) {
                for r in results {
                    let parsed = parse_select(&r.sql);
                    prop_assert!(parsed.is_ok(), "unparseable SQL: {}", r.sql);
                    prop_assert!(
                        db.run_sql(&r.sql).is_ok(),
                        "inexecutable SQL: {}",
                        r.sql
                    );
                    prop_assert!(!r.tables.is_empty());
                }
            }
            Ok(())
        })?;
    }

    /// Results are returned in non-increasing score order and scores stay
    /// within the weight range (0, 1].
    #[test]
    fn ranking_scores_are_sorted_and_bounded(
        words in proptest::collection::vec(
            prop_oneof![
                Just("customers"), Just("Zurich"), Just("instruments"),
                Just("Sara"), Just("salary"), Just("transactions")
            ],
            1..4
        )
    ) {
        thread_local! {
            static ENGINE_DATA: (Arc<Database>, Arc<MetaGraph>) = minibank::build(42).shared_parts();
        }
        ENGINE_DATA.with(|(db, graph)| {
            let engine = EngineSnapshot::build(Arc::clone(db), Arc::clone(graph), SodaConfig::default());
            if let Ok(results) = engine.search(&words.join(" ")) {
                for pair in results.windows(2) {
                    prop_assert!(pair[0].score >= pair[1].score);
                }
                for r in &results {
                    prop_assert!(r.score > 0.0 && r.score <= 1.0);
                }
            }
            Ok(())
        })?;
    }
}
