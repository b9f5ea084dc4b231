//! Ablations of SODA's design decisions and the extensions beyond the
//! paper's evaluation (its §5.3.1 war stories and §7 future work), each
//! reported as the quality it leaves on the Table 2 workload:
//!
//! * seven variants of [`SodaConfig`] — direct-path join pruning,
//!   provenance-weighted ranking, longest-word-combination lookup,
//!   bridge-table detection, the inverted index over the base data (the
//!   Keymantic situation) and the DBpedia synonyms, each switched off alone,
//! * the far-fetching join-path bound (`max_join_path_length`),
//! * what compactness re-ranking (BLINKS-inspired) and relevance feedback
//!   folded into Step 2 do to the top interpretation of "Credit Suisse".
//!
//! On this workload the mean best-F1 is 0.744 for every variant and bound
//! except `single_token_lookup` and `no_inverted_index`: the best statement
//! per query is produced with or without the other switches, so best-F1 does
//! not see them.  Where they show is the table plan of every ranked solution,
//! pinned by `tests/table_plan_golden.rs`.

use soda_core::{
    EngineSnapshot, FeedbackStore, RankingWeights, SearchOptions, SodaConfig, SodaResult,
};

use super::run_workload;

/// The far-fetching bounds compared by [`far_fetching_quality`].
const FAR_FETCHING_BOUNDS: [usize; 4] = [1, 2, 3, 6];

fn variants() -> Vec<(&'static str, SodaConfig)> {
    let base = SodaConfig::default();
    vec![
        ("default", base.clone()),
        (
            "no_direct_path_pruning",
            SodaConfig {
                direct_path_pruning: false,
                ..base.clone()
            },
        ),
        (
            "uniform_ranking",
            SodaConfig {
                weights: RankingWeights::uniform(),
                ..base.clone()
            },
        ),
        (
            "single_token_lookup",
            SodaConfig {
                max_phrase_tokens: 1,
                ..base.clone()
            },
        ),
        (
            "no_bridge_tables",
            SodaConfig {
                use_bridge_tables: false,
                ..base.clone()
            },
        ),
        (
            "no_inverted_index",
            SodaConfig {
                use_inverted_index: false,
                ..base.clone()
            },
        ),
        (
            "no_dbpedia",
            SodaConfig {
                use_dbpedia: false,
                ..base
            },
        ),
    ]
}

/// Mean F1 of the best statement per query over the 13 workload queries.
fn mean_best_f1(engine: &EngineSnapshot) -> f64 {
    let evals = run_workload(engine);
    evals.iter().map(|e| e.best.f1()).sum::<f64>() / evals.len() as f64
}

/// Mean best-F1 of the workload under the default configuration and with
/// each design decision switched off alone.
pub fn ablation_quality(engine: impl Fn(SodaConfig) -> EngineSnapshot) -> Vec<(&'static str, f64)> {
    variants()
        .into_iter()
        .map(|(name, config)| (name, mean_best_f1(&engine(config))))
        .collect()
}

/// Mean best-F1 of the workload as the join-path bound grows.
pub fn far_fetching_quality(engine: impl Fn(SodaConfig) -> EngineSnapshot) -> Vec<(usize, f64)> {
    FAR_FETCHING_BOUNDS
        .into_iter()
        .map(|bound| {
            let config = SodaConfig {
                max_join_path_length: bound,
                ..SodaConfig::default()
            };
            (bound, mean_best_f1(&engine(config)))
        })
        .collect()
}

/// The tables of the top interpretation of "Credit Suisse" under provenance
/// ranking alone, with compactness re-ranking, and after the provenance-only
/// top result was disliked three times.
pub fn ranking_variants(
    engine: impl Fn(SodaConfig) -> EngineSnapshot,
) -> Vec<(&'static str, Vec<String>)> {
    let default_engine = engine(SodaConfig::default());
    let compact_engine = engine(SodaConfig {
        compactness_rerank: true,
        ..SodaConfig::default()
    });

    let baseline = default_engine
        .search("Credit Suisse")
        .expect("a keyword query parses");
    let mut feedback = FeedbackStore::new();
    for _ in 0..3 {
        feedback.dislike(&baseline[0]);
    }
    let options = SearchOptions {
        feedback: Some(&feedback),
        ..SearchOptions::default()
    };
    let reranked = default_engine
        .search_with("Credit Suisse", &options)
        .expect("a keyword query parses")
        .page
        .results;
    let compact = compact_engine
        .search("Credit Suisse")
        .expect("a keyword query parses");
    let tables = |result: &SodaResult| result.tables.iter().map(|t| t.to_string()).collect();
    vec![
        ("provenance only", tables(&baseline[0])),
        ("compactness rerank", tables(&compact[0])),
        ("after 3 dislikes", tables(&reranked[0])),
    ]
}
