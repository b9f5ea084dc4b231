//! The interactive result-page loop of §3 and §6.3: SODA returns a page of
//! candidate SQL statements, the user likes or dislikes interpretations, asks
//! for the next result page, and gets reformulation suggestions for words the
//! lookup could not match.
//!
//! Run with: `cargo run --example feedback_loop`

use soda::core::{EngineSnapshot, FeedbackStore, SearchOptions, SodaConfig};
use soda::warehouse::enterprise::{self, EnterpriseConfig};

fn main() {
    let (db, graph) = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    })
    .shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());

    // 1. The ambiguous query of Q3.1/Q3.2: "Credit Suisse" is both an
    //    organization and part of agreement names.
    println!("== result page 1 for 'Credit Suisse'");
    let page = engine.search_paged("Credit Suisse", 0, 3).unwrap();
    for (i, r) in page.results.iter().enumerate() {
        println!("  {}. [{:.2}] tables {:?}", i + 1, r.score, r.tables);
    }
    println!("  has next page: {}\n", page.has_next);

    if page.has_next {
        let next = engine.search_paged("Credit Suisse", 1, 3).unwrap();
        println!("== result page 2");
        for (i, r) in next.results.iter().enumerate() {
            println!("  {}. [{:.2}] tables {:?}", i + 4, r.score, r.tables);
        }
        println!();
    }

    // 2. The user dislikes the top interpretation a few times; the feedback is
    //    keyed by (phrase, entry point), so the whole interpretation family is
    //    demoted on the next query.
    let full = engine.search("Credit Suisse").unwrap();
    let mut feedback = FeedbackStore::new();
    for _ in 0..3 {
        feedback.dislike(&full[0]);
    }
    println!(
        "== after disliking the {:?} interpretation three times",
        full[0].tables
    );
    let options = SearchOptions {
        feedback: Some(&feedback),
        ..SearchOptions::default()
    };
    let reranked = engine.search_with("Credit Suisse", &options).unwrap();
    for (i, r) in reranked.page.results.iter().take(3).enumerate() {
        println!("  {}. [{:.2}] tables {:?}", i + 1, r.score, r.tables);
    }
    println!();

    // 3. Reformulation suggestions for words the lookup cannot classify.
    for input in ["Sara agreemnt", "customer adress Zurich"] {
        println!("== suggestions for '{input}'");
        let suggestions = engine.suggestions(input).unwrap();
        if suggestions.is_empty() {
            println!("  every word matched — nothing to suggest");
        }
        for s in suggestions {
            println!(
                "  '{}' is unknown — did you mean {:?}?",
                s.term, s.candidates
            );
        }
        println!();
    }
}
