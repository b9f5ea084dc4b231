//! End-to-end tests of the SODA engine on the enterprise warehouse, covering
//! the behaviours the workload of Table 2 relies on.

use std::sync::Arc;

use soda_core::{EngineSnapshot, FeedbackStore, Provenance, SearchOptions, SodaConfig};
use soda_warehouse::enterprise::{self, EnterpriseConfig};
use soda_warehouse::Warehouse;

fn engine(warehouse: Warehouse, config: SodaConfig) -> EngineSnapshot {
    let (db, graph) = warehouse.shared_parts();
    EngineSnapshot::build(db, graph, config)
}

fn small_warehouse() -> Warehouse {
    // No padding and reduced data volume: these tests exercise behaviour, not
    // scale (scale is covered by the benchmarks).
    enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    })
}

#[test]
fn q1_private_customers_family_name_uses_ontology_and_schema() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    let outcome = e
        .search_with("private customers family name", &SearchOptions::default())
        .unwrap();
    let (results, trace) = (outcome.page.results, outcome.trace);
    assert!(!results.is_empty());
    let classification: Vec<_> = trace
        .classification
        .iter()
        .map(|(p, _)| p.clone())
        .collect();
    assert!(classification.contains(&"private customers".to_string()));
    assert!(classification.contains(&"family name".to_string()));
    let top = &results[0];
    assert!(top.tables.contains(&"individual".into()));
    assert!(
        top.tables.contains(&"party".into()),
        "inheritance parent added"
    );
    let rs = e.execute(top).unwrap();
    assert!(rs.row_count() > 100);
}

#[test]
fn q2_sara_interpretations_current_vs_historised() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    let results = e.search("Sara").unwrap();
    assert!(
        results.len() >= 2,
        "both the current and the historised column should match"
    );
    // The current-name interpretation returns exactly the CURRENT_SARA rows;
    // the historisation gap means no interpretation reaches all 20 parties.
    let counts: Vec<usize> = results
        .iter()
        .map(|r| e.execute(r).map(|rs| rs.row_count()).unwrap_or(0))
        .collect();
    assert!(counts.contains(&soda_warehouse::enterprise::data::CURRENT_SARA));
    assert!(counts.iter().all(|&c| c < 20));
}

#[test]
fn historization_annotations_recover_the_historised_saras() {
    use soda_warehouse::enterprise::data::{CURRENT_SARA, HISTORIC_SARA};
    let config = EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    };

    // Paper-faithful graph: the interpretation entering through the history
    // table cannot be joined back to individual/party (the join key is not in
    // the metadata graph), so it stays an isolated single-table result — the
    // cause of the Q2.1/Q2.2 recall loss.
    let plain = enterprise::build_with(config);
    let e = engine(plain, SodaConfig::default());
    let plain_results = e.search("Sara").unwrap();
    assert!(plain_results
        .iter()
        .filter(|r| r.tables.contains(&"individual_name_hist".into()))
        .all(|r| !r.tables.contains(&"individual".into())));
    let plain_current_best = plain_results
        .iter()
        .filter(|r| r.tables.contains(&"individual".into()))
        .map(|r| e.execute(r).map(|rs| rs.row_count()).unwrap_or(0))
        .max()
        .unwrap_or(0);
    assert_eq!(plain_current_best, CURRENT_SARA);

    // Annotated graph (the paper's proposed remedy): the interpretation that
    // enters through the history table joins back to individual/party and
    // recovers the historised names.
    let annotated = enterprise::build_with_historization(config);
    let e = engine(annotated, SodaConfig::default());
    let results = e.search("Sara").unwrap();
    assert!(e
        .join_catalog()
        .historization_of("individual_name_hist")
        .is_some());
    let joined_hist = results
        .iter()
        .find(|r| {
            r.tables.contains(&"individual_name_hist".into())
                && r.tables.contains(&"individual".into())
        })
        .expect("annotated graph must join the history table back to individual");
    let covered = e.execute(joined_hist).unwrap().row_count();
    assert!(
        covered >= HISTORIC_SARA,
        "expected the joined history interpretation to reach the {HISTORIC_SARA} historised names, got {covered}"
    );
}

#[test]
fn valid_at_operator_constrains_annotated_history_tables() {
    let config = EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    };
    let annotated = enterprise::build_with_historization(config);
    let e = engine(annotated, SodaConfig::default());
    let results = e.search("Sara valid at date(2006-06-30)").unwrap();
    // The interpretation entering through the history table carries the
    // validity-interval predicates.
    let temporal = results
        .iter()
        .find(|r| r.tables.contains(&"individual_name_hist".into()))
        .expect("a history-table interpretation must exist on the annotated graph");
    assert!(
        temporal.sql.contains("valid_from <= '2006-06-30'")
            && temporal.sql.contains("valid_to >= '2006-06-30'"),
        "{}",
        temporal.sql
    );
    let constrained = e.execute(temporal).unwrap().row_count();
    // Dropping the temporal operator returns at least as many rows.
    let unconstrained = e
        .search("Sara")
        .unwrap()
        .iter()
        .find(|r| r.tables.contains(&"individual_name_hist".into()))
        .map(|r| e.execute(r).unwrap().row_count())
        .unwrap();
    assert!(constrained <= unconstrained);
    assert!(
        constrained > 0,
        "the 2006 validity window intersects the generated history"
    );

    // On the paper-faithful graph the operator is ignored with a note.
    let plain = enterprise::build_with(config);
    let e = engine(plain, SodaConfig::default());
    let results = e.search("Sara valid at date(2006-06-30)").unwrap();
    assert!(results
        .iter()
        .all(|r| !r.sql.contains("valid_from <= '2006-06-30'")));
    assert!(results
        .iter()
        .any(|r| r.notes.iter().any(|n| n.contains("valid at ignored"))));
}

#[test]
fn use_historization_flag_disables_the_temporal_operator() {
    let config = EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    };
    let annotated = enterprise::build_with_historization(config);
    let soda_config = SodaConfig {
        use_historization: false,
        ..SodaConfig::default()
    };
    let e = engine(annotated, soda_config);
    let results = e.search("Sara valid at date(2006-06-30)").unwrap();
    assert!(results
        .iter()
        .all(|r| !r.sql.contains("valid_from <= '2006-06-30'")));
    assert!(results.iter().any(|r| r
        .notes
        .iter()
        .any(|n| n.contains("historization support disabled"))));
}

#[test]
fn q3_credit_suisse_is_ambiguous_between_organization_and_agreement() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    let results = e.search("Credit Suisse").unwrap();
    assert!(results.len() >= 2);
    let tables: Vec<std::sync::Arc<str>> = results.iter().flat_map(|r| r.tables.clone()).collect();
    assert!(tables.contains(&"organization".into()));
    assert!(tables.contains(&"agreement_td".into()));
}

#[test]
fn disliking_an_interpretation_demotes_it_on_later_queries() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());

    // "Credit Suisse" is ambiguous between the organization and the agreement
    // interpretation (Q3.1 vs Q3.2); both are base-data hits, so the paper's
    // provenance ranking cannot separate them.
    let results = e.search("Credit Suisse").unwrap();
    let top_tables = results[0].tables.clone();
    let disliked = &results[0];

    let mut feedback = FeedbackStore::new();
    // A few consistent dislikes on the top interpretation flip the order…
    for _ in 0..3 {
        feedback.dislike(disliked);
    }
    let with_feedback = |feedback| {
        let options = SearchOptions {
            feedback: Some(feedback),
            ..SearchOptions::default()
        };
        e.search_with("Credit Suisse", &options)
            .unwrap()
            .page
            .results
    };
    let reranked = with_feedback(&feedback);
    assert_eq!(reranked.len(), results.len(), "feedback only re-ranks");
    assert_ne!(
        reranked[0].tables, top_tables,
        "disliked interpretation still on top"
    );
    assert!(
        reranked.iter().any(|r| r.tables == top_tables),
        "…but it is not removed"
    );

    // …while liking it keeps it on top.
    let mut praise = FeedbackStore::new();
    praise.like(disliked);
    let confirmed = with_feedback(&praise);
    assert_eq!(confirmed[0].tables, top_tables);
}

#[test]
fn compactness_rerank_prefers_the_single_table_interpretation() {
    let w = small_warehouse();
    let config = SodaConfig {
        compactness_rerank: true,
        ..SodaConfig::default()
    };
    let e = engine(w, config);
    // Both interpretations of "Credit Suisse" are base-data hits with the same
    // provenance score; the agreement interpretation needs a single table
    // while the organization interpretation drags in the party super-type, so
    // compactness puts the agreement first.
    let results = e.search("Credit Suisse").unwrap();
    assert!(results.len() >= 2);
    assert!(
        results[0].tables == ["agreement_td".into()],
        "expected the single-table agreement interpretation first, got {:?}",
        results[0].tables
    );
    // Scores stay sorted after the re-rank.
    for pair in results.windows(2) {
        assert!(pair[0].score >= pair[1].score);
    }
}

#[test]
fn q6_date_range_predicate_on_the_ontology_resolved_period() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    let results = e.search("trade order period > date(2011-09-01)").unwrap();
    assert!(!results.is_empty());
    let top = &results[0];
    assert!(top.sql.contains("order_dt > '2011-09-01'"), "{}", top.sql);
    let rs = e.execute(top).unwrap();
    assert!(rs.row_count() > 0);
    // Every returned order date is after the bound.
    let col = rs
        .columns()
        .iter()
        .position(|c| c.ends_with("order_dt"))
        .expect("order_dt projected");
    for row in rs.rows() {
        assert!(row[col].to_string().as_str() > "2011-09-01");
    }
}

#[test]
fn q7_yen_trade_orders_produce_a_multiway_join() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    let results = e.search("YEN trade order").unwrap();
    assert!(!results.is_empty());
    // At least one interpretation filters the trade orders by currency and
    // returns rows.
    let good = results.iter().find(|r| {
        r.tables.contains(&"trade_order_td".into())
            && e.execute(r).map(|rs| rs.row_count() > 0).unwrap_or(false)
    });
    assert!(
        good.is_some(),
        "no YEN trade-order interpretation produced rows"
    );
}

#[test]
fn short_join_path_bound_breaks_distant_entry_points_far_fetching_repairs_them() {
    let w = small_warehouse();

    // "YEN trade order" needs to connect the currency hit to the trade-order
    // chain.  With a tight join-path bound the entry points cannot be
    // connected (the situation §5.3.1 describes); the default, more
    // far-fetching bound finds the chain.
    let tight = SodaConfig {
        max_join_path_length: 1,
        ..SodaConfig::default()
    };
    let (db, graph) = w.shared_parts();
    let e = EngineSnapshot::build(Arc::clone(&db), Arc::clone(&graph), tight);
    let results = e.search("private customers family name YEN").unwrap();
    assert!(
        results.iter().any(|r| !r.join_path_complete),
        "with a 1-edge bound some interpretation must fail to connect its entry points"
    );

    let e = EngineSnapshot::build(db, graph, SodaConfig::default());
    let results = e.search("private customers family name YEN").unwrap();
    assert!(
        results.iter().any(|r| r.join_path_complete),
        "the default bound must connect the entry points"
    );
}

#[test]
fn q10_sum_investments_grouped_by_currency() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    let results = e.search("sum(investments) group by (currency)").unwrap();
    assert!(!results.is_empty());
    let top = &results[0];
    assert!(
        top.sql
            .to_lowercase()
            .contains("sum(trade_order_td.amount)"),
        "{}",
        top.sql
    );
    assert!(top.sql.to_lowercase().contains("group by"), "{}", top.sql);
    let rs = e.execute(top).unwrap();
    assert!(
        rs.row_count() >= 5,
        "one row per currency expected: {}",
        top.sql
    );
}

#[test]
fn result_pages_partition_the_ranked_list_without_gaps() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());

    let all = e.search("Credit Suisse").unwrap();
    assert!(all.len() >= 3, "need a few interpretations to page through");

    let page_size = 2;
    let first = e.search_paged("Credit Suisse", 0, page_size).unwrap();
    assert_eq!(first.page, 0);
    assert_eq!(first.results.len(), page_size);
    assert!(first.has_next);
    // The first page is exactly the head of the unpaged ranking.
    assert_eq!(
        first.results.iter().map(|r| &r.sql).collect::<Vec<_>>(),
        all.iter()
            .take(page_size)
            .map(|r| &r.sql)
            .collect::<Vec<_>>()
    );

    let second = e.search_paged("Credit Suisse", 1, page_size).unwrap();
    assert!(!second.results.is_empty());
    // No statement appears on both pages.
    for r in &second.results {
        assert!(first.results.iter().all(|f| f.sql != r.sql));
    }

    // A page past the end is empty but well-formed.
    let beyond = e.search_paged("Credit Suisse", 50, page_size).unwrap();
    assert!(beyond.results.is_empty());
    assert!(!beyond.has_next);
    assert_eq!(beyond.total_results, second.total_results);
}

#[test]
fn unmatched_words_get_reformulation_suggestions() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());

    // "agreemnt" is a typo for the agreement schema term; "Sara" matches the
    // base data and therefore needs no suggestion.
    let suggestions = e.suggestions("Sara agreemnt").unwrap();
    assert_eq!(suggestions.len(), 1, "{suggestions:?}");
    assert_eq!(suggestions[0].term, "agreemnt");
    assert!(
        suggestions[0]
            .candidates
            .iter()
            .any(|c| c.contains("agreement")),
        "{:?}",
        suggestions[0].candidates
    );

    // Fully matched queries produce no suggestions.
    assert!(e.suggestions("private customers").unwrap().is_empty());
}

#[test]
fn wealthy_customers_business_term_resolves_through_the_metadata_filter() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    let results = e.search("wealthy customers").unwrap();
    assert!(!results.is_empty());
    assert!(
        results[0].sql.contains("salary >= 500000"),
        "{}",
        results[0].sql
    );
}

#[test]
fn dbpedia_synonyms_rank_below_domain_ontology() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    // "clients" is an alternative name of the ontology concept; "firm" is only
    // a DBpedia synonym of the organization table.
    let trace_of = |input| {
        e.search_with(input, &SearchOptions::default())
            .unwrap()
            .trace
    };
    let (trace_onto, trace_dbp) = (trace_of("clients"), trace_of("firm"));
    let onto = &trace_onto.classification[0].1;
    let dbp = &trace_dbp.classification[0].1;
    assert!(onto.contains(&Provenance::DomainOntology));
    assert!(dbp.contains(&Provenance::DbPedia));
}

#[test]
fn disabling_the_inverted_index_removes_base_data_interpretations() {
    let w = small_warehouse();
    let config = SodaConfig {
        use_inverted_index: false,
        ..SodaConfig::default()
    };
    let e = engine(w, config);
    let results = e.search("Credit Suisse").unwrap();
    // "Credit Suisse" only exists in the base data, so metadata-only lookup
    // (the Keymantic situation) cannot interpret it.
    assert!(results.is_empty());
}

#[test]
fn bridge_tables_between_siblings_are_in_the_join_catalog() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    let bridges = e
        .join_catalog()
        .bridges_connecting("individual", "organization");
    assert_eq!(bridges.len(), 1);
    assert_eq!(&*bridges[0].table, "associate_employment");
}

#[test]
fn explicit_join_nodes_are_discovered_on_the_trading_chain() {
    let w = small_warehouse();
    let e = engine(w, SodaConfig::default());
    let explicit: Vec<_> = e
        .join_catalog()
        .edges
        .iter()
        .filter(|edge| edge.explicit_join_node)
        .collect();
    assert!(explicit.iter().any(|e| &*e.fk_table == "trade_order_td"));
    assert!(explicit.iter().any(|e| &*e.fk_table == "account_td"));
}

#[test]
fn padded_warehouse_still_answers_queries() {
    let w = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: true,
        data_scale: 0.1,
    });
    let e = engine(w, SodaConfig::default());
    let results = e.search("private customers family name").unwrap();
    assert!(!results.is_empty());
    let rs = e.execute(&results[0]).unwrap();
    assert!(rs.row_count() > 0);
}
