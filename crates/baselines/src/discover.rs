//! DISCOVER-like baseline (Hristidis & Papakonstantinou, VLDB 2002).
//!
//! DISCOVER finds keyword occurrences in the base data through an inverted
//! index ("tuple sets") and connects them through candidate networks built
//! from key/foreign-key relationships.  It understands nothing but the base
//! data: schema terms, ontologies, inheritance, predicates and aggregates are
//! outside its query model.

use soda_relation::{Database, InvertedIndex};

use crate::feature::{QueryFeature, Support};
use crate::system::{
    base_data_terms, candidate_network_sql, BaselineAnswer, BaselineSystem, SchemaJoinGraph,
};

/// The DISCOVER-like system.
#[derive(Debug, Default, Clone)]
pub(crate) struct Discover;

impl BaselineSystem for Discover {
    fn name(&self) -> &'static str {
        "DISCOVER"
    }

    fn support(&self, feature: QueryFeature) -> Support {
        match feature {
            // "(X)": cannot handle schemas with cycles.
            QueryFeature::BaseData => Support::Partial,
            _ => Support::No,
        }
    }

    fn answer(&self, db: &Database, index: &InvertedIndex, query: &str) -> Option<BaselineAnswer> {
        // Aggregations and explicit operators are not part of the query model.
        if query.contains('(') || query.contains('>') || query.contains('<') || query.contains('=')
        {
            return None;
        }
        let graph = SchemaJoinGraph::build(db);
        let (terms, unmatched) = base_data_terms(index, query, 3);
        if terms.is_empty() || terms.iter().any(|t| t.is_empty()) {
            return None;
        }
        // First candidate network: first hit per term.
        let hits: Vec<_> = terms.iter().map(|t| t[0].clone()).collect();
        let sql = candidate_network_sql(&graph, &hits)?;
        let mut answer = BaselineAnswer {
            sql: vec![sql],
            notes: unmatched
                .iter()
                .map(|w| format!("keyword '{w}' not found in any tuple"))
                .collect(),
        };
        // A few alternative networks from the remaining hits of the first term.
        for alt in terms[0].iter().skip(1).take(2) {
            let mut alt_hits = hits.clone();
            alt_hits[0] = alt.clone();
            if let Some(sql) = candidate_network_sql(&graph, &alt_hits) {
                answer.sql.push(sql);
            }
        }
        Some(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_warehouse::minibank;

    #[test]
    fn answers_pure_base_data_queries() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let d = Discover;
        let answer = d.answer(&w.database, &index, "Sara Guttinger").unwrap();
        assert!(!answer.sql.is_empty());
        let rs = w.database.run_sql(&answer.sql[0]).unwrap();
        assert!(rs.row_count() >= 1);
    }

    #[test]
    fn declines_schema_only_and_aggregate_queries() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let d = Discover;
        assert!(d
            .answer(
                &w.database,
                &index,
                "sum (amount) group by (transaction date)"
            )
            .is_none());
        // "private customers" only exists in the ontology, not in the data.
        assert!(d.answer(&w.database, &index, "private customers").is_none());
    }

    #[test]
    fn declared_capabilities_match_table5() {
        let d = Discover;
        assert_eq!(d.support(QueryFeature::BaseData), Support::Partial);
        assert_eq!(d.support(QueryFeature::Schema), Support::No);
        assert_eq!(d.support(QueryFeature::Aggregates), Support::No);
    }
}
