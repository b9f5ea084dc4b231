//! DBExplorer-like baseline (Agrawal, Chaudhuri & Das, ICDE 2002).
//!
//! DBExplorer maintains a symbol table of keyword occurrences and produces
//! results at the granularity of *sets* of business objects, again connecting
//! matches through key/foreign-key join trees.  Like DISCOVER it only knows
//! the base data and struggles with cyclic schemas.

use soda_relation::{Database, InvertedIndex};

use crate::feature::{QueryFeature, Support};
use crate::system::{
    base_data_terms, candidate_network_sql, BaselineAnswer, BaselineSystem, SchemaJoinGraph,
};

/// The DBExplorer-like system.
#[derive(Debug, Default, Clone)]
pub(crate) struct DbExplorer;

impl BaselineSystem for DbExplorer {
    fn name(&self) -> &'static str {
        "DBExplorer"
    }

    fn support(&self, feature: QueryFeature) -> Support {
        match feature {
            QueryFeature::BaseData => Support::Partial,
            _ => Support::No,
        }
    }

    fn answer(&self, db: &Database, index: &InvertedIndex, query: &str) -> Option<BaselineAnswer> {
        if query.contains('(') || query.contains('>') || query.contains('<') || query.contains('=')
        {
            return None;
        }
        let graph = SchemaJoinGraph::build(db);
        let (terms, _unmatched) = base_data_terms(index, query, 3);
        if terms.is_empty() || terms.iter().any(|t| t.is_empty()) {
            return None;
        }
        // DBExplorer returns the distinct set of matching objects: one SQL per
        // (first-hit) join tree, deduplicated.
        let hits: Vec<_> = terms.iter().map(|t| t[0].clone()).collect();
        let sql = candidate_network_sql(&graph, &hits)?;
        Some(BaselineAnswer {
            sql: vec![sql],
            notes: vec!["results are sets of business objects".to_string()],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_warehouse::minibank;

    #[test]
    fn produces_executable_sql_for_data_keywords() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let d = DbExplorer;
        let answer = d.answer(&w.database, &index, "Zurich").unwrap();
        let rs = w.database.run_sql(&answer.sql[0]).unwrap();
        assert!(rs.row_count() >= 1);
    }

    #[test]
    fn declines_operator_queries() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let d = DbExplorer;
        assert!(d.answer(&w.database, &index, "salary >= 100000").is_none());
        assert_eq!(d.support(QueryFeature::Predicates), Support::No);
    }
}
