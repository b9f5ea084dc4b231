//! BANKS-like baseline (Bhalotia et al., ICDE 2002).
//!
//! BANKS models the database as a graph of tuples and relations and answers a
//! keyword query with (approximate Steiner) trees connecting the keyword
//! nodes.  Keywords may match relation names as well as tuples, so unlike
//! DISCOVER/DBExplorer it handles schema terms; inheritance, ontologies,
//! predicates and aggregates remain out of scope.

use soda_relation::{Database, InvertedIndex};

use crate::feature::{QueryFeature, Support};
use crate::system::{
    base_data_terms, candidate_network_sql, BaselineAnswer, BaselineSystem, DataHit,
    SchemaJoinGraph,
};

/// The BANKS-like system.
#[derive(Debug, Default, Clone)]
pub(crate) struct Banks;

impl BaselineSystem for Banks {
    fn name(&self) -> &'static str {
        "BANKS"
    }

    fn support(&self, feature: QueryFeature) -> Support {
        match feature {
            QueryFeature::BaseData | QueryFeature::Schema => Support::Yes,
            _ => Support::No,
        }
    }

    fn answer(&self, db: &Database, index: &InvertedIndex, query: &str) -> Option<BaselineAnswer> {
        if query.contains('(') || query.contains('>') || query.contains('<') || query.contains('=')
        {
            return None;
        }
        let graph = SchemaJoinGraph::build(db);
        let tokens = soda_relation::tokenize(query);
        // Split keywords into schema matches (relation names) and data terms.
        let mut schema_tables: Vec<String> = Vec::new();
        let mut residual: Vec<String> = Vec::new();
        for token in &tokens {
            let table_match = db
                .table_names()
                .iter()
                .find(|t| soda_relation::tokenize(t).contains(token))
                .map(|t| t.to_string());
            match table_match {
                Some(t) => {
                    if !schema_tables.contains(&t) {
                        schema_tables.push(t);
                    }
                }
                None => residual.push(token.clone()),
            }
        }
        let (terms, unmatched) = base_data_terms(index, &residual.join(" "), 3);
        if schema_tables.is_empty() && (terms.is_empty() || terms.iter().any(|t| t.is_empty())) {
            return None;
        }
        if !unmatched.is_empty() && terms.is_empty() && schema_tables.is_empty() {
            return None;
        }
        let mut hits: Vec<DataHit> = terms.iter().filter_map(|t| t.first().cloned()).collect();
        // Relation-name matches become unconditioned nodes of the tree: model
        // them as a hit on the table's first column with no filter by adding
        // the table through a pseudo-hit handled below.
        if hits.is_empty() {
            // Pure schema query: SELECT * over the (joined) named tables.
            let mut tables = schema_tables.clone();
            let anchor = tables[0].clone();
            let mut joins = Vec::new();
            for t in schema_tables.iter().skip(1) {
                let path = graph.path(t, &anchor)?;
                for step in path {
                    for tt in [&step.fk_table, &step.pk_table] {
                        if !tables.iter().any(|x| x.eq_ignore_ascii_case(tt)) {
                            tables.push(tt.clone());
                        }
                    }
                    joins.push(step.condition());
                }
            }
            let mut sql = format!("SELECT * FROM {}", tables.join(", "));
            if !joins.is_empty() {
                sql.push_str(" WHERE ");
                sql.push_str(&joins.join(" AND "));
            }
            return Some(BaselineAnswer {
                sql: vec![sql],
                notes: vec![],
            });
        }
        // Mixed query: anchor the candidate network at the data hits and join
        // the named relations in.
        let sql = candidate_network_sql(&graph, &hits)?;
        let mut answer = BaselineAnswer {
            sql: vec![sql],
            notes: schema_tables
                .iter()
                .map(|t| format!("relation name match: {t}"))
                .collect(),
        };
        for table in &schema_tables {
            hits.push(DataHit {
                table: table.clone(),
                column: db.table(table).ok()?.schema().columns.first()?.name.clone(),
                value: String::new(),
                exact: false,
            });
        }
        // The extended tree (with the named relations joined in) is a second
        // candidate answer; the empty LIKE filter is dropped.
        if let Some(extended) = candidate_network_sql(&graph, &hits) {
            let cleaned = extended.replace(" AND  LIKE '%%'", "");
            if !answer.sql.contains(&cleaned) {
                answer.sql.push(cleaned);
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
    fn handles_data_and_relation_name_keywords() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let b = Banks;
        let data_only = b.answer(&w.database, &index, "Sara Guttinger").unwrap();
        assert!(w.database.run_sql(&data_only.sql[0]).unwrap().row_count() >= 1);
        let schema_only = b.answer(&w.database, &index, "addresses").unwrap();
        assert!(w.database.run_sql(&schema_only.sql[0]).unwrap().row_count() >= 1);
    }

    #[test]
    fn declines_aggregates_and_predicates() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let b = Banks;
        assert!(b
            .answer(&w.database, &index, "count (transactions)")
            .is_none());
        assert!(b.answer(&w.database, &index, "salary > 100000").is_none());
        assert_eq!(b.support(QueryFeature::Schema), Support::Yes);
        assert_eq!(b.support(QueryFeature::Inheritance), Support::No);
    }
}
