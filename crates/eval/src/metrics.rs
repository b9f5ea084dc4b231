//! Tuple-level precision and recall against the gold standard.
//!
//! The paper compares the *result tuples* of each SQL statement produced by
//! SODA with the result tuples of the hand-written gold-standard query: a
//! precision of 1.0 means every returned tuple also appears in the gold
//! result, a recall of 1.0 means every gold tuple was returned (§5.2.1).
//!
//! Because SODA's statements typically `SELECT *` over the joined tables while
//! the gold statements project the columns the analyst asked for, tuples are
//! compared on the gold statement's output columns: the SODA result is
//! projected onto those columns (matched by normalised column name); if it
//! does not even contain them, the result cannot answer the business question
//! and scores zero.

use std::collections::HashSet;

use soda_relation::ResultSet;

/// Precision and recall of one SODA result against the gold standard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// Fraction of returned tuples that are gold tuples.
    pub precision: f64,
    /// Fraction of gold tuples that were returned.
    pub recall: f64,
}

impl PrecisionRecall {
    /// Both metrics zero.
    pub fn zero() -> Self {
        Self {
            precision: 0.0,
            recall: 0.0,
        }
    }

    /// Harmonic mean of precision and recall.
    pub(crate) fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// Normalises a result column name: lower-cased, with every `table.` qualifier
/// removed (also inside aggregate expressions, so
/// `sum(trade_order_td.amount)` and `sum(amount)` compare equal).
pub(crate) fn normalize_column(name: &str) -> String {
    let lower = name.to_lowercase();
    let mut out = String::with_capacity(lower.len());
    let mut word = String::new();
    for c in lower.chars() {
        if c.is_alphanumeric() || c == '_' {
            word.push(c);
        } else if c == '.' {
            // Drop the accumulated qualifier.
            word.clear();
        } else {
            out.push_str(&word);
            word.clear();
            out.push(c);
        }
    }
    out.push_str(&word);
    out
}

/// Projects a result set onto the given (normalised) column names, returning
/// the set of distinct value tuples; `None` when a requested column is absent.
pub(crate) fn project(rs: &ResultSet, columns: &[String]) -> Option<HashSet<Vec<String>>> {
    let normalized: Vec<String> = rs.columns().iter().map(|c| normalize_column(c)).collect();
    let mut indices = Vec::with_capacity(columns.len());
    for wanted in columns {
        let idx = normalized.iter().position(|c| c == wanted)?;
        indices.push(idx);
    }
    let mut out = HashSet::new();
    for row in rs.rows() {
        out.insert(indices.iter().map(|&i| row[i].to_string()).collect());
    }
    Some(out)
}

/// The gold tuple set: the union of the gold statements' results, compared by
/// value position (all gold statements must share the arity of the first).
pub(crate) fn gold_tuples(gold: &[ResultSet]) -> (Vec<String>, HashSet<Vec<String>>) {
    let columns: Vec<String> = gold
        .first()
        .map(|g| g.columns().iter().map(|c| normalize_column(c)).collect())
        .unwrap_or_default();
    let mut tuples = HashSet::new();
    for g in gold {
        for row in g.rows() {
            tuples.insert(
                row.iter()
                    .take(columns.len())
                    .map(|v| v.to_string())
                    .collect(),
            );
        }
    }
    (columns, tuples)
}

/// Evaluates one SODA result set against the gold statements.
pub fn evaluate(soda: &ResultSet, gold: &[ResultSet]) -> PrecisionRecall {
    let (columns, gold_set) = gold_tuples(gold);
    if columns.is_empty() || gold_set.is_empty() {
        return PrecisionRecall::zero();
    }
    let Some(soda_set) = project(soda, &columns) else {
        return PrecisionRecall::zero();
    };
    if soda_set.is_empty() {
        return PrecisionRecall::zero();
    }
    let matched = soda_set.intersection(&gold_set).count() as f64;
    PrecisionRecall {
        precision: matched / soda_set.len() as f64,
        recall: matched / gold_set.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{workload, WorkloadQuery};
    use soda_relation::{DataType, Database, TableSchema, Value};
    use soda_warehouse::enterprise::{self, EnterpriseConfig};
    use soda_warehouse::Warehouse;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("individual")
                .column("party_id", DataType::Int)
                .column("given_name", DataType::Text)
                .column("family_name", DataType::Text)
                .build(),
        )
        .unwrap();
        for (id, given, family) in [
            (1, "Sara", "Guttinger"),
            (2, "Sara", "Meier"),
            (3, "Anna", "Keller"),
            (4, "Sara", "Weber"),
            (5, "Sara", "Frei"),
        ] {
            db.insert(
                "individual",
                vec![Value::Int(id), Value::from(given), Value::from(family)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn normalization_strips_qualifiers_everywhere() {
        assert_eq!(normalize_column("individual.party_id"), "party_id");
        assert_eq!(
            normalize_column("sum(trade_order_td.amount)"),
            "sum(amount)"
        );
        assert_eq!(normalize_column("count(*)"), "count(*)");
        assert_eq!(normalize_column("Family_Name"), "family_name");
    }

    #[test]
    fn identical_queries_score_perfectly() {
        let db = db();
        let gold = db
            .run_sql("SELECT party_id, family_name FROM individual WHERE given_name = 'Sara'")
            .unwrap();
        let soda = db
            .run_sql("SELECT * FROM individual WHERE given_name = 'Sara'")
            .unwrap();
        let pr = evaluate(&soda, &[gold]);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.f1(), 1.0);
    }

    #[test]
    fn subset_results_have_full_precision_but_low_recall() {
        let db = db();
        let gold = db
            .run_sql("SELECT party_id, family_name FROM individual WHERE given_name = 'Sara'")
            .unwrap();
        let soda = db
            .run_sql("SELECT * FROM individual WHERE given_name = 'Sara' AND party_id = 1")
            .unwrap();
        let pr = evaluate(&soda, &[gold]);
        assert_eq!(pr.precision, 1.0);
        assert!((pr.recall - 0.25).abs() < 1e-9);
    }

    #[test]
    fn superset_results_lose_precision() {
        let db = db();
        let gold = db
            .run_sql("SELECT party_id, family_name FROM individual WHERE given_name = 'Sara'")
            .unwrap();
        let soda = db.run_sql("SELECT * FROM individual").unwrap();
        let pr = evaluate(&soda, &[gold]);
        assert!((pr.precision - 0.8).abs() < 1e-9);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn missing_columns_score_zero() {
        let db = db();
        let gold = db
            .run_sql("SELECT party_id, family_name FROM individual WHERE given_name = 'Sara'")
            .unwrap();
        let soda = db.run_sql("SELECT given_name FROM individual").unwrap();
        assert_eq!(evaluate(&soda, &[gold]), PrecisionRecall::zero());
    }

    #[test]
    fn multi_statement_gold_is_a_union() {
        let db = db();
        let gold_a = db
            .run_sql("SELECT party_id, family_name FROM individual WHERE party_id = 1")
            .unwrap();
        let gold_b = db
            .run_sql("SELECT party_id, family_name FROM individual WHERE party_id = 3")
            .unwrap();
        let soda = db
            .run_sql("SELECT * FROM individual WHERE party_id = 1")
            .unwrap();
        let pr = evaluate(&soda, &[gold_a, gold_b]);
        assert_eq!(pr.precision, 1.0);
        assert!((pr.recall - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_soda_result_scores_zero() {
        let db = db();
        let gold = db
            .run_sql("SELECT party_id FROM individual WHERE given_name = 'Sara'")
            .unwrap();
        let soda = db
            .run_sql("SELECT * FROM individual WHERE given_name = 'Nobody'")
            .unwrap();
        assert_eq!(evaluate(&soda, &[gold]), PrecisionRecall::zero());
    }

    /// Number of distinct gold tuples for a query.
    fn gold_size(warehouse: &Warehouse, query: &WorkloadQuery) -> usize {
        let results: Vec<ResultSet> = query
            .gold_sql
            .iter()
            .map(|sql| {
                warehouse
                    .database
                    .run_sql(sql)
                    .unwrap_or_else(|e| panic!("gold SQL of {} failed: {e}\n{sql}", query.id))
            })
            .collect();
        gold_tuples(&results).1.len()
    }

    #[test]
    fn gold_sizes_reflect_the_engineered_distributions() {
        let w = enterprise::build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.1,
        });
        let queries = workload();
        let q21 = queries.iter().find(|q| q.id == "2.1").unwrap();
        // 4 current Saras plus 16 historised ones.
        assert_eq!(gold_size(&w, q21), 20);
        let q23 = queries.iter().find(|q| q.id == "2.3").unwrap();
        assert_eq!(gold_size(&w, q23), 4);
        let q50 = queries.iter().find(|q| q.id == "5.0").unwrap();
        assert_eq!(gold_size(&w, q50), 380);
        let q90 = queries.iter().find(|q| q.id == "9.0").unwrap();
        assert_eq!(gold_size(&w, q90), 1);
    }
}
