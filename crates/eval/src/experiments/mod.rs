//! Experiment drivers for every table and figure of the paper's evaluation.

pub mod ablations;
pub mod figures;
pub mod historization;
pub mod table1;
pub mod table5;

use std::sync::Arc;
use std::time::{Duration, Instant};

use soda_core::{EngineSnapshot, SearchOptions, SodaConfig};
use soda_warehouse::Warehouse;

use crate::metrics::{evaluate, PrecisionRecall};
use crate::workload::{workload, WorkloadQuery};

/// Evaluation of a single SQL statement produced by SODA.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEvaluation {
    /// The generated SQL.
    pub sql: String,
    /// Precision against the gold standard.
    pub precision: f64,
    /// Recall against the gold standard.
    pub recall: f64,
    /// Number of rows the statement returned.
    pub rows: usize,
    /// Execution time of the statement.
    pub execution: Duration,
}

/// Evaluation of one workload query (a row of Tables 3 and 4).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEvaluation {
    /// Query id ("1.0", …).
    pub id: String,
    /// The SODA input.
    pub keywords: String,
    /// Query complexity (combinatorial product of entry points).
    pub complexity: usize,
    /// Number of SQL statements produced.
    pub num_results: usize,
    /// Precision/recall of the best produced statement.
    pub best: PrecisionRecall,
    /// Number of produced statements with both precision and recall > 0.
    pub results_positive: usize,
    /// Number of produced statements with precision = recall = 0.
    pub results_zero: usize,
    /// SODA processing time (the five pipeline steps).
    pub soda_runtime: Duration,
    /// Total end-to-end time including executing every produced statement.
    pub total_runtime: Duration,
    /// Per-statement evaluations.
    pub per_result: Vec<ResultEvaluation>,
    /// The workload definition (includes the paper's reported numbers).
    pub reference: WorkloadQuery,
}

/// One engine per configuration, all over the one warehouse.
pub fn engines_over(warehouse: Warehouse) -> impl Fn(SodaConfig) -> EngineSnapshot {
    let (db, graph) = warehouse.shared_parts();
    move |config| EngineSnapshot::build(Arc::clone(&db), Arc::clone(&graph), config)
}

/// Runs the full workload of Table 2 on an engine and evaluates every
/// produced statement against the gold standard, computed over the engine's
/// own base data.  This single pass produces the data behind both Table 3
/// (precision/recall) and Table 4 (complexity and runtime).
pub fn run_workload(engine: &EngineSnapshot) -> Vec<QueryEvaluation> {
    let mut evaluations = Vec::new();
    for query in workload() {
        let gold: Vec<_> = query
            .gold_sql
            .iter()
            .map(|sql| {
                engine
                    .database()
                    .run_sql(sql)
                    .unwrap_or_else(|e| panic!("gold SQL of {} failed: {e}", query.id))
            })
            .collect();

        let started = Instant::now();
        let outcome = engine
            .search_with(query.keywords, &SearchOptions::default())
            .unwrap_or_else(|e| panic!("query {} failed: {e}", query.id));
        let (results, trace) = (outcome.page.results, outcome.trace);
        let soda_runtime = trace.timings.total();

        let mut per_result = Vec::new();
        for result in &results {
            let exec_start = Instant::now();
            let executed = engine.execute(result);
            let execution = exec_start.elapsed();
            let (pr, rows) = match executed {
                Ok(rs) => (evaluate(&rs, &gold), rs.row_count()),
                Err(_) => (PrecisionRecall::zero(), 0),
            };
            per_result.push(ResultEvaluation {
                sql: result.sql.clone(),
                precision: pr.precision,
                recall: pr.recall,
                rows,
                execution,
            });
        }
        let total_runtime = started.elapsed();

        let best = per_result
            .iter()
            .map(|r| PrecisionRecall {
                precision: r.precision,
                recall: r.recall,
            })
            .max_by(|a, b| {
                (a.f1(), a.precision)
                    .partial_cmp(&(b.f1(), b.precision))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or_else(PrecisionRecall::zero);
        let results_positive = per_result
            .iter()
            .filter(|r| r.precision > 0.0 && r.recall > 0.0)
            .count();
        let results_zero = per_result
            .iter()
            .filter(|r| r.precision == 0.0 && r.recall == 0.0)
            .count();

        evaluations.push(QueryEvaluation {
            id: query.id.to_string(),
            keywords: query.keywords.to_string(),
            complexity: trace.complexity,
            num_results: results.len(),
            best,
            results_positive,
            results_zero,
            soda_runtime,
            total_runtime,
            per_result,
            reference: query,
        });
    }
    evaluations
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_warehouse::enterprise::{self, EnterpriseConfig};

    fn quick_engine() -> EngineSnapshot {
        let (db, graph) = enterprise::build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.15,
        })
        .shared_parts();
        EngineSnapshot::build(db, graph, SodaConfig::default())
    }

    #[test]
    fn workload_run_produces_an_evaluation_per_query() {
        let evals = run_workload(&quick_engine());
        assert_eq!(evals.len(), 13);
        for e in &evals {
            assert!(e.complexity >= 1, "query {} has zero complexity", e.id);
            assert!(
                e.soda_runtime.as_nanos() > 0,
                "query {} reports no SODA runtime",
                e.id
            );
        }
    }

    #[test]
    fn majority_of_queries_reach_full_precision() {
        let evals = run_workload(&quick_engine());
        let full_precision = evals.iter().filter(|e| e.best.precision >= 0.99).count();
        assert!(
            full_precision >= 8,
            "only {full_precision}/13 queries reached precision 1.0: {:?}",
            evals
                .iter()
                .map(|e| (e.id.clone(), e.best.precision, e.best.recall))
                .collect::<Vec<_>>()
        );
    }
}
