//! Result types returned by the engine: scored SQL statements and the
//! per-query trace with the step timings and complexity figures reported in
//! Table 4 of the paper.

use std::sync::Arc;
use std::time::Duration;

use soda_relation::SelectStatement;

use crate::provenance::Provenance;

/// One interpretation choice: which metadata node a matched phrase was
/// resolved against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interpretation {
    /// The matched phrase.
    pub phrase: Arc<str>,
    /// Which part of the metadata the phrase was found in.
    pub provenance: Provenance,
    /// URI of the metadata-graph node chosen as the entry point (for
    /// base-data hits, the physical column node).  This is what relevance
    /// feedback votes on: it distinguishes, e.g., the organization-name and
    /// the agreement-name interpretation of the same phrase.
    pub entry_uri: String,
}

/// One scored, executable SQL statement produced for an input query.
#[derive(Debug, Clone, PartialEq)]
pub struct SodaResult {
    /// The SQL text (printable, parseable by `soda_relation::parse_select`).
    pub sql: String,
    /// The statement as an AST.
    pub statement: SelectStatement,
    /// Ranking score of the underlying interpretation.
    pub score: f64,
    /// Tables participating in the statement, shared with the join catalog.
    pub tables: Vec<Arc<str>>,
    /// The interpretation: per matched phrase, where it was found.
    pub interpretation: Vec<Interpretation>,
    /// True when every pair of entry-point tables could be connected through
    /// join conditions.
    pub join_path_complete: bool,
    /// Bridge tables whose joins were added.
    pub used_bridges: Vec<Arc<str>>,
    /// Notes from the pipeline (skipped constraints, missing columns, …).
    pub notes: Vec<String>,
}

/// One page of ranked results (the paper's "result page": the user can ask
/// for the next set of candidate queries).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultPage {
    /// The results on this page, best first.
    pub results: Vec<SodaResult>,
    /// Zero-based page index.
    pub page: usize,
    /// Requested page size.
    pub page_size: usize,
    /// Total number of results generated for the query (across all pages the
    /// engine materialised).
    pub total_results: usize,
    /// Whether a further page exists.
    pub has_next: bool,
}

/// Wall-clock timings of the pipeline steps (the "SODA runtime" of Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTimings {
    /// Step 1 — lookup.
    pub lookup: Duration,
    /// Step 2 — rank and top N.
    pub rank: Duration,
    /// Step 3 — tables and joins.
    pub tables: Duration,
    /// Step 4 — filters.
    pub filters: Duration,
    /// Step 5 — SQL generation.
    pub sql: Duration,
}

impl StepTimings {
    /// Total SODA processing time (excludes executing the generated SQL).
    pub fn total(&self) -> Duration {
        self.lookup + self.rank + self.tables + self.filters + self.sql
    }
}

/// Trace of one query through the pipeline.  The input is the caller's,
/// and the number of statements produced is the page's
/// [`total_results`](ResultPage::total_results).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// Query complexity: size of the combinatorial product of entry points
    /// (Table 4, column "Complexity").
    pub complexity: usize,
    /// Number of solutions that survived ranking.
    pub solutions: usize,
    /// Matched phrases and how many candidates each has (Figure 5).
    pub classification: Vec<(String, Vec<Provenance>)>,
    /// Words that could not be matched.
    pub unmatched: Vec<String>,
    /// Step timings.
    pub timings: StepTimings,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_timings_sum_to_total() {
        let t = StepTimings {
            lookup: Duration::from_millis(5),
            rank: Duration::from_millis(1),
            tables: Duration::from_millis(10),
            filters: Duration::from_millis(2),
            sql: Duration::from_millis(3),
        };
        assert_eq!(t.total(), Duration::from_millis(21));
    }

    #[test]
    fn default_trace_is_empty() {
        let t = QueryTrace::default();
        assert_eq!(t.complexity, 0);
        assert_eq!(t.solutions, 0);
        assert!(t.classification.is_empty());
    }
}
