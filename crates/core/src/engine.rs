//! The search: ties the five pipeline steps together.
//!
//! The paper has one operation — keywords in, a ranked list of executable
//! SQL statements out (the "result page" from which the business user
//! picks), optionally re-ranked by the user's likes and dislikes (§6.3) and
//! continued on a "next result page".  [`EngineSnapshot::search_with`] is
//! that operation and the only copy of the pipeline loop; what varies
//! between callers is carried by [`SearchOptions`].  [`EngineSnapshot::search`]
//! and [`EngineSnapshot::search_paged`] are one-line conveniences over it.

use std::time::Instant;

use soda_relation::{print_select, ResultSet};
use soda_trace::{names, NoopSink, SpanId, TraceSink};

use crate::error::Result;
use crate::feedback::FeedbackStore;
use crate::pipeline::lookup::LookupResult;
use crate::pipeline::{filters, lookup, rank, sqlgen, tables};
use crate::query::parse_query;
use crate::result::{Interpretation, QueryTrace, ResultPage, SodaResult, StepTimings};
use crate::shard::ProbeRecorder;
use crate::snapshot::EngineSnapshot;
use crate::suggest::{suggest_for_term, TermSuggestion};

/// How many statements one search materialises and which of them it returns.
/// The two rules are not interchangeable: with
/// [`compactness_rerank`](crate::SodaConfig::compactness_rerank) on, the
/// re-rank orders whatever was materialised, and a page materialises one
/// statement more than it shows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchLimit {
    /// The first `config.max_results` statements — the paper's result list.
    #[default]
    MaxResults,
    /// One page of the ranked list (the paper's "next result page"): page
    /// `0` is the first `page_size` statements, page `1` the next ones, and
    /// so on.  The engine materialises `(page + 1) * page_size + 1`
    /// statements for the request — the one extra decides `has_next` —
    /// independent of `config.max_results`.
    Page {
        /// Zero-based page index.
        page: usize,
        /// Statements per page (clamped to at least 1).
        page_size: usize,
    },
}

/// Everything a caller can vary about one search.  The default is the
/// paper's interface: the first `config.max_results` statements, ranked by
/// provenance alone, nothing recorded.
pub struct SearchOptions<'a> {
    /// How many statements to materialise and return.
    pub limit: SearchLimit,
    /// Accumulated relevance feedback (§6.3 — users like or dislike
    /// results) to fold into the Step 2 ranking: interpretation choices the
    /// user liked gain score, disliked ones lose it.
    pub feedback: Option<&'a FeedbackStore>,
    /// Where the lookup step reports which probe token each of the query's
    /// base-data probes selected — the dependency set the serving layer's
    /// cache retention consumes.
    pub recorder: Option<&'a ProbeRecorder>,
    /// Where the pipeline reports its spans: the root `query` span with one
    /// child per stage, and per-shard `probe_shard` sub-spans under
    /// `lookup`.  Span reporting is guarded by [`TraceSink::enabled`] at
    /// every site, so tracing can never perturb the generated SQL (the
    /// `shard_invariance` suite pins this).
    pub sink: &'a dyn TraceSink,
}

impl Default for SearchOptions<'_> {
    fn default() -> Self {
        Self {
            limit: SearchLimit::default(),
            feedback: None,
            recorder: None,
            sink: &NoopSink,
        }
    }
}

impl SearchOptions<'_> {
    /// The defaults with [`SearchLimit::Page`] as the limit.
    pub fn page(page: usize, page_size: usize) -> Self {
        Self {
            limit: SearchLimit::Page { page, page_size },
            ..Self::default()
        }
    }
}

/// What one search produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The returned statements, best first, with their paging facts.  Under
    /// [`SearchLimit::MaxResults`] this is page 0 of size
    /// `config.max_results` and `has_next` is false: nothing beyond the
    /// returned statements was materialised.
    pub page: ResultPage,
    /// The pipeline's report on the query: classification, complexity and
    /// the per-stage timings.
    pub trace: QueryTrace,
}

impl EngineSnapshot {
    /// Translates a keyword query into a ranked list of SQL statements.
    pub fn search(&self, input: &str) -> Result<Vec<SodaResult>> {
        self.search_with(input, &SearchOptions::default())
            .map(|outcome| outcome.page.results)
    }

    /// One page of the ranked result list (see [`SearchLimit::Page`]).
    pub fn search_paged(&self, input: &str, page: usize, page_size: usize) -> Result<ResultPage> {
        self.search_with(input, &SearchOptions::page(page, page_size))
            .map(|outcome| outcome.page)
    }

    /// The search: runs the five-step pipeline for `input` under `options`
    /// — the only copy of the loop.  Stage durations are measured
    /// unconditionally (the per-query [`StepTimings`] predate the sink);
    /// span construction is guarded by [`TraceSink::enabled`], so the
    /// [`NoopSink`] path adds one virtual call per stage over an untraced
    /// pipeline.
    ///
    /// The lookup and rank stages run once and get live spans; tables,
    /// filters and SQL generation run once *per solution*, so their
    /// accumulated durations are reported as one aggregate span each after
    /// the loop ([`TraceSink::record_span`]).
    pub fn search_with(&self, input: &str, options: &SearchOptions<'_>) -> Result<SearchOutcome> {
        let (page, page_size, needed) = match options.limit {
            SearchLimit::MaxResults => {
                let max_results = self.config().max_results;
                (0, max_results.max(1), max_results)
            }
            SearchLimit::Page { page, page_size } => {
                let page_size = page_size.max(1);
                // `page` comes straight off a client request: every step
                // saturates, so a hostile page number yields an empty page,
                // not an overflow.
                let needed = page
                    .saturating_add(1)
                    .saturating_mul(page_size)
                    .saturating_add(1);
                (page, page_size, needed)
            }
        };
        // Parsed before the root span opens: a rejected input leaves no span
        // behind for the sink to close at its fold instant.
        let query = parse_query(input)?;
        let sink = options.sink;
        let ctx = self.context(options.recorder, sink);
        let graph = self.graph();
        let enabled = sink.enabled();
        let root = if enabled {
            let root = sink.begin_span(names::QUERY, SpanId::NONE);
            sink.annotate(root, "input", input.into());
            root
        } else {
            SpanId::NONE
        };
        let mut timings = StepTimings::default();

        // Step 1 — lookup.
        let t0 = Instant::now();
        let lookup_span = if enabled {
            sink.begin_span(names::LOOKUP, root)
        } else {
            SpanId::NONE
        };
        let lookup_result = lookup::run(&ctx, &query, lookup_span);
        if enabled {
            sink.annotate(lookup_span, "terms", lookup_result.matches.len().into());
            sink.annotate(lookup_span, "complexity", lookup_result.complexity().into());
            sink.end_span(lookup_span);
        }
        timings.lookup = t0.elapsed();

        // Step 2 — rank and top N.
        let t0 = Instant::now();
        let rank_span = if enabled {
            sink.begin_span(names::RANK, root)
        } else {
            SpanId::NONE
        };
        let solutions = rank::enumerate_and_rank_boosted(
            &lookup_result,
            &self.config().weights,
            self.config().top_n.max(needed),
            1_000,
            |entry| {
                options
                    .feedback
                    .map(|f| f.adjustment(&entry.phrase, graph.uri(entry.node)))
                    .unwrap_or(0.0)
            },
        );
        if enabled {
            sink.annotate(rank_span, "solutions", solutions.len().into());
            sink.end_span(rank_span);
        }
        timings.rank = t0.elapsed();

        let mut results: Vec<SodaResult> = Vec::with_capacity(needed.min(solutions.len()));

        for solution in &solutions {
            // Step 3 — tables and joins.
            let t0 = Instant::now();
            let mut plan = tables::run(&ctx, solution);
            timings.tables += t0.elapsed();

            // Step 4 — filters.
            let t0 = Instant::now();
            let (filter_exprs, notes) =
                filters::run(&ctx, solution, &mut plan, &lookup_result.constraints);
            timings.filters += t0.elapsed();

            // Step 5 — SQL.
            let t0 = Instant::now();
            let statement = sqlgen::run(&ctx, &plan, &filter_exprs, &lookup_result);
            timings.sql += t0.elapsed();

            let Some(statement) = statement else { continue };
            let sql = print_select(&statement);
            // Two interpretations may print the same statement; the first,
            // better-ranked one is kept.
            if results.iter().any(|r| r.sql == sql) {
                continue;
            }
            results.push(SodaResult {
                sql,
                statement,
                score: solution.score,
                tables: plan.tables.iter().cloned().collect(),
                interpretation: solution
                    .entries
                    .iter()
                    .map(|e| Interpretation {
                        phrase: e.phrase.clone(),
                        provenance: e.provenance,
                        entry_uri: graph.uri(e.node).to_string(),
                    })
                    .collect(),
                join_path_complete: plan.join_path_complete,
                used_bridges: plan.used_bridges.clone(),
                notes,
            });
            if results.len() >= needed {
                break;
            }
        }

        // Optional compactness re-ranking (BLINKS-inspired extension): among
        // interpretations, the ones that connect their entry points with fewer
        // tables and a complete join path are more likely to reflect the
        // user's intent, so they are promoted.  The paper's default ranking is
        // provenance-only, hence the flag.
        if self.config().compactness_rerank {
            for result in &mut results {
                let extra_tables = result.tables.len().saturating_sub(1) as f64;
                let incomplete = if result.join_path_complete { 0.0 } else { 0.5 };
                result.score /= 1.0 + 0.1 * extra_tables + incomplete;
            }
            results.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        if enabled {
            sink.record_span(
                names::TABLES,
                root,
                timings.tables,
                vec![("solutions", solutions.len().into())],
            );
            sink.record_span(names::FILTERS, root, timings.filters, Vec::new());
            sink.record_span(
                names::SQLGEN,
                root,
                timings.sql,
                vec![("results", results.len().into())],
            );
            sink.annotate(root, "results", results.len().into());
            sink.end_span(root);
        }

        // The lookup result is spent: the trace takes its phrases.
        let trace = QueryTrace {
            complexity: lookup_result.complexity(),
            solutions: solutions.len(),
            classification: lookup_result
                .matches
                .into_iter()
                .map(|m| {
                    let provenances = m.candidates.iter().map(|c| c.provenance).collect();
                    (m.phrase, provenances)
                })
                .collect(),
            unmatched: lookup_result.unmatched,
            timings,
        };
        let total_results = results.len();
        let start = page.saturating_mul(page_size).min(total_results);
        let end = start.saturating_add(page_size).min(total_results);
        // Cut the page in place: the statements move, nothing is copied.
        results.truncate(end);
        results.drain(..start);
        let page = ResultPage {
            results,
            page,
            page_size,
            total_results,
            has_next: total_results > end,
        };
        Ok(SearchOutcome { page, trace })
    }

    /// Runs only Step 1 (lookup) for an input: keyword segmentation plus the
    /// classification and base-data probes, without ranking or SQL
    /// generation — exposed for diagnostics and for `tests/answers_golden.rs`,
    /// which digests exactly this.
    pub fn lookup(&self, input: &str) -> Result<LookupResult> {
        let query = parse_query(input)?;
        Ok(lookup::run(
            &self.context(None, &NoopSink),
            &query,
            SpanId::NONE,
        ))
    }

    /// Reformulation suggestions for the input words the lookup step could
    /// not match anywhere (NaLIX-style feedback, §6.3): the closest metadata
    /// phrases per unmatched word.
    pub fn suggestions(&self, input: &str) -> Result<Vec<TermSuggestion>> {
        Ok(self
            .lookup(input)?
            .unmatched
            .into_iter()
            .map(|term| TermSuggestion {
                candidates: suggest_for_term(self.classification_index(), &term, 5),
                term,
            })
            .filter(|s| !s.candidates.is_empty())
            .collect())
    }

    /// Executes one generated statement against the base data (the paper
    /// executes the top 10 partially to produce result snippets; experiments
    /// execute them fully to compute precision and recall).
    pub fn execute(&self, result: &SodaResult) -> Result<ResultSet> {
        Ok(soda_relation::execute(self.database(), &result.statement)?)
    }

    /// Executes a statement and renders the snippet of up to
    /// `config.snippet_rows` rows shown on the result page.
    pub fn snippet(&self, result: &SodaResult) -> Result<String> {
        let rs = self.execute(result)?;
        Ok(rs.snippet(self.config().snippet_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SodaConfig;
    use soda_trace::CollectingSink;

    #[test]
    fn a_rejected_input_leaves_no_query_span_behind() {
        let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
        let engine = EngineSnapshot::build(db, graph, SodaConfig::default());
        let sink = CollectingSink::new();
        let options = SearchOptions {
            sink: &sink,
            ..SearchOptions::default()
        };
        assert!(engine.search_with("   ", &options).is_err());
        // A span left open is ended at the fold instant, so it would read
        // at least this long.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let trace = sink.finish();
        assert!(
            trace.find(names::QUERY).is_none(),
            "a query span outlived the failed call: {trace:?}"
        );
        assert!(trace.roots.is_empty());
    }
}
