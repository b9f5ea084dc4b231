//! Step 1 — Lookup.
//!
//! Keywords are matched with the *longest word combination* strategy of
//! §4.2.2: the longest span of adjacent words that matches either the
//! classification index (metadata labels) or the base data (through the
//! inverted index) becomes one term; unmatched words (such as "and") are
//! dropped.  Each matched term yields a set of candidate entry points — the
//! combinatorial product of those sets is the query complexity reported in
//! Table 4.
//!
//! ## Base-data probes
//!
//! A keyword group is tokenised once and the live frequency of each of its
//! tokens resolved once; every span the longest-first loop tries derives
//! its probe — the rarest token, or none when some token occurs nowhere —
//! from that table.  The inverted index is partitioned by table; a probe
//! walks, inline and in shard order, the shards holding entries of the
//! probe token (`base_data_hits`) — a handful of distinct column values
//! each, so there is nothing to parallelise — and the per-shard results
//! merge in canonical `(table, column, value)` order.  Every shard walks
//! the entries of the *same*, globally chosen probe token, so the merged
//! candidate set (and therefore the generated SQL) is byte-identical for
//! any shard count.

use std::sync::Arc;

use soda_relation::index::tokenizer::tokenize;
use soda_relation::{
    merge_hits, AggFunc, CompareOp, PhraseHit, PhraseProbe, ShardedInvertedIndex, Value,
};
use soda_trace::{names, SpanId};

use soda_metagraph::NodeId;

use crate::pipeline::PipelineContext;
use crate::provenance::Provenance;
use crate::query::{QueryTerm, SodaQuery};

/// A filter induced by a base-data hit ("Zurich" found in `address.city`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseDataFilter {
    /// Table containing the hit.
    pub table: Arc<str>,
    /// Column containing the hit.
    pub column: Arc<str>,
    /// Either the exact cell value (when all matching rows share one value) or
    /// the searched phrase (then matched with `LIKE`).
    pub value: Arc<str>,
    /// True when `value` is an exact cell value.
    pub exact: bool,
}

/// One candidate entry point for a term.  Its text is shared with the
/// term's other candidates, so the solutions that pick it copy none.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryPoint {
    /// The matched phrase.
    pub phrase: Arc<str>,
    /// The metadata-graph node representing the match (for base-data hits this
    /// is the physical column node).
    pub node: NodeId,
    /// Where the match was found.
    pub provenance: Provenance,
    /// The induced filter for base-data hits.
    pub base_filter: Option<BaseDataFilter>,
}

/// What role a matched term plays in the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermRole {
    /// An ordinary search keyword.
    Keyword,
    /// The attribute of an aggregation operator.
    AggregationAttribute,
    /// A group-by attribute.
    GroupByAttribute,
}

/// A matched term with all its candidate entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct TermMatch {
    /// The matched phrase.
    pub phrase: String,
    /// The term's role.
    pub role: TermRole,
    /// Candidate entry points (alternatives — one is chosen per solution).
    pub candidates: Vec<EntryPoint>,
}

/// A constraint from the input query (comparison / range / like), attached to
/// the keyword phrase preceding it.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The phrase the constraint applies to (`None` when nothing preceded it).
    pub target_phrase: Option<String>,
    /// The constraint itself.
    pub kind: ConstraintKind,
}

/// The kind of input constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintKind {
    /// A comparison against a literal value.
    Compare {
        /// Operator.
        op: CompareOp,
        /// Literal value.
        value: Value,
    },
    /// An inclusive range.
    Between {
        /// Lower bound.
        low: Value,
        /// Upper bound.
        high: Value,
    },
    /// A `like` pattern.
    Like(String),
    /// A `valid at` date (extension): restrict annotated history tables to
    /// rows whose validity interval contains the date.
    ValidAt(Value),
}

/// An aggregation requested by the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    /// Aggregate function.
    pub func: AggFunc,
    /// The aggregated attribute phrase (`None` for a bare `count()`).
    pub attribute: Option<String>,
}

/// The outcome of the lookup step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LookupResult {
    /// Matched terms with their candidate entry points.
    pub matches: Vec<TermMatch>,
    /// Words that could not be matched anywhere.
    pub unmatched: Vec<String>,
    /// Constraints from the input query.
    pub constraints: Vec<Constraint>,
    /// Aggregations requested by the query.
    pub aggregations: Vec<Aggregation>,
    /// Group-by attribute phrases.
    pub group_by: Vec<String>,
    /// `top N` limit.
    pub top_n: Option<usize>,
}

impl LookupResult {
    /// The query complexity of Table 4: the size of the combinatorial product
    /// of all candidate sets.
    pub fn complexity(&self) -> usize {
        self.matches
            .iter()
            .map(|m| m.candidates.len().max(1))
            .product()
    }
}

/// Runs the lookup step.  `span` is the enclosing `lookup` trace span (or
/// [`SpanId::NONE`]): each phrase's base-data probe reports a `probe` span
/// under it, with one `probe_shard` sub-span per probed shard.
pub fn run(ctx: &PipelineContext<'_>, query: &SodaQuery, span: SpanId) -> LookupResult {
    let mut result = LookupResult::default();
    let mut last_phrase: Option<String> = None;

    for term in &query.terms {
        match term {
            QueryTerm::Keywords(group) => {
                let (matches, unmatched) = segment(ctx, group, TermRole::Keyword, span);
                if let Some(m) = matches.last() {
                    last_phrase = Some(m.phrase.clone());
                }
                result.matches.extend(matches);
                result.unmatched.extend(unmatched);
            }
            QueryTerm::Comparison { op, value } => {
                result.constraints.push(Constraint {
                    target_phrase: last_phrase.clone(),
                    kind: ConstraintKind::Compare {
                        op: *op,
                        value: value.to_value(),
                    },
                });
            }
            QueryTerm::Between { low, high } => {
                result.constraints.push(Constraint {
                    target_phrase: last_phrase.clone(),
                    kind: ConstraintKind::Between {
                        low: low.to_value(),
                        high: high.to_value(),
                    },
                });
            }
            QueryTerm::Like(pattern) => {
                result.constraints.push(Constraint {
                    target_phrase: last_phrase.clone(),
                    kind: ConstraintKind::Like(pattern.clone()),
                });
            }
            QueryTerm::Aggregation { func, attribute } => {
                if attribute.trim().is_empty() {
                    result.aggregations.push(Aggregation {
                        func: *func,
                        attribute: None,
                    });
                } else {
                    let (matches, unmatched) =
                        segment(ctx, attribute, TermRole::AggregationAttribute, span);
                    let phrase = matches
                        .first()
                        .map(|m| m.phrase.clone())
                        .unwrap_or_else(|| attribute.clone());
                    result.matches.extend(matches);
                    result.unmatched.extend(unmatched);
                    result.aggregations.push(Aggregation {
                        func: *func,
                        attribute: Some(phrase),
                    });
                }
            }
            QueryTerm::GroupBy(attrs) => {
                for attr in attrs {
                    let (matches, unmatched) = segment(ctx, attr, TermRole::GroupByAttribute, span);
                    let phrase = matches
                        .first()
                        .map(|m| m.phrase.clone())
                        .unwrap_or_else(|| attr.clone());
                    result.matches.extend(matches);
                    result.unmatched.extend(unmatched);
                    result.group_by.push(phrase);
                }
            }
            QueryTerm::TopN(n) => result.top_n = Some(*n),
            QueryTerm::ValidAt(value) => {
                result.constraints.push(Constraint {
                    target_phrase: None,
                    kind: ConstraintKind::ValidAt(value.to_value()),
                });
            }
        }
    }
    result
}

/// Longest-word-combination segmentation of one keyword group.
fn segment(
    ctx: &PipelineContext<'_>,
    group: &str,
    role: TermRole,
    trace_span: SpanId,
) -> (Vec<TermMatch>, Vec<String>) {
    let tokens = tokenize(group);
    // Each token's live frequency in the base data, resolved once for all
    // the spans it takes part in.
    let frequencies: Vec<usize> = match ctx.index {
        Some(index) => tokens.iter().map(|t| index.token_frequency(t)).collect(),
        None => Vec::new(),
    };
    let mut matches = Vec::new();
    let mut unmatched = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let max_span = ctx.config.max_phrase_tokens.min(tokens.len() - i);
        let mut matched = false;
        for span in (1..=max_span).rev() {
            let window = i..i + span;
            let phrase = tokens[window.clone()].join(" ");
            let mut shared = None;
            let mut candidates = label_candidates(ctx, &phrase, &mut shared);
            if let Some(index) = ctx.index {
                let probe = PhraseProbe::select(&tokens[window.clone()], &frequencies[window]);
                let hits = base_data_hits(ctx, index, &phrase, probe, trace_span);
                base_data_candidates(ctx, &phrase, &mut shared, hits, &mut candidates);
            }
            if !candidates.is_empty() {
                matches.push(TermMatch {
                    phrase,
                    role,
                    candidates,
                });
                i += span;
                matched = true;
                break;
            }
        }
        if !matched {
            unmatched.push(tokens[i].clone());
            i += 1;
        }
    }
    (matches, unmatched)
}

/// Probes the base data for a phrase: the shards holding entries of the
/// probe token are probed inline, in shard order, and their hits merged
/// canonically ([`merge_hits`] — partitioning is by table, so that is a
/// plain sort, and not even that when one shard answered).
fn base_data_hits(
    ctx: &PipelineContext<'_>,
    index: &ShardedInvertedIndex,
    phrase: &str,
    probe: Option<PhraseProbe>,
    trace_span: SpanId,
) -> Vec<PhraseHit> {
    if let Some(recorder) = ctx.recorder {
        // Probing is a dependency even when it misses: ingested rows could
        // give a postings-free phrase candidates later, so a cached page is
        // only reusable while the probe outcome is provably unchanged.
        recorder.record_probe(phrase, probe.as_ref().map(|p| p.token.clone()));
    }
    let Some(probe) = probe else {
        return Vec::new();
    };
    let enabled = ctx.sink.enabled();
    let probe_span = if enabled {
        let span = ctx.sink.begin_span(names::PROBE, trace_span);
        ctx.sink.annotate(span, "phrase", phrase.into());
        ctx.sink.annotate(span, "token", probe.token.clone().into());
        span
    } else {
        SpanId::NONE
    };
    let mut total_candidates = 0;
    let mut per_shard: Vec<Vec<PhraseHit>> = Vec::new();
    for i in 0..index.shard_count() {
        // Candidates are the distinct column values holding the probe
        // token, split into the frozen partition's and the side log's (the
        // not-yet-compacted streaming ingests).
        let (frozen, log) = index.shard_candidate_split(i, &probe.token);
        if frozen + log == 0 {
            continue;
        }
        total_candidates += frozen + log;
        ctx.probes.record(i);
        if !enabled {
            per_shard.push(index.probe_shard(i, &probe));
            continue;
        }
        let span = ctx.sink.begin_span(names::PROBE_SHARD, probe_span);
        ctx.sink.annotate(span, "shard", i.into());
        ctx.sink.annotate(span, "frozen_candidates", frozen.into());
        ctx.sink.annotate(span, "log_candidates", log.into());
        let hits = index.probe_shard(i, &probe);
        ctx.sink.annotate(span, "hits", hits.len().into());
        ctx.sink.end_span(span);
        per_shard.push(hits);
    }
    let merged = merge_hits(per_shard);
    if enabled {
        ctx.sink
            .annotate(probe_span, "candidates", total_candidates.into());
        ctx.sink.annotate(probe_span, "hits", merged.len().into());
        ctx.sink.end_span(probe_span);
    }
    merged
}

/// The candidates' shared copy of `phrase`, made by the first candidate.
fn shared_phrase(slot: &mut Option<Arc<str>>, phrase: &str) -> Arc<str> {
    Arc::clone(slot.get_or_insert_with(|| phrase.into()))
}

/// The metadata labels matching a phrase, as candidate entry points.
fn label_candidates(
    ctx: &PipelineContext<'_>,
    phrase: &str,
    shared: &mut Option<Arc<str>>,
) -> Vec<EntryPoint> {
    ctx.classification
        .lookup(phrase)
        .iter()
        .map(|e| EntryPoint {
            phrase: shared_phrase(shared, phrase),
            node: e.node,
            provenance: e.provenance,
            base_filter: None,
        })
        .collect()
}

/// Appends the base-data entry points of a phrase to `out`: one per column
/// among its `hits`.
fn base_data_candidates(
    ctx: &PipelineContext<'_>,
    phrase: &str,
    shared: &mut Option<Arc<str>>,
    hits: Vec<PhraseHit>,
    out: &mut Vec<EntryPoint>,
) {
    // Group hits per column; a column with a single distinct value gets an
    // equality filter on that value, otherwise a LIKE on the phrase.
    let mut per_column: Vec<(String, String, Vec<String>)> = Vec::new();
    for hit in hits {
        match per_column
            .iter_mut()
            .find(|(t, c, _)| *t == hit.table && *c == hit.column)
        {
            Some((_, _, values)) => values.push(hit.value),
            None => per_column.push((hit.table, hit.column, vec![hit.value])),
        }
    }
    for (table, column, values) in per_column {
        let Some(node) = ctx.graph.node(&format!("phys/{table}/{column}")) else {
            continue;
        };
        let exact = values.len() == 1;
        let phrase = shared_phrase(shared, phrase);
        out.push(EntryPoint {
            phrase: Arc::clone(&phrase),
            node,
            provenance: Provenance::BaseData,
            base_filter: Some(BaseDataFilter {
                table: ctx
                    .joins
                    .shared_table(&table)
                    .cloned()
                    .unwrap_or_else(|| table.into()),
                column: ctx
                    .joins
                    .shared_column(&column)
                    .cloned()
                    .unwrap_or_else(|| column.into()),
                value: if exact {
                    values.into_iter().next().expect("one value").into()
                } else {
                    phrase
                },
                exact,
            }),
        });
    }
}
