//! Step 2 — Rank and top N.
//!
//! Every combination of entry points (one candidate per matched term) is a
//! potential interpretation of the query.  Each combination is scored by the
//! provenance of its entry points — domain-ontology hits rank above schema
//! hits, which rank above base-data and DBpedia hits — and only the best N
//! continue into the expensive table/join discovery.

use crate::config::RankingWeights;
use crate::pipeline::lookup::{EntryPoint, LookupResult, TermMatch, TermRole};

/// One interpretation of the query: exactly one entry point per matched term.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Chosen entry point per term (same order as the lookup matches).
    pub entries: Vec<EntryPoint>,
    /// Roles of the corresponding terms.
    pub roles: Vec<TermRole>,
    /// Ranking score (average provenance weight).
    pub score: f64,
}

impl Solution {
    /// The entry point matching a phrase, if any.
    pub fn entry_for(&self, phrase: &str) -> Option<&EntryPoint> {
        self.entries.iter().find(|e| &*e.phrase == phrase)
    }
}

/// Enumerates the combinatorial product of candidate entry points (capped at
/// `cap` combinations), scores each combination and returns the best `top_n`
/// in descending score order.
pub fn enumerate_and_rank(
    lookup: &LookupResult,
    weights: &RankingWeights,
    top_n: usize,
    cap: usize,
) -> Vec<Solution> {
    enumerate_and_rank_boosted(lookup, weights, top_n, cap, |_| 0.0)
}

/// Like [`enumerate_and_rank`] but with a per-entry-point score boost on top
/// of the provenance weight.  The boost is how relevance feedback
/// ([`crate::FeedbackStore`]) is folded into Step 2 without changing the
/// algorithm: liked interpretation choices gain score, disliked ones lose it.
pub(crate) fn enumerate_and_rank_boosted(
    lookup: &LookupResult,
    weights: &RankingWeights,
    top_n: usize,
    cap: usize,
    boost: impl Fn(&EntryPoint) -> f64,
) -> Vec<Solution> {
    let terms: Vec<&TermMatch> = lookup
        .matches
        .iter()
        .filter(|m| !m.candidates.is_empty())
        .collect();
    if terms.is_empty() {
        return Vec::new();
    }

    // Combination `k` picks, per term, digit `k` of a mixed-radix number
    // whose last term varies fastest.  Only scores are kept while
    // enumerating; the entry points of the best `top_n` are copied once the
    // ranking is known.
    let pick = |mut ordinal: usize, indices: &mut [usize]| {
        for (index, term) in indices.iter_mut().zip(&terms).rev() {
            *index = ordinal % term.candidates.len();
            ordinal /= term.candidates.len();
        }
    };
    let combinations = terms
        .iter()
        .try_fold(1usize, |n, t| n.checked_mul(t.candidates.len()))
        .unwrap_or(usize::MAX);
    let mut indices = vec![0usize; terms.len()];
    let mut ranked: Vec<(f64, usize)> = (0..combinations.min(cap.max(1)))
        .map(|ordinal| {
            pick(ordinal, &mut indices);
            let score = terms
                .iter()
                .zip(&indices)
                .map(|(t, &i)| {
                    let entry = &t.candidates[i];
                    weights.weight(entry.provenance) + boost(entry)
                })
                .sum::<f64>()
                / terms.len() as f64;
            (score, ordinal)
        })
        .collect();

    // Stable: equal scores keep their enumeration order.
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    ranked.truncate(top_n);
    let roles: Vec<TermRole> = terms.iter().map(|t| t.role).collect();
    ranked
        .into_iter()
        .map(|(score, ordinal)| {
            pick(ordinal, &mut indices);
            Solution {
                entries: terms
                    .iter()
                    .zip(&indices)
                    .map(|(t, &i)| t.candidates[i].clone())
                    .collect(),
                roles: roles.clone(),
                score,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::lookup::TermMatch;
    use crate::provenance::Provenance;
    use soda_metagraph::MetaGraph;

    fn entry(phrase: &str, provenance: Provenance, node: soda_metagraph::NodeId) -> EntryPoint {
        EntryPoint {
            phrase: phrase.into(),
            node,
            provenance,
            base_filter: None,
        }
    }

    fn lookup_fixture() -> (LookupResult, MetaGraph) {
        let mut g = MetaGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let lookup = LookupResult {
            matches: vec![
                TermMatch {
                    phrase: "customers".into(),
                    role: TermRole::Keyword,
                    candidates: vec![entry("customers", Provenance::DomainOntology, a)],
                },
                TermMatch {
                    phrase: "financial instruments".into(),
                    role: TermRole::Keyword,
                    candidates: vec![
                        entry("financial instruments", Provenance::ConceptualSchema, b),
                        entry("financial instruments", Provenance::LogicalSchema, c),
                    ],
                },
            ],
            ..Default::default()
        };
        (lookup, g)
    }

    #[test]
    fn enumerates_the_combinatorial_product() {
        let (lookup, _g) = lookup_fixture();
        assert_eq!(lookup.complexity(), 2);
        let sols = enumerate_and_rank(&lookup, &RankingWeights::default(), 10, 1000);
        assert_eq!(sols.len(), 2);
        // The conceptual-schema interpretation outranks the logical one.
        assert!(sols[0].score > sols[1].score);
        assert_eq!(sols[0].entries[1].provenance, Provenance::ConceptualSchema);
    }

    #[test]
    fn top_n_truncates_and_cap_bounds_enumeration() {
        let (lookup, _g) = lookup_fixture();
        let sols = enumerate_and_rank(&lookup, &RankingWeights::default(), 1, 1000);
        assert_eq!(sols.len(), 1);
        let sols = enumerate_and_rank(&lookup, &RankingWeights::default(), 10, 1);
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn empty_lookup_produces_no_solutions() {
        let lookup = LookupResult::default();
        assert!(enumerate_and_rank(&lookup, &RankingWeights::default(), 10, 100).is_empty());
        assert_eq!(lookup.complexity(), 1);
    }

    #[test]
    fn uniform_weights_keep_enumeration_order() {
        let (lookup, _g) = lookup_fixture();
        let sols = enumerate_and_rank(&lookup, &RankingWeights::uniform(), 10, 1000);
        assert_eq!(sols.len(), 2);
        assert!((sols[0].score - sols[1].score).abs() < f64::EPSILON);
    }

    #[test]
    fn boost_can_override_the_provenance_order() {
        let (lookup, _g) = lookup_fixture();
        // Without a boost the conceptual-schema interpretation wins; a strong
        // boost on the logical-schema candidate flips the order.
        let sols = enumerate_and_rank_boosted(&lookup, &RankingWeights::default(), 10, 1000, |e| {
            if e.provenance == Provenance::LogicalSchema {
                0.5
            } else {
                0.0
            }
        });
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0].entries[1].provenance, Provenance::LogicalSchema);
    }

    #[test]
    fn entry_for_finds_the_chosen_entry() {
        let (lookup, _g) = lookup_fixture();
        let sols = enumerate_and_rank(&lookup, &RankingWeights::default(), 10, 1000);
        assert!(sols[0].entry_for("customers").is_some());
        assert!(sols[0].entry_for("missing").is_none());
    }
}
