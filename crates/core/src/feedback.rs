//! Relevance feedback on result interpretations (extension).
//!
//! §6.3 of the paper: "SODA presents several possible solutions to its users
//! and allows them to like (or dislike) each result", in the spirit of the
//! query-refinement work of Ortega-Binderberger et al.  This module implements
//! that feedback loop: a [`FeedbackStore`] accumulates votes on the
//! *interpretation* of a result — which metadata-graph node each phrase was
//! resolved against — and the engine folds the accumulated votes into the
//! Step 2 ranking of later queries
//! ([`SearchOptions::feedback`](crate::SearchOptions::feedback)).
//!
//! Votes are keyed by `(phrase, entry-point URI)` rather than by SQL text so
//! that feedback generalises: disliking the agreement interpretation of
//! "Credit Suisse" demotes *every* future interpretation that resolves the
//! phrase against `phys/agreement_td/agreement_name`, not just the one
//! statement the user saw — while leaving the organization interpretation of
//! the same phrase untouched.

use std::collections::HashMap;

use crate::result::SodaResult;

/// Accumulated like/dislike votes on interpretation choices.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackStore {
    /// Net votes per (lower-cased phrase, entry-point URI): likes minus
    /// dislikes.
    votes: HashMap<(String, String), i64>,
    /// Weight of one net vote in the ranking score.
    vote_weight: f64,
    /// Cap on the absolute score adjustment per entry point.
    max_adjustment: f64,
}

impl Default for FeedbackStore {
    fn default() -> Self {
        Self::new()
    }
}

impl FeedbackStore {
    /// An empty store with the default vote weight (0.15 per net vote, capped
    /// at ±0.45 — enough for three consistent votes to outweigh one provenance
    /// tier of the default [`crate::RankingWeights`]).
    pub fn new() -> Self {
        Self {
            votes: HashMap::new(),
            vote_weight: 0.15,
            max_adjustment: 0.45,
        }
    }

    /// Records that the user liked a result: every phrase → entry-point choice
    /// of its interpretation receives a positive vote.
    pub fn like(&mut self, result: &SodaResult) {
        for choice in &result.interpretation {
            self.vote(&choice.phrase, &choice.entry_uri, 1);
        }
    }

    /// Records that the user disliked a result.
    pub fn dislike(&mut self, result: &SodaResult) {
        for choice in &result.interpretation {
            self.vote(&choice.phrase, &choice.entry_uri, -1);
        }
    }

    /// Records an explicit vote (positive = like) for resolving `phrase`
    /// against the metadata node `entry_uri`.
    pub fn vote(&mut self, phrase: &str, entry_uri: &str, delta: i64) {
        *self
            .votes
            .entry((phrase.to_lowercase(), entry_uri.to_string()))
            .or_insert(0) += delta;
    }

    /// Net votes recorded for a phrase / entry-point pair.
    pub(crate) fn net_votes(&self, phrase: &str, entry_uri: &str) -> i64 {
        self.votes
            .get(&(phrase.to_lowercase(), entry_uri.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// The ranking-score adjustment for resolving `phrase` against
    /// `entry_uri`: net votes times the vote weight, clamped to the configured
    /// maximum so runaway feedback cannot drown the provenance heuristic
    /// entirely.
    pub fn adjustment(&self, phrase: &str, entry_uri: &str) -> f64 {
        let raw = self.net_votes(phrase, entry_uri) as f64 * self.vote_weight;
        raw.clamp(-self.max_adjustment, self.max_adjustment)
    }

    /// True when no votes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// Number of distinct phrase / entry-point pairs with recorded votes.
    pub fn len(&self) -> usize {
        self.votes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Provenance;
    use crate::result::Interpretation;

    fn result_with(interpretation: Vec<Interpretation>) -> SodaResult {
        SodaResult {
            sql: "SELECT * FROM t".into(),
            statement: soda_relation::parse_select("SELECT * FROM t").unwrap(),
            score: 1.0,
            tables: vec!["t".into()],
            interpretation,
            join_path_complete: true,
            used_bridges: vec![],
            notes: vec![],
        }
    }

    fn choice(phrase: &str, uri: &str) -> Interpretation {
        Interpretation {
            phrase: phrase.into(),
            provenance: Provenance::BaseData,
            entry_uri: uri.into(),
        }
    }

    #[test]
    fn likes_and_dislikes_accumulate_per_phrase_and_entry_point() {
        let mut store = FeedbackStore::new();
        assert!(store.is_empty());
        let org = result_with(vec![choice("credit suisse", "phys/organization/org_name")]);
        store.like(&org);
        store.like(&org);
        store.dislike(&org);
        assert_eq!(
            store.net_votes("Credit Suisse", "phys/organization/org_name"),
            1
        );
        // The agreement interpretation of the same phrase is unaffected.
        assert_eq!(
            store.net_votes("credit suisse", "phys/agreement_td/agreement_name"),
            0
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn adjustment_is_proportional_and_clamped() {
        let mut store = FeedbackStore::new();
        store.vote("customers", "onto/customers", 2);
        assert!((store.adjustment("customers", "onto/customers") - 0.30).abs() < 1e-9);
        store.vote("customers", "onto/customers", 10);
        assert!((store.adjustment("customers", "onto/customers") - 0.45).abs() < 1e-9);
        store.vote("customers", "onto/customers", -100);
        assert!((store.adjustment("customers", "onto/customers") + 0.45).abs() < 1e-9);
    }

    #[test]
    fn custom_weights_change_the_adjustment_scale() {
        let mut store = FeedbackStore {
            vote_weight: 0.5,
            max_adjustment: 2.0,
            ..FeedbackStore::new()
        };
        store.vote("sara", "phys/individual/given_name", 3);
        assert!((store.adjustment("sara", "phys/individual/given_name") - 1.5).abs() < 1e-9);
        assert_eq!(
            store.adjustment("sara", "phys/individual_name_hist/given_name"),
            0.0
        );
    }

    #[test]
    fn feedback_is_case_insensitive_on_the_phrase() {
        let mut store = FeedbackStore::new();
        let r = result_with(vec![choice(
            "Financial Instruments",
            "concept/financial_instruments",
        )]);
        store.dislike(&r);
        assert_eq!(
            store.net_votes("financial instruments", "concept/financial_instruments"),
            -1
        );
        assert!(store.adjustment("financial instruments", "concept/financial_instruments") < 0.0);
    }
}
