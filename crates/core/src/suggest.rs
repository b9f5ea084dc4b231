//! Query-refinement suggestions (extension).
//!
//! The paper's related-work discussion (§6.3) highlights NaLIX's behaviour of
//! telling the user *why* a query term could not be classified and suggesting
//! reformulations, and SODA's own war stories show business users iterating
//! on their keywords.  This module provides that feedback loop: for every
//! input word the lookup step could not match, it proposes the closest phrases
//! of the classification index (metadata labels across all layers), ranked by
//! a combination of prefix/substring affinity and edit distance.

use crate::classification::ClassificationIndex;

/// Suggested reformulations for one unmatched input term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermSuggestion {
    /// The unmatched input word.
    pub term: String,
    /// Metadata phrases the user probably meant, best first.
    pub candidates: Vec<String>,
}

/// Levenshtein edit distance between two strings (over characters).
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitution = prev[j] + usize::from(ca != cb);
            current[j + 1] = substitution.min(prev[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Similarity score between an unmatched term and a candidate phrase; higher
/// is better, `None` when the candidate is not worth suggesting.
fn affinity(term: &str, phrase: &str) -> Option<f64> {
    let term = term.to_lowercase();
    let phrase_lower = phrase.to_lowercase();
    if term.is_empty() || phrase_lower.is_empty() {
        return None;
    }
    // Word-level containment: "address" vs "addresses", "name" vs "family name".
    let word_hit = phrase_lower
        .split_whitespace()
        .any(|w| w.starts_with(&term) || term.starts_with(w));
    // Edit distance against the closest word of the phrase.
    let best_distance = phrase_lower
        .split_whitespace()
        .map(|w| edit_distance(&term, w))
        .min()
        .unwrap_or(usize::MAX);
    let longest = term.len().max(
        phrase_lower
            .split_whitespace()
            .map(str::len)
            .max()
            .unwrap_or(1),
    );
    let normalized = 1.0 - best_distance as f64 / longest as f64;

    // Keep candidates that share a prefix or are within ~1/3 edits of a word.
    let close_enough = word_hit || best_distance * 3 <= term.len().max(3);
    if !close_enough {
        return None;
    }
    let mut score = normalized;
    if word_hit {
        score += 0.5;
    }
    // Prefer short phrases: "addresses" over "addresses of organizations".
    score -= 0.01 * phrase_lower.split_whitespace().count() as f64;
    Some(score)
}

/// Proposes up to `limit` reformulations for one unmatched term.
pub(crate) fn suggest_for_term(
    classification: &ClassificationIndex,
    term: &str,
    limit: usize,
) -> Vec<String> {
    let mut scored: Vec<(f64, &str)> = classification
        .phrases()
        .filter_map(|phrase| affinity(term, phrase).map(|score| (score, phrase)))
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.len().cmp(&b.1.len()))
            .then(a.1.cmp(b.1))
    });
    scored
        .into_iter()
        .take(limit)
        .map(|(_, phrase)| phrase.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_metagraph::GraphBuilder;

    fn index() -> ClassificationIndex {
        let mut b = GraphBuilder::new();
        let addresses = b.physical_table("phys/addresses", "addresses");
        b.physical_column(addresses, "phys/addresses/city", "city");
        let individuals = b.physical_table("phys/individuals", "individuals");
        b.physical_column(individuals, "phys/individuals/family_name", "family name");
        b.ontology_concept("onto/private-customers", "private customers");
        let g = b.build();
        ClassificationIndex::build(&g, true)
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("address", "addresses"), 2);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }

    #[test]
    fn singular_term_suggests_the_plural_label() {
        let idx = index();
        let suggestions = suggest_for_term(&idx, "address", 3);
        assert_eq!(suggestions.first().map(String::as_str), Some("addresses"));
    }

    #[test]
    fn typo_suggests_the_intended_phrase() {
        let idx = index();
        let suggestions = suggest_for_term(&idx, "custmers", 3);
        assert!(
            suggestions.iter().any(|s| s == "private customers"),
            "{suggestions:?}"
        );
        // A word contained in a multi-word label is suggested too.
        let suggestions = suggest_for_term(&idx, "family", 3);
        assert!(suggestions.iter().any(|s| s == "family name"));
    }

    #[test]
    fn unrelated_terms_get_no_suggestions() {
        let idx = index();
        assert!(suggest_for_term(&idx, "xylophone", 3).is_empty());
        assert!(suggest_for_term(&idx, "", 3).is_empty());
    }

    #[test]
    fn limit_caps_the_number_of_candidates() {
        let idx = index();
        assert!(suggest_for_term(&idx, "c", 1).len() <= 1);
    }
}
