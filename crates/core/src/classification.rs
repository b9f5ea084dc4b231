//! The classification index: a lookup table from normalised keyword phrases to
//! metadata-graph nodes.
//!
//! Step 1 of the pipeline matches the words of the input query against this
//! index ("we first try to match all the words in the input against our
//! classification index", §4.2.2).  The index is built once per metadata
//! graph from every text label of the graph; labels are normalised the same
//! way keywords are, so that `trade_order_td`, "Trade Order TD" and
//! "trade order td" all meet at the same key.
//!
//! It is one map behind an [`Arc`]: data-only snapshot derives share it with
//! their parent, and a metadata refresh builds a fresh one (the graph is the
//! only input, so there is nothing to rebuild piecewise).

use std::collections::HashMap;
use std::sync::Arc;

use soda_metagraph::{MetaGraph, NodeId};
use soda_relation::index::tokenizer::normalize_phrase;

use crate::provenance::{Provenance, ProvenanceLookup};

/// One classification entry: a node that carries the phrase as a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassificationEntry {
    /// The labelled node.
    pub node: NodeId,
    /// Where in the metadata the node lives.
    pub provenance: Provenance,
}

/// The classification index.  Cloning is cheap (one [`Arc`]), which is what
/// lets derived engine snapshots share the metadata lookup table across
/// generations.
#[derive(Debug, Clone, Default)]
pub struct ClassificationIndex {
    phrases: Arc<HashMap<String, Vec<ClassificationEntry>>>,
}

impl ClassificationIndex {
    /// Builds the index from every text label of the graph.  Nodes without a
    /// recognised provenance (filter nodes, join nodes, …) are skipped, as
    /// are DBpedia nodes when `include_dbpedia` is false.
    pub fn build(graph: &MetaGraph, include_dbpedia: bool) -> Self {
        let provenance = ProvenanceLookup::new(graph);
        let mut phrases: HashMap<String, Vec<ClassificationEntry>> = HashMap::new();
        for (label, holders) in graph.all_labels() {
            let key = normalize_phrase(label);
            if key.is_empty() {
                continue;
            }
            let mut entries = holders
                .iter()
                .filter_map(|&(node, _pred)| {
                    let provenance = provenance.of(node)?;
                    (include_dbpedia || provenance != Provenance::DbPedia)
                        .then_some(ClassificationEntry { node, provenance })
                })
                .peekable();
            if entries.peek().is_none() {
                continue;
            }
            let bucket = phrases.entry(key).or_default();
            for entry in entries {
                if !bucket.contains(&entry) {
                    bucket.push(entry);
                }
            }
        }
        Self {
            phrases: Arc::new(phrases),
        }
    }

    /// Looks up a phrase (normalised internally).
    pub fn lookup(&self, phrase: &str) -> &[ClassificationEntry] {
        self.phrases
            .get(&normalize_phrase(phrase))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// True if the phrase is present.
    pub fn contains(&self, phrase: &str) -> bool {
        !self.lookup(phrase).is_empty()
    }

    /// All distinct (normalised) phrases in the index.  Used by the
    /// query-refinement suggestions to find near-misses for unmatched words.
    pub fn phrases(&self) -> impl Iterator<Item = &str> {
        self.phrases.keys().map(String::as_str)
    }

    /// Number of distinct phrases.
    pub fn len(&self) -> usize {
        self.phrases.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.phrases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_metagraph::builder::types;
    use soda_metagraph::GraphBuilder;

    fn graph() -> MetaGraph {
        let mut b = GraphBuilder::new();
        let t = b.physical_table("phys/trade_order_td", "trade order td");
        b.text(t, "tablename", "trade_order_td");
        b.physical_column(t, "phys/trade_order_td/amount", "amount");
        let onto = b.ontology_concept("onto/customers", "customers");
        b.text(onto, "name", "clients");
        let concept = b.named_node("concept/parties", types::CONCEPTUAL_ENTITY, "parties");
        b.dbpedia_synonym("dbpedia/client", "client", concept);
        b.build()
    }

    #[test]
    fn identifier_and_phrase_forms_share_a_key() {
        let g = graph();
        let idx = ClassificationIndex::build(&g, true);
        let hits = idx.lookup("Trade Order TD");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits, idx.lookup("trade_order_td"));
    }

    #[test]
    fn alt_names_are_indexed() {
        let g = graph();
        let idx = ClassificationIndex::build(&g, true);
        assert!(idx.contains("clients"));
        assert!(idx.contains("customers"));
        assert_eq!(
            idx.lookup("clients")[0].provenance,
            Provenance::DomainOntology
        );
    }

    #[test]
    fn dbpedia_can_be_excluded() {
        let g = graph();
        let with = ClassificationIndex::build(&g, true);
        let without = ClassificationIndex::build(&g, false);
        assert!(with.contains("client"));
        assert!(!without.contains("client"));
        assert!(without.len() < with.len());
    }

    #[test]
    fn unknown_phrases_return_empty() {
        let g = graph();
        let idx = ClassificationIndex::build(&g, true);
        assert!(idx.lookup("does not exist").is_empty());
        assert!(!idx.is_empty());
    }
}
