//! DBpedia synonym store.
//!
//! The paper only keeps DBpedia entries that have a direct connection to terms
//! of the integrated schema ("customer", "client", "political organization" →
//! Parties).  This module models exactly that: a list of synonym terms, each
//! pointing at an ontology concept or a schema entity.  The lookup step ranks
//! DBpedia hits lower than domain-ontology hits.

/// What a DBpedia term points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynonymTarget {
    /// An ontology concept by slug.
    Concept(String),
    /// A conceptual entity by name.
    Conceptual(String),
    /// A logical entity by name.
    Logical(String),
    /// A physical table by name.
    Table(String),
}

/// A single extracted DBpedia entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbpediaEntry {
    /// The synonym term ("client").
    pub term: String,
    /// The schema/ontology node it is connected to.
    pub target: SynonymTarget,
}

/// The curated DBpedia extract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SynonymStore {
    /// All entries.
    pub entries: Vec<DbpediaEntry>,
}

impl SynonymStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a synonym entry.
    pub fn add(&mut self, term: impl Into<String>, target: SynonymTarget) -> &mut Self {
        self.entries.push(DbpediaEntry {
            term: term.into(),
            target,
        });
        self
    }

    /// All entries whose term matches (case-insensitive).
    pub fn lookup(&self, term: &str) -> Vec<&DbpediaEntry> {
        self.entries
            .iter()
            .filter(|e| e.term.eq_ignore_ascii_case(term))
            .collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive() {
        let mut s = SynonymStore::new();
        s.add("client", SynonymTarget::Concept("customers".into()));
        s.add(
            "political organization",
            SynonymTarget::Conceptual("Parties".into()),
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup("Client").len(), 1);
        assert_eq!(
            s.lookup("CLIENT")[0].target,
            SynonymTarget::Concept("customers".into())
        );
        assert!(s.lookup("nothing").is_empty());
    }

    #[test]
    fn multiple_targets_for_the_same_term() {
        let mut s = SynonymStore::new();
        s.add("company", SynonymTarget::Table("organization".into()));
        s.add(
            "company",
            SynonymTarget::Concept("corporate-customers".into()),
        );
        assert_eq!(s.lookup("company").len(), 2);
    }
}
