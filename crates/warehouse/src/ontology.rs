//! Domain ontologies.
//!
//! A domain ontology classifies data for a specific domain (§2.2 of the
//! paper): which entities represent private vs. corporate customers, what
//! "trading volume" means, and business terms defined as filters over the
//! physical schema ("wealthy customers" := salary above a threshold).

/// What an ontology concept classifies (i.e. where a `classifies` edge points
/// in the metadata graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifyTarget {
    /// A conceptual entity by name.
    Conceptual(String),
    /// A logical entity by name.
    Logical(String),
    /// A physical table by name.
    Table(String),
    /// A physical column.
    Column {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// Another ontology concept (builds a small concept hierarchy).
    Concept(String),
}

/// A metadata-defined filter attached to a concept ("wealthy customers").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptFilter {
    /// Table the filter constrains.
    pub table: String,
    /// Column the filter constrains.
    pub column: String,
    /// Comparison operator as text (`>=`, `=`, `like`, …).
    pub op: String,
    /// Literal value as text.
    pub value: String,
}

/// One concept of the domain ontology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OntologyConcept {
    /// Stable slug used to build the node URI.
    pub slug: String,
    /// Primary business name ("private customers").
    pub name: String,
    /// Additional names the lookup step should also match.
    pub alt_names: Vec<String>,
    /// Classification targets.
    pub classifies: Vec<ClassifyTarget>,
    /// Optional metadata-defined filter.
    pub filter: Option<ConceptFilter>,
}

impl OntologyConcept {
    /// Creates a concept with no classifications.
    pub fn new(slug: impl Into<String>, name: impl Into<String>) -> Self {
        Self {
            slug: slug.into(),
            name: name.into(),
            alt_names: Vec::new(),
            classifies: Vec::new(),
            filter: None,
        }
    }

    /// Adds an alternative name.
    pub fn alt(mut self, name: impl Into<String>) -> Self {
        self.alt_names.push(name.into());
        self
    }

    /// Adds a classification target.
    pub fn classifies(mut self, target: ClassifyTarget) -> Self {
        self.classifies.push(target);
        self
    }

    /// Attaches a metadata-defined filter.
    pub(crate) fn with_filter(mut self, filter: ConceptFilter) -> Self {
        self.filter = Some(filter);
        self
    }

    /// All names (primary plus alternatives).
    pub(crate) fn all_names(&self) -> Vec<&str> {
        let mut v = vec![self.name.as_str()];
        v.extend(self.alt_names.iter().map(|s| s.as_str()));
        v
    }
}

/// A domain ontology: a flat list of concepts (the paper's ontologies are
/// shallow classification schemes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DomainOntology {
    /// The concepts.
    pub concepts: Vec<OntologyConcept>,
}

impl DomainOntology {
    /// Creates an empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a concept.
    pub fn add(&mut self, concept: OntologyConcept) -> &mut Self {
        self.concepts.push(concept);
        self
    }

    /// Finds a concept by slug.
    pub fn concept(&self, slug: &str) -> Option<&OntologyConcept> {
        self.concepts.iter().find(|c| c.slug == slug)
    }

    /// Finds concepts matching a (case-insensitive) name.
    pub fn by_name(&self, name: &str) -> Vec<&OntologyConcept> {
        self.concepts
            .iter()
            .filter(|c| c.all_names().iter().any(|n| n.eq_ignore_ascii_case(name)))
            .collect()
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the ontology has no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ontology() -> DomainOntology {
        let mut o = DomainOntology::new();
        o.add(
            OntologyConcept::new("customers", "customers")
                .alt("clients")
                .classifies(ClassifyTarget::Conceptual("Parties".into())),
        );
        o.add(
            OntologyConcept::new("wealthy-customers", "wealthy customers")
                .classifies(ClassifyTarget::Table("individual".into()))
                .with_filter(ConceptFilter {
                    table: "individual".into(),
                    column: "salary".into(),
                    op: ">=".into(),
                    value: "500000".into(),
                }),
        );
        o
    }

    #[test]
    fn lookup_by_slug_and_name() {
        let o = ontology();
        assert_eq!(o.len(), 2);
        assert!(o.concept("customers").is_some());
        assert!(o.concept("missing").is_none());
        assert_eq!(o.by_name("CLIENTS").len(), 1);
        assert_eq!(o.by_name("customers").len(), 1);
        assert!(o.by_name("unknown").is_empty());
    }

    #[test]
    fn filters_and_targets_are_preserved() {
        let o = ontology();
        let wealthy = o.concept("wealthy-customers").unwrap();
        let f = wealthy.filter.as_ref().unwrap();
        assert_eq!(f.op, ">=");
        assert_eq!(f.value, "500000");
        assert_eq!(wealthy.classifies.len(), 1);
    }

    #[test]
    fn all_names_includes_alternatives() {
        let o = ontology();
        let c = o.concept("customers").unwrap();
        assert_eq!(c.all_names(), vec!["customers", "clients"]);
    }
}
