//! Query-type features used by the qualitative comparison of Table 5.

/// The query types of Table 5 (also the "Comment" flags of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryFeature {
    /// The query needs keywords looked up in the base data (B).
    BaseData,
    /// The query needs schema terms (table/attribute names) (S).
    Schema,
    /// The query needs inheritance relationships to be resolved (I).
    Inheritance,
    /// The query needs the domain ontology (or synonyms) (D).
    DomainOntology,
    /// The query contains predicates (comparisons, ranges) (P).
    Predicates,
    /// The query contains aggregations / grouping (A).
    Aggregates,
}

impl QueryFeature {
    /// All features, in the row order of Table 5.
    pub fn all() -> [QueryFeature; 6] {
        [
            QueryFeature::BaseData,
            QueryFeature::Schema,
            QueryFeature::Inheritance,
            QueryFeature::DomainOntology,
            QueryFeature::Predicates,
            QueryFeature::Aggregates,
        ]
    }

    /// Row label used in the report.
    pub fn label(self) -> &'static str {
        match self {
            QueryFeature::BaseData => "Base data",
            QueryFeature::Schema => "Schema",
            QueryFeature::Inheritance => "Inheritance",
            QueryFeature::DomainOntology => "Domain ontology",
            QueryFeature::Predicates => "Predicates",
            QueryFeature::Aggregates => "Aggregates",
        }
    }

    /// The single-letter flag used in Table 2 ("B", "S", "I", "D", "P", "A").
    pub fn flag(self) -> char {
        match self {
            QueryFeature::BaseData => 'B',
            QueryFeature::Schema => 'S',
            QueryFeature::Inheritance => 'I',
            QueryFeature::DomainOntology => 'D',
            QueryFeature::Predicates => 'P',
            QueryFeature::Aggregates => 'A',
        }
    }
}

/// Degree of support, matching the paper's "X", "(X)", "NO" and "(NO)" cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// Fully supported ("X").
    Yes,
    /// Supported with caveats ("(X)").
    Partial,
    /// Not supported ("NO").
    No,
    /// Claimed but failing at this schema scale ("(NO)").
    FailsAtScale,
}

impl Support {
    /// Cell text in the Table 5 style.
    pub fn cell(self) -> &'static str {
        match self {
            Support::Yes => "X",
            Support::Partial => "(X)",
            Support::No => "NO",
            Support::FailsAtScale => "(NO)",
        }
    }

    /// Whether the system can answer queries needing this feature at all.
    pub fn usable(self) -> bool {
        matches!(self, Support::Yes | Support::Partial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_features_in_table5_order() {
        let all = QueryFeature::all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].label(), "Base data");
        assert_eq!(all[5].flag(), 'A');
    }

    #[test]
    fn support_cells_match_the_paper_notation() {
        assert_eq!(Support::Yes.cell(), "X");
        assert_eq!(Support::Partial.cell(), "(X)");
        assert_eq!(Support::No.cell(), "NO");
        assert_eq!(Support::FailsAtScale.cell(), "(NO)");
        assert!(Support::Partial.usable());
        assert!(!Support::FailsAtScale.usable());
    }
}
