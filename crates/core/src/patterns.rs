//! The default metadata-graph patterns (§4.2.1).
//!
//! The pattern texts below are taken directly from the paper: the Table
//! pattern, the Column pattern, the Foreign-Key pattern (which references the
//! Column pattern), the Credit-Suisse-style Join-Relationship pattern with an
//! explicit join node, and the Inheritance-Child pattern.  They are parsed
//! with [`Pattern::parse`] and stored in a [`PatternRegistry`], so a
//! deployment can swap in different patterns without touching the algorithm —
//! exactly the portability argument of §4.1.

use soda_metagraph::{Pattern, PatternRegistry};

/// The named patterns used by the pipeline.
#[derive(Debug, Clone)]
pub struct SodaPatterns {
    registry: PatternRegistry,
}

/// Pattern text for the Table pattern (Figure 7).
pub const TABLE_PATTERN: &str = "( x tablename t:y ) & ( x type physical_table )";

/// Pattern text for the Column pattern.
pub(crate) const COLUMN_PATTERN: &str =
    "( x columnname t:y ) & ( x type physical_column ) & ( z column x )";

/// Pattern text for the Foreign-Key pattern (Figure 8).
pub const FOREIGN_KEY_PATTERN: &str =
    "( x foreign_key y ) & ( x matches-column ) & ( y matches-column )";

/// Pattern text for the Join-Relationship pattern (explicit join node).
pub(crate) const JOIN_RELATIONSHIP_PATTERN: &str = "( x type join_node ) & \
     ( x join_foreign_key f ) & ( x join_primary_key p ) & \
     ( f matches-column ) & ( p matches-column )";

/// Pattern text for the Inheritance-Child pattern.
pub(crate) const INHERITANCE_CHILD_PATTERN: &str = "( y inheritance_child x ) & \
     ( y type inheritance_node ) & ( y inheritance_parent p ) & \
     ( y inheritance_child c1 ) & ( y inheritance_child c2 )";

/// Pattern text for the metadata-filter pattern ("wealthy customers").
pub(crate) const METADATA_FILTER_PATTERN: &str = "( x defined_filter f ) & \
     ( f type metadata_filter ) & ( f filter_column c1 ) & \
     ( f filter_op t:o ) & ( f filter_value t:v )";

/// Pattern text for the Historization pattern (extension): an annotation node
/// that declares `x` to be a bi-temporal history table of another table, with
/// named validity columns.  The paper leaves these relationships unannotated
/// (the cause of the Q2.1/Q2.2 recall loss) and proposes the annotation as
/// future work (§5.2.1, §7).
pub(crate) const HISTORIZATION_PATTERN: &str = "( h type historization_node ) & \
     ( h hist_table x ) & ( h current_table c ) & \
     ( h valid_from_column t:f ) & ( h valid_to_column t:v )";

impl Default for SodaPatterns {
    fn default() -> Self {
        let mut registry = PatternRegistry::new();
        registry.register(Pattern::parse("table", TABLE_PATTERN).expect("table pattern"));
        registry.register(Pattern::parse("column", COLUMN_PATTERN).expect("column pattern"));
        registry.register(
            Pattern::parse("foreign_key", FOREIGN_KEY_PATTERN).expect("foreign key pattern"),
        );
        registry.register(
            Pattern::parse("join_relationship", JOIN_RELATIONSHIP_PATTERN)
                .expect("join relationship pattern"),
        );
        registry.register(
            Pattern::parse("inheritance_child", INHERITANCE_CHILD_PATTERN)
                .expect("inheritance child pattern"),
        );
        registry.register(
            Pattern::parse("metadata_filter", METADATA_FILTER_PATTERN)
                .expect("metadata filter pattern"),
        );
        registry.register(
            Pattern::parse("historization", HISTORIZATION_PATTERN).expect("historization pattern"),
        );
        Self { registry }
    }
}

impl SodaPatterns {
    /// The underlying registry (used by the matcher to resolve references).
    pub fn registry(&self) -> &PatternRegistry {
        &self.registry
    }

    /// Registers or replaces a pattern — this is how SODA is ported to a
    /// warehouse with different modelling conventions.
    pub fn register(&mut self, pattern: Pattern) {
        self.registry.register(pattern);
    }

    /// The Table pattern.
    pub fn table(&self) -> &Pattern {
        self.registry
            .get("table")
            .expect("table pattern registered")
    }

    /// The Column pattern.
    pub fn column(&self) -> &Pattern {
        self.registry
            .get("column")
            .expect("column pattern registered")
    }

    /// The Foreign-Key pattern.
    pub fn foreign_key(&self) -> &Pattern {
        self.registry
            .get("foreign_key")
            .expect("foreign key pattern registered")
    }

    /// The Join-Relationship pattern.
    pub fn join_relationship(&self) -> &Pattern {
        self.registry
            .get("join_relationship")
            .expect("join relationship pattern registered")
    }

    /// The Inheritance-Child pattern.
    pub fn inheritance_child(&self) -> &Pattern {
        self.registry
            .get("inheritance_child")
            .expect("inheritance child pattern registered")
    }

    /// The metadata-filter pattern.
    pub fn metadata_filter(&self) -> &Pattern {
        self.registry
            .get("metadata_filter")
            .expect("metadata filter pattern registered")
    }

    /// The Historization pattern (extension: a bi-temporal history table
    /// declared by an annotation node).
    pub fn historization(&self) -> &Pattern {
        self.registry
            .get("historization")
            .expect("historization pattern registered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_default_patterns_parse_and_register() {
        let p = SodaPatterns::default();
        assert_eq!(p.registry().len(), 7);
        assert_eq!(p.table().items.len(), 2);
        assert_eq!(p.column().items.len(), 3);
        assert_eq!(p.foreign_key().references(), vec!["column", "column"]);
        assert_eq!(p.join_relationship().references().len(), 2);
        assert_eq!(p.inheritance_child().items.len(), 5);
        assert_eq!(p.metadata_filter().items.len(), 5);
        assert_eq!(p.historization().items.len(), 5);
    }

    #[test]
    fn custom_patterns_can_replace_defaults() {
        let mut p = SodaPatterns::default();
        let custom = Pattern::parse(
            "table",
            "( x table_name t:y ) & ( x type relational_table )",
        )
        .unwrap();
        p.register(custom);
        assert_eq!(p.table().items[0].to_string(), "( x table_name t:y )");
    }
}
