//! A small fluent helper for constructing metadata graphs.
//!
//! The warehouse crate uses this builder to translate relational schemas,
//! domain ontologies and synonym stores into the node/edge vocabulary that the
//! SODA patterns expect (`physical_table`, `tablename`, `column`,
//! `foreign_key`, `inheritance_node`, …).

use crate::graph::{MetaGraph, NodeId};

/// Well-known node-type URIs used by the default SODA patterns.
pub mod types {
    /// Physical table node type.
    pub const PHYSICAL_TABLE: &str = "physical_table";
    /// Physical column node type.
    pub const PHYSICAL_COLUMN: &str = "physical_column";
    /// Logical entity node type.
    pub const LOGICAL_ENTITY: &str = "logical_entity";
    /// Logical attribute node type.
    pub const LOGICAL_ATTRIBUTE: &str = "logical_attribute";
    /// Conceptual entity node type.
    pub const CONCEPTUAL_ENTITY: &str = "conceptual_entity";
    /// Conceptual attribute node type.
    pub const CONCEPTUAL_ATTRIBUTE: &str = "conceptual_attribute";
    /// Explicit join node type (the Credit Suisse join-relationship pattern).
    pub(crate) const JOIN_NODE: &str = "join_node";
    /// Explicit inheritance node type.
    pub const INHERITANCE_NODE: &str = "inheritance_node";
    /// Domain-ontology concept node type.
    pub const ONTOLOGY_CONCEPT: &str = "ontology_concept";
    /// DBpedia synonym node type.
    pub const DBPEDIA_TERM: &str = "dbpedia_term";
    /// Metadata-defined filter node type (e.g. "wealthy customer").
    pub(crate) const METADATA_FILTER: &str = "metadata_filter";
    /// Bi-temporal historization annotation node type (links a history table
    /// to the table carrying the current state).
    pub const HISTORIZATION_NODE: &str = "historization_node";
}

/// Well-known predicate URIs used by the default SODA patterns.
pub mod preds {
    /// `type` edge from any node to its node-type node.
    pub const TYPE: &str = "type";
    /// Table-name text edge.
    pub const TABLENAME: &str = "tablename";
    /// Column-name text edge.
    pub const COLUMNNAME: &str = "columnname";
    /// Generic business-name text edge for conceptual/logical/ontology nodes.
    pub const NAME: &str = "name";
    /// Table → column edge.
    pub const COLUMN: &str = "column";
    /// Direct foreign-key edge between two columns.
    pub const FOREIGN_KEY: &str = "foreign_key";
    /// Join node → foreign-key column edge.
    pub(crate) const JOIN_FOREIGN_KEY: &str = "join_foreign_key";
    /// Join node → primary-key column edge.
    pub(crate) const JOIN_PRIMARY_KEY: &str = "join_primary_key";
    /// Inheritance node → parent table edge.
    pub const INHERITANCE_PARENT: &str = "inheritance_parent";
    /// Inheritance node → child table edge.
    pub const INHERITANCE_CHILD: &str = "inheritance_child";
    /// Logical/conceptual entity → implementing node at the next lower layer.
    pub const IMPLEMENTED_BY: &str = "implemented_by";
    /// Conceptual entity → refining logical entity.
    pub const REFINED_BY: &str = "refined_by";
    /// Attribute → attribute/column realisation at the next lower layer.
    pub const REALIZED_BY: &str = "realized_by";
    /// Entity → attribute edge at conceptual/logical level.
    pub const ATTRIBUTE: &str = "attribute";
    /// Ontology concept → classified entity (any layer).
    pub const CLASSIFIES: &str = "classifies";
    /// DBpedia term → schema/ontology node it is a synonym of.
    pub(crate) const SYNONYM_OF: &str = "synonym_of";
    /// Ontology concept → metadata filter node.
    pub const DEFINED_FILTER: &str = "defined_filter";
    /// Metadata filter → column it constrains.
    pub const FILTER_COLUMN: &str = "filter_column";
    /// Metadata filter → comparison operator text (">", "=", "like", …).
    pub const FILTER_OP: &str = "filter_op";
    /// Metadata filter → literal value text.
    pub const FILTER_VALUE: &str = "filter_value";
    /// Historization node → history table.
    pub const HIST_TABLE: &str = "hist_table";
    /// Historization node → table carrying the current state.
    pub const CURRENT_TABLE: &str = "current_table";
    /// Historization node → name of the validity-start column (text).
    pub(crate) const VALID_FROM_COLUMN: &str = "valid_from_column";
    /// Historization node → name of the validity-end column (text).
    pub const VALID_TO_COLUMN: &str = "valid_to_column";
}

/// Fluent builder around a [`MetaGraph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: MetaGraph,
}

impl GraphBuilder {
    /// Creates a builder with an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access to the graph under construction.
    pub fn graph(&self) -> &MetaGraph {
        &self.graph
    }

    /// Finishes building and returns the graph, packed.
    pub fn build(mut self) -> MetaGraph {
        self.graph.pack();
        self.graph
    }

    /// Adds (or gets) a node and attaches a `type` edge to `type_uri`.
    pub fn typed_node(&mut self, uri: &str, type_uri: &str) -> NodeId {
        let node = self.graph.add_node(uri);
        let type_node = self.graph.add_node(type_uri);
        if !self.graph.has_edge(node, preds::TYPE, type_node) {
            self.graph.add_edge(node, preds::TYPE, type_node);
        }
        node
    }

    /// Adds a physical table node with its `tablename` label.
    pub fn physical_table(&mut self, uri: &str, name: &str) -> NodeId {
        let n = self.typed_node(uri, types::PHYSICAL_TABLE);
        self.graph.add_text_edge(n, preds::TABLENAME, name);
        n
    }

    /// Adds a physical column node with its `columnname` label and links it to
    /// its table through a `column` edge.
    pub fn physical_column(&mut self, table: NodeId, uri: &str, name: &str) -> NodeId {
        let n = self.typed_node(uri, types::PHYSICAL_COLUMN);
        self.graph.add_text_edge(n, preds::COLUMNNAME, name);
        self.graph.add_edge(table, preds::COLUMN, n);
        n
    }

    /// Adds a direct foreign-key edge between two column nodes.
    pub fn foreign_key(&mut self, fk_column: NodeId, pk_column: NodeId) {
        self.graph
            .add_edge(fk_column, preds::FOREIGN_KEY, pk_column);
    }

    /// Adds an explicit join node (the Credit Suisse join-relationship
    /// pattern) between a foreign-key column and a primary-key column.
    pub fn join_relationship(&mut self, uri: &str, fk_column: NodeId, pk_column: NodeId) -> NodeId {
        let join = self.typed_node(uri, types::JOIN_NODE);
        self.graph
            .add_edge(join, preds::JOIN_FOREIGN_KEY, fk_column);
        self.graph
            .add_edge(join, preds::JOIN_PRIMARY_KEY, pk_column);
        // Also connect the columns to the join node so that outgoing traversal
        // from either side discovers it.
        self.graph.add_edge(fk_column, "join", join);
        self.graph.add_edge(pk_column, "join", join);
        join
    }

    /// Adds an explicit inheritance node with a parent and at least two
    /// children (mutually exclusive inheritance, Figures 1 and 2).
    pub fn inheritance(&mut self, uri: &str, parent: NodeId, children: &[NodeId]) -> NodeId {
        let inh = self.typed_node(uri, types::INHERITANCE_NODE);
        self.graph.add_edge(inh, preds::INHERITANCE_PARENT, parent);
        for &c in children {
            self.graph.add_edge(inh, preds::INHERITANCE_CHILD, c);
            // Children link back so traversal starting at a child can find the
            // inheritance node and through it the parent table.
            self.graph.add_edge(c, "inherits_via", inh);
        }
        self.graph.add_edge(parent, "specialized_via", inh);
        inh
    }

    /// Adds a named node of an arbitrary type carrying a `name` label.
    pub fn named_node(&mut self, uri: &str, type_uri: &str, name: &str) -> NodeId {
        let n = self.typed_node(uri, type_uri);
        self.graph.add_text_edge(n, preds::NAME, name);
        n
    }

    /// Adds an ontology concept node.
    pub fn ontology_concept(&mut self, uri: &str, name: &str) -> NodeId {
        self.named_node(uri, types::ONTOLOGY_CONCEPT, name)
    }

    /// Adds a DBpedia synonym node pointing at `target`.
    pub fn dbpedia_synonym(&mut self, uri: &str, term: &str, target: NodeId) -> NodeId {
        let n = self.named_node(uri, types::DBPEDIA_TERM, term);
        self.graph.add_edge(n, preds::SYNONYM_OF, target);
        n
    }

    /// Adds a metadata-defined filter (e.g. wealthy customer := salary >= 500000)
    /// hanging off an ontology concept.
    pub fn metadata_filter(
        &mut self,
        uri: &str,
        concept: NodeId,
        column: NodeId,
        op: &str,
        value: &str,
    ) -> NodeId {
        let f = self.typed_node(uri, types::METADATA_FILTER);
        self.graph.add_edge(concept, preds::DEFINED_FILTER, f);
        self.graph.add_edge(f, preds::FILTER_COLUMN, column);
        self.graph.add_text_edge(f, preds::FILTER_OP, op);
        self.graph.add_text_edge(f, preds::FILTER_VALUE, value);
        f
    }

    /// Adds a bi-temporal historization annotation: `hist_table` holds the
    /// history of `current_table`, with validity bounded by the named
    /// `valid_from` / `valid_to` columns of the history table.  This is the
    /// annotation the paper proposes as the remedy for the recall loss caused
    /// by unannotated historization joins (§5.2.1, §7).
    pub fn historization(
        &mut self,
        uri: &str,
        hist_table: NodeId,
        current_table: NodeId,
        valid_from: &str,
        valid_to: &str,
    ) -> NodeId {
        let h = self.typed_node(uri, types::HISTORIZATION_NODE);
        self.graph.add_edge(h, preds::HIST_TABLE, hist_table);
        self.graph.add_edge(h, preds::CURRENT_TABLE, current_table);
        self.graph
            .add_text_edge(h, preds::VALID_FROM_COLUMN, valid_from);
        self.graph
            .add_text_edge(h, preds::VALID_TO_COLUMN, valid_to);
        // Link both tables back so a traversal starting at either side can
        // discover the annotation.
        self.graph.add_edge(hist_table, "historized_via", h);
        self.graph.add_edge(current_table, "historized_via", h);
        h
    }

    /// Adds an arbitrary node-to-node edge.
    pub fn edge(&mut self, from: NodeId, predicate: &str, to: NodeId) {
        self.graph.add_edge(from, predicate, to);
    }

    /// Adds an arbitrary text edge.
    pub fn text(&mut self, from: NodeId, predicate: &str, text: &str) {
        self.graph.add_text_edge(from, predicate, text);
    }

    /// Adds (or gets) an untyped node.
    pub fn node(&mut self, uri: &str) -> NodeId {
        self.graph.add_node(uri)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{Matcher, PatternRegistry};
    use crate::pattern::Pattern;

    #[test]
    fn builder_produces_pattern_matchable_structures() {
        let mut b = GraphBuilder::new();
        let parties = b.physical_table("phys/parties", "parties");
        let individuals = b.physical_table("phys/individuals", "individuals");
        let organizations = b.physical_table("phys/organizations", "organizations");
        let p_id = b.physical_column(parties, "phys/parties/id", "id");
        let i_id = b.physical_column(individuals, "phys/individuals/id", "id");
        b.foreign_key(i_id, p_id);
        b.inheritance("inh/party", parties, &[individuals, organizations]);
        let g = b.build();

        let mut r = PatternRegistry::new();
        r.register(
            Pattern::parse("table", "( x tablename t:y ) & ( x type physical_table )").unwrap(),
        );
        r.register(
            Pattern::parse(
                "column",
                "( x columnname t:y ) & ( x type physical_column ) & ( z column x )",
            )
            .unwrap(),
        );
        r.register(
            Pattern::parse(
                "foreign_key",
                "( x foreign_key y ) & ( x matches-column ) & ( y matches-column )",
            )
            .unwrap(),
        );
        r.register(
            Pattern::parse(
                "inheritance_child",
                "( y inheritance_child x ) & ( y type inheritance_node ) & \
                 ( y inheritance_parent p ) & ( y inheritance_child c1 ) & ( y inheritance_child c2 )",
            )
            .unwrap(),
        );
        let m = Matcher::new(&g, &r);
        assert!(m.matches(r.get("table").unwrap(), parties));
        assert!(m.matches(r.get("column").unwrap(), i_id));
        assert!(m.matches(r.get("foreign_key").unwrap(), i_id));
        assert!(m.matches(r.get("inheritance_child").unwrap(), individuals));
        assert!(!m.matches(r.get("inheritance_child").unwrap(), parties));
    }

    #[test]
    fn typed_node_does_not_duplicate_type_edges() {
        let mut b = GraphBuilder::new();
        let a = b.typed_node("a", "thing");
        let a2 = b.typed_node("a", "thing");
        assert_eq!(a, a2);
        let g = b.build();
        assert_eq!(g.objects_of(a, preds::TYPE).len(), 1);
    }

    #[test]
    fn metadata_filter_links_concept_column_and_value() {
        let mut b = GraphBuilder::new();
        let table = b.physical_table("phys/individuals", "individuals");
        let salary = b.physical_column(table, "phys/individuals/salary", "salary");
        let concept = b.ontology_concept("onto/wealthy", "wealthy customers");
        b.metadata_filter("filter/wealthy", concept, salary, ">=", "500000");
        let g = b.build();
        let filters = g.objects_of(concept, preds::DEFINED_FILTER);
        assert_eq!(filters.len(), 1);
        let f = filters[0];
        assert_eq!(g.objects_of(f, preds::FILTER_COLUMN), vec![salary]);
        assert_eq!(g.text_of(f, preds::FILTER_OP), Some(">="));
        assert_eq!(g.text_of(f, preds::FILTER_VALUE), Some("500000"));
    }

    #[test]
    fn dbpedia_synonym_points_at_target() {
        let mut b = GraphBuilder::new();
        let concept = b.ontology_concept("onto/customers", "customers");
        let syn = b.dbpedia_synonym("dbp/client", "client", concept);
        let g = b.build();
        assert_eq!(g.objects_of(syn, preds::SYNONYM_OF), vec![concept]);
        assert_eq!(g.text_of(syn, preds::NAME), Some("client"));
        assert!(g.has_type(syn, types::DBPEDIA_TERM));
    }

    #[test]
    fn historization_links_history_to_current_table() {
        let mut b = GraphBuilder::new();
        let hist = b.physical_table("phys/individual_name_hist", "individual name hist");
        let current = b.physical_table("phys/individual", "individual");
        let h = b.historization("hist/individual", hist, current, "valid_from", "valid_to");
        let g = b.build();
        assert!(g.has_type(h, types::HISTORIZATION_NODE));
        assert_eq!(g.objects_of(h, preds::HIST_TABLE), vec![hist]);
        assert_eq!(g.objects_of(h, preds::CURRENT_TABLE), vec![current]);
        assert_eq!(g.text_of(h, preds::VALID_FROM_COLUMN), Some("valid_from"));
        assert_eq!(g.text_of(h, preds::VALID_TO_COLUMN), Some("valid_to"));
        assert!(g.objects_of(hist, "historized_via").contains(&h));
        assert!(g.objects_of(current, "historized_via").contains(&h));
    }

    #[test]
    fn join_relationship_creates_bidirectional_discovery_edges() {
        let mut b = GraphBuilder::new();
        let t1 = b.physical_table("phys/a", "a");
        let t2 = b.physical_table("phys/b", "b");
        let c1 = b.physical_column(t1, "phys/a/bid", "b_id");
        let c2 = b.physical_column(t2, "phys/b/id", "id");
        let join = b.join_relationship("join/a_b", c1, c2);
        let g = b.build();
        assert_eq!(g.objects_of(join, preds::JOIN_FOREIGN_KEY), vec![c1]);
        assert_eq!(g.objects_of(join, preds::JOIN_PRIMARY_KEY), vec![c2]);
        assert!(g.objects_of(c1, "join").contains(&join));
        assert!(g.objects_of(c2, "join").contains(&join));
    }
}
