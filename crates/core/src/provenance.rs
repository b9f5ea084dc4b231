//! Entry-point provenance: where in the metadata graph (or base data) a
//! keyword was found.  Figure 5 of the paper classifies each keyword of the
//! example query by exactly these categories, and Step 2 ranks solutions by
//! them.

use soda_metagraph::builder::{preds, types};
use soda_metagraph::{MetaGraph, NodeId, Object, PredId};

/// Where a keyword match was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// The domain ontology (highest ranked: built by domain experts).
    DomainOntology,
    /// The conceptual (business) schema layer.
    ConceptualSchema,
    /// The logical schema layer.
    LogicalSchema,
    /// The physical schema layer (table/column names).
    PhysicalSchema,
    /// The base data, through the inverted index.
    BaseData,
    /// A DBpedia synonym (lowest ranked).
    DbPedia,
}

impl Provenance {
    /// Classifies a metadata-graph node by its `type` edge.  Returns `None`
    /// for nodes that are not valid lookup targets (filters, join nodes,
    /// inheritance nodes, type nodes themselves).  To classify many nodes of
    /// one graph, resolve the types once with [`ProvenanceLookup`].
    pub fn of_node(graph: &MetaGraph, node: NodeId) -> Option<Provenance> {
        ProvenanceLookup::new(graph).of(node)
    }

    /// Short label used in reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            Provenance::DomainOntology => "domain ontology",
            Provenance::ConceptualSchema => "conceptual schema",
            Provenance::LogicalSchema => "logical schema",
            Provenance::PhysicalSchema => "physical schema",
            Provenance::BaseData => "base data",
            Provenance::DbPedia => "DBpedia",
        }
    }
}

/// The node types that give a node its provenance, highest priority first:
/// a node of two of them takes the first.
const BY_TYPE: [(&str, Provenance); 8] = [
    (types::ONTOLOGY_CONCEPT, Provenance::DomainOntology),
    (types::CONCEPTUAL_ENTITY, Provenance::ConceptualSchema),
    (types::CONCEPTUAL_ATTRIBUTE, Provenance::ConceptualSchema),
    (types::LOGICAL_ENTITY, Provenance::LogicalSchema),
    (types::LOGICAL_ATTRIBUTE, Provenance::LogicalSchema),
    (types::PHYSICAL_TABLE, Provenance::PhysicalSchema),
    (types::PHYSICAL_COLUMN, Provenance::PhysicalSchema),
    (types::DBPEDIA_TERM, Provenance::DbPedia),
];

/// [`Provenance::of_node`] over one graph, with the `type` predicate and
/// the type nodes that give a provenance resolved once: classifying a node
/// is one pass over its outgoing edges.
#[derive(Debug, Clone, Copy)]
pub struct ProvenanceLookup<'g> {
    graph: &'g MetaGraph,
    /// `None` when no edge of the graph is a `type` edge.
    type_pred: Option<PredId>,
    /// The node of each `BY_TYPE` row, where the graph has it.
    types: [Option<NodeId>; BY_TYPE.len()],
}

impl<'g> ProvenanceLookup<'g> {
    /// Resolves the type nodes of `graph`.
    pub fn new(graph: &'g MetaGraph) -> Self {
        Self {
            graph,
            type_pred: graph.find_predicate(preds::TYPE),
            types: BY_TYPE.map(|(uri, _)| graph.node(uri)),
        }
    }

    /// The provenance of `node`: that of its highest-priority type.
    pub fn of(&self, node: NodeId) -> Option<Provenance> {
        let type_pred = self.type_pred?;
        let mut best = BY_TYPE.len();
        for &(pred, object) in self.graph.outgoing(node) {
            let Object::Node(type_node) = object else {
                continue;
            };
            if pred != type_pred {
                continue;
            }
            if let Some(rank) = self.types[..best]
                .iter()
                .position(|t| *t == Some(type_node))
            {
                best = rank;
            }
        }
        BY_TYPE.get(best).map(|&(_, provenance)| provenance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_metagraph::GraphBuilder;

    #[test]
    fn classification_by_node_type() {
        let mut b = GraphBuilder::new();
        let table = b.physical_table("phys/t", "t");
        let col = b.physical_column(table, "phys/t/c", "c");
        let onto = b.ontology_concept("onto/x", "x");
        let logical = b.named_node("logical/y", types::LOGICAL_ENTITY, "y");
        let conceptual = b.named_node("concept/z", types::CONCEPTUAL_ENTITY, "z");
        let dbp = b.dbpedia_synonym("dbpedia/w", "w", onto);
        let inh = b.inheritance("inh/t", table, &[col, col]);
        let g = b.build();

        assert_eq!(
            Provenance::of_node(&g, table),
            Some(Provenance::PhysicalSchema)
        );
        assert_eq!(
            Provenance::of_node(&g, col),
            Some(Provenance::PhysicalSchema)
        );
        assert_eq!(
            Provenance::of_node(&g, onto),
            Some(Provenance::DomainOntology)
        );
        assert_eq!(
            Provenance::of_node(&g, logical),
            Some(Provenance::LogicalSchema)
        );
        assert_eq!(
            Provenance::of_node(&g, conceptual),
            Some(Provenance::ConceptualSchema)
        );
        assert_eq!(Provenance::of_node(&g, dbp), Some(Provenance::DbPedia));
        assert_eq!(Provenance::of_node(&g, inh), None);
    }

    /// A node of several types takes the highest-priority one, whatever the
    /// order of its `type` edges.
    #[test]
    fn the_highest_priority_type_wins() {
        let mut b = GraphBuilder::new();
        let both = b.physical_table("phys/t", "t");
        b.typed_node("phys/t", types::DBPEDIA_TERM);
        b.typed_node("phys/t", types::LOGICAL_ATTRIBUTE);
        let dbpedia_first = b.typed_node("x", types::DBPEDIA_TERM);
        b.typed_node("x", types::ONTOLOGY_CONCEPT);
        let g = b.build();
        assert_eq!(
            Provenance::of_node(&g, both),
            Some(Provenance::LogicalSchema)
        );
        assert_eq!(
            Provenance::of_node(&g, dbpedia_first),
            Some(Provenance::DomainOntology)
        );
        assert_eq!(Provenance::of_node(&MetaGraph::new(), both), None);
    }

    #[test]
    fn labels_are_human_readable() {
        assert_eq!(Provenance::DomainOntology.label(), "domain ontology");
        assert_eq!(Provenance::BaseData.label(), "base data");
    }
}
