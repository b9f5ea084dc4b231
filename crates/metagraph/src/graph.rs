//! The metadata graph itself: nodes identified by URIs, edges (triples) that
//! connect a subject node through a predicate to either another node or a text
//! label, plus the indexes needed for fast pattern matching and keyword lookup.

use std::fmt;

use crate::uri::{LabelId, PredId, SymbolTable};

/// Identifier of a node in the metadata graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// The object position of a triple: either another node or a text label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Object {
    /// A link to another node in the graph.
    Node(NodeId),
    /// A text label (e.g. a table name or a business term).
    Text(LabelId),
}

impl Object {
    /// Returns the node if this object is a node link.
    pub fn as_node(self) -> Option<NodeId> {
        match self {
            Object::Node(n) => Some(n),
            Object::Text(_) => None,
        }
    }

    /// Returns the label if this object is a text label.
    pub fn as_text(self) -> Option<LabelId> {
        match self {
            Object::Text(l) => Some(l),
            Object::Node(_) => None,
        }
    }
}

/// A fully resolved edge of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// The subject node of the triple.
    pub subject: NodeId,
    /// The predicate (edge URI).
    pub predicate: PredId,
    /// The object: another node or a text label.
    pub object: Object,
}

/// Lists indexed by a dense id (a node, a label), each in insertion order:
/// one `Vec` per id while the graph grows, packed into one array once it is
/// built ([`MetaGraph::pack`]) — a graph of eight thousand nodes otherwise
/// holds sixteen thousand small allocations, a third of them spare
/// capacity.
#[derive(Debug, Clone)]
enum Lists<T> {
    Growing(Vec<Vec<T>>),
    /// List `i` is `items[starts[i]..starts[i + 1]]`.
    Packed {
        starts: Vec<u32>,
        items: Vec<T>,
    },
}

impl<T> Default for Lists<T> {
    fn default() -> Self {
        Lists::Growing(Vec::new())
    }
}

impl<T: Copy> Lists<T> {
    /// Number of lists.
    fn len(&self) -> usize {
        match self {
            Lists::Growing(lists) => lists.len(),
            Lists::Packed { starts, .. } => starts.len() - 1,
        }
    }

    /// List `i`; empty past the last one.
    fn get(&self, i: usize) -> &[T] {
        match self {
            Lists::Growing(lists) => lists.get(i).map_or(&[], Vec::as_slice),
            Lists::Packed { starts, items } => match starts.get(i..i + 2) {
                Some(&[start, end]) => &items[start as usize..end as usize],
                _ => &[],
            },
        }
    }

    /// The lists as growable ones, unpacking them if they were packed.
    fn growing(&mut self) -> &mut Vec<Vec<T>> {
        if let Lists::Packed { starts, items } = self {
            let lists = starts
                .windows(2)
                .map(|w| items[w[0] as usize..w[1] as usize].to_vec())
                .collect();
            *self = Lists::Growing(lists);
        }
        let Lists::Growing(lists) = self else {
            unreachable!("unpacked above")
        };
        lists
    }

    /// Appends `item` to list `i`, adding empty lists up to it.
    fn push(&mut self, i: usize, item: T) {
        let lists = self.growing();
        if lists.len() <= i {
            lists.resize_with(i + 1, Vec::new);
        }
        lists[i].push(item);
    }

    /// Moves every list into one array, in order.
    fn pack(&mut self) {
        if let Lists::Growing(lists) = self {
            let mut starts = Vec::with_capacity(lists.len() + 1);
            let mut items = Vec::with_capacity(lists.iter().map(Vec::len).sum());
            starts.push(0);
            for list in lists.iter() {
                items.extend_from_slice(list);
                starts.push(u32::try_from(items.len()).expect("under 4 G edges"));
            }
            *self = Lists::Packed { starts, items };
        }
    }
}

/// An in-memory RDF-like metadata graph.
///
/// Nodes, predicates and labels are interned.  The graph maintains outgoing
/// and incoming adjacency lists as well as a label index used by the SODA
/// lookup step to find entry points by keyword.
#[derive(Debug, Default, Clone)]
pub struct MetaGraph {
    node_uris: SymbolTable,
    predicates: SymbolTable,
    labels: SymbolTable,
    /// Outgoing edges per node (indexed by `NodeId`).
    outgoing: Lists<(PredId, Object)>,
    /// Incoming node-to-node edges per node (indexed by `NodeId`).
    incoming: Lists<(PredId, NodeId)>,
    /// Label index: per label (indexed by `LabelId`), all `(subject,
    /// predicate)` pairs carrying it.
    label_index: Lists<(NodeId, PredId)>,
    edge_count: usize,
}

impl MetaGraph {
    /// Creates an empty metadata graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given URI, or returns the existing node when the
    /// URI was added before.
    pub fn add_node(&mut self, uri: &str) -> NodeId {
        let (id, new) = self.node_uris.insert(uri);
        if new {
            debug_assert_eq!(id as usize, self.outgoing.len());
            self.outgoing.growing().push(Vec::new());
            self.incoming.growing().push(Vec::new());
        }
        NodeId(id)
    }

    /// Looks up a node by URI without creating it.
    pub fn node(&self, uri: &str) -> Option<NodeId> {
        self.node_uris.get(uri).map(NodeId)
    }

    /// Returns the URI of a node.
    pub fn uri(&self, node: NodeId) -> &str {
        self.node_uris.resolve(node.0)
    }

    /// Interns a predicate URI.
    pub fn predicate(&mut self, uri: &str) -> PredId {
        PredId(self.predicates.intern(uri))
    }

    /// Looks up a predicate without creating it.
    pub fn find_predicate(&self, uri: &str) -> Option<PredId> {
        self.predicates.get(uri).map(PredId)
    }

    /// Interns a text label.
    pub fn label(&mut self, text: &str) -> LabelId {
        LabelId(self.labels.intern(text))
    }

    /// Looks up a text label without creating it.
    pub(crate) fn find_label(&self, text: &str) -> Option<LabelId> {
        self.labels.get(text).map(LabelId)
    }

    /// Returns the text of a label.
    pub fn label_text(&self, label: LabelId) -> &str {
        self.labels.resolve(label.0)
    }

    /// Adds a node-to-node edge `subject --predicate--> object`.
    pub fn add_edge(&mut self, subject: NodeId, predicate: &str, object: NodeId) -> Edge {
        let pred = self.predicate(predicate);
        self.outgoing
            .push(subject.index(), (pred, Object::Node(object)));
        self.incoming.push(object.index(), (pred, subject));
        self.edge_count += 1;
        Edge {
            subject,
            predicate: pred,
            object: Object::Node(object),
        }
    }

    /// Adds a node-to-text edge `subject --predicate--> "text"`.
    pub fn add_text_edge(&mut self, subject: NodeId, predicate: &str, text: &str) -> Edge {
        let pred = self.predicate(predicate);
        let label = self.label(text);
        self.outgoing
            .push(subject.index(), (pred, Object::Text(label)));
        self.label_index.push(label.0 as usize, (subject, pred));
        self.edge_count += 1;
        Edge {
            subject,
            predicate: pred,
            object: Object::Text(label),
        }
    }

    /// Packs the adjacency lists and the label index into one array each.
    /// Call it once the graph is built ([`GraphBuilder::build`] does): the
    /// graph then holds a few large allocations instead of three small ones
    /// per node.  An edge added later unpacks them again.
    ///
    /// [`GraphBuilder::build`]: crate::builder::GraphBuilder::build
    pub fn pack(&mut self) {
        self.outgoing.pack();
        self.incoming.pack();
        self.label_index.pack();
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.outgoing.len()
    }

    /// Number of edges (both node and text edges) in the graph.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.outgoing.len() as u32).map(NodeId)
    }

    /// Outgoing edges of a node.
    pub fn outgoing(&self, node: NodeId) -> &[(PredId, Object)] {
        self.outgoing.get(node.index())
    }

    /// Incoming node-to-node edges of a node.
    pub fn incoming(&self, node: NodeId) -> &[(PredId, NodeId)] {
        self.incoming.get(node.index())
    }

    /// All `(subject, predicate)` pairs that carry the given text label.
    pub fn nodes_with_label(&self, text: &str) -> Vec<(NodeId, PredId)> {
        match self.find_label(text) {
            Some(l) => self.label_subjects(l).to_vec(),
            None => Vec::new(),
        }
    }

    /// All `(subject, predicate)` pairs that carry the interned label, in
    /// insertion order.
    pub(crate) fn label_subjects(&self, label: LabelId) -> &[(NodeId, PredId)] {
        self.label_index.get(label.0 as usize)
    }

    /// Returns the first text label attached to `node` through `predicate`.
    pub fn text_of(&self, node: NodeId, predicate: &str) -> Option<&str> {
        let pred = self.find_predicate(predicate)?;
        self.outgoing(node).iter().find_map(|(p, o)| {
            if *p == pred {
                o.as_text().map(|l| self.label_text(l))
            } else {
                None
            }
        })
    }

    /// Returns all node objects reachable from `node` through `predicate`.
    pub fn objects_of(&self, node: NodeId, predicate: &str) -> Vec<NodeId> {
        let Some(pred) = self.find_predicate(predicate) else {
            return Vec::new();
        };
        self.outgoing(node)
            .iter()
            .filter_map(|(p, o)| if *p == pred { o.as_node() } else { None })
            .collect()
    }

    /// Returns all subjects that point to `node` through `predicate`.
    pub fn subjects_of(&self, node: NodeId, predicate: &str) -> Vec<NodeId> {
        let Some(pred) = self.find_predicate(predicate) else {
            return Vec::new();
        };
        self.incoming(node)
            .iter()
            .filter_map(|(p, s)| if *p == pred { Some(*s) } else { None })
            .collect()
    }

    /// True if `subject --predicate--> object` is an edge of the graph; reads
    /// the subject's outgoing edges in place.
    pub(crate) fn has_edge(&self, subject: NodeId, predicate: &str, object: NodeId) -> bool {
        self.find_predicate(predicate).is_some_and(|pred| {
            self.outgoing(subject)
                .contains(&(pred, Object::Node(object)))
        })
    }

    /// True if `node` has a `type` edge to a node whose URI equals `type_uri`.
    ///
    /// This is such a common test in SODA's graph patterns that it deserves a
    /// shortcut.
    pub fn has_type(&self, node: NodeId, type_uri: &str) -> bool {
        self.node(type_uri)
            .is_some_and(|type_node| self.has_edge(node, "type", type_node))
    }

    /// Iterates over every text label in the graph together with the nodes it
    /// is attached to.  Used to build the SODA classification index.
    pub fn all_labels(&self) -> impl Iterator<Item = (&str, &[(NodeId, PredId)])> {
        (0..self.label_index.len()).filter_map(|label| {
            let subjects = self.label_index.get(label);
            let text = self.labels.resolve(label as u32);
            (!subjects.is_empty()).then_some((text, subjects))
        })
    }

    /// Approximate memory footprint report used by the experiments (the paper
    /// reports a 37 MB schema graph; our synthetic graph is far smaller).
    pub fn size_report(&self) -> GraphSize {
        GraphSize {
            nodes: self.node_count(),
            edges: self.edge_count(),
            labels: self.labels.len(),
            predicates: self.predicates.len(),
        }
    }
}

/// A summary of the graph size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphSize {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges (node and text edges).
    pub edges: usize,
    /// Number of distinct text labels.
    pub labels: usize,
    /// Number of distinct predicates.
    pub predicates: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> (MetaGraph, NodeId, NodeId, NodeId) {
        let mut g = MetaGraph::new();
        let table = g.add_node("phys/parties");
        let col = g.add_node("phys/parties/id");
        let ttype = g.add_node("physical_table");
        g.add_edge(table, "type", ttype);
        g.add_edge(table, "column", col);
        g.add_text_edge(table, "tablename", "parties");
        g.add_text_edge(col, "columnname", "id");
        (g, table, col, ttype)
    }

    #[test]
    fn add_node_is_idempotent() {
        let mut g = MetaGraph::new();
        let a = g.add_node("x");
        let b = g.add_node("x");
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn node_lookup_by_uri() {
        let (g, table, ..) = tiny_graph();
        assert_eq!(g.node("phys/parties"), Some(table));
        assert_eq!(g.node("missing"), None);
        assert_eq!(g.uri(table), "phys/parties");
    }

    #[test]
    fn outgoing_and_incoming_adjacency() {
        let (g, table, col, ttype) = tiny_graph();
        assert_eq!(g.outgoing(table).len(), 3);
        assert_eq!(g.incoming(col).len(), 1);
        assert_eq!(g.incoming(ttype).len(), 1);
        assert_eq!(g.objects_of(table, "column"), vec![col]);
        assert_eq!(g.subjects_of(col, "column"), vec![table]);
    }

    #[test]
    fn text_edges_and_label_index() {
        let (g, table, col, _) = tiny_graph();
        assert_eq!(g.text_of(table, "tablename"), Some("parties"));
        assert_eq!(g.text_of(col, "columnname"), Some("id"));
        assert_eq!(g.text_of(col, "tablename"), None);
        let hits = g.nodes_with_label("parties");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, table);
        assert!(g.nodes_with_label("nope").is_empty());
    }

    /// Packing changes how the lists are held, not what they hold; an edge
    /// added afterwards lands where it would have.
    #[test]
    fn a_packed_graph_reads_like_the_growing_one() {
        let (mut g, table, col, ttype) = tiny_graph();
        let growing = g.clone();
        g.pack();
        for node in g.nodes() {
            assert_eq!(g.outgoing(node), growing.outgoing(node));
            assert_eq!(g.incoming(node), growing.incoming(node));
        }
        let labels = |g: &MetaGraph| {
            let mut all: Vec<_> = g
                .all_labels()
                .map(|(t, s)| (t.to_string(), s.to_vec()))
                .collect();
            all.sort();
            all
        };
        assert_eq!(labels(&g), labels(&growing));
        assert_eq!(
            g.nodes_with_label("parties"),
            vec![(table, g.find_predicate("tablename").unwrap())]
        );

        let key = g.add_node("phys/parties/key");
        g.add_edge(table, "column", key);
        g.add_text_edge(key, "columnname", "id");
        assert_eq!(g.objects_of(table, "column"), vec![col, key]);
        assert_eq!(g.subjects_of(ttype, "type"), vec![table]);
        assert_eq!(g.nodes_with_label("id").len(), 2);
        assert!(g.outgoing(NodeId(99)).is_empty());
    }

    #[test]
    fn has_type_shortcut() {
        let (g, table, col, _) = tiny_graph();
        assert!(g.has_type(table, "physical_table"));
        assert!(!g.has_type(col, "physical_table"));
        assert!(!g.has_type(table, "never_created_type"));
    }

    #[test]
    fn size_report_counts() {
        let (g, ..) = tiny_graph();
        let s = g.size_report();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 4);
        assert_eq!(s.labels, 2);
    }

    #[test]
    fn all_labels_enumerates_every_text_label() {
        let (g, ..) = tiny_graph();
        let mut labels: Vec<_> = g.all_labels().map(|(t, _)| t.to_string()).collect();
        labels.sort();
        assert_eq!(labels, vec!["id", "parties"]);
    }
}
