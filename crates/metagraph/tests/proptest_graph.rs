//! Property-based tests of the metadata-graph substrate: graph invariants,
//! pattern-parser round trips and the matcher against its reference.

use proptest::prelude::*;

use soda_metagraph::{
    Binding, GraphBuilder, Matcher, MetaGraph, Object, Pattern, PatternItem, PatternRegistry, Term,
    TriplePattern,
};

/// The matcher as it was before it compiled patterns into slots: `solve`,
/// `pick_item`, `match_triple` and `subjects_from_object` verbatim (only the
/// `PredId` path adjusted), cloning a `HashMap` binding per candidate edge.
/// Slow and obviously faithful to §4.2.1 — the differential tests below hold
/// [`Matcher`] to its assignments, in its order.
mod reference {
    use std::collections::HashMap;

    use soda_metagraph::BoundValue;
    use soda_metagraph::{
        MetaGraph, NodeId, Object, Pattern, PatternItem, PatternRegistry, PredId, Term,
        TriplePattern,
    };

    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Binding {
        pub vars: HashMap<String, BoundValue>,
    }

    impl Binding {
        fn node(&self, var: &str) -> Option<NodeId> {
            match self.vars.get(var) {
                Some(BoundValue::Node(n)) => Some(*n),
                _ => None,
            }
        }

        fn text(&self, var: &str) -> Option<&str> {
            match self.vars.get(var) {
                Some(BoundValue::Text(t)) => Some(t.as_str()),
                _ => None,
            }
        }

        fn get(&self, var: &str) -> Option<&BoundValue> {
            self.vars.get(var)
        }

        fn bind(&mut self, var: &str, value: BoundValue) -> bool {
            match self.vars.get(var) {
                Some(existing) => *existing == value,
                None => {
                    self.vars.insert(var.to_string(), value);
                    true
                }
            }
        }
    }

    pub struct Matcher<'a> {
        graph: &'a MetaGraph,
        registry: &'a PatternRegistry,
        max_reference_depth: usize,
    }

    impl<'a> Matcher<'a> {
        pub fn new(
            graph: &'a MetaGraph,
            registry: &'a PatternRegistry,
            max_reference_depth: usize,
        ) -> Self {
            Self {
                graph,
                registry,
                max_reference_depth,
            }
        }

        pub fn match_at(&self, pattern: &Pattern, node: NodeId) -> Vec<Binding> {
            let mut binding = Binding::default();
            binding.bind(&pattern.anchor, BoundValue::Node(node));
            let mut results = Vec::new();
            self.solve(&pattern.items, binding, 0, &mut results);
            results.dedup();
            results
        }

        fn solve(
            &self,
            remaining: &[PatternItem],
            binding: Binding,
            depth: usize,
            results: &mut Vec<Binding>,
        ) {
            // Pick the next item to process: prefer one whose subject is already
            // bound (or a static URI) to keep the search space small.
            let Some(pos) = self.pick_item(remaining, &binding) else {
                results.push(binding);
                return;
            };
            let item = &remaining[pos];
            let mut rest: Vec<PatternItem> = Vec::with_capacity(remaining.len() - 1);
            rest.extend_from_slice(&remaining[..pos]);
            rest.extend_from_slice(&remaining[pos + 1..]);

            match item {
                PatternItem::Triple(t) => {
                    for next in self.match_triple(t, &binding) {
                        self.solve(&rest, next, depth, results);
                    }
                }
                PatternItem::Reference { var, pattern: name } => {
                    if depth >= self.max_reference_depth {
                        return;
                    }
                    let Some(sub) = self.registry.get(name) else {
                        return;
                    };
                    let anchors: Vec<NodeId> = match var {
                        Term::Var(v) => match binding.node(v) {
                            Some(n) => vec![n],
                            None => self.graph.nodes().collect(),
                        },
                        Term::Uri(u) => match self.graph.node(u) {
                            Some(n) => vec![n],
                            None => vec![],
                        },
                        _ => vec![],
                    };
                    for anchor in anchors {
                        // The sub-pattern's own variables are scoped to the
                        // sub-match; only the anchor binding is shared.
                        let mut sub_binding = Binding::default();
                        sub_binding.bind(&sub.anchor, BoundValue::Node(anchor));
                        let mut sub_results = Vec::new();
                        self.solve(&sub.items, sub_binding, depth + 1, &mut sub_results);
                        if !sub_results.is_empty() {
                            let mut next = binding.clone();
                            if let Term::Var(v) = var {
                                if !next.bind(v, BoundValue::Node(anchor)) {
                                    continue;
                                }
                            }
                            self.solve(&rest, next, depth, results);
                        }
                    }
                }
            }
        }

        fn pick_item(&self, items: &[PatternItem], binding: &Binding) -> Option<usize> {
            if items.is_empty() {
                return None;
            }
            let is_grounded = |t: &Term| match t {
                Term::Var(v) | Term::TextVar(v) => binding.get(v).is_some(),
                Term::Uri(_) | Term::TextLit(_) => true,
            };
            let best = items.iter().position(|item| match item {
                PatternItem::Triple(t) => is_grounded(&t.subject) || is_grounded(&t.object),
                PatternItem::Reference { var, .. } => is_grounded(var),
            });
            Some(best.unwrap_or(0))
        }

        /// Enumerates every extension of `binding` that satisfies the triple.
        fn match_triple(&self, t: &TriplePattern, binding: &Binding) -> Vec<Binding> {
            let Some(pred) = self.graph.find_predicate(&t.predicate) else {
                return Vec::new();
            };
            let mut out = Vec::new();

            // Resolve candidate subjects.
            let subjects: Vec<NodeId> = match &t.subject {
                Term::Var(v) => match binding.node(v) {
                    Some(n) => vec![n],
                    None => self.subjects_from_object(t, binding, pred),
                },
                Term::Uri(u) => match self.graph.node(u) {
                    Some(n) => vec![n],
                    None => return Vec::new(),
                },
                Term::TextVar(_) | Term::TextLit(_) => return Vec::new(),
            };

            for s in subjects {
                for (p, obj) in self.graph.outgoing(s) {
                    if *p != pred {
                        continue;
                    }
                    let mut next = binding.clone();
                    let subject_ok = match &t.subject {
                        Term::Var(v) => next.bind(v, BoundValue::Node(s)),
                        _ => true,
                    };
                    if !subject_ok {
                        continue;
                    }
                    let object_ok = match (&t.object, obj) {
                        (Term::Var(v), Object::Node(n)) => next.bind(v, BoundValue::Node(*n)),
                        (Term::Uri(u), Object::Node(n)) => self.graph.node(u) == Some(*n),
                        (Term::TextVar(v), Object::Text(l)) => {
                            next.bind(v, BoundValue::Text(self.graph.label_text(*l).to_string()))
                        }
                        (Term::TextLit(lit), Object::Text(l)) => self.graph.label_text(*l) == lit,
                        _ => false,
                    };
                    if object_ok {
                        out.push(next);
                    }
                }
            }
            out
        }

        /// When the subject is an unbound variable, try to narrow candidates using
        /// the object; fall back to all nodes.
        fn subjects_from_object(
            &self,
            t: &TriplePattern,
            binding: &Binding,
            pred: PredId,
        ) -> Vec<NodeId> {
            match &t.object {
                Term::Var(v) => {
                    if let Some(obj) = binding.node(v) {
                        return self
                            .graph
                            .incoming(obj)
                            .iter()
                            .filter_map(|(p, s)| if *p == pred { Some(*s) } else { None })
                            .collect();
                    }
                    self.graph.nodes().collect()
                }
                Term::Uri(u) => match self.graph.node(u) {
                    Some(obj) => self
                        .graph
                        .incoming(obj)
                        .iter()
                        .filter_map(|(p, s)| if *p == pred { Some(*s) } else { None })
                        .collect(),
                    None => Vec::new(),
                },
                Term::TextLit(lit) => self
                    .graph
                    .nodes_with_label(lit)
                    .into_iter()
                    .filter_map(|(s, p)| if p == pred { Some(s) } else { None })
                    .collect(),
                Term::TextVar(v) => {
                    if let Some(text) = binding.text(v).map(|s| s.to_string()) {
                        self.graph
                            .nodes_with_label(&text)
                            .into_iter()
                            .filter_map(|(s, p)| if p == pred { Some(s) } else { None })
                            .collect()
                    } else {
                        self.graph.nodes().collect()
                    }
                }
            }
        }
    }
}

/// Whether `got` is exactly the reference's assignment.
fn same_binding(got: &Binding, want: &reference::Binding) -> bool {
    got.len() == want.vars.len()
        && want
            .vars
            .iter()
            .all(|(var, value)| got.get(var) == Some(value))
}

/// Holds `Matcher` to the reference at every node of `graph`: equal
/// assignments in equal order from `match_at`, `matches` true exactly where
/// there is one, `match_all` the concatenation and `matching_nodes` the nodes
/// with one.
fn assert_matches_reference(
    graph: &MetaGraph,
    registry: &PatternRegistry,
    pattern: &Pattern,
    max_reference_depth: usize,
) -> Result<(), TestCaseError> {
    let matcher = Matcher::new(graph, registry).with_max_reference_depth(max_reference_depth);
    let reference = reference::Matcher::new(graph, registry, max_reference_depth);
    let mut all = matcher.match_all(pattern).into_iter();
    let mut matching = matcher.matching_nodes(pattern).into_iter();
    for node in graph.nodes() {
        let want = reference.match_at(pattern, node);
        let got = matcher.match_at(pattern, node);
        prop_assert_eq!(
            got.len(),
            want.len(),
            "{} at {}: {:?} vs {:?}",
            pattern,
            node,
            got,
            want
        );
        for (g, w) in got.iter().zip(&want) {
            prop_assert!(
                same_binding(g, w),
                "{} at {}: {:?} vs {:?}",
                pattern,
                node,
                g,
                w
            );
            prop_assert_eq!(all.next(), Some((node, g.clone())));
        }
        prop_assert_eq!(matcher.matches(pattern, node), !want.is_empty());
        if !want.is_empty() {
            prop_assert_eq!(matching.next(), Some(node));
        }
    }
    prop_assert_eq!(all.next(), None);
    prop_assert_eq!(matching.next(), None);
    Ok(())
}

/// Strategy for small random graphs described as edge lists over `n` nodes.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, u8)>)> {
    (2usize..20).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n, 0u8..4), 0..60),
        )
    })
}

fn build_graph(n: usize, edges: &[(usize, usize, u8)]) -> MetaGraph {
    let mut g = MetaGraph::new();
    let nodes: Vec<_> = (0..n).map(|i| g.add_node(&format!("node/{i}"))).collect();
    for (a, b, p) in edges {
        g.add_edge(nodes[*a], &format!("pred{p}"), nodes[*b]);
    }
    g
}

/// [`graph_strategy`] plus `text<k>` edges to four labels and `type` edges
/// to three type nodes, attached to whichever node `index % n` names.
fn labelled_graph_strategy() -> impl Strategy<Value = MetaGraph> {
    (
        graph_strategy(),
        proptest::collection::vec((0usize..20, 0u8..2, 0u8..4), 0..24),
        proptest::collection::vec((0usize..20, 0u8..3), 0..16),
    )
        .prop_map(|((n, edges), texts, types)| {
            let mut g = build_graph(n, &edges);
            let node = |g: &MetaGraph, i: usize| g.node(&format!("node/{}", i % n)).unwrap();
            for (i, p, l) in texts {
                let subject = node(&g, i);
                g.add_text_edge(subject, &format!("text{p}"), &format!("label{l}"));
            }
            for (i, t) in types {
                let (subject, kind) = (node(&g, i), g.add_node(&format!("kind/{t}")));
                g.add_edge(subject, "type", kind);
            }
            g
        })
}

/// A node position: one of four variables (`y` doubles as a text variable
/// below, so kinds can clash), a node that may not exist, or a type node.
fn node_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0usize..4).prop_map(|v| Term::Var(["x", "y", "z", "w"][v].to_string())),
        (0usize..4).prop_map(|v| Term::Var(["x", "y", "z", "w"][v].to_string())),
        (0usize..22).prop_map(|i| Term::Uri(format!("node/{i}"))),
        (0u8..4).prop_map(|t| Term::Uri(format!("kind/{t}"))),
    ]
}

fn triple() -> impl Strategy<Value = PatternItem> {
    let node_edge = (
        node_term(),
        prop_oneof![
            (0u8..4).prop_map(|p| format!("pred{p}")),
            Just("type".to_string()),
            Just("never_seen".to_string()),
        ],
        node_term(),
    );
    let text_edge = (
        node_term(),
        (0u8..3).prop_map(|p| format!("text{p}")),
        prop_oneof![
            (0usize..2).prop_map(|v| Term::TextVar(["t", "y"][v].to_string())),
            (0u8..5).prop_map(|l| Term::TextLit(format!("label{l}"))),
        ],
    );
    // A text in subject position never matches; a node edge asked for a text
    // (and the reverse) neither.
    let misplaced = (
        Just(Term::TextVar("t".to_string())),
        Just("pred0".to_string()),
        prop_oneof![node_term(), Just(Term::TextLit("label0".to_string()))],
    );
    (0u8..5, node_edge, text_edge, misplaced).prop_map(
        |(which, node_edge, text_edge, misplaced)| {
            let (subject, predicate, object) = match which {
                0 | 1 => node_edge,
                2 | 3 => text_edge,
                _ => misplaced,
            };
            PatternItem::Triple(TriplePattern {
                subject,
                predicate,
                object,
            })
        },
    )
}

/// A triple, or a `matches-` reference: to the random sub-pattern, to the
/// pattern that reaches it one level further down, to the one that refers to
/// itself (never satisfiable, the depth limit ends it) or to a name nobody
/// registered.
fn conjunct() -> impl Strategy<Value = PatternItem> {
    let reference = (node_term(), 0usize..4).prop_map(|(var, name)| PatternItem::Reference {
        var,
        pattern: ["sub", "chain", "loop", "missing"][name].to_string(),
    });
    prop_oneof![triple(), triple(), triple(), reference]
}

proptest! {
    /// Adding the same URI twice never creates a second node, and every edge
    /// added is accounted for in the edge count and the adjacency lists.
    #[test]
    fn node_identity_and_edge_accounting((n, edges) in graph_strategy()) {
        let g = build_graph(n, &edges);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), edges.len());
        let out_sum: usize = g.nodes().map(|x| g.outgoing(x).len()).sum();
        let in_sum: usize = g.nodes().map(|x| g.incoming(x).len()).sum();
        prop_assert_eq!(out_sum, edges.len());
        prop_assert_eq!(in_sum, edges.len());
    }

    /// Pattern display → parse is a round trip for arbitrary simple patterns.
    #[test]
    fn pattern_display_parse_round_trip(
        preds in proptest::collection::vec("[a-z_]{1,12}", 1..5),
        use_text in proptest::collection::vec(any::<bool>(), 1..5),
    ) {
        let n = preds.len().min(use_text.len());
        let mut text = String::new();
        for i in 0..n {
            if i > 0 {
                text.push_str(" & ");
            }
            if use_text[i] {
                text.push_str(&format!("( x {} t:y )", preds[i]));
            } else {
                text.push_str(&format!("( x {} some_static_uri )", preds[i]));
            }
        }
        let parsed = Pattern::parse("p", &text).unwrap();
        let reparsed = Pattern::parse("p", &parsed.to_string()).unwrap();
        prop_assert_eq!(parsed.items, reparsed.items);
    }

    /// Random conjunctions of one to four triples and references — variables,
    /// static URIs, text variables and literals in every position, anchors
    /// that only occur as an object (the Historization shape), unknown
    /// predicates, URIs and pattern names, reference chains the depth limit
    /// cuts — match exactly as the reference says, at every node.
    #[test]
    fn matcher_agrees_with_the_reference_on_random_patterns(
        graph in labelled_graph_strategy(),
        items in proptest::collection::vec(conjunct(), 1..5),
        sub in proptest::collection::vec(triple(), 1..3),
        max_reference_depth in 0usize..4,
    ) {
        let mut registry = PatternRegistry::new();
        registry.register(Pattern::new("sub", sub));
        registry.register(Pattern::parse("chain", "( x pred0 y ) & ( y matches-sub )").unwrap());
        registry.register(Pattern::parse("loop", "( x pred0 y ) & ( y matches-loop )").unwrap());
        let pattern = Pattern::new("p", items);
        assert_matches_reference(&graph, &registry, &pattern, max_reference_depth)?;
    }

    /// A root with a triple from the anchor to a constant node — the shape
    /// the sweeps pre-filter their anchors by (here the constant's incoming
    /// edges repeat, miss the predicate, or do not exist) — sweeps to
    /// exactly what trying every node finds, in node order.
    #[test]
    fn matcher_prefiltered_sweeps_agree_with_the_full_ones(
        graph in labelled_graph_strategy(),
        pred in prop_oneof![(0u8..4).prop_map(|p| format!("pred{p}")), Just("type".to_string())],
        constant in prop_oneof![
            (0usize..22).prop_map(|i| format!("node/{i}")),
            (0u8..4).prop_map(|t| format!("kind/{t}")),
        ],
        at in 0usize..3,
        mut items in proptest::collection::vec(conjunct(), 0..3),
    ) {
        let narrowing = PatternItem::Triple(TriplePattern {
            subject: Term::Var("x".to_string()),
            predicate: pred,
            object: Term::Uri(constant),
        });
        items.insert(at.min(items.len()), narrowing);
        let mut registry = PatternRegistry::new();
        registry.register(Pattern::parse("sub", "( x pred1 y )").unwrap());
        let pattern = Pattern::new("p", items);
        assert_matches_reference(&graph, &registry, &pattern, 2)?;
    }
}

/// `graph` rebuilt edge by edge through a [`GraphBuilder`]: the same node
/// ids, edges and labels, in the same order.
fn through_builder(graph: &MetaGraph) -> GraphBuilder {
    let mut b = GraphBuilder::new();
    for node in graph.nodes() {
        b.node(graph.uri(node));
    }
    for node in graph.nodes() {
        for &(pred, object) in graph.outgoing(node) {
            let pred = predicate_uri(graph, pred);
            match object {
                Object::Node(to) => b.edge(node, pred, to),
                Object::Text(label) => b.text(node, pred, graph.label_text(label)),
            }
        }
    }
    b
}

/// The URI of `pred` among those [`labelled_graph_strategy`] uses.
fn predicate_uri(graph: &MetaGraph, pred: soda_metagraph::PredId) -> &'static str {
    ["pred0", "pred1", "pred2", "pred3", "text0", "text1", "type"]
        .into_iter()
        .find(|uri| graph.find_predicate(uri) == Some(pred))
        .expect("a predicate of the strategy")
}

proptest! {
    /// `has_type` reads a node's `type` edges in place and says what
    /// collecting them does, for every node and every type URI — the
    /// strategy's, any node's own, and one no graph has.  `typed_node` twice
    /// adds exactly one type edge, or none where the node already had it.
    #[test]
    fn has_type_and_typed_node_agree_with_the_type_objects(
        graph in labelled_graph_strategy(),
        subject in 0usize..22,
        kind in 0u8..4,
    ) {
        let mut uris: Vec<String> = (0..4).map(|t| format!("kind/{t}")).collect();
        uris.extend(graph.nodes().map(|n| graph.uri(n).to_string()));
        for node in graph.nodes() {
            let types = graph.objects_of(node, "type");
            for uri in &uris {
                let want = graph.node(uri).is_some_and(|t| types.contains(&t));
                prop_assert_eq!(graph.has_type(node, uri), want, "{} {}", graph.uri(node), uri);
            }
        }

        let (subject, kind) = (format!("node/{subject}"), format!("kind/{kind}"));
        let type_edges = |g: &MetaGraph| match (g.node(&subject), g.node(&kind)) {
            (Some(n), Some(k)) => g.objects_of(n, "type").iter().filter(|&&t| t == k).count(),
            _ => 0,
        };
        let before = type_edges(&graph);
        let mut b = through_builder(&graph);
        let first = b.typed_node(&subject, &kind);
        let second = b.typed_node(&subject, &kind);
        prop_assert_eq!(first, second);
        let typed = b.build();
        prop_assert_eq!(type_edges(&typed), before.max(1));
        prop_assert_eq!(typed.edge_count(), graph.edge_count() + usize::from(before == 0));
        prop_assert!(typed.has_type(first, &kind));
    }
}

/// All seven SODA patterns sweep both warehouses' graphs to the reference's
/// matches — what `JoinCatalog::build` consumes, order included (its
/// inheritance links are deduplicated but never sorted).
#[test]
fn matcher_agrees_with_the_reference_on_the_soda_patterns() {
    use soda_warehouse::enterprise::{self, EnterpriseConfig};

    let patterns = soda_core::SodaPatterns::default();
    let enterprise = enterprise::build_with_historization(EnterpriseConfig {
        seed: 42,
        padding: true,
        data_scale: 0.02,
    });
    for graph in [
        &soda_warehouse::minibank::build(42).graph,
        &enterprise.graph,
    ] {
        for name in patterns.registry().names() {
            let pattern = patterns.registry().get(name).unwrap();
            assert_matches_reference(graph, patterns.registry(), pattern, 8)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }
}
