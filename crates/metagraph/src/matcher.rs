//! The pattern matcher.
//!
//! To match a pattern on a given graph, the anchor variable (`x` by
//! convention) is assigned to the node being tested and each triple of the
//! pattern is matched against the graph, with variables keeping their
//! assignment within one match (§4.2.1).  References to other named patterns
//! (`matches-column`) are resolved through a [`PatternRegistry`].
//!
//! A pattern is compiled against the graph before it is matched: variables
//! become slots, predicates, static URIs and literal labels become ids (or
//! "the graph has no such thing").  The search itself is a backtracking walk
//! over those slots that allocates nothing until a complete assignment is
//! turned into a [`Binding`]; [`Matcher::match_all`] compiles once for the
//! whole sweep, which is what lets `soda-core` compile a schema — every
//! pattern at every node — when it builds a snapshot.

use std::collections::HashMap;

use crate::graph::{MetaGraph, NodeId, Object};
use crate::pattern::{Pattern, PatternItem, Term};
use crate::uri::{LabelId, PredId};

/// A value a pattern variable can be bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundValue {
    /// Binding to a graph node.
    Node(NodeId),
    /// Binding to a text label.
    Text(String),
}

/// One successful assignment of pattern variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Binding {
    /// `(variable, value)`, sorted by variable name.
    vars: Vec<(String, BoundValue)>,
}

impl Binding {
    /// Returns the node bound to `var`, if any.
    pub fn node(&self, var: &str) -> Option<NodeId> {
        match self.get(var) {
            Some(BoundValue::Node(n)) => Some(*n),
            _ => None,
        }
    }

    /// Returns the text bound to `var`, if any.
    pub fn text(&self, var: &str) -> Option<&str> {
        match self.get(var) {
            Some(BoundValue::Text(t)) => Some(t.as_str()),
            _ => None,
        }
    }

    /// Returns the raw bound value of `var`.
    pub fn get(&self, var: &str) -> Option<&BoundValue> {
        self.vars
            .iter()
            .find_map(|(name, value)| (name == var).then_some(value))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

/// Registry of named patterns, used to resolve `matches-<name>` references.
#[derive(Debug, Default, Clone)]
pub struct PatternRegistry {
    patterns: HashMap<String, Pattern>,
}

impl PatternRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pattern under its own name, replacing any previous pattern
    /// with the same name.
    pub fn register(&mut self, pattern: Pattern) {
        self.patterns.insert(pattern.name.clone(), pattern);
    }

    /// Looks up a pattern by name.
    pub fn get(&self, name: &str) -> Option<&Pattern> {
        self.patterns.get(name)
    }

    /// Names of all registered patterns.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.patterns.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Number of registered patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

/// What a slot holds during the search; texts stay interned.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Value {
    Node(NodeId),
    Text(LabelId),
}

/// A [`Term`] resolved against one pattern and one graph.  `None` inside
/// `Node` / `Label` means the graph has no such URI / label: nothing can
/// match it.
#[derive(Clone, Copy)]
enum Slot {
    Var(usize),
    TextVar(usize),
    Node(Option<NodeId>),
    Label(Option<LabelId>),
}

#[derive(Clone, Copy)]
enum Conjunct {
    /// `pred` is `None` when the graph never saw the predicate.
    Triple {
        subject: Slot,
        pred: Option<PredId>,
        object: Slot,
    },
    /// `pattern` indexes the compiled program; `None` when the registry has
    /// no pattern of that name.
    Reference { var: Slot, pattern: Option<usize> },
}

/// One pattern of a compiled program.
struct Compiled<'p> {
    /// Variable name per slot; the anchor is slot 0.
    vars: Vec<&'p str>,
    /// Slots in the order of their names, the order a [`Binding`] keeps.
    by_name: Vec<usize>,
    items: Vec<Conjunct>,
}

/// Compiles `root` (program entry 0) and every pattern it transitively
/// references.
fn compile<'p>(
    graph: &MetaGraph,
    registry: &'p PatternRegistry,
    root: &'p Pattern,
) -> Vec<Compiled<'p>> {
    let mut sources: Vec<&'p Pattern> = vec![root];
    let mut program = Vec::new();
    while let Some(&pattern) = sources.get(program.len()) {
        let mut vars: Vec<&'p str> = vec![pattern.anchor.as_str()];
        let mut slot = |term: &'p Term| {
            let mut index = |name: &'p str| {
                vars.iter().position(|v| *v == name).unwrap_or_else(|| {
                    vars.push(name);
                    vars.len() - 1
                })
            };
            match term {
                Term::Var(v) => Slot::Var(index(v)),
                Term::TextVar(v) => Slot::TextVar(index(v)),
                Term::Uri(u) => Slot::Node(graph.node(u)),
                Term::TextLit(t) => Slot::Label(graph.find_label(t)),
            }
        };
        let items = pattern
            .items
            .iter()
            .map(|item| match item {
                PatternItem::Triple(t) => Conjunct::Triple {
                    subject: slot(&t.subject),
                    pred: graph.find_predicate(&t.predicate),
                    object: slot(&t.object),
                },
                PatternItem::Reference { var, pattern: name } => Conjunct::Reference {
                    var: slot(var),
                    // A name always resolves through the registry, also when
                    // it is the root's own (entry 0 is never a target).
                    pattern: registry.get(name).map(|sub| {
                        let known = sources[1..].iter().position(|s| std::ptr::eq(*s, sub));
                        known.map_or_else(
                            || {
                                sources.push(sub);
                                sources.len() - 1
                            },
                            |k| k + 1,
                        )
                    }),
                },
            })
            .collect();
        let mut by_name: Vec<usize> = (0..vars.len()).collect();
        by_name.sort_unstable_by_key(|&i| vars[i]);
        program.push(Compiled {
            vars,
            by_name,
            items,
        });
    }
    program
}

/// Where one pattern activation keeps its state on the search's stacks.
#[derive(Clone, Copy)]
struct Frame {
    pattern: usize,
    slots: usize,
    done: usize,
    /// `matches-` nesting depth of this activation.
    depth: usize,
}

/// One backtracking search over a compiled program.  Nested `matches-`
/// activations push their frame on the same two stacks, so a sweep over
/// every node reuses one allocation.
struct Search<'s, 'p> {
    graph: &'s MetaGraph,
    program: &'s [Compiled<'p>],
    max_reference_depth: usize,
    slots: Vec<Option<Value>>,
    done: Vec<bool>,
}

impl Search<'_, '_> {
    /// Activates `pattern` with its anchor at `anchor`.  With `out`, every
    /// assignment is appended to it; without, the search stops at the first
    /// and the result says whether there was one.
    fn run(
        &mut self,
        pattern: usize,
        anchor: NodeId,
        depth: usize,
        out: Option<&mut Vec<Binding>>,
    ) -> bool {
        let frame = Frame {
            pattern,
            slots: self.slots.len(),
            done: self.done.len(),
            depth,
        };
        let compiled = &self.program[pattern];
        self.slots.resize(frame.slots + compiled.vars.len(), None);
        self.done.resize(frame.done + compiled.items.len(), false);
        self.slots[frame.slots] = Some(Value::Node(anchor));
        let found = self.solve(frame, out);
        self.slots.truncate(frame.slots);
        self.done.truncate(frame.done);
        found
    }

    fn value(&self, frame: Frame, slot: usize) -> Option<Value> {
        self.slots[frame.slots + slot]
    }

    /// Binds `slot` unless it already holds `value`.  `None`: it holds
    /// something else; `Some(fresh)`: bound, and `fresh` says the caller has
    /// to release it.
    fn bind(&mut self, frame: Frame, slot: usize, value: Value) -> Option<bool> {
        match &mut self.slots[frame.slots + slot] {
            Some(held) => (*held == value).then_some(false),
            free => {
                *free = Some(value);
                Some(true)
            }
        }
    }

    fn release(&mut self, frame: Frame, slot: usize, fresh: bool) {
        if fresh {
            self.slots[frame.slots + slot] = None;
        }
    }

    /// Extends the frame's assignment by one more conjunct, depth first, in
    /// the order the graph stores its edges.  Returns `true` to stop the
    /// whole search: `out` is absent and an assignment is complete.
    fn solve(&mut self, frame: Frame, mut out: Option<&mut Vec<Binding>>) -> bool {
        let program = self.program;
        let compiled = &program[frame.pattern];

        // The next conjunct: the first open one with a grounded end (which
        // keeps the candidate set small), else the first open one.
        let grounded = |slot: Slot| match slot {
            Slot::Var(v) | Slot::TextVar(v) => self.value(frame, v).is_some(),
            Slot::Node(_) | Slot::Label(_) => true,
        };
        let mut open = (0..compiled.items.len()).filter(|&i| !self.done[frame.done + i]);
        let first = open.next();
        let next = first
            .into_iter()
            .chain(open)
            .find(|&i| match compiled.items[i] {
                Conjunct::Triple {
                    subject, object, ..
                } => grounded(subject) || grounded(object),
                Conjunct::Reference { var, .. } => grounded(var),
            });
        let Some(pos) = next.or(first) else {
            let Some(results) = out else { return true };
            let graph = self.graph;
            let vars = compiled.by_name.iter().filter_map(|&slot| {
                let value = match self.value(frame, slot)? {
                    Value::Node(n) => BoundValue::Node(n),
                    Value::Text(l) => BoundValue::Text(graph.label_text(l).to_string()),
                };
                Some((compiled.vars[slot].to_string(), value))
            });
            results.push(Binding {
                vars: vars.collect(),
            });
            return false;
        };

        self.done[frame.done + pos] = true;
        let stop = match compiled.items[pos] {
            Conjunct::Triple {
                subject,
                pred: Some(pred),
                object,
            } => self.match_triple(frame, subject, pred, object, out),
            Conjunct::Reference {
                var,
                pattern: Some(sub),
            } if frame.depth < self.max_reference_depth => {
                // The sub-pattern's own variables are scoped to the
                // sub-match; only the anchor binding is shared.
                match var {
                    Slot::Var(v) => match self.value(frame, v) {
                        Some(Value::Node(n)) => {
                            self.run(sub, n, frame.depth + 1, None) && self.solve(frame, out)
                        }
                        Some(Value::Text(_)) => false,
                        None => self.graph.nodes().any(|n| {
                            if !self.run(sub, n, frame.depth + 1, None) {
                                return false;
                            }
                            self.slots[frame.slots + v] = Some(Value::Node(n));
                            let stop = self.solve(frame, out.as_deref_mut());
                            self.slots[frame.slots + v] = None;
                            stop
                        }),
                    },
                    Slot::Node(Some(n)) => {
                        self.run(sub, n, frame.depth + 1, None) && self.solve(frame, out)
                    }
                    Slot::Node(None) | Slot::TextVar(_) | Slot::Label(_) => false,
                }
            }
            // An unknown predicate, an unregistered pattern or a reference
            // chain past the depth limit: no assignment.
            Conjunct::Triple { pred: None, .. } | Conjunct::Reference { .. } => false,
        };
        self.done[frame.done + pos] = false;
        stop
    }

    /// Enumerates every extension of the assignment that satisfies the
    /// triple and continues the search from each.
    fn match_triple(
        &mut self,
        frame: Frame,
        subject: Slot,
        pred: PredId,
        object: Slot,
        mut out: Option<&mut Vec<Binding>>,
    ) -> bool {
        let graph = self.graph;
        let mut from = |this: &mut Self, s: NodeId| {
            this.match_edges(frame, s, subject, pred, object, out.as_deref_mut())
        };
        let subject_var = match subject {
            Slot::Var(v) => v,
            Slot::Node(Some(s)) => return from(self, s),
            Slot::Node(None) | Slot::TextVar(_) | Slot::Label(_) => return false,
        };
        match self.value(frame, subject_var) {
            Some(Value::Node(s)) => return from(self, s),
            Some(Value::Text(_)) => return false,
            None => {}
        }
        // The subject is open: narrow the candidates through the object,
        // falling back to every node.
        let mut pointing_at = |this: &mut Self, obj: NodeId| {
            graph
                .incoming(obj)
                .iter()
                .any(|&(p, s)| p == pred && from(this, s))
        };
        let labelled = match object {
            Slot::Var(o) => match self.value(frame, o) {
                Some(Value::Node(obj)) => return pointing_at(self, obj),
                Some(Value::Text(_)) => return false,
                None => None,
            },
            Slot::Node(Some(obj)) => return pointing_at(self, obj),
            Slot::Node(None) | Slot::Label(None) => return false,
            Slot::Label(Some(label)) => Some(label),
            Slot::TextVar(o) => match self.value(frame, o) {
                Some(Value::Text(label)) => Some(label),
                Some(Value::Node(_)) => return false,
                None => None,
            },
        };
        match labelled {
            Some(label) => graph
                .label_subjects(label)
                .iter()
                .any(|&(s, p)| p == pred && from(self, s)),
            None => graph.nodes().any(|s| from(self, s)),
        }
    }

    /// The `pred` edges leaving `s` that agree with the assignment.
    fn match_edges(
        &mut self,
        frame: Frame,
        s: NodeId,
        subject: Slot,
        pred: PredId,
        object: Slot,
        mut out: Option<&mut Vec<Binding>>,
    ) -> bool {
        let subject_fresh = match subject {
            Slot::Var(v) => match self.bind(frame, v, Value::Node(s)) {
                Some(fresh) => Some((v, fresh)),
                None => return false,
            },
            _ => None,
        };
        let graph = self.graph;
        let stop = graph.outgoing(s).iter().any(|&(p, obj)| {
            if p != pred {
                return false;
            }
            let object_fresh = match (object, obj) {
                (Slot::Var(v), Object::Node(n)) => self.bind(frame, v, Value::Node(n)),
                (Slot::TextVar(v), Object::Text(l)) => self.bind(frame, v, Value::Text(l)),
                (Slot::Node(u), Object::Node(n)) => (u == Some(n)).then_some(false),
                (Slot::Label(lit), Object::Text(l)) => (lit == Some(l)).then_some(false),
                _ => None,
            };
            let Some(fresh) = object_fresh else {
                return false;
            };
            let stop = self.solve(frame, out.as_deref_mut());
            if let Slot::Var(v) | Slot::TextVar(v) = object {
                self.release(frame, v, fresh);
            }
            stop
        });
        if let Some((v, fresh)) = subject_fresh {
            self.release(frame, v, fresh);
        }
        stop
    }
}

/// Matches patterns against a [`MetaGraph`].
pub struct Matcher<'a> {
    graph: &'a MetaGraph,
    registry: &'a PatternRegistry,
    /// Safety valve against pathological patterns (deep reference chains).
    max_reference_depth: usize,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher over `graph` resolving references in `registry`.
    pub fn new(graph: &'a MetaGraph, registry: &'a PatternRegistry) -> Self {
        Self {
            graph,
            registry,
            max_reference_depth: 8,
        }
    }

    /// Overrides the maximum `matches-` reference nesting depth (default 8).
    pub fn with_max_reference_depth(mut self, depth: usize) -> Self {
        self.max_reference_depth = depth;
        self
    }

    fn search<'s, 'p>(&self, program: &'s [Compiled<'p>]) -> Search<'s, 'p>
    where
        'a: 's,
    {
        Search {
            graph: self.graph,
            program,
            max_reference_depth: self.max_reference_depth,
            slots: Vec::new(),
            done: Vec::new(),
        }
    }

    /// The nodes a sweep has to try as the anchor, ascending.  A triple
    /// `(anchor, p, <constant node>)` in the root narrows them to the
    /// constant's incoming `p` edges — a schema sweep then visits the nodes
    /// of one type instead of the whole graph; without one, every node.
    fn anchor_candidates(&self, root: &Compiled<'_>) -> Vec<NodeId> {
        let narrowing = root.items.iter().find_map(|item| match *item {
            Conjunct::Triple {
                subject: Slot::Var(0),
                pred: Some(pred),
                object: Slot::Node(Some(constant)),
            } => Some((pred, constant)),
            _ => None,
        });
        let Some((pred, constant)) = narrowing else {
            return self.graph.nodes().collect();
        };
        let pointing = self.graph.incoming(constant).iter();
        let mut candidates: Vec<NodeId> = pointing
            .filter_map(|&(p, subject)| (p == pred).then_some(subject))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }

    /// Tests `pattern` with its anchor bound to `node`; returns every distinct
    /// variable assignment that satisfies all conjuncts.
    pub fn match_at(&self, pattern: &Pattern, node: NodeId) -> Vec<Binding> {
        let program = compile(self.graph, self.registry, pattern);
        let mut results = Vec::new();
        self.search(&program).run(0, node, 0, Some(&mut results));
        results.dedup();
        results
    }

    /// True if the pattern matches at `node` with at least one assignment.
    pub fn matches(&self, pattern: &Pattern, node: NodeId) -> bool {
        let program = compile(self.graph, self.registry, pattern);
        self.search(&program).run(0, node, 0, None)
    }

    /// Every node the pattern matches at, ascending: [`matches`](Self::matches)
    /// over the anchor candidates with the pattern compiled once, and no
    /// assignment materialised — for a sweep that only asks *where*.
    pub fn matching_nodes(&self, pattern: &Pattern) -> Vec<NodeId> {
        let program = compile(self.graph, self.registry, pattern);
        let mut search = self.search(&program);
        let mut nodes = self.anchor_candidates(&program[0]);
        nodes.retain(|&node| search.run(0, node, 0, None));
        nodes
    }

    /// Tries every anchor candidate, ascending; returns `(node, binding)`
    /// pairs for every match.  The pattern is compiled once for the sweep;
    /// `soda-core`'s join catalog is built from such sweeps.
    pub fn match_all(&self, pattern: &Pattern) -> Vec<(NodeId, Binding)> {
        let program = compile(self.graph, self.registry, pattern);
        let mut search = self.search(&program);
        let mut out = Vec::new();
        let mut results = Vec::new();
        for node in self.anchor_candidates(&program[0]) {
            search.run(0, node, 0, Some(&mut results));
            results.dedup();
            out.extend(results.drain(..).map(|b| (node, b)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;

    /// Builds the small physical-schema graph used by the paper's examples:
    /// two tables with columns, a foreign key and an inheritance node.
    fn sample_graph() -> MetaGraph {
        let mut g = MetaGraph::new();

        let parties = g.add_node("phys/parties");
        let individuals = g.add_node("phys/individuals");
        let organizations = g.add_node("phys/organizations");
        let t_table = g.add_node("physical_table");
        let t_column = g.add_node("physical_column");
        let t_inherit = g.add_node("inheritance_node");

        for (table, name) in [
            (parties, "parties"),
            (individuals, "individuals"),
            (organizations, "organizations"),
        ] {
            g.add_edge(table, "type", t_table);
            g.add_text_edge(table, "tablename", name);
        }

        let parties_id = g.add_node("phys/parties/id");
        let individuals_id = g.add_node("phys/individuals/id");
        let individuals_name = g.add_node("phys/individuals/firstname");
        for (col, name) in [
            (parties_id, "id"),
            (individuals_id, "id"),
            (individuals_name, "firstname"),
        ] {
            g.add_edge(col, "type", t_column);
            g.add_text_edge(col, "columnname", name);
        }
        g.add_edge(parties, "column", parties_id);
        g.add_edge(individuals, "column", individuals_id);
        g.add_edge(individuals, "column", individuals_name);

        // Foreign key: individuals.id -> parties.id
        g.add_edge(individuals_id, "foreign_key", parties_id);

        // Inheritance node: parties is the parent, individuals/organizations children.
        let inh = g.add_node("inh/parties");
        g.add_edge(inh, "type", t_inherit);
        g.add_edge(inh, "inheritance_parent", parties);
        g.add_edge(inh, "inheritance_child", individuals);
        g.add_edge(inh, "inheritance_child", organizations);

        g
    }

    fn registry_with_basics() -> PatternRegistry {
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
        r
    }

    #[test]
    fn table_pattern_matches_tables_only() {
        let g = sample_graph();
        let r = registry_with_basics();
        let m = Matcher::new(&g, &r);
        let table_p = r.get("table").unwrap();
        let parties = g.node("phys/parties").unwrap();
        let col = g.node("phys/individuals/firstname").unwrap();

        let matches = m.match_at(table_p, parties);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].text("y"), Some("parties"));
        assert!(!m.matches(table_p, col));
    }

    #[test]
    fn column_pattern_requires_incoming_column_edge() {
        let g = sample_graph();
        let r = registry_with_basics();
        let m = Matcher::new(&g, &r);
        let column_p = r.get("column").unwrap();
        let col = g.node("phys/individuals/firstname").unwrap();
        let table = g.node("phys/parties").unwrap();

        let matches = m.match_at(column_p, col);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].text("y"), Some("firstname"));
        assert_eq!(matches[0].node("z"), g.node("phys/individuals"));
        assert!(!m.matches(column_p, table));
    }

    #[test]
    fn foreign_key_pattern_uses_references() {
        let g = sample_graph();
        let r = registry_with_basics();
        let m = Matcher::new(&g, &r);
        let fk = r.get("foreign_key").unwrap();
        let ind_id = g.node("phys/individuals/id").unwrap();
        let parties_id = g.node("phys/parties/id").unwrap();

        let matches = m.match_at(fk, ind_id);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].node("y"), Some(parties_id));
        // The reverse direction does not match.
        assert!(!m.matches(fk, parties_id));
    }

    #[test]
    fn inheritance_child_pattern_matches_both_children() {
        let g = sample_graph();
        let r = registry_with_basics();
        let m = Matcher::new(&g, &r);
        let inh = r.get("inheritance_child").unwrap();
        let individuals = g.node("phys/individuals").unwrap();
        let organizations = g.node("phys/organizations").unwrap();
        let parties = g.node("phys/parties").unwrap();

        let m1 = m.match_at(inh, individuals);
        assert!(!m1.is_empty());
        assert!(m1.iter().all(|b| b.node("p") == Some(parties)));
        assert!(m.matches(inh, organizations));
        assert!(!m.matches(inh, parties));
    }

    #[test]
    fn match_all_finds_every_table() {
        let g = sample_graph();
        let r = registry_with_basics();
        let m = Matcher::new(&g, &r);
        let table_p = r.get("table").unwrap();
        let all = m.match_all(table_p);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn unknown_predicate_or_uri_yields_no_match() {
        let g = sample_graph();
        let r = PatternRegistry::new();
        let m = Matcher::new(&g, &r);
        let p = Pattern::parse("p", "( x never_seen_predicate y )").unwrap();
        assert!(m.match_all(&p).is_empty());
        let p2 = Pattern::parse("p2", "( x type never_seen_type_uri )").unwrap();
        assert!(m.match_all(&p2).is_empty());
    }

    #[test]
    fn missing_reference_pattern_fails_gracefully() {
        let g = sample_graph();
        let r = PatternRegistry::new();
        let m = Matcher::new(&g, &r);
        let p = Pattern::parse("p", "( x foreign_key y ) & ( x matches-column )").unwrap();
        let ind_id = g.node("phys/individuals/id").unwrap();
        assert!(m.match_at(&p, ind_id).is_empty());
    }

    #[test]
    fn variable_consistency_within_a_match() {
        let mut g = MetaGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, "knows", b);
        g.add_edge(b, "knows", c);
        g.add_edge(a, "likes", c);
        let r = PatternRegistry::new();
        let m = Matcher::new(&g, &r);
        // x knows y, x likes y: requires the same y; a knows b but likes c, so no match.
        let p = Pattern::parse("p", "( x knows y ) & ( x likes y )").unwrap();
        assert!(m.match_at(&p, a).is_empty());
        // x knows y, y knows z, x likes z: matches with y=b, z=c.
        let p2 = Pattern::parse("p2", "( x knows y ) & ( y knows z ) & ( x likes z )").unwrap();
        let matches = m.match_at(&p2, a);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].node("y"), Some(b));
        assert_eq!(matches[0].node("z"), Some(c));
    }

    #[test]
    fn text_literal_objects_filter_matches() {
        let g = sample_graph();
        let r = PatternRegistry::new();
        let m = Matcher::new(&g, &r);
        let p = Pattern::parse("named", "( x tablename t:\"parties\" )").unwrap();
        let all = m.match_all(&p);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, g.node("phys/parties").unwrap());
    }

    #[test]
    fn registry_names_are_sorted() {
        let r = registry_with_basics();
        assert_eq!(
            r.names(),
            vec!["column", "foreign_key", "inheritance_child", "table"]
        );
        assert_eq!(r.len(), 4);
    }
}
