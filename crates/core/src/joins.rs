//! The join catalog: the schema, compiled once.
//!
//! The metadata graph changes only when the schema does, so everything Step 3
//! of the pipeline wants to know about it is worked out when a snapshot is
//! built, by matching the patterns over all nodes, and then only read:
//!
//! * **Tables are ids.**  Every table of the database and every table a
//!   pattern match names is interned once (ASCII-folded name → dense
//!   `TableId`, one display spelling per id: the database's).  The
//!   string-taking methods resolve a name once and then run on the ids; a
//!   table the catalog has never seen behaves as an isolated one.
//! * **Names are shared.**  Each table spelling and each column spelling
//!   is one `Arc<str>`, held by the catalog; plans, filters and generated
//!   statements hold clones of it, so a statement's names cost no text of
//!   their own, however often a page is built or copied.
//! * **Joins.**  The Foreign-Key and Join-Relationship patterns yield the
//!   join edges; Step 3 connects the entry points' tables through conditions
//!   that lie "on a direct path between the entry points" (Figure 9) — one
//!   breadth-first search over the id-indexed adjacency.  The
//!   Inheritance-Child pattern yields the parent tables it has to add, the
//!   Historization pattern the annotated history tables, and a table with
//!   foreign keys to two others is a bridge (a physical N-to-N relationship,
//!   including the problematic bridges *between inheritance siblings* of
//!   Figure 10).
//! * **Entry closures.**  "Recursively follow all outgoing edges" from an
//!   entry point, testing the Table and Column patterns at every node
//!   reached (§4.2.1), has the same outcome for every query that enters at
//!   that node.  The catalog holds it for every node of the graph — the
//!   tables discovered, in the traversal's order, and the focus column — so
//!   the tables step looks it up instead of walking the graph.
//!
//! A catalog is immutable and depends on the graph, the patterns, the
//! database's *schema* and the traversal depth only: snapshots derived by a
//! data-only change share it, a graph refresh builds a new one.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use soda_metagraph::{Matcher, MetaGraph, NodeId};
use soda_relation::{fold_table_name, Database, TableSchema};

use crate::patterns::SodaPatterns;
use crate::resolve::{column_label, column_name, owning_table, table_label};

/// Predicates an entry closure follows: the metadata layering edges of
/// Figure 3.  Foreign keys, inheritance and join nodes are handled through
/// the join edges instead, and `type` edges would connect everything to
/// everything.
const FOLLOWED_PREDICATES: &[&str] = &[
    "classifies",
    "synonym_of",
    "refined_by",
    "implemented_by",
    "realized_by",
    "attribute",
    "broader",
];

/// Dense id of a table the catalog knows.
pub(crate) type TableId = u32;

/// Dense id of a column spelling the catalog interned.
type ColumnId = u32;

/// One join condition between two physical columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    /// Referencing (foreign-key) table.
    pub fk_table: Arc<str>,
    /// Referencing column.
    pub fk_column: Arc<str>,
    /// Referenced (primary-key) table.
    pub pk_table: Arc<str>,
    /// Referenced column.
    pub pk_column: Arc<str>,
    /// Whether the edge came from an explicit join node rather than a plain
    /// `foreign_key` edge.
    pub explicit_join_node: bool,
}

impl JoinEdge {
    /// The table on the other side of the edge, if `table` is one endpoint.
    pub fn other(&self, table: &str) -> Option<&str> {
        if self.fk_table.eq_ignore_ascii_case(table) {
            Some(&self.pk_table)
        } else if self.pk_table.eq_ignore_ascii_case(table) {
            Some(&self.fk_table)
        } else {
            None
        }
    }

    /// True when both edges state the same join condition (what
    /// [`condition`](Self::condition) prints), without printing it.
    pub(crate) fn same_condition(&self, other: &JoinEdge) -> bool {
        self.fk_table == other.fk_table
            && self.fk_column == other.fk_column
            && self.pk_table == other.pk_table
            && self.pk_column == other.pk_column
    }

    /// Renders the join condition as SQL text (for traces and tests).
    pub fn condition(&self) -> String {
        format!(
            "{}.{} = {}.{}",
            self.fk_table, self.fk_column, self.pk_table, self.pk_column
        )
    }
}

/// An inheritance link between a parent table and one child table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InheritanceLink {
    /// Super-type table.
    pub parent_table: Arc<str>,
    /// Sub-type table.
    pub child_table: Arc<str>,
    /// The join edge connecting the two (child FK → parent PK), when the
    /// schema graph contains one.
    pub join: Option<JoinEdge>,
}

/// A bi-temporal historization annotation discovered through the
/// Historization pattern (extension): `hist_table` stores the history of
/// `current_table`, with validity bounded by the named columns of the history
/// table.  Paper-faithful metadata graphs carry no such annotations; the
/// annotated warehouse variants do (§5.2.1, §7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistorizationLink {
    /// The history table.
    pub hist_table: Arc<str>,
    /// The table carrying the current state.
    pub current_table: Arc<str>,
    /// Validity-start column of the history table.
    pub valid_from_column: Arc<str>,
    /// Validity-end column of the history table.
    pub valid_to_column: Arc<str>,
}

/// A bridge table: a table with at least two foreign keys referencing at least
/// two distinct other tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeTable {
    /// The bridge table itself.
    pub table: Arc<str>,
    /// Its outgoing foreign-key edges.
    pub edges: Vec<JoinEdge>,
}

impl BridgeTable {
    /// The set of tables this bridge connects.
    pub fn connects(&self) -> Vec<&str> {
        let mut tables: Vec<&str> = self.edges.iter().map(|e| &*e.pk_table).collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }
}

/// What the catalog knows about one table, by [`TableId`].
#[derive(Debug, Default, Clone)]
struct TableFacts {
    /// The one spelling the catalog emits.
    name: Arc<str>,
    /// Incident `edges`, ascending.
    edges: Vec<u32>,
    /// The first of `inheritance` whose child this is.
    parent: Option<u32>,
    /// The first of `historization` whose history table this is.
    historization: Option<u32>,
    /// The first of `historization` whose current-state table this is.
    history: Option<u32>,
    /// The `bridges` with a foreign key to this table, ascending.
    bridges: Vec<u32>,
}

/// What a traversal from one node finds.
#[derive(Debug, Clone)]
struct Closure {
    /// Focus column: its table and its interned spelling.
    column: Option<(TableId, ColumnId)>,
    /// The tables discovered, as a range of `JoinCatalog::discovered`.
    discovered: Range<u32>,
}

/// The entry closure of one node, borrowed from the catalog.  The primary
/// table of the entry point is the first one discovered.
pub(crate) struct EntryClosure<'a> {
    /// The focus column: its table and its name.
    pub column: Option<(TableId, &'a Arc<str>)>,
    /// All tables discovered, in traversal order.
    pub discovered: &'a [TableId],
}

/// The buffers of [`JoinCatalog::path_between`], kept from one search to
/// the next: one plan asks for a path per pair of its entry-point tables.
#[derive(Debug, Default)]
pub(crate) struct PathSearch {
    /// Per table id, the edge it was first reached over plus one; 0: not
    /// reached.  All zero between searches.
    reached_over: Vec<u32>,
    /// The breadth-first queue.
    queue: Vec<TableId>,
    /// The path the last search found.
    path: Vec<u32>,
}

/// The pre-computed join catalog of a warehouse.
#[derive(Debug, Default, Clone)]
pub struct JoinCatalog {
    /// All join edges.
    pub edges: Vec<JoinEdge>,
    /// All inheritance links.
    pub inheritance: Vec<InheritanceLink>,
    /// All bridge tables.
    pub bridges: Vec<BridgeTable>,
    /// All historization annotations (empty on paper-faithful graphs).
    pub historization: Vec<HistorizationLink>,
    /// ASCII-folded table name → id.
    ids: HashMap<String, TableId>,
    tables: Vec<TableFacts>,
    /// Every column spelling the catalog met, by [`ColumnId`].
    columns: Vec<Arc<str>>,
    /// Column spelling → id.
    column_ids: HashMap<Arc<str>, ColumnId>,
    /// `(fk table, pk table)` per entry of `edges`.
    edge_tables: Vec<(TableId, TableId)>,
    /// `(parent table, index of the join in edges)` per entry of `inheritance`.
    inheritance_ids: Vec<(TableId, Option<u32>)>,
    /// The current-state table per entry of `historization`.
    historization_current: Vec<TableId>,
    /// The bridge table per entry of `bridges`.
    bridge_tables: Vec<TableId>,
    /// The entry closure of every graph node, by `NodeId`.
    closures: Vec<Closure>,
    /// Backing store of the closures' discovered tables.
    discovered: Vec<TableId>,
    /// The traversal depth the closures were compiled for.
    traversal_depth: usize,
}

impl JoinCatalog {
    /// Builds the catalog by matching the patterns over the whole metadata
    /// graph; entry closures follow the layering edges `traversal_depth`
    /// levels deep.
    pub fn build(
        graph: &MetaGraph,
        patterns: &SodaPatterns,
        db: &Database,
        traversal_depth: usize,
    ) -> Self {
        let matcher = Matcher::new(graph, patterns.registry());
        let mut catalog = Self {
            traversal_depth,
            ..Self::default()
        };
        for table in db.tables() {
            catalog.intern(table.name());
        }
        catalog.compile_closures(graph, &matcher, patterns, db);

        // Plain foreign-key edges.
        for (node, binding) in matcher.match_all(patterns.foreign_key()) {
            let Some(pk_node) = binding.node("y") else {
                continue;
            };
            catalog.push_edge(graph, db, node, pk_node, false);
        }
        // Explicit join nodes (Credit Suisse style).
        for (_node, binding) in matcher.match_all(patterns.join_relationship()) {
            let (Some(f), Some(p)) = (binding.node("f"), binding.node("p")) else {
                continue;
            };
            catalog.push_edge(graph, db, f, p, true);
        }
        catalog.edges.sort_by_cached_key(JoinEdge::condition);
        catalog
            .edges
            .dedup_by(|a, b| a.condition() == b.condition());
        let id = |name: &str| catalog.table_id(name).expect("interned by push_edge");
        let ends = catalog
            .edges
            .iter()
            .map(|e| (id(&e.fk_table), id(&e.pk_table)));
        catalog.edge_tables = ends.collect();
        for (i, &(fk, pk)) in catalog.edge_tables.iter().enumerate() {
            catalog.tables[fk as usize].edges.push(i as u32);
            catalog.tables[pk as usize].edges.push(i as u32);
        }

        // Inheritance links.
        for (child_node, binding) in matcher.match_all(patterns.inheritance_child()) {
            let Some(child) = catalog.intern_table_at(graph, db, child_node) else {
                continue;
            };
            let Some(parent) = binding
                .node("p")
                .and_then(|p| catalog.intern_table_at(graph, db, p))
            else {
                continue;
            };
            let join = catalog
                .edge_tables
                .iter()
                .position(|&ends| ends == (child, parent) || ends == (parent, child));
            let link = InheritanceLink {
                parent_table: catalog.table_name(parent).clone(),
                child_table: catalog.table_name(child).clone(),
                join: join.map(|i| catalog.edges[i].clone()),
            };
            if !catalog.inheritance.contains(&link) {
                let slot = &mut catalog.tables[child as usize].parent;
                slot.get_or_insert(catalog.inheritance.len() as u32);
                catalog.inheritance.push(link);
                catalog
                    .inheritance_ids
                    .push((parent, join.map(|i| i as u32)));
            }
        }

        // Historization annotations (only present on graphs built with the
        // annotated warehouse variants).
        let mut historization: Vec<(HistorizationLink, TableId, TableId)> = Vec::new();
        for (hist_node, binding) in matcher.match_all(patterns.historization()) {
            let Some(hist) = catalog.intern_table_at(graph, db, hist_node) else {
                continue;
            };
            let Some(current) = binding
                .node("c")
                .and_then(|c| catalog.intern_table_at(graph, db, c))
            else {
                continue;
            };
            let valid_from = catalog.intern_column(binding.text("f").unwrap_or("valid_from"));
            let valid_to = catalog.intern_column(binding.text("v").unwrap_or("valid_to"));
            let link = HistorizationLink {
                hist_table: catalog.table_name(hist).clone(),
                current_table: catalog.table_name(current).clone(),
                valid_from_column: catalog.column_name(valid_from).clone(),
                valid_to_column: catalog.column_name(valid_to).clone(),
            };
            if !historization.iter().any(|(l, ..)| *l == link) {
                historization.push((link, hist, current));
            }
        }
        historization.sort_by(|(a, ..), (b, ..)| a.hist_table.cmp(&b.hist_table));
        for (i, (link, hist, current)) in historization.into_iter().enumerate() {
            let slot = &mut catalog.tables[hist as usize].historization;
            slot.get_or_insert(i as u32);
            catalog.tables[current as usize]
                .history
                .get_or_insert(i as u32);
            catalog.historization.push(link);
            catalog.historization_current.push(current);
        }

        // Bridge tables: a table whose foreign keys reference at least two
        // distinct other tables, in the order of their folded names.
        let mut bridge_tables: Vec<TableId> = (0..catalog.tables.len() as TableId)
            .filter(|&t| {
                let mut targets = catalog.foreign_keys_of(t).map(|i| catalog.edge_tables[i].1);
                targets
                    .next()
                    .is_some_and(|first| targets.any(|other| other != first))
            })
            .collect();
        bridge_tables.sort_by_cached_key(|&t| catalog.table_name(t).to_ascii_lowercase());
        for (b, &table) in bridge_tables.iter().enumerate() {
            let edges: Vec<usize> = catalog.foreign_keys_of(table).collect();
            for &i in &edges {
                let connected = &mut catalog.tables[catalog.edge_tables[i].1 as usize].bridges;
                if connected.last() != Some(&(b as u32)) {
                    connected.push(b as u32);
                }
            }
            catalog.bridges.push(BridgeTable {
                table: catalog.table_name(table).clone(),
                edges: edges.iter().map(|&i| catalog.edges[i].clone()).collect(),
            });
        }
        catalog.bridge_tables = bridge_tables;
        catalog
    }

    /// The id of `name`, interning it (with `name` as its display spelling)
    /// when the catalog has not met it.
    fn intern(&mut self, name: &str) -> TableId {
        let key = fold_table_name(name);
        if let Some(&id) = self.ids.get(key.as_ref()) {
            return id;
        }
        let id = self.tables.len() as TableId;
        self.ids.insert(key.into_owned(), id);
        self.tables.push(TableFacts {
            name: name.into(),
            ..TableFacts::default()
        });
        id
    }

    /// The id of the column spelling `name`, interning it when the catalog
    /// has not met it.
    fn intern_column(&mut self, name: &str) -> ColumnId {
        if let Some(&id) = self.column_ids.get(name) {
            return id;
        }
        let id = self.columns.len() as ColumnId;
        let name: Arc<str> = name.into();
        self.columns.push(Arc::clone(&name));
        self.column_ids.insert(name, id);
        id
    }

    /// Interns the physical table at `node`, if it resolves to one.
    fn intern_table_at(
        &mut self,
        graph: &MetaGraph,
        db: &Database,
        node: NodeId,
    ) -> Option<TableId> {
        let label = table_label(graph, node, db)?;
        Some(self.intern(graph.label_text(label)))
    }

    /// Records the join `fk_node` → `pk_node` under the display spelling of
    /// its tables, if both columns resolve.
    fn push_edge(
        &mut self,
        graph: &MetaGraph,
        db: &Database,
        fk_node: NodeId,
        pk_node: NodeId,
        explicit_join_node: bool,
    ) {
        let (Some((fk_table, fk_column)), Some((pk_table, pk_column))) = (
            column_name(graph, fk_node, db),
            column_name(graph, pk_node, db),
        ) else {
            return;
        };
        let (fk, pk) = (self.intern(&fk_table), self.intern(&pk_table));
        let (fk_column, pk_column) = (
            self.intern_column(&fk_column),
            self.intern_column(&pk_column),
        );
        self.edges.push(JoinEdge {
            fk_table: self.table_name(fk).clone(),
            fk_column: self.column_name(fk_column).clone(),
            pk_table: self.table_name(pk).clone(),
            pk_column: self.column_name(pk_column).clone(),
            explicit_join_node,
        });
    }

    /// The edges whose referencing side is `table`, ascending.
    fn foreign_keys_of(&self, table: TableId) -> impl Iterator<Item = usize> + '_ {
        let mut previous = None;
        self.edges_at(table)
            .iter()
            .map(|&i| i as usize)
            // A self-referencing edge is listed under both of its ends.
            .filter(move |&i| self.edge_tables[i].0 == table && previous.replace(i) != Some(i))
    }

    /// Compiles the entry closure of every node: one sweep each of the Table
    /// and Column patterns says what sits at a node (only *where* they match
    /// is kept — 3 653 assignments would be a megabyte of set-up the peak
    /// resident size never gives back), one breadth-first walk
    /// per node along the followed predicates collects it — the Column
    /// pattern before the Table pattern at each node, so that an attribute
    /// entry point keeps its column focus.
    fn compile_closures(
        &mut self,
        graph: &MetaGraph,
        matcher: &Matcher<'_>,
        patterns: &SodaPatterns,
        db: &Database,
    ) {
        let mut table_at: Vec<Option<TableId>> = vec![None; graph.node_count()];
        for node in matcher.matching_nodes(patterns.table()) {
            table_at[node.index()] = self.intern_table_at(graph, db, node);
        }
        let mut column_at: Vec<Option<(TableId, ColumnId)>> = vec![None; graph.node_count()];
        // A table node resolves the same way for each of its columns.
        let mut owners: HashMap<NodeId, Option<(TableId, Option<&TableSchema>)>> = HashMap::new();
        for node in matcher.matching_nodes(patterns.column()) {
            let Some(owner) = owning_table(graph, node) else {
                continue;
            };
            let owner = *owners.entry(owner).or_insert_with(|| {
                let name = graph.label_text(table_label(graph, owner, db)?);
                let schema = db.table(name).ok().map(|t| t.schema());
                Some((self.intern(name), schema))
            });
            column_at[node.index()] = owner.and_then(|(table, schema)| {
                let label = column_label(graph, node, schema)?;
                Some((table, self.intern_column(graph.label_text(label))))
            });
        }
        let followed: Vec<_> = FOLLOWED_PREDICATES
            .iter()
            .filter_map(|p| graph.find_predicate(p))
            .collect();

        // `seen[n] == start + 1`: the walk from `start` has reached `n`.
        let mut seen = vec![0u32; graph.node_count()];
        let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
        self.closures.reserve_exact(graph.node_count());
        for start in graph.nodes() {
            let stamp = start.index() as u32 + 1;
            let first = self.discovered.len();
            let mut column = None;
            seen[start.index()] = stamp;
            queue.push_back((start, 0));
            while let Some((node, depth)) = queue.pop_front() {
                let found_column = column_at[node.index()].filter(|_| column.is_none());
                column = column.or(found_column);
                let tables = found_column.map(|(table, _)| table);
                for table in tables.into_iter().chain(table_at[node.index()]) {
                    if !self.discovered[first..].contains(&table) {
                        self.discovered.push(table);
                    }
                }
                if depth >= self.traversal_depth {
                    continue;
                }
                for (pred, obj) in graph.outgoing(node) {
                    let Some(next) = obj.as_node().filter(|_| followed.contains(pred)) else {
                        continue;
                    };
                    if seen[next.index()] != stamp {
                        seen[next.index()] = stamp;
                        queue.push_back((next, depth + 1));
                    }
                }
            }
            self.closures.push(Closure {
                column,
                discovered: first as u32..self.discovered.len() as u32,
            });
        }
        self.discovered.shrink_to_fit();
    }

    /// The traversal depth the entry closures were compiled for.
    pub(crate) fn traversal_depth(&self) -> usize {
        self.traversal_depth
    }

    /// What a traversal from `node` finds.  A node the catalog's graph does
    /// not have finds nothing.
    pub(crate) fn entry_closure(&self, node: NodeId) -> EntryClosure<'_> {
        match self.closures.get(node.index()) {
            Some(closure) => EntryClosure {
                column: closure
                    .column
                    .map(|(table, column)| (table, self.column_name(column))),
                discovered: &self.discovered
                    [closure.discovered.start as usize..closure.discovered.end as usize],
            },
            None => EntryClosure {
                column: None,
                discovered: &[],
            },
        }
    }

    /// Number of tables the catalog knows; their ids are `0..table_count()`.
    pub(crate) fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// The id of the table called `name`, ignoring ASCII case.
    pub(crate) fn table_id(&self, name: &str) -> Option<TableId> {
        self.ids.get(fold_table_name(name).as_ref()).copied()
    }

    /// The display spelling of a table.
    pub(crate) fn table_name(&self, table: TableId) -> &Arc<str> {
        &self.tables[table as usize].name
    }

    /// The catalog's copy of the table spelling `name`, if it spells the
    /// table exactly so.
    pub(crate) fn shared_table(&self, name: &str) -> Option<&Arc<str>> {
        let spelling = self.table_name(self.table_id(name)?);
        (**spelling == *name).then_some(spelling)
    }

    /// An interned column spelling.
    fn column_name(&self, column: ColumnId) -> &Arc<str> {
        &self.columns[column as usize]
    }

    /// The catalog's copy of the column spelling `name`, if it has one.
    pub(crate) fn shared_column(&self, name: &str) -> Option<&Arc<str>> {
        let id = *self.column_ids.get(name)?;
        Some(self.column_name(id))
    }

    /// Indexes of the edges incident to `table`, ascending; none for an id
    /// the catalog did not hand out.
    pub(crate) fn edges_at(&self, table: TableId) -> &[u32] {
        self.tables
            .get(table as usize)
            .map_or(&[], |facts| facts.edges.as_slice())
    }

    /// The `(fk table, pk table)` of an edge.
    pub(crate) fn edge_ends(&self, edge: u32) -> (TableId, TableId) {
        self.edge_tables[edge as usize]
    }

    /// The table at the other end of an edge incident to `table`.
    pub(crate) fn other_end(&self, edge: u32, table: TableId) -> TableId {
        let (fk, pk) = self.edge_ends(edge);
        if fk == table {
            pk
        } else {
            fk
        }
    }

    /// Shortest join path of at most `max_edges` conditions between two
    /// tables, as edge indexes, treating edges as undirected.  Neighbours
    /// are tried in ascending edge order, so among equally short paths the
    /// one over the smallest edges wins.  The path lives in `search`, whose
    /// buffers the next search reuses.
    pub(crate) fn path_between<'s>(
        &self,
        from: TableId,
        to: TableId,
        max_edges: usize,
        search: &'s mut PathSearch,
    ) -> Option<&'s [u32]> {
        search.path.clear();
        if from == to {
            return Some(&search.path);
        }
        if (from.max(to) as usize) >= self.tables.len() {
            return None;
        }
        let PathSearch {
            reached_over,
            queue,
            path,
        } = search;
        if reached_over.len() < self.tables.len() {
            reached_over.resize(self.tables.len(), 0);
        }
        reached_over[from as usize] = u32::MAX;
        queue.clear();
        queue.push(from);
        let mut found = false;
        let (mut head, mut depth, mut level_end) = (0, 0, 1);
        'search: while head < queue.len() {
            if head == level_end {
                depth += 1;
                level_end = queue.len();
            }
            if depth >= max_edges {
                break;
            }
            let current = queue[head];
            head += 1;
            for &edge in self.edges_at(current) {
                let next = self.other_end(edge, current);
                if reached_over[next as usize] != 0 {
                    continue;
                }
                reached_over[next as usize] = edge + 1;
                if next == to {
                    found = true;
                    break 'search;
                }
                queue.push(next);
            }
        }
        if found {
            let mut cursor = to;
            while cursor != from {
                let edge = reached_over[cursor as usize] - 1;
                path.push(edge);
                cursor = self.other_end(edge, cursor);
            }
            path.reverse();
            reached_over[to as usize] = 0;
        }
        // Every other table reached was queued: zero them for the next search.
        for &table in queue.iter() {
            reached_over[table as usize] = 0;
        }
        found.then_some(&path[..])
    }

    /// The inheritance link whose child is `table`: the parent table and
    /// the index of the joining edge.
    pub(crate) fn parent_at(&self, table: TableId) -> Option<(TableId, Option<u32>)> {
        let link = self.tables.get(table as usize)?.parent?;
        Some(self.inheritance_ids[link as usize])
    }

    /// The current-state table of the history table `table`.
    pub(crate) fn current_of(&self, table: TableId) -> Option<TableId> {
        let link = self.tables.get(table as usize)?.historization?;
        Some(self.historization_current[link as usize])
    }

    /// The bridge tables with foreign keys to both `a` and `b`, each with
    /// the indexes of its foreign-key edges.
    pub(crate) fn bridges_between(
        &self,
        a: TableId,
        b: TableId,
    ) -> impl Iterator<Item = (TableId, impl Iterator<Item = u32> + '_)> + '_ {
        self.bridge_indexes(a, b).map(|bridge| {
            let table = self.bridge_tables[bridge];
            (table, self.foreign_keys_of(table).map(|i| i as u32))
        })
    }

    /// Indexes into `bridges` of the bridges connecting `a` and `b`.
    fn bridge_indexes(&self, a: TableId, b: TableId) -> impl Iterator<Item = usize> + '_ {
        let of = |t: TableId| {
            self.tables
                .get(t as usize)
                .map_or(&[][..], |facts| facts.bridges.as_slice())
        };
        let other = of(b);
        of(a)
            .iter()
            .filter(move |bridge| other.contains(bridge))
            .map(|&bridge| bridge as usize)
    }

    /// All edges incident to a table.
    pub fn edges_of(&self, table: &str) -> Vec<&JoinEdge> {
        let edges = self.table_id(table).map_or(&[][..], |t| self.edges_at(t));
        edges.iter().map(|&i| &self.edges[i as usize]).collect()
    }

    /// Shortest join path (sequence of edges) between two tables, treating
    /// edges as undirected.  Returns `None` when the tables are not connected.
    pub fn path(&self, from: &str, to: &str) -> Option<Vec<JoinEdge>> {
        self.path_within(from, to, usize::MAX)
    }

    /// Like [`path`](Self::path) but only considering paths of at most
    /// `max_edges` join conditions.  This is the "far-fetching" control of
    /// §5.3.1: a small bound keeps results precise but may miss joins between
    /// entities that are far apart in the schema graph; a large bound
    /// ("far-fetching") finds them at the cost of more, longer join chains.
    pub(crate) fn path_within(
        &self,
        from: &str,
        to: &str,
        max_edges: usize,
    ) -> Option<Vec<JoinEdge>> {
        if from.eq_ignore_ascii_case(to) {
            return Some(Vec::new());
        }
        let mut search = PathSearch::default();
        let path = self.path_between(
            self.table_id(from)?,
            self.table_id(to)?,
            max_edges,
            &mut search,
        )?;
        Some(
            path.iter()
                .map(|&i| self.edges[i as usize].clone())
                .collect(),
        )
    }

    /// The inheritance link whose child is `table`, if any.
    pub fn parent_of(&self, table: &str) -> Option<&InheritanceLink> {
        let link = self.tables[self.table_id(table)? as usize].parent?;
        Some(&self.inheritance[link as usize])
    }

    /// The historization annotation whose *history* table is `table`, if any.
    pub fn historization_of(&self, table: &str) -> Option<&HistorizationLink> {
        let link = self.tables[self.table_id(table)? as usize].historization?;
        Some(&self.historization[link as usize])
    }

    /// The historization annotation whose *current* table is `table`, if any
    /// (i.e. the history table that historizes `table`).
    pub fn history_of(&self, table: &str) -> Option<&HistorizationLink> {
        let link = self.tables[self.table_id(table)? as usize].history?;
        Some(&self.historization[link as usize])
    }

    /// Bridge tables that connect (at least) the two given tables.
    pub fn bridges_connecting(&self, a: &str, b: &str) -> Vec<&BridgeTable> {
        let (Some(a), Some(b)) = (self.table_id(a), self.table_id(b)) else {
            return Vec::new();
        };
        self.bridge_indexes(a, b)
            .map(|bridge| &self.bridges[bridge])
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use soda_metagraph::GraphBuilder;
    use soda_relation::{DataType, TableSchema};

    pub(crate) fn fixtures() -> (MetaGraph, Database) {
        fixtures_spelt(str::to_string)
    }

    /// `associate_employment` → `Associate_Employment`.
    pub(crate) fn capitalised(name: &str) -> String {
        let words = name.split('_').map(|w| {
            let (first, rest) = w.split_at(1);
            first.to_ascii_uppercase() + rest
        });
        words.collect::<Vec<_>>().join("_")
    }

    /// party ← individual / organization (inheritance), individual ←
    /// associate_employment → organization (bridge), agreement → party,
    /// account → agreement (explicit join node); above them the concept
    /// `onto/top` —broader→ `onto/clients`, which classifies the column
    /// individual.given_name and the table organization.  Tables are named
    /// (in the database and on their graph labels) as `spell` says.
    pub(crate) fn fixtures_spelt(spell: fn(&str) -> String) -> (MetaGraph, Database) {
        let mut db = Database::new();
        for (name, cols) in [
            ("party", vec!["party_id"]),
            ("individual", vec!["party_id", "given_name"]),
            ("organization", vec!["party_id", "org_name"]),
            (
                "associate_employment",
                vec!["individual_id", "organization_id"],
            ),
            ("agreement_td", vec!["agreement_id", "party_id"]),
            ("account_td", vec!["account_id", "agreement_id"]),
        ] {
            let mut b = TableSchema::builder(spell(name));
            for c in cols {
                b = b.column(c, DataType::Int);
            }
            db.create_table(b.build()).unwrap();
        }

        let mut b = GraphBuilder::new();
        let mk_table = |b: &mut GraphBuilder, name: &str, cols: &[&str]| {
            let t = b.physical_table(&format!("phys/{name}"), &spell(name));
            let col_ids: Vec<_> = cols
                .iter()
                .map(|c| b.physical_column(t, &format!("phys/{name}/{c}"), c))
                .collect();
            (t, col_ids)
        };
        let (party, party_cols) = mk_table(&mut b, "party", &["party_id"]);
        let (individual, ind_cols) = mk_table(&mut b, "individual", &["party_id", "given_name"]);
        let (organization, org_cols) = mk_table(&mut b, "organization", &["party_id", "org_name"]);
        let (_bridge, bridge_cols) = mk_table(
            &mut b,
            "associate_employment",
            &["individual_id", "organization_id"],
        );
        let (_agreement, agr_cols) =
            mk_table(&mut b, "agreement_td", &["agreement_id", "party_id"]);
        let (_account, acc_cols) = mk_table(&mut b, "account_td", &["account_id", "agreement_id"]);

        b.foreign_key(ind_cols[0], party_cols[0]);
        b.foreign_key(org_cols[0], party_cols[0]);
        b.foreign_key(bridge_cols[0], ind_cols[0]);
        b.foreign_key(bridge_cols[1], org_cols[0]);
        b.foreign_key(agr_cols[1], party_cols[0]);
        b.join_relationship("join/account_agreement", acc_cols[1], agr_cols[0]);
        b.inheritance("inh/party", party, &[individual, organization]);

        let clients = b.ontology_concept("onto/clients", "clients");
        b.edge(clients, "classifies", ind_cols[1]);
        b.edge(clients, "classifies", organization);
        let top = b.ontology_concept("onto/top", "everybody");
        b.edge(top, "broader", clients);
        (b.build(), db)
    }

    fn names<'a>(catalog: &'a JoinCatalog, tables: &[TableId]) -> Vec<&'a str> {
        tables.iter().map(|&t| &**catalog.table_name(t)).collect()
    }

    #[test]
    fn entry_closures_hold_what_a_traversal_finds() {
        let (g, db) = fixtures();
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        let closure = |uri: &str| catalog.entry_closure(g.node(uri).unwrap());

        // A concept: what it classifies, in edge order; the column keeps the
        // focus and its table comes first.
        let clients = closure("onto/clients");
        assert_eq!(
            names(&catalog, clients.discovered),
            ["individual", "organization"]
        );
        let (table, column) = clients.column.unwrap();
        assert_eq!(&**catalog.table_name(table), "individual");
        assert_eq!(&**column, "given_name");
        // One layer up: the same, reached over `broader`.
        let top = closure("onto/top");
        assert_eq!(top.discovered, clients.discovered);
        assert_eq!(top.column, clients.column);
        // Physical nodes find themselves.
        let table = closure("phys/party");
        assert_eq!(names(&catalog, table.discovered), ["party"]);
        assert!(table.column.is_none());
        let column = closure("phys/organization/org_name");
        assert_eq!(names(&catalog, column.discovered), ["organization"]);
        assert!(column.column.is_some());
        // Type nodes, join nodes and inheritance nodes find nothing: `type`,
        // `join` and `inherits_via` are not layering edges.
        assert!(closure("physical_table").discovered.is_empty());
        assert!(closure("inh/party").discovered.is_empty());

        // The depth bounds the walk: one level reaches `onto/clients` from
        // `onto/top` but not what it classifies.
        let shallow = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 1);
        let top = g.node("onto/top").unwrap();
        assert!(shallow.entry_closure(top).discovered.is_empty());
        assert_eq!(shallow.traversal_depth(), 1);
    }

    #[test]
    fn a_table_the_catalog_never_saw_is_isolated() {
        let (g, db) = fixtures();
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        assert!(catalog.edges_of("nowhere").is_empty());
        assert!(catalog.path("party", "nowhere").is_none());
        assert!(catalog.path("nowhere", "party").is_none());
        assert!(catalog.path("nowhere", "NOWHERE").unwrap().is_empty());
        assert!(catalog.parent_of("nowhere").is_none());
        assert!(catalog.historization_of("nowhere").is_none());
        assert!(catalog.history_of("nowhere").is_none());
        assert!(catalog
            .bridges_connecting("individual", "nowhere")
            .is_empty());
        // Ids past the catalog's own behave the same.
        let unseen = catalog.table_count() as TableId;
        assert!(catalog.edges_at(unseen).is_empty());
        assert!(catalog
            .path_between(unseen, 0, 6, &mut PathSearch::default())
            .is_none());
        assert!(catalog.parent_at(unseen).is_none());
        assert!(catalog.bridges_between(unseen, 0).next().is_none());
    }

    #[test]
    fn a_mixed_case_warehouse_keeps_one_spelling_per_table() {
        let (g, db) = fixtures_spelt(capitalised);
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        // Every name the catalog emits is the database's, whatever case the
        // question comes in.
        let bridges = catalog.bridges_connecting("INDIVIDUAL", "organization");
        assert_eq!(bridges.len(), 1);
        assert_eq!(&*bridges[0].table, "Associate_Employment");
        assert!(bridges[0]
            .edges
            .iter()
            .all(|e| &*e.fk_table == "Associate_Employment"));
        assert_eq!(
            &*catalog.parent_of("individual").unwrap().parent_table,
            "Party"
        );
        assert_eq!(catalog.edges_of("party").len(), 3);
        let path = catalog.path("account_td", "INDIVIDUAL").unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(&*path[0].fk_table, "Account_Td");
    }

    #[test]
    fn foreign_key_and_join_node_edges_are_collected() {
        let (g, db) = fixtures();
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        assert_eq!(catalog.edges.len(), 6);
        assert!(catalog.edges.iter().any(|e| e.explicit_join_node
            && &*e.fk_table == "account_td"
            && &*e.pk_table == "agreement_td"));
        assert_eq!(catalog.edges_of("party").len(), 3);
    }

    #[test]
    fn inheritance_links_carry_their_join() {
        let (g, db) = fixtures();
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        assert_eq!(catalog.inheritance.len(), 2);
        let link = catalog.parent_of("individual").unwrap();
        assert_eq!(&*link.parent_table, "party");
        assert_eq!(
            link.join.as_ref().unwrap().condition(),
            "individual.party_id = party.party_id"
        );
        assert!(catalog.parent_of("party").is_none());
    }

    #[test]
    fn bridge_between_inheritance_siblings_is_detected() {
        let (g, db) = fixtures();
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        let bridges = catalog.bridges_connecting("individual", "organization");
        assert_eq!(bridges.len(), 1);
        assert_eq!(&*bridges[0].table, "associate_employment");
        assert_eq!(bridges[0].connects(), vec!["individual", "organization"]);
        assert!(catalog.bridges_connecting("party", "account_td").is_empty());
    }

    #[test]
    fn historization_annotations_are_collected_when_present() {
        // Paper-faithful graph: no annotations.
        let (g, db) = fixtures();
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        assert!(catalog.historization.is_empty());
        assert!(catalog.historization_of("individual_name_hist").is_none());

        // Annotated graph: add a history table plus the historization node.
        let mut db = db;
        db.create_table(
            TableSchema::builder("individual_name_hist")
                .column("party_id", DataType::Int)
                .column("valid_from", DataType::Date)
                .column("valid_to", DataType::Date)
                .build(),
        )
        .unwrap();
        let mut b = GraphBuilder::new();
        let individual = b.physical_table("phys/individual", "individual");
        let hist = b.physical_table("phys/individual_name_hist", "individual_name_hist");
        b.physical_column(individual, "phys/individual/party_id", "party_id");
        b.physical_column(hist, "phys/individual_name_hist/party_id", "party_id");
        b.historization(
            "hist/individual_name_hist",
            hist,
            individual,
            "valid_from",
            "valid_to",
        );
        let g = b.build();
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        assert_eq!(catalog.historization.len(), 1);
        let link = catalog.historization_of("individual_name_hist").unwrap();
        assert_eq!(&*link.current_table, "individual");
        assert_eq!(&*link.valid_to_column, "valid_to");
        assert_eq!(
            &*catalog.history_of("individual").unwrap().hist_table,
            "individual_name_hist"
        );
        assert!(catalog.history_of("individual_name_hist").is_none());
    }

    #[test]
    fn shortest_path_spans_multiple_hops() {
        let (g, db) = fixtures();
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        let path = catalog.path("account_td", "individual").unwrap();
        // account_td → agreement_td → party → individual.
        assert_eq!(path.len(), 3);
        assert_eq!(&*path[0].fk_table, "account_td");
        assert!(catalog.path("account_td", "account_td").unwrap().is_empty());
        assert!(catalog.path("account_td", "nonexistent").is_none());
    }

    #[test]
    fn bounded_path_search_respects_the_far_fetching_limit() {
        let (g, db) = fixtures();
        let catalog = JoinCatalog::build(&g, &SodaPatterns::default(), &db, 6);
        // The account_td → individual path needs 3 edges.
        assert!(catalog.path_within("account_td", "individual", 2).is_none());
        assert_eq!(
            catalog
                .path_within("account_td", "individual", 3)
                .unwrap()
                .len(),
            3
        );
        // A generous bound behaves like the unbounded search.
        assert_eq!(
            catalog.path_within("account_td", "individual", 100),
            catalog.path("account_td", "individual")
        );
        // Degenerate bounds.
        assert!(catalog
            .path_within("account_td", "agreement_td", 0)
            .is_none());
        assert!(catalog
            .path_within("account_td", "account_td", 0)
            .unwrap()
            .is_empty());
    }
}
