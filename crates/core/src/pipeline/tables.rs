//! Step 3 — Tables and joins.
//!
//! The paper starts from every entry point of a solution, "recursively
//! follows all outgoing edges" of the metadata graph along its layering
//! (ontology → conceptual → logical → physical) and tests the Table and
//! Column patterns at every node it reaches to discover the participating
//! tables (§4.2.1).  That walk depends on the graph alone, so it happens when
//! the [`JoinCatalog`] is built: here an entry point's tables and focus
//! column are one lookup of its node's *entry closure*.
//!
//! What is left per solution is a union over table ids: join conditions are
//! selected from the catalog so that they lie on a direct path between the
//! entry-point tables (Figure 9), inheritance parents are added so the
//! generated SQL is correct, and bridge tables connecting two entry-point
//! tables contribute additional join conditions (§4.2.1, "Bridge Tables in
//! Large Schemas").  The plan's names are clones of the catalog's shared
//! spellings, so naming a table or a column copies no text.

use std::collections::BTreeSet;
use std::sync::Arc;

use soda_metagraph::NodeId;

use crate::joins::{JoinCatalog, JoinEdge, PathSearch, TableId};
use crate::pipeline::lookup::{BaseDataFilter, TermRole};
use crate::pipeline::rank::Solution;
use crate::pipeline::PipelineContext;
use crate::provenance::Provenance;

/// The anchor derived from one entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryAnchor {
    /// The matched phrase.
    pub phrase: Arc<str>,
    /// The term role (keyword, aggregation attribute, group-by attribute).
    pub role: TermRole,
    /// Where the entry point was found.
    pub provenance: Provenance,
    /// The primary table reached from this entry point.
    pub table: Option<Arc<str>>,
    /// The focus column reached from this entry point (for attributes,
    /// base-data hits and ontology concepts classifying a column).
    pub column: Option<(Arc<str>, Arc<str>)>,
    /// All tables discovered from this entry point.
    pub discovered: Vec<Arc<str>>,
    /// Base-data filter carried over from the lookup step.
    pub base_filter: Option<BaseDataFilter>,
    /// The originating graph node.
    pub node: Option<NodeId>,
}

/// The outcome of the tables step for one solution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TablePlan {
    /// Per-entry anchors.
    pub anchors: Vec<EntryAnchor>,
    /// All tables participating in the generated SQL.
    pub tables: BTreeSet<Arc<str>>,
    /// Join conditions.
    pub joins: Vec<JoinEdge>,
    /// Bridge tables that contributed joins.
    pub used_bridges: Vec<Arc<str>>,
    /// Inheritance parent tables that were added.
    pub added_parents: Vec<Arc<str>>,
    /// History tables whose current-state table was added through a
    /// historization annotation (extension; empty on paper-faithful graphs).
    pub added_history_expansions: Vec<Arc<str>>,
    /// True when every pair of entry-point tables could be connected.
    pub join_path_complete: bool,
}

/// A plan under construction: tables as ids, joins as indexes into the
/// catalog's edges.
struct Draft<'a> {
    catalog: &'a JoinCatalog,
    /// Tables the catalog has never seen, by the spelling they arrived in;
    /// their ids continue after the catalog's.
    unseen: Vec<Arc<str>>,
    /// Participating tables, ordered by name.
    tables: Vec<TableId>,
    /// Join conditions, in the order they were selected.
    joins: Vec<u32>,
}

impl<'a> Draft<'a> {
    fn id_of(&mut self, name: &Arc<str>) -> TableId {
        let known = self.catalog.table_count();
        self.catalog.table_id(name).unwrap_or_else(|| {
            let seen = self
                .unseen
                .iter()
                .position(|t| t.eq_ignore_ascii_case(name));
            let index = seen.unwrap_or_else(|| {
                self.unseen.push(Arc::clone(name));
                self.unseen.len() - 1
            });
            (known + index) as TableId
        })
    }

    /// The spelling of a table, shared with the catalog (or with the hit
    /// that named an unseen table).
    fn name(&self, table: TableId) -> &Arc<str> {
        match (table as usize).checked_sub(self.catalog.table_count()) {
            Some(index) => &self.unseen[index],
            None => self.catalog.table_name(table),
        }
    }

    fn shared_name(&self, table: TableId) -> Arc<str> {
        Arc::clone(self.name(table))
    }

    fn has_table(&self, table: TableId) -> bool {
        self.tables.contains(&table)
    }

    /// Adds a table; `false` when the plan already had it.
    fn add_table(&mut self, table: TableId) -> bool {
        if self.has_table(table) {
            return false;
        }
        let name = self.name(table);
        let at = self.tables.partition_point(|&t| self.name(t) < name);
        self.tables.insert(at, table);
        true
    }

    fn add_join(&mut self, edge: u32) {
        if !self.joins.contains(&edge) {
            self.joins.push(edge);
        }
    }

    /// Adds the conditions of a join path and the tables along it.
    fn add_path(&mut self, path: &[u32]) {
        for &edge in path {
            let (fk, pk) = self.catalog.edge_ends(edge);
            self.add_table(fk);
            self.add_table(pk);
            self.add_join(edge);
        }
    }
}

/// Runs the tables step for one solution.
pub fn run(ctx: &PipelineContext<'_>, solution: &Solution) -> TablePlan {
    let catalog = ctx.joins;
    debug_assert_eq!(
        catalog.traversal_depth(),
        ctx.config.traversal_depth,
        "the join catalog was compiled for another traversal depth"
    );
    let max_path = ctx.config.max_join_path_length;
    let mut draft = Draft {
        catalog,
        unseen: Vec::new(),
        tables: Vec::with_capacity(8),
        joins: Vec::with_capacity(8),
    };
    let mut join_path_complete = true;
    let mut search = PathSearch::default();
    // The loops below add tables while they walk the ones already there, so
    // each walks a copy, made in this one buffer.
    let mut walked: Vec<TableId> = Vec::new();
    let snapshot = |walked: &mut Vec<TableId>, tables: &[TableId]| {
        walked.clear();
        walked.extend_from_slice(tables);
    };

    // --- anchors: one closure lookup per entry point --------------------------
    let mut anchors = Vec::with_capacity(solution.entries.len());
    let mut anchor_tables: Vec<TableId> = Vec::with_capacity(solution.entries.len());
    for (entry, role) in solution.entries.iter().zip(&solution.roles) {
        let base_table;
        let (column, discovered) = match &entry.base_filter {
            Some(filter) => {
                base_table = [draft.id_of(&filter.table)];
                let column = (draft.shared_name(base_table[0]), filter.column.clone());
                (Some(column), &base_table[..])
            }
            None => {
                let closure = catalog.entry_closure(entry.node);
                let column = closure
                    .column
                    .map(|(table, column)| (draft.shared_name(table), Arc::clone(column)));
                (column, closure.discovered)
            }
        };
        for &table in discovered {
            draft.add_table(table);
        }
        anchor_tables.extend(discovered.first());
        anchors.push(EntryAnchor {
            phrase: entry.phrase.clone(),
            role: *role,
            provenance: entry.provenance,
            table: discovered.first().map(|&t| draft.shared_name(t)),
            column,
            discovered: discovered.iter().map(|&t| draft.shared_name(t)).collect(),
            base_filter: entry.base_filter.clone(),
            node: Some(entry.node),
        });
    }
    let anchor_pairs = || {
        let pairs = anchor_tables.iter().enumerate();
        pairs
            .flat_map(|(i, &a)| anchor_tables[i + 1..].iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a != b)
    };

    // --- join selection -------------------------------------------------------
    if ctx.config.direct_path_pruning {
        for (a, b) in anchor_pairs() {
            match catalog.path_between(a, b, max_path, &mut search) {
                Some(path) => draft.add_path(path),
                None => join_path_complete = false,
            }
        }
    } else {
        // Ablation: take every join condition between any two discovered tables.
        snapshot(&mut walked, &draft.tables);
        for &table in &walked {
            for &edge in catalog.edges_at(table) {
                if draft.has_table(catalog.other_end(edge, table)) {
                    draft.add_join(edge);
                }
            }
        }
    }

    // --- historization expansion (extension) -----------------------------------
    // When the metadata graph carries historization annotations, a plan that
    // enters through a history table is extended with the table holding the
    // current state, so the result carries the full entity context (and, via
    // the inheritance handling below, its super-type).  Paper-faithful graphs
    // have no annotations, so this is a no-op there.
    let mut added_history_expansions = Vec::new();
    if ctx.config.use_historization {
        snapshot(&mut walked, &draft.tables);
        for &table in &walked {
            let Some(current) = catalog.current_of(table) else {
                continue;
            };
            // Only expand when the annotated join relationship actually exists
            // in the catalog — adding the table without a join condition would
            // turn the result into a cross product.
            let mut connecting = catalog
                .edges_at(table)
                .iter()
                .filter(|&&edge| catalog.other_end(edge, table) == current)
                .peekable();
            if connecting.peek().is_none() {
                continue;
            }
            if draft.add_table(current) {
                added_history_expansions.push(table);
            }
            for &edge in connecting {
                draft.add_join(edge);
            }
        }
    }

    // --- inheritance parents --------------------------------------------------
    let mut added_parents = Vec::new();
    snapshot(&mut walked, &draft.tables);
    for &table in &walked {
        if let Some((parent, join)) = catalog.parent_at(table) {
            if draft.add_table(parent) {
                added_parents.push(parent);
            }
            if let Some(join) = join {
                draft.add_join(join);
            }
        }
    }

    // --- bridge tables ----------------------------------------------------------
    let mut used_bridges: Vec<TableId> = Vec::new();
    if ctx.config.use_bridge_tables {
        for (a, b) in anchor_pairs() {
            for (bridge, foreign_keys) in catalog.bridges_between(a, b) {
                draft.add_table(bridge);
                if !used_bridges.contains(&bridge) {
                    used_bridges.push(bridge);
                }
                for edge in foreign_keys {
                    let (_, target) = catalog.edge_ends(edge);
                    if target == a || target == b {
                        draft.add_join(edge);
                    }
                }
            }
        }
    }

    // --- connectivity clean-up --------------------------------------------------
    // Tables that ended up without any join to the rest (and are not anchors)
    // would force a cross product in the executor; connect them if possible,
    // otherwise drop them.
    if draft.tables.len() > 1 {
        // The joins chosen before the clean-up: the paths it adds do not
        // count as joining a table it has yet to look at.
        let joined = draft.joins.len();
        let reference = anchor_tables.first().copied().unwrap_or(draft.tables[0]);
        snapshot(&mut walked, &draft.tables);
        for &table in &walked {
            let mut ends = draft.joins[..joined].iter().map(|&e| catalog.edge_ends(e));
            if ends.any(|(fk, pk)| fk == table || pk == table) {
                continue;
            }
            let path = catalog
                .path_between(table, reference, max_path, &mut search)
                .filter(|_| table != reference);
            match path {
                Some(path) => draft.add_path(path),
                None if !anchor_tables.contains(&table) && draft.tables.len() > 1 => {
                    draft.tables.retain(|&t| t != table);
                }
                None => {}
            }
        }
    }

    let names = |tables: &[TableId]| tables.iter().map(|&t| draft.shared_name(t)).collect();
    TablePlan {
        anchors,
        tables: draft.tables.iter().map(|&t| draft.shared_name(t)).collect(),
        joins: draft
            .joins
            .iter()
            .map(|&e| catalog.edges[e as usize].clone())
            .collect(),
        used_bridges: names(&used_bridges),
        added_parents: names(&added_parents),
        added_history_expansions: names(&added_history_expansions),
        join_path_complete,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use soda_trace::{NoopSink, SpanId};

    use super::*;
    use crate::joins::tests::{capitalised, fixtures, fixtures_spelt};
    use crate::pipeline::lookup::{self, EntryPoint};
    use crate::pipeline::rank;
    use crate::{parse_query, EngineSnapshot, SodaConfig};

    /// The plan of every ranked solution of `question`.
    fn plans(engine: &EngineSnapshot, question: &str) -> Vec<TablePlan> {
        let ctx = engine.context(None, &NoopSink);
        let found = lookup::run(&ctx, &parse_query(question).unwrap(), SpanId::NONE);
        let solutions = rank::enumerate_and_rank(&found, &engine.config().weights, 11, 1_000);
        solutions.iter().map(|s| run(&ctx, s)).collect()
    }

    /// Regression: the catalog used to key a bridge by its folded name and
    /// hand that key out as the table's name, so a warehouse that spells it
    /// `Associate_Employment` got the table twice in `FROM`.
    #[test]
    fn a_mixed_case_bridge_is_listed_once_as_the_database_spells_it() {
        let (graph, db) = fixtures_spelt(capitalised);
        let engine = EngineSnapshot::build(Arc::new(db), Arc::new(graph), SodaConfig::default());
        let plan = plans(&engine, "individual organization")
            .into_iter()
            .find(|plan| !plan.used_bridges.is_empty())
            .expect("an interpretation joins the siblings over their bridge");
        assert_eq!(plan.used_bridges, ["Associate_Employment".into()]);
        let bridge_spellings: Vec<&str> = plan
            .tables
            .iter()
            .filter(|t| t.eq_ignore_ascii_case("associate_employment"))
            .map(|t| &**t)
            .collect();
        assert_eq!(bridge_spellings, ["Associate_Employment"]);
        assert!(plan.join_path_complete);

        let results = engine.search("individual organization").unwrap();
        let bridged = results
            .iter()
            .find(|r| r.used_bridges == ["Associate_Employment".into()])
            .expect("the bridged interpretation becomes a statement");
        assert_eq!(bridged.sql.matches("Associate_Employment").count(), 3);
        assert!(
            !bridged.sql.contains("associate_employment"),
            "{}",
            bridged.sql
        );
        engine
            .execute(bridged)
            .expect("the statement runs against the mixed-case catalog");
    }

    /// A base-data hit names its table itself; when the catalog has never
    /// seen that table the plan keeps it, under the spelling it came in, as
    /// an isolated table.
    #[test]
    fn a_base_data_hit_in_an_unseen_table_stays_in_the_plan() {
        let (graph, db) = fixtures();
        let node = graph.node("phys/party").unwrap();
        let engine = EngineSnapshot::build(Arc::new(db), Arc::new(graph), SodaConfig::default());
        let hit = |phrase: &str, table: &str| EntryPoint {
            phrase: phrase.into(),
            node,
            provenance: Provenance::BaseData,
            base_filter: Some(BaseDataFilter {
                table: table.into(),
                column: "name".into(),
                value: phrase.into(),
                exact: true,
            }),
        };
        let solution = Solution {
            entries: vec![
                hit("zurich", "Branch_Office"),
                hit("basel", "branch_office"),
                EntryPoint {
                    phrase: "party".into(),
                    node,
                    provenance: Provenance::PhysicalSchema,
                    base_filter: None,
                },
            ],
            roles: vec![TermRole::Keyword; 3],
            score: 1.0,
        };
        let plan = run(&engine.context(None, &NoopSink), &solution);
        assert_eq!(
            plan.tables.iter().map(|t| &**t).collect::<Vec<_>>(),
            ["Branch_Office", "party"]
        );
        assert_eq!(plan.anchors[0].table.as_deref(), Some("Branch_Office"));
        assert_eq!(plan.anchors[1].table.as_deref(), Some("Branch_Office"));
        assert_eq!(plan.anchors[2].discovered, ["party".into()]);
        assert!(plan.joins.is_empty());
        assert!(!plan.join_path_complete);
    }
}
