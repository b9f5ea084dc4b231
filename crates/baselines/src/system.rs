//! The common interface of the comparison systems plus shared machinery:
//! a key/foreign-key join graph derived from the physical schema (all of the
//! early keyword-search systems connect their hits through such a graph) and
//! keyword-to-base-data matching.

use std::collections::{HashMap, HashSet, VecDeque};

use soda_relation::{Database, InvertedIndex};

use crate::feature::{QueryFeature, Support};

/// The SQL statements a baseline produced for a query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineAnswer {
    /// Candidate SQL statements, best first.
    pub sql: Vec<String>,
    /// Explanatory notes (which keyword matched where, what was guessed).
    pub notes: Vec<String>,
}

/// A keyword-search comparison system.
pub trait BaselineSystem {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Declared support for a query-type feature (the Table 5 cell).
    fn support(&self, feature: QueryFeature) -> Support;

    /// Tries to answer a keyword query; `None` means the system's query model
    /// cannot express it at all.
    fn answer(&self, db: &Database, index: &InvertedIndex, query: &str) -> Option<BaselineAnswer>;
}

/// One join step between two tables, taken from declared foreign keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SchemaJoin {
    /// Referencing table.
    pub fk_table: String,
    /// Referencing column.
    pub fk_column: String,
    /// Referenced table.
    pub pk_table: String,
    /// Referenced column.
    pub pk_column: String,
}

impl SchemaJoin {
    /// SQL condition text.
    pub(crate) fn condition(&self) -> String {
        format!(
            "{}.{} = {}.{}",
            self.fk_table, self.fk_column, self.pk_table, self.pk_column
        )
    }
}

/// Key/foreign-key join graph over the physical schema.
#[derive(Debug, Default, Clone)]
pub(crate) struct SchemaJoinGraph {
    joins: Vec<SchemaJoin>,
    adjacency: HashMap<String, Vec<usize>>,
}

impl SchemaJoinGraph {
    /// Builds the graph from the foreign keys declared in the catalog.
    pub(crate) fn build(db: &Database) -> Self {
        let mut graph = SchemaJoinGraph::default();
        for table in db.tables() {
            for fk in &table.schema().foreign_keys {
                graph.joins.push(SchemaJoin {
                    fk_table: table.name().to_string(),
                    fk_column: fk.column.clone(),
                    pk_table: fk.ref_table.clone(),
                    pk_column: fk.ref_column.clone(),
                });
            }
        }
        for (i, j) in graph.joins.iter().enumerate() {
            graph
                .adjacency
                .entry(j.fk_table.to_ascii_lowercase())
                .or_default()
                .push(i);
            graph
                .adjacency
                .entry(j.pk_table.to_ascii_lowercase())
                .or_default()
                .push(i);
        }
        graph
    }

    /// Shortest join path between two tables (undirected BFS over tables).
    pub(crate) fn path(&self, from: &str, to: &str) -> Option<Vec<SchemaJoin>> {
        let from = from.to_ascii_lowercase();
        let to = to.to_ascii_lowercase();
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: HashMap<String, (String, usize)> = HashMap::new();
        let mut seen: HashSet<String> = HashSet::new();
        seen.insert(from.clone());
        let mut queue = VecDeque::from([from]);
        while let Some(current) = queue.pop_front() {
            for &i in self
                .adjacency
                .get(&current)
                .map(|v| v.as_slice())
                .unwrap_or(&[])
            {
                let join = &self.joins[i];
                let next = if join.fk_table.eq_ignore_ascii_case(&current) {
                    join.pk_table.to_ascii_lowercase()
                } else {
                    join.fk_table.to_ascii_lowercase()
                };
                if seen.insert(next.clone()) {
                    prev.insert(next.clone(), (current.clone(), i));
                    if next == to {
                        let mut path = Vec::new();
                        let mut cursor = to.clone();
                        while let Some((p, idx)) = prev.get(&cursor) {
                            path.push(self.joins[*idx].clone());
                            cursor = p.clone();
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

/// A keyword matched in the base data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DataHit {
    /// Table of the matching column.
    pub table: String,
    /// Matching column.
    pub column: String,
    /// Matched cell value (or the phrase itself when several values match).
    pub value: String,
    /// Whether `value` is an exact cell value.
    pub exact: bool,
}

/// Longest-span matching of the query words against the base data, shared by
/// the inverted-index-based systems.  Returns per matched span the list of
/// candidate hits, plus the words that matched nothing.
pub(crate) fn base_data_terms(
    index: &InvertedIndex,
    query: &str,
    max_span: usize,
) -> (Vec<Vec<DataHit>>, Vec<String>) {
    let tokens = soda_relation::tokenize(query);
    let mut terms = Vec::new();
    let mut unmatched = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let top = max_span.min(tokens.len() - i);
        let mut matched = false;
        for span in (1..=top).rev() {
            let phrase = tokens[i..i + span].join(" ");
            let hits = index.lookup_phrase(&phrase);
            if !hits.is_empty() {
                let mut per_column: Vec<DataHit> = Vec::new();
                for hit in hits {
                    if let Some(existing) = per_column
                        .iter_mut()
                        .find(|h| h.table == hit.table && h.column == hit.column)
                    {
                        existing.exact = false;
                        existing.value = phrase.clone();
                    } else {
                        per_column.push(DataHit {
                            table: hit.table,
                            column: hit.column,
                            value: hit.value,
                            exact: true,
                        });
                    }
                }
                terms.push(per_column);
                i += span;
                matched = true;
                break;
            }
        }
        if !matched {
            unmatched.push(tokens[i].clone());
            i += 1;
        }
    }
    (terms, unmatched)
}

/// Builds a `SELECT *` statement over the hit tables, connecting them through
/// the schema join graph and filtering each hit column.
pub(crate) fn candidate_network_sql(graph: &SchemaJoinGraph, hits: &[DataHit]) -> Option<String> {
    if hits.is_empty() {
        return None;
    }
    let mut tables: Vec<String> = Vec::new();
    let mut conditions: Vec<String> = Vec::new();
    for hit in hits {
        if !tables.iter().any(|t| t.eq_ignore_ascii_case(&hit.table)) {
            tables.push(hit.table.clone());
        }
        if hit.exact {
            conditions.push(format!(
                "{}.{} = '{}'",
                hit.table,
                hit.column,
                hit.value.replace('\'', "''")
            ));
        } else {
            conditions.push(format!(
                "{}.{} LIKE '%{}%'",
                hit.table, hit.column, hit.value
            ));
        }
    }
    // Connect every hit table to the first one.
    let anchor = tables[0].clone();
    let mut joins: Vec<String> = Vec::new();
    for table in tables.clone().iter().skip(1) {
        let path = graph.path(table, &anchor)?;
        for step in path {
            for t in [&step.fk_table, &step.pk_table] {
                if !tables.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                    tables.push(t.clone());
                }
            }
            let cond = step.condition();
            if !joins.contains(&cond) {
                joins.push(cond);
            }
        }
    }
    let mut all_conditions = joins;
    all_conditions.extend(conditions);
    let mut sql = format!("SELECT * FROM {}", tables.join(", "));
    if !all_conditions.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&all_conditions.join(" AND "));
    }
    Some(sql)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_relation::{DataType, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("parties")
                .column("id", DataType::Int)
                .primary_key("id")
                .build(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("individuals")
                .column("id", DataType::Int)
                .column("firstname", DataType::Text)
                .primary_key("id")
                .foreign_key("id", "parties", "id")
                .build(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("addresses")
                .column("address_id", DataType::Int)
                .column("party_id", DataType::Int)
                .column("city", DataType::Text)
                .foreign_key("party_id", "individuals", "id")
                .build(),
        )
        .unwrap();
        db.insert("parties", vec![Value::Int(1)]).unwrap();
        db.insert("individuals", vec![Value::Int(1), Value::from("Sara")])
            .unwrap();
        db.insert(
            "addresses",
            vec![Value::Int(1), Value::Int(1), Value::from("Zurich")],
        )
        .unwrap();
        db
    }

    #[test]
    fn schema_join_graph_paths() {
        let db = db();
        let g = SchemaJoinGraph::build(&db);
        assert_eq!(g.joins.len(), 2);
        let path = g.path("addresses", "parties").unwrap();
        assert_eq!(path.len(), 2);
        assert!(g.path("addresses", "missing").is_none());
    }

    #[test]
    fn base_data_terms_find_hits_and_unmatched_words() {
        let db = db();
        let index = InvertedIndex::build(&db);
        let (terms, unmatched) = base_data_terms(&index, "Sara Zurich nonsense", 3);
        assert_eq!(terms.len(), 2);
        assert_eq!(unmatched, vec!["nonsense"]);
        assert_eq!(terms[0][0].table, "individuals");
        assert_eq!(terms[1][0].column, "city");
    }

    #[test]
    fn candidate_network_sql_joins_hit_tables() {
        let db = db();
        let index = InvertedIndex::build(&db);
        let graph = SchemaJoinGraph::build(&db);
        let (terms, _) = base_data_terms(&index, "Sara Zurich", 3);
        let hits: Vec<DataHit> = terms.iter().map(|t| t[0].clone()).collect();
        let sql = candidate_network_sql(&graph, &hits).unwrap();
        assert!(sql.contains("individuals"));
        assert!(sql.contains("addresses"));
        assert!(sql.contains("= 'Sara'"));
        let rs = db.run_sql(&sql).unwrap();
        assert_eq!(rs.row_count(), 1);
    }
}
