//! The database catalog: a named collection of in-memory tables plus the
//! convenience entry point [`Database::run_sql`].
//!
//! Tables sit behind per-table [`Arc`]s, so cloning a database is one `Arc`
//! bump per table — no row moves.  Mutation goes through
//! [`Database::table_mut`], which copy-on-writes exactly the touched table
//! (`Arc::make_mut`); combined with [`Table`]'s frozen row segments, the
//! cost of deriving a next-generation database from a published one is
//! proportional to the delta, not the warehouse.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{RelationError, Result};
use crate::exec::{execute, ResultSet};
use crate::schema::TableSchema;
use crate::sql::parser::parse_select;
use crate::table::{Row, Table};

/// The one fold table names are compared under, wherever they are: ASCII
/// case, the way the catalog keys its tables.  Borrows a name that is
/// already folded.
pub fn fold_table_name(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// An in-memory database: the catalog plus all table contents, structurally
/// shared between clones until a table is mutated.  Both the folded names
/// and the tables are shared, so a clone copies no name and no row.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: BTreeMap<Arc<str>, Arc<Table>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        let key: Arc<str> = fold_table_name(&schema.name).into();
        if self.tables.contains_key(&key) {
            return Err(RelationError::DuplicateTable(schema.name));
        }
        self.tables.insert(key, Arc::new(Table::new(schema)));
        Ok(())
    }

    /// Returns a table by name (case-insensitive).
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&*fold_table_name(name))
            .map(Arc::as_ref)
            .ok_or_else(|| RelationError::UnknownTable(name.to_string()))
    }

    /// Returns the shared handle of a table by name — what snapshot layers
    /// compare (`Arc::ptr_eq`) to prove an ingest left a table untouched.
    pub fn table_arc(&self, name: &str) -> Result<&Arc<Table>> {
        self.tables
            .get(&*fold_table_name(name))
            .ok_or_else(|| RelationError::UnknownTable(name.to_string()))
    }

    /// Returns a mutable table by name, copy-on-writing it first when the
    /// table is shared with another database clone.  The copy is cheap:
    /// frozen row segments move by `Arc` bump, only the mutable tail's rows
    /// are duplicated.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&*fold_table_name(name))
            .map(Arc::make_mut)
            .ok_or_else(|| RelationError::UnknownTable(name.to_string()))
    }

    /// True if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&*fold_table_name(name))
    }

    /// Inserts a row into a table.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<()> {
        self.table_mut(table)?.insert(row)
    }

    /// Inserts many rows into a table.
    pub fn insert_all<I: IntoIterator<Item = Row>>(
        &mut self,
        table: &str,
        rows: I,
    ) -> Result<usize> {
        self.table_mut(table)?.insert_all(rows)
    }

    /// Names of all tables in deterministic (sorted) order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.values().map(|t| t.name()).collect()
    }

    /// All tables in deterministic order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(Arc::as_ref)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.row_count()).sum()
    }

    /// Number of tables whose handle is shared (`Arc::ptr_eq`) with
    /// `other` — how much of this database a derive left untouched.
    pub fn tables_shared_with(&self, other: &Database) -> usize {
        self.tables
            .iter()
            .filter(|(name, table)| {
                other
                    .tables
                    .get(*name)
                    .is_some_and(|theirs| Arc::ptr_eq(table, theirs))
            })
            .count()
    }

    /// Parses and executes a `SELECT` statement.
    pub fn run_sql(&self, sql: &str) -> Result<ResultSet> {
        let stmt = parse_select(sql)?;
        execute(self, &stmt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("parties")
                .column("id", DataType::Int)
                .column("party_type", DataType::Text)
                .primary_key("id")
                .build(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("individuals")
                .column("id", DataType::Int)
                .column("firstname", DataType::Text)
                .column("lastname", DataType::Text)
                .primary_key("id")
                .foreign_key("id", "parties", "id")
                .build(),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_and_lookup_tables() {
        let db = db();
        assert_eq!(db.table_count(), 2);
        assert!(db.has_table("PARTIES"));
        assert!(!db.has_table("missing"));
        assert_eq!(db.table("Individuals").unwrap().name(), "individuals");
        assert!(matches!(
            db.table("nope"),
            Err(RelationError::UnknownTable(_))
        ));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let err = db
            .create_table(
                TableSchema::builder("parties")
                    .column("x", DataType::Int)
                    .build(),
            )
            .unwrap_err();
        assert!(matches!(err, RelationError::DuplicateTable(_)));
    }

    #[test]
    fn insert_and_counts() {
        let mut db = db();
        db.insert("parties", vec![Value::Int(1), Value::from("IND")])
            .unwrap();
        db.insert("parties", vec![Value::Int(2), Value::from("ORG")])
            .unwrap();
        db.insert(
            "individuals",
            vec![Value::Int(1), Value::from("Sara"), Value::from("Guttinger")],
        )
        .unwrap();
        assert_eq!(db.total_rows(), 3);
        let columns: usize = db.tables.values().map(|t| t.schema().arity()).sum();
        assert_eq!(columns, 5);
        assert_eq!(db.table_names(), vec!["individuals", "parties"]);
    }

    #[test]
    fn run_sql_end_to_end() {
        let mut db = db();
        db.insert("parties", vec![Value::Int(1), Value::from("IND")])
            .unwrap();
        db.insert(
            "individuals",
            vec![Value::Int(1), Value::from("Sara"), Value::from("Guttinger")],
        )
        .unwrap();
        let rs = db
            .run_sql(
                "SELECT parties.id, individuals.lastname FROM parties, individuals \
                 WHERE parties.id = individuals.id AND individuals.firstname = 'Sara'",
            )
            .unwrap();
        assert_eq!(rs.row_count(), 1);
        assert_eq!(rs.row(0)[1], Value::from("Guttinger"));
    }

    #[test]
    fn clone_shares_every_table_until_one_is_mutated() {
        let mut base = db();
        base.insert("parties", vec![Value::Int(1), Value::from("IND")])
            .unwrap();
        let mut next = base.clone();
        assert_eq!(next.tables_shared_with(&base), 2);
        assert!(Arc::ptr_eq(
            base.table_arc("parties").unwrap(),
            next.table_arc("parties").unwrap()
        ));

        // Copy-on-write: inserting into the clone detaches only `parties`.
        next.insert("parties", vec![Value::Int(2), Value::from("ORG")])
            .unwrap();
        assert_eq!(next.tables_shared_with(&base), 1);
        assert!(!Arc::ptr_eq(
            base.table_arc("parties").unwrap(),
            next.table_arc("parties").unwrap()
        ));
        assert!(Arc::ptr_eq(
            base.table_arc("individuals").unwrap(),
            next.table_arc("individuals").unwrap()
        ));
        // The base is unchanged; the clone sees both rows.
        assert_eq!(base.table("parties").unwrap().row_count(), 1);
        assert_eq!(next.table("parties").unwrap().row_count(), 2);
    }

    #[test]
    fn table_mut_on_an_unshared_table_does_not_copy() {
        let mut base = db();
        base.insert("parties", vec![Value::Int(1), Value::from("IND")])
            .unwrap();
        let before = Arc::as_ptr(base.table_arc("parties").unwrap());
        base.table_mut("parties").unwrap().truncate();
        // No other owner — `Arc::make_mut` mutated in place.
        assert_eq!(before, Arc::as_ptr(base.table_arc("parties").unwrap()));
    }
}
