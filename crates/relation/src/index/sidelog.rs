//! Per-shard side logs: value-level posting overlays for streaming ingestion.
//!
//! A frozen [`IndexShard`](super::inverted::IndexShard) is immutable by
//! design — a partition is built once, from the base data.  A
//! [`SideLog`] is how row-level change feeds reach it instead: it
//! indexes *only* the rows an ingestion event touched, in the same
//! value-level shape as the frozen shard (one entry per distinct
//! `(column, cell text)` with a row count), and the probe path merges both
//! deterministically
//! ([`IndexShard::probe_phrase_with_log`](super::inverted::IndexShard::probe_phrase_with_log)).
//!
//! Three event shapes map onto the log:
//!
//! * **Append** — the new rows are counted into the log's entries (the
//!   frozen partition counts the rows before them, so the two sides count
//!   disjoint rows by construction).
//! * **Replace** — the table is *masked*: its frozen entries are dead (the
//!   rows they counted were replaced), any earlier log entries for it are
//!   dropped, and the replacement rows are indexed from row 0.
//! * **Truncate** — masked, entries dropped, nothing indexed.
//!
//! Because a table's live rows are always exactly the unmasked frozen rows
//! plus the logged ones, the merged view reports, value for value, the row
//! counts of a shard freshly rebuilt over the updated database — which is
//! what keeps generated SQL byte-identical to a full rebuild (the invariant
//! the shard-invariance tests pin down).
//!
//! Table names are folded the way the catalog folds them (ASCII case) —
//! in the masks and in the shard routing — so a name the catalog resolves
//! is a name the log recognises.
//!
//! A log grows until someone folds it: `soda_core::EngineSnapshot::compacted`
//! merges it into a copy of its partition
//! ([`IndexShard::folded`](super::inverted::IndexShard::folded): masked
//! tables' entries dropped, logged rows added to their values' entries),
//! after which the log is empty again.  The merge reads the log, never the
//! tables.

use super::postings::ValuePostings;
use crate::catalog::fold_table_name;
use crate::table::Table;

/// A value-level posting overlay over one frozen index partition.
///
/// Not internally synchronised: the ingestion layer writes the next
/// generation's logs on the writer thread, copy-on-write through
/// [`ShardedInvertedIndex::log_mut`](super::inverted::ShardedInvertedIndex::log_mut),
/// and publishes them immutably behind `Arc`s.
#[derive(Debug, Default, Clone)]
pub struct SideLog {
    /// Entries of the ingested rows.
    pub(super) values: ValuePostings,
    /// Folded names of tables whose *frozen* entries are superseded
    /// (replaced or truncated since the partition was built), sorted.
    masked: Vec<String>,
}

impl SideLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the log carries neither postings nor masks — merging it is
    /// a no-op and compaction has nothing to fold.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty() && self.masked.is_empty()
    }

    /// Number of row-level postings in the log: one per logged row and
    /// distinct token of its cell.
    pub fn posting_count(&self) -> usize {
        self.values.posting_count()
    }

    /// Folded names of the tables whose frozen entries this log supersedes.
    pub(crate) fn masked_tables(&self) -> &[String] {
        &self.masked
    }

    /// True when `table`'s frozen entries are superseded by this log.
    pub fn masks(&self, table: &str) -> bool {
        self.masked.iter().any(|m| m.eq_ignore_ascii_case(table))
    }

    /// Indexes the rows of `table` from `start_row` to the end (an append
    /// event: the rows before `start_row` are already covered, either by the
    /// frozen partition or by earlier log entries).
    pub fn append_rows(&mut self, table: &Table, start_row: usize) {
        self.values.index_rows(table, start_row);
    }

    /// Records a wholesale replacement of `table`: masks its frozen
    /// entries, drops any earlier log entries for it and indexes the
    /// replacement rows from row 0.
    pub fn replace_table(&mut self, table: &Table) {
        self.truncate_table(table.name());
        self.values.index_rows(table, 0);
    }

    /// Records a truncation of the table named `name`: masks its frozen
    /// entries and drops any earlier log entries for it.
    pub fn truncate_table(&mut self, name: &str) {
        self.values.remove_table(name);
        if !self.masks(name) {
            self.masked.push(fold_table_name(name).into_owned());
            self.masked.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::schema::TableSchema;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("city")
                .column("id", DataType::Int)
                .column("name", DataType::Text)
                .build(),
        )
        .unwrap();
        db.insert("city", vec![Value::Int(1), Value::from("Zurich")])
            .unwrap();
        db.insert("city", vec![Value::Int(2), Value::from("Geneva")])
            .unwrap();
        db
    }

    #[test]
    fn append_indexes_only_the_new_rows() {
        let mut db = db();
        let mut log = SideLog::new();
        db.insert("city", vec![Value::Int(3), Value::from("Basel Stadt")])
            .unwrap();
        log.append_rows(db.table("city").unwrap(), 2);
        assert!(!log.is_empty());
        assert_eq!(log.posting_count(), 2); // "basel", "stadt"
        assert_eq!(log.values.live_rows("basel", &[]), 1);
        assert_eq!(log.values.live_rows("zurich", &[]), 0);
        assert!(log.masked_tables().is_empty());
    }

    #[test]
    fn a_later_append_of_a_logged_value_joins_its_entry() {
        let mut db = db();
        let mut log = SideLog::new();
        for id in 3..6 {
            let start = db.table("city").unwrap().row_count();
            db.insert("city", vec![Value::Int(id), Value::from("Basel Stadt")])
                .unwrap();
            log.append_rows(db.table("city").unwrap(), start);
        }
        assert_eq!(log.posting_count(), 6);
        assert_eq!(log.values.candidates("basel"), 1, "one entry, three rows");
        assert_eq!(log.values.live_rows("stadt", &[]), 3);
    }

    #[test]
    fn replace_masks_and_reindexes_from_zero() {
        let mut db = db();
        let mut log = SideLog::new();
        // Earlier append…
        db.insert("city", vec![Value::Int(3), Value::from("Basel")])
            .unwrap();
        log.append_rows(db.table("city").unwrap(), 2);
        // …then a wholesale replacement drops it and masks the table.
        db.table_mut("city").unwrap().truncate();
        db.insert("city", vec![Value::Int(9), Value::from("Chur")])
            .unwrap();
        log.replace_table(db.table("city").unwrap());
        assert!(log.masks("city"));
        assert!(log.masks("CITY"));
        assert_eq!(log.values.candidates("basel"), 0);
        assert_eq!(log.values.live_rows("chur", &[]), 1);
        assert_eq!(log.posting_count(), 1);
    }

    #[test]
    fn truncate_masks_without_indexing() {
        let mut log = SideLog::new();
        log.truncate_table("City");
        assert!(log.masks("city"));
        assert_eq!(log.posting_count(), 0);
        assert!(!log.is_empty(), "a mask alone still changes probe results");
    }

    #[test]
    fn dropping_a_table_without_text_columns_leaves_its_neighbour_alone() {
        let mut db = db();
        db.create_table(
            TableSchema::builder("facts")
                .column("id", DataType::Int)
                .build(),
        )
        .unwrap();
        db.insert("facts", vec![Value::Int(1)]).unwrap();
        let mut log = SideLog::new();
        // `facts` registers no column; `city`, logged next, must not be
        // mistaken for it.
        log.append_rows(db.table("facts").unwrap(), 0);
        log.append_rows(db.table("city").unwrap(), 0);
        log.truncate_table("facts");
        assert_eq!(log.values.live_rows("zurich", &[]), 1);
        log.replace_table(db.table("facts").unwrap());
        assert_eq!(log.values.live_rows("zurich", &[]), 1);
        assert_eq!(log.posting_count(), 2);
    }

    #[test]
    fn cells_dedupe_repeated_tokens() {
        let mut db = db();
        db.insert("city", vec![Value::Int(3), Value::from("gold gold gold")])
            .unwrap();
        let mut log = SideLog::new();
        log.append_rows(db.table("city").unwrap(), 2);
        assert_eq!(log.posting_count(), 1);
    }
}
