//! The ingestor: applies a change feed to a database copy while routing the
//! indexed consequences into per-shard side logs.

use std::collections::BTreeSet;

use soda_relation::{shard_for_table, Database, Result, SideLog};

use crate::event::{ChangeFeed, RowEvent};

/// What one absorb did: sizes for metrics, touched shards for cache
/// invalidation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Events applied.
    pub events: usize,
    /// Rows carried by those events.
    pub rows: usize,
    /// Rows added by `Append` events (replacement rows excluded) — the
    /// copy-on-write tail growth this absorb caused.
    pub rows_appended: usize,
    /// Tables the feed mutated — the only tables the copy-on-write
    /// database derive actually copied.
    pub tables_copied: usize,
    /// Tables left untouched and therefore structurally shared (`Arc`
    /// bump, no row copy) with the base database.
    pub tables_shared: usize,
    /// Shards whose side logs changed, sorted and deduplicated.
    pub touched_shards: Vec<usize>,
    /// Tables touched, lower-cased, sorted and deduplicated.
    pub touched_tables: Vec<String>,
}

/// Feed-level sizes captured *before* an owned feed is consumed — the parts
/// of an [`IngestReport`] that describe the input rather than the outcome.
struct FeedSummary {
    events: usize,
    rows: usize,
    tables: Vec<String>,
}

impl FeedSummary {
    fn of(feed: &ChangeFeed) -> Self {
        Self {
            events: feed.len(),
            rows: feed.row_count(),
            tables: feed.tables(),
        }
    }
}

/// Routes row-level events into per-shard side logs by the same stable table
/// hash that partitions the frozen index — so every table's overlay lands in
/// the shard whose frozen postings it extends or supersedes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ingestor {
    shard_count: usize,
}

impl Ingestor {
    /// An ingestor for a `shard_count`-way partitioned index (clamped to at
    /// least 1).
    pub fn new(shard_count: usize) -> Self {
        Self {
            shard_count: shard_count.max(1),
        }
    }

    /// Number of shards events are routed across.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard that owns `table`'s postings (and therefore its side-log
    /// entries).
    pub fn shard_for(&self, table: &str) -> usize {
        shard_for_table(table, self.shard_count)
    }

    /// Applies every event of `feed` to `db` **and** mirrors the indexed
    /// consequences into `logs` (one [`SideLog`] per shard, which must match
    /// [`shard_count`](Self::shard_count)): appends index only the new tail
    /// rows, replacements mask the frozen postings and re-index from row
    /// zero, truncations mask.
    ///
    /// On any error (unknown table, arity or type violation) the feed is
    /// abandoned mid-way; callers are expected to pass *copies* of their
    /// published database and logs and to discard them on `Err`, so no
    /// partial state ever escapes — exactly how
    /// `soda_core::SnapshotHandle::absorb` drives it.
    pub fn absorb_into(
        &self,
        db: &mut Database,
        logs: &mut [SideLog],
        feed: &ChangeFeed,
    ) -> Result<IngestReport> {
        assert_eq!(logs.len(), self.shard_count, "one side log per index shard");
        self.run(db, Some(logs), feed.events().iter().cloned(), feed)
    }

    /// [`absorb_into`](Self::absorb_into) for an **owned** feed: appended
    /// and replacement rows move by value into the database — no per-row
    /// clone.  The hot ingestion path (`soda_core::SnapshotHandle`'s owned
    /// absorb) feeds this.
    pub fn absorb_feed(
        &self,
        db: &mut Database,
        logs: &mut [SideLog],
        feed: ChangeFeed,
    ) -> Result<IngestReport> {
        assert_eq!(logs.len(), self.shard_count, "one side log per index shard");
        let summary = FeedSummary::of(&feed);
        self.run_events(db, Some(logs), feed.into_events(), summary)
    }

    /// Applies every event of `feed` to `db` without maintaining side logs —
    /// the path for engines whose inverted index is disabled (the base data
    /// still has to move so SQL execution sees the new rows).
    pub fn apply_only(&self, db: &mut Database, feed: &ChangeFeed) -> Result<IngestReport> {
        self.run(db, None, feed.events().iter().cloned(), feed)
    }

    /// [`apply_only`](Self::apply_only) for an owned feed — rows move by
    /// value.
    pub fn apply_feed(&self, db: &mut Database, feed: ChangeFeed) -> Result<IngestReport> {
        let summary = FeedSummary::of(&feed);
        self.run_events(db, None, feed.into_events(), summary)
    }

    fn run<I: Iterator<Item = RowEvent>>(
        &self,
        db: &mut Database,
        logs: Option<&mut [SideLog]>,
        events: I,
        feed: &ChangeFeed,
    ) -> Result<IngestReport> {
        self.run_events(db, logs, events, FeedSummary::of(feed))
    }

    fn run_events<I: IntoIterator<Item = RowEvent>>(
        &self,
        db: &mut Database,
        mut logs: Option<&mut [SideLog]>,
        events: I,
        summary: FeedSummary,
    ) -> Result<IngestReport> {
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        let mut rows_appended = 0usize;
        for event in events {
            let shard = self.shard_for(event.table());
            match event {
                RowEvent::Append { table, row } => {
                    let start = db.table(&table)?.row_count();
                    db.insert(&table, row)?;
                    rows_appended += 1;
                    if let Some(logs) = logs.as_deref_mut() {
                        logs[shard].append_rows(db.table(&table)?, start);
                    }
                }
                RowEvent::Replace { table, rows } => {
                    let target = db.table_mut(&table)?;
                    target.truncate();
                    target.insert_all(rows)?;
                    if let Some(logs) = logs.as_deref_mut() {
                        logs[shard].replace_table(db.table(&table)?);
                    }
                }
                RowEvent::Truncate { table } => {
                    db.table_mut(&table)?.truncate();
                    if let Some(logs) = logs.as_deref_mut() {
                        logs[shard].truncate_table(&table);
                    }
                }
            }
            touched.insert(shard);
        }
        let tables_copied = summary.tables.len();
        Ok(IngestReport {
            events: summary.events,
            rows: summary.rows,
            rows_appended,
            tables_copied,
            tables_shared: db.table_count().saturating_sub(tables_copied),
            touched_shards: touched.into_iter().collect(),
            touched_tables: summary.tables,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_relation::{DataType, InvertedIndex, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("city")
                .column("id", DataType::Int)
                .column("name", DataType::Text)
                .build(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("org")
                .column("id", DataType::Int)
                .column("name", DataType::Text)
                .build(),
        )
        .unwrap();
        db.insert("city", vec![Value::Int(1), Value::from("Zurich")])
            .unwrap();
        db.insert("org", vec![Value::Int(1), Value::from("Credit Suisse")])
            .unwrap();
        db
    }

    #[test]
    fn absorb_routes_events_to_the_owning_shards() {
        let base = db();
        for shards in [1usize, 2, 4, 8] {
            let ingestor = Ingestor::new(shards);
            let mut next = base.clone();
            let mut logs = vec![SideLog::default(); shards];
            let feed = ChangeFeed::new()
                .append_row("city", vec![Value::Int(2), Value::from("Basel")])
                .replace("org", vec![vec![Value::Int(9), Value::from("Basler Bank")]]);
            let report = ingestor.absorb_into(&mut next, &mut logs, &feed).unwrap();
            assert_eq!(report.events, 2);
            assert_eq!(report.rows, 2);
            assert_eq!(
                report.touched_tables,
                vec!["city".to_string(), "org".to_string()]
            );
            let mut owners: Vec<usize> = ["city", "org"]
                .iter()
                .map(|t| ingestor.shard_for(t))
                .collect();
            owners.sort_unstable();
            owners.dedup();
            assert_eq!(report.touched_shards, owners);
            // Every log entry sits in the shard its table hashes to.
            for (i, log) in logs.iter().enumerate() {
                if log.posting_count() > 0 || log.has_masks() {
                    assert!(report.touched_shards.contains(&i));
                }
            }
            // The merged view answers like a full rebuild over the new db.
            let merged = InvertedIndex::build_sharded(&base, shards).with_side_logs(logs);
            let rebuilt = InvertedIndex::build_sharded(&next, shards);
            for phrase in ["Basel", "Basler Bank", "Zurich", "Credit Suisse"] {
                assert_eq!(
                    merged.lookup_phrase(phrase),
                    rebuilt.lookup_phrase(phrase),
                    "'{phrase}' diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn errors_abandon_the_feed() {
        let ingestor = Ingestor::new(2);
        let mut next = db();
        let mut logs = vec![SideLog::default(); 2];
        let feed = ChangeFeed::new()
            .append_row("city", vec![Value::Int(2), Value::from("Basel")])
            .append_row("no_such_table", vec![Value::Int(1)]);
        assert!(ingestor.absorb_into(&mut next, &mut logs, &feed).is_err());
        // Arity violations error too.
        let feed = ChangeFeed::new().append_row("city", vec![Value::Int(2)]);
        assert!(ingestor.apply_only(&mut db(), &feed).is_err());
    }

    #[test]
    fn apply_only_moves_the_base_data_without_logs() {
        let ingestor = Ingestor::new(4);
        let mut next = db();
        let feed = ChangeFeed::new().truncate("org");
        let report = ingestor.apply_only(&mut next, &feed).unwrap();
        assert_eq!(next.table("org").unwrap().row_count(), 0);
        assert_eq!(report.rows, 0);
        assert_eq!(report.touched_shards, vec![ingestor.shard_for("org")]);
    }
}
