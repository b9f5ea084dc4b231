//! The one replay loop: applies a change feed to a database copy while
//! recording the indexed consequences in the index's side logs.

use soda_relation::{Database, Result, ShardedInvertedIndex};

use crate::event::{ChangeFeed, RowEvent};

/// Applies every event of `feed` to `db`, in order, and — when `index` is
/// given — mirrors the indexed consequences into its side logs: appends
/// index only the new tail rows, replacements mask the frozen postings and
/// re-index from row zero, truncations mask.  Each event is written through
/// [`ShardedInvertedIndex::log_mut`], which picks the log of the partition
/// owning the event's table and copies it on first write, so a clone of a
/// published index copies exactly the logs the feed writes.  `None` is for
/// engines whose inverted index is disabled and for reference replays: the
/// base data still has to move so SQL execution sees the new rows.
///
/// The feed is taken by value — appended and replacement rows move into
/// the database, no per-row clone; a caller that keeps its feed clones it
/// at the call.
///
/// On any error (unknown table, arity or type violation) the feed is
/// abandoned mid-way; callers are expected to pass *copies* of their
/// published database and index and to discard them on `Err`, so no
/// partial state ever escapes — exactly how
/// `soda_core::EngineSnapshot::absorbed` drives it.
pub fn absorb(
    db: &mut Database,
    mut index: Option<&mut ShardedInvertedIndex>,
    feed: ChangeFeed,
) -> Result<()> {
    for event in feed.into_events() {
        let log = index
            .as_deref_mut()
            .map(|index| index.log_mut(event.table()));
        match event {
            RowEvent::Append { table, row } => {
                let start = db.table(&table)?.row_count();
                db.insert(&table, row)?;
                if let Some(log) = log {
                    log.append_rows(db.table(&table)?, start);
                }
            }
            RowEvent::Replace { table, rows } => {
                let target = db.table_mut(&table)?;
                target.truncate();
                target.insert_all(rows)?;
                if let Some(log) = log {
                    log.replace_table(db.table(&table)?);
                }
            }
            RowEvent::Truncate { table } => {
                db.table_mut(&table)?.truncate();
                if let Some(log) = log {
                    log.truncate_table(&table);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_relation::{DataType, InvertedIndex, TableSchema, Value};
    use std::sync::Arc;

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
    fn absorb_copies_only_the_logs_it_writes() {
        let base = db();
        for shards in [1usize, 2, 4, 8] {
            let mut next = base.clone();
            let published = InvertedIndex::build_sharded(&base, shards);
            let mut merged = published.clone();
            let feed = ChangeFeed::new()
                .append_row("city", vec![Value::Int(2), Value::from("Basel")])
                .replace("org", vec![vec![Value::Int(9), Value::from("Basler Bank")]]);
            absorb(&mut next, Some(&mut merged), feed).unwrap();
            // A log the feed wrote is a copy holding its entries; every
            // other log is still the published one.
            for (old, new) in published.side_logs().iter().zip(merged.side_logs()) {
                assert_eq!(Arc::ptr_eq(old, new), new.is_empty(), "at {shards} shards");
            }
            assert!(merged.has_side_logs() && !published.has_side_logs());
            // The merged view answers like a full rebuild over the new db.
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
        let city = |id: Value, name: &str| vec![id, Value::from(name)];
        let bad_feeds = [
            // An unknown table, behind an event that is valid on its own.
            ChangeFeed::new()
                .append_row("city", city(Value::Int(2), "Basel"))
                .append_row("no_such_table", vec![Value::Int(1)]),
            ChangeFeed::new()
                .replace("city", vec![city(Value::Int(2), "Basel")])
                .replace("no_such_dimension", vec![city(Value::Int(3), "Chur")]),
            ChangeFeed::new().truncate("no_such_table"),
            // Arity: one good row, one short row — the feed as a whole fails.
            ChangeFeed::new().append_rows(
                "city",
                vec![city(Value::Int(2), "Basel"), vec![Value::Int(3)]],
            ),
            ChangeFeed::new().replace("city", vec![vec![Value::Int(3)]]),
            // The right arity, the wrong type.
            ChangeFeed::new().append_row("city", city(Value::from("not an id"), "Basel")),
            ChangeFeed::new().replace("city", vec![city(Value::from("not an id"), "Basel")]),
        ];
        for feed in bad_feeds {
            let mut index = InvertedIndex::build_sharded(&db(), 2);
            let logged = absorb(&mut db(), Some(&mut index), feed.clone());
            assert!(logged.is_err(), "{feed:?}");
            assert!(absorb(&mut db(), None, feed).is_err());
        }
    }

    #[test]
    fn absorb_without_logs_moves_only_the_base_data() {
        let mut next = db();
        let feed = ChangeFeed::new().truncate("org");
        absorb(&mut next, None, feed).unwrap();
        assert_eq!(next.table("org").unwrap().row_count(), 0);
        assert_eq!(next.table("city").unwrap().row_count(), 1);
    }
}
