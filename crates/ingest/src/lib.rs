//! # soda-ingest
//!
//! The change feed: how base data changes under a served snapshot.
//!
//! The paper's warehouse (§6) changes continuously — nightly feeds append to
//! transactional tables, dimensions get restated — while the engine's
//! indexes are immutable by design.  Every such change reaches a served
//! snapshot the same way, as a row-level feed whose cost is that of the
//! delta, not of the partitions it lands in:
//!
//! * [`RowEvent`] / [`ChangeFeed`] — a row-level change feed: appends,
//!   wholesale replacements and truncations, per table, in order.
//! * [`absorb`] — applies the events to a copy of the base data and
//!   writes their indexed consequences into the side logs of a copy of the
//!   index ([`SideLog`](soda_relation::SideLog)s: append-only posting
//!   overlays with the same canonical posting shape as the frozen
//!   [`IndexShard`](soda_relation::IndexShard)s).  The index decides which
//!   partition's log an event lands in and copies that log on first write
//!   ([`ShardedInvertedIndex::log_mut`](soda_relation::ShardedInvertedIndex::log_mut));
//!   every log the feed does not write stays shared.  Queries merge frozen
//!   shard and side log on the fly — generated SQL stays byte-identical to
//!   a fully rebuilt snapshot at every shard count.
//!
//! Publishing is the hot-swap layer's: `soda_core::EngineSnapshot::{absorbed,
//! compacted}` derive log-bearing and log-folded successor generations, and
//! `soda_service::TenantAdmin::{ingest_owned, compact}` publish them,
//! journaled, under live traffic.  A log is merged into a copy of its
//! partition only when the operator calls `compact`.
//!
//! ```
//! use soda_ingest::{absorb, ChangeFeed};
//! use soda_relation::{ShardedInvertedIndex, Value};
//!
//! let mut db = soda_warehouse_doctest_stub::minibank();
//! # mod soda_warehouse_doctest_stub {
//! #     use soda_relation::{Database, DataType, TableSchema, Value};
//! #     pub fn minibank() -> Database {
//! #         let mut db = Database::new();
//! #         db.create_table(
//! #             TableSchema::builder("addresses")
//! #                 .column("id", DataType::Int)
//! #                 .column("city", DataType::Text)
//! #                 .build(),
//! #         )
//! #         .unwrap();
//! #         db.insert("addresses", vec![Value::Int(1), Value::from("Zurich")]).unwrap();
//! #         db
//! #     }
//! # }
//! let feed = ChangeFeed::new().append_row(
//!     "addresses",
//!     vec![Value::Int(2), Value::from("Basel")],
//! );
//! let published = ShardedInvertedIndex::build_sharded(&db, 4);
//! let mut index = published.clone();
//! absorb(&mut db, Some(&mut index), feed).unwrap();
//! assert_eq!(db.table("addresses").unwrap().row_count(), 2);
//! // The new row is served from a side log; the published index is untouched.
//! assert_eq!(index.lookup_phrase("Basel").len(), 1);
//! assert!(published.lookup_phrase("Basel").is_empty());
//! ```

#![warn(unreachable_pub)]

mod absorb;
mod event;

pub use absorb::absorb;
pub use event::{ChangeFeed, RowEvent};
