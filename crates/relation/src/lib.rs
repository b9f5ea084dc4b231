//! # soda-relation
//!
//! An in-memory relational engine used as the execution substrate for the SODA
//! reproduction.  The paper executes the SQL generated by SODA (and the
//! hand-written gold-standard SQL) on a commercial warehouse; this crate plays
//! that role so that precision and recall can be computed from actual result
//! tuples.
//!
//! The engine provides:
//!
//! * typed [`Value`]s and [`TableSchema`]s with primary/foreign keys,
//! * a [`Database`] catalog of in-memory tables,
//! * a SQL subset (AST, lexer, parser, printer) sufficient for the paper's
//!   queries: `SELECT [DISTINCT] … FROM t1, t2, … WHERE … GROUP BY … ORDER BY
//!   … LIMIT n` with comparison predicates, `LIKE`, `AND`/`OR`, aggregates
//!   (`count`, `sum`, `avg`, `min`, `max`),
//! * an executor with predicate push-down that reads one lazily built
//!   [`ColumnIndex`] per column (its rows sorted by value and a code per
//!   distinct value, dense integers coded by value; at most 12 bytes per
//!   cell) four ways: equality and range filters, equi-join lookups, and
//!   GROUP BY and DISTINCT by code,
//! * an inverted index over text columns (the paper's base-data index),
//! * a compact binary codec ([`Encoder`], [`Decoder`]) for values and
//!   rows — the byte-exact encoding the durability layer (`soda-journal`,
//!   the service's page-cache keys) writes to disk.
//!
//! ```
//! use soda_relation::{Database, TableSchema, DataType, Value};
//!
//! let mut db = Database::new();
//! let schema = TableSchema::builder("parties")
//!     .column("id", DataType::Int)
//!     .column("party_type", DataType::Text)
//!     .primary_key("id")
//!     .build();
//! db.create_table(schema).unwrap();
//! db.insert("parties", vec![Value::from(1), Value::from("individual")]).unwrap();
//!
//! let result = db.run_sql("SELECT * FROM parties WHERE id = 1").unwrap();
//! assert_eq!(result.row_count(), 1);
//! ```

#![warn(unreachable_pub)]

mod catalog;
mod codec;
mod error;
pub mod exec;
mod expr;
mod hash;
pub mod index;
mod schema;
mod sql;
mod table;
mod value;

pub use catalog::{fold_table_name, Database};
pub use codec::{CodecError, CodecResult, Decoder, Encoder};
pub use error::{RelationError, Result};
pub use exec::{execute, ResultRow, ResultSet};
pub use expr::{AggFunc, CompareOp, Expr};
pub use hash::fnv1a;
pub use index::inverted::{
    merge_hits, shard_for_table, IndexShard, InvertedIndex, PhraseHit, PhraseProbe,
    ShardedInvertedIndex,
};
pub use index::sidelog::SideLog;
pub use index::tokenizer::tokenize;
pub use schema::{ColumnDef, ForeignKeyDef, TableSchema};
pub use sql::ast::{OrderByItem, SelectItem, SelectStatement, TableRef};
pub use sql::parser::parse_select;
pub use sql::printer::print_select;
pub use table::{ColumnIndex, Row, Rows, RowsIter, Table};
pub use value::{DataType, Date, Value};
