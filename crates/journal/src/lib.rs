//! # soda-journal
//!
//! Crash-safe durability for the SODA serving layer.  The engine built by
//! `soda-core` is immutable-in-memory; the serving layer (`soda-service`)
//! absorbs streaming [`ChangeFeed`](soda_ingest::ChangeFeed)s into it at
//! runtime — and before this crate, a restart silently forgot every one of
//! them.  This crate is the write-ahead half of the fix:
//!
//! * [`FeedJournal`] — an append-only log of change feeds.  Every record is
//!   a length-prefixed, CRC-32-checksummed frame; the file header binds the
//!   log to one engine-configuration fingerprint.  On open, a torn tail
//!   (crash mid-append) is detected and truncated in place, so an
//!   acknowledged ingest either replays fully or was never acknowledged.
//! * [`Checkpoint`] — a fold of everything the journal recorded (full
//!   content of every touched table + the snapshot generation stamps).
//!   [`FeedJournal::write_checkpoint`] atomically replaces the log with one
//!   checkpoint record, so replay time is bounded by data size, not by
//!   ingest history.
//! * [`FsyncPolicy`] — whether appends fsync ([`FsyncPolicy::Always`], the
//!   default and the crash-safety guarantee) or leave flushing to the OS.
//! * [`frame`] — the raw framed-file primitives ([`frame::FrameFile`],
//!   [`frame::write_frame_file`], [`frame::read_frame_file`]), reused by
//!   `soda-service` for its persistent page-cache file.
//!
//! Everything is `std`-only and byte-exact: feeds round-trip through the
//! compact binary codec of [`soda_relation::Encoder`] and
//! [`soda_relation::Decoder`], floats included, so a
//! recovered engine answers queries byte-identically to one that never
//! crashed.
//!
//! ```
//! use soda_ingest::ChangeFeed;
//! use soda_journal::{journal_path, FeedJournal, FsyncPolicy};
//! use soda_relation::Value;
//!
//! let dir = std::env::temp_dir().join(format!("soda-jnl-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = journal_path(&dir);
//!
//! // First boot: journal is created empty; ingests are logged.  The `0` is
//! // the tenant fingerprint — `0` for the default tenant.
//! let (mut journal, replay) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
//! assert!(replay.created);
//! journal.append_feed(&ChangeFeed::new().append_row("trades", vec![Value::Int(7)])).unwrap();
//! drop(journal);
//!
//! // Next boot: the feed replays.
//! let (_journal, replay) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
//! let (checkpoint, feeds) = replay.into_plan();
//! assert!(checkpoint.is_none());
//! assert_eq!(feeds.len(), 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(unreachable_pub)]

mod crc32;
pub mod frame;
mod journal;
#[cfg(test)]
mod testutil;

pub use crc32::crc32;
pub use journal::{
    journal_path, tenant_journal_dir, Checkpoint, FeedJournal, FsyncPolicy, JournalError,
    JournalRecord, Replay, JOURNAL_MAGIC,
};
