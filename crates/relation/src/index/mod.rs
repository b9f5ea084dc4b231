//! Base-data indexing: tokenizer, inverted index over text columns and the
//! per-shard side logs streaming ingestion overlays on top of it.

pub(crate) mod inverted;
mod postings;
pub(crate) mod sidelog;
pub mod tokenizer;
