//! Base-data indexing: tokenizer, inverted index over text columns and the
//! per-shard side logs streaming ingestion overlays on top of it.

pub mod inverted;
mod postings;
pub mod sidelog;
pub mod tokenizer;
