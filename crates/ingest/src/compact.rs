//! When to fold a side log back into a rebuilt index partition.
//!
//! A side log keeps ingestion cheap but taxes every probe that lands on its
//! shard (the overlay candidates are scanned on top of the frozen ones, and
//! masked tables force per-posting filtering).  Once a log outgrows its
//! budget, folding it — rebuilding just that partition from the current base
//! data, which already contains the logged rows — restores the frozen fast
//! path.  The fold is a per-shard hot swap (`soda_core::SnapshotHandle::compact`
//! over `ShardedInvertedIndex::with_rebuilt_shards`): it rebuilds only the
//! folded partitions and publishes a new generation, so the
//! fingerprint-scoped cache and coalescing logic invalidate for free.

/// Size/row budget past which a shard's side log is due for compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// A log holding more postings than this is due.
    pub max_log_postings: usize,
    /// A log holding more rows than this is due.
    pub max_log_rows: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            max_log_postings: 4096,
            max_log_rows: 1024,
        }
    }
}

impl CompactionPolicy {
    /// A policy that compacts after any single ingested row — useful in
    /// tests and for workloads where probes vastly outnumber ingests.
    pub fn eager() -> Self {
        Self {
            max_log_postings: 0,
            max_log_rows: 0,
        }
    }

    /// True when a log of `postings` postings / `rows` rows / `masks`
    /// masked tables exceeds the budget.  *Any* mask is due regardless of
    /// the size thresholds: a mask carries no postings or rows of its own
    /// (a `Truncate`, or a `Replace` with few rows) yet taxes every probe
    /// of its shard with per-posting filtering of the frozen candidates —
    /// only folding restores the fast path.
    pub fn is_due(&self, postings: usize, rows: usize, masks: usize) -> bool {
        masks > 0 || postings > self.max_log_postings || rows > self.max_log_rows
    }

    /// The shards whose logs exceed the budget, given the per-shard
    /// posting / row / mask gauges (as reported by
    /// `ShardStats::{log_postings, log_rows, log_masks}` or
    /// `ShardedInvertedIndex::{side_log_postings, side_log_rows,
    /// side_log_masks}`).
    pub fn due(
        &self,
        log_postings: &[usize],
        log_rows: &[usize],
        log_masks: &[usize],
    ) -> Vec<usize> {
        log_postings
            .iter()
            .enumerate()
            .filter(|&(i, &postings)| {
                self.is_due(
                    postings,
                    log_rows.get(i).copied().unwrap_or(0),
                    log_masks.get(i).copied().unwrap_or(0),
                )
            })
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_names_only_overgrown_shards() {
        let policy = CompactionPolicy {
            max_log_postings: 10,
            max_log_rows: 2,
        };
        let due = policy.due(&[0, 11, 5, 3], &[0, 0, 3, 2], &[0, 0, 0, 0]);
        assert_eq!(due, vec![1, 2]);
        assert!(policy.due(&[10, 0], &[2, 0], &[0, 0]).is_empty());
    }

    #[test]
    fn any_mask_is_due_regardless_of_size() {
        let policy = CompactionPolicy::default();
        assert!(policy.is_due(0, 0, 1));
        // A truncate-only log: no postings, no rows, one mask.
        assert_eq!(policy.due(&[0, 0], &[0, 0], &[0, 1]), vec![1]);
    }

    #[test]
    fn eager_fires_on_anything() {
        let policy = CompactionPolicy::eager();
        assert!(policy.is_due(1, 0, 0));
        assert!(policy.is_due(0, 1, 0));
        assert!(!policy.is_due(0, 0, 0));
    }

    #[test]
    fn missing_gauges_default_to_zero() {
        let policy = CompactionPolicy {
            max_log_postings: 0,
            max_log_rows: 0,
        };
        assert_eq!(policy.due(&[1, 1], &[], &[]), vec![0, 1]);
    }
}
