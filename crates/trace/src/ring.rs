//! Bounded rings for operational history: the newest `capacity` entries
//! survive, older ones are dropped (and counted), memory stays fixed.
//!
//! The service keeps one [`BoundedLog<OpEvent>`] recording snapshot swaps,
//! ingests, compactions, checkpoints, recoveries and slow queries, and one
//! `BoundedLog` of kept traces per tenant (the span trees of slow and
//! head-sampled queries).

use std::collections::VecDeque;
use std::time::Duration;

/// One operational event: what happened, to which tenant, when (relative
/// to service start) and a short human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEvent {
    /// Monotone sequence number (1-based over the log's lifetime, dropped
    /// entries included).
    pub seq: u64,
    /// Offset from the owning service's start.
    pub at: Duration,
    /// Event kind (`reload`, `ingest`, `compaction`, `checkpoint`, …).
    pub kind: &'static str,
    /// Name of the tenant the event belongs to (the hosting service's
    /// default tenant for service-wide events like `recovery`).
    pub tenant: String,
    /// Short detail line (`"generation 3, 2 shards"`).
    pub detail: String,
}

/// A fixed-capacity ring: pushes never fail, the oldest entry makes room.
#[derive(Debug, Clone)]
pub struct BoundedLog<T> {
    entries: VecDeque<T>,
    capacity: usize,
    pushed: u64,
}

impl<T> BoundedLog<T> {
    /// A ring holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
            pushed: 0,
        }
    }

    /// Appends an entry, evicting the oldest when full.  Returns the entry's
    /// 1-based sequence number.
    pub fn push(&mut self, entry: T) -> u64 {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
        self.pushed += 1;
        self.pushed
    }

    /// Entries currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total entries ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Entries evicted to keep the ring bounded.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.entries.len() as u64
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T: Clone> BoundedLog<T> {
    /// A snapshot of the retained entries, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        self.entries.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut log: BoundedLog<u32> = BoundedLog::new(3);
        assert!(log.is_empty());
        for i in 0..5 {
            assert_eq!(log.push(i), u64::from(i) + 1);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.to_vec(), vec![2, 3, 4]);
        assert_eq!(log.pushed(), 5);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.capacity(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut log: BoundedLog<&str> = BoundedLog::new(0);
        log.push("a");
        log.push("b");
        assert_eq!(log.to_vec(), vec!["b"]);
    }

    #[test]
    fn op_events_carry_sequence_and_detail() {
        let mut log: BoundedLog<OpEvent> = BoundedLog::new(8);
        let seq = log.push(OpEvent {
            seq: 1,
            at: Duration::from_millis(5),
            kind: "ingest",
            tenant: "default".to_string(),
            detail: "generation 2, 1 shard".to_string(),
        });
        assert_eq!(seq, 1);
        let events = log.to_vec();
        assert_eq!(events[0].kind, "ingest");
        assert_eq!(events[0].tenant, "default");
        assert!(events[0].detail.contains("generation"));
    }
}
