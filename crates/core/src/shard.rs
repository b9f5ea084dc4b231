//! Shard bookkeeping for the partitioned lookup layer.
//!
//! The inverted index is partitioned by a stable hash of the owning table
//! (see [`soda_relation::ShardedInvertedIndex`]); this module carries the
//! cross-cutting accounting: per-shard probe counters the lookup step bumps
//! on every base-data probe, and the [`ShardStats`] snapshot the serving
//! layer surfaces through its metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-shard probe counters, shared by every pipeline run of one engine.
///
/// Lock-free: the lookup step runs on every worker thread of a service, so
/// the counters are relaxed atomics — totals are exact, momentary
/// cross-shard skew is acceptable for a metrics gauge.
#[derive(Debug)]
pub struct ShardProbes {
    counters: Vec<AtomicU64>,
}

impl ShardProbes {
    /// Creates counters for `shards` partitions (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Self {
            counters: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of shards tracked.
    pub fn shard_count(&self) -> usize {
        self.counters.len()
    }

    /// Records one probe of `shard` (out-of-range indexes are ignored).
    pub fn record(&self, shard: usize) {
        if let Some(counter) = self.counters.get(shard) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Probe count per shard, in partition order.
    pub fn counts(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total probes across all shards.
    pub fn total(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// One base-data probe dependency of a served query: the phrase the lookup
/// step probed and the globally-chosen probe token it scanned (`None` when
/// the phrase had no postings anywhere, which is itself a dependency — rows
/// ingested later could give it some).
///
/// Recorded by a [`ProbeRecorder`] and kept with cached result pages: after
/// a data-only snapshot swap, a page provably still answers correctly when
/// every recorded probe still selects the same token and none of the swap's
/// dirty shards holds candidates for it before or after the swap (the
/// serving layer's retention pass).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProbeDep {
    /// The probed phrase, as handed to the inverted index.
    pub phrase: String,
    /// The probe token the index selected (normalized), or `None` when the
    /// phrase could not be probed.
    pub token: Option<String>,
}

/// Records what one query's lookup actually consulted in the base data: the
/// (phrase, token) pair of every probe.
///
/// Shared by reference with the pipeline run it records; the dependency
/// list sits behind a mutex taken once per probed phrase.
#[derive(Debug, Default)]
pub struct ProbeRecorder {
    deps: Mutex<Vec<ProbeDep>>,
}

impl ProbeRecorder {
    /// A fresh recorder (nothing touched).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one phrase probe and its selected token (deduplicated by
    /// phrase — the same phrase always selects the same token within one
    /// snapshot).
    pub(crate) fn record_probe(&self, phrase: &str, token: Option<String>) {
        let mut deps = self.deps.lock().expect("probe deps poisoned");
        if !deps.iter().any(|d| d.phrase == phrase) {
            deps.push(ProbeDep {
                phrase: phrase.to_string(),
                token,
            });
        }
    }

    /// The recorded probe dependencies, once the recorded run is over.
    pub fn into_deps(self) -> Vec<ProbeDep> {
        self.deps.into_inner().expect("probe deps poisoned")
    }
}

/// Sizes and per-shard probe counts of one engine's lookup layer, exposed by
/// [`EngineSnapshot::shard_stats`](crate::EngineSnapshot::shard_stats) and
/// embedded in the serving layer's `ServiceMetrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of lookup-layer shards (the `shards` configuration knob).
    pub shards: usize,
    /// Inverted-index postings per shard (empty when disabled).
    pub index_postings: Vec<usize>,
    /// Side-log postings per shard — the streaming-ingestion overlay a
    /// compaction folds back into the frozen partition (empty when the
    /// inverted index is disabled, all zero when nothing was ingested).
    pub log_postings: Vec<usize>,
    /// Base-data probes served per shard since the engine was built.  Probe
    /// counters are shared across derived snapshot generations (a fold
    /// does not reset any shard's history).
    pub probes: Vec<u64>,
}

impl ShardStats {
    /// Total base-data probes across all shards.
    pub fn total_probes(&self) -> u64 {
        self.probes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_accumulate_per_shard() {
        let probes = ShardProbes::new(3);
        assert_eq!(probes.shard_count(), 3);
        probes.record(0);
        probes.record(2);
        probes.record(2);
        probes.record(99); // out of range: ignored
        assert_eq!(probes.counts(), vec![1, 0, 2]);
        assert_eq!(probes.total(), 3);
    }

    #[test]
    fn zero_shards_clamp_to_one() {
        let probes = ShardProbes::new(0);
        assert_eq!(probes.shard_count(), 1);
        probes.record(0);
        assert_eq!(probes.total(), 1);
    }

    #[test]
    fn stats_total_sums_shards() {
        let stats = ShardStats {
            shards: 2,
            index_postings: vec![100, 90],
            log_postings: vec![0, 8],
            probes: vec![3, 4],
        };
        assert_eq!(stats.total_probes(), 7);
    }

    #[test]
    fn recorder_deduplicates_phrases() {
        let rec = ProbeRecorder::new();
        rec.record_probe("zurich", Some("zurich".into()));
        rec.record_probe("zurich", Some("zurich".into()));
        rec.record_probe("nowhere", None);
        let deps = rec.into_deps();
        assert_eq!(deps.len(), 2);
        assert_eq!(deps[0].token.as_deref(), Some("zurich"));
        assert_eq!(deps[1].token, None);
    }
}
