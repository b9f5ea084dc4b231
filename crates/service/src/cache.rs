//! A small least-recently-used cache with hit / miss / eviction accounting.
//!
//! SODA's interpretation pipeline recomputes everything per query; business
//! users, however, repeat queries constantly (dashboards, back buttons,
//! colleagues pasting the same question).  The service keys this cache by the
//! *canonical* form of the query ([`soda_core::normalize_query`]) plus the
//! engine-configuration fingerprint, so equivalent spellings share one slot
//! and differently-configured engines never do.
//!
//! Implementation: `std` only — a `HashMap` for storage, each slot stamped
//! with a monotonically increasing recency stamp, plus a `BTreeMap` filing
//! every key under a stamp for O(log n) eviction order.  A hit is one store:
//! it bumps the slot's stamp and leaves the filing stale.  Eviction repairs
//! it — the oldest filing whose stamp is no longer its slot's is re-filed
//! under the current one, the first one still current is the exact
//! least-recently-used entry — so each hit costs at most one re-filing, paid
//! by a later miss.  Not internally synchronised; the service wraps it in a
//! `Mutex`, which is why a lookup hands out a reference: what to copy, and
//! where, is the caller's decision.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

/// Counters describing cache effectiveness, embedded in
/// [`ServiceMetrics`](crate::metrics::ServiceMetrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries removed to make room for newer ones.
    pub evictions: u64,
    /// Entries proactively dropped — because their snapshot generation was
    /// swapped out or their tenant's pages were cleared (see
    /// [`LruCache::rekey`]); distinct from capacity evictions.
    pub purged: u64,
    /// Entries carried *across* a data-only snapshot swap because their
    /// queries provably never consulted a rebuilt or ingested partition
    /// (see [`LruCache::rekey`]) — recomputations the generation-aware
    /// retention saved.
    pub retained: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum number of resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    stamp: u64,
}

/// A bounded LRU map.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, Slot<V>>,
    /// Every resident key, filed exactly once under a stamp no newer than
    /// its slot's.
    recency: BTreeMap<u64, K>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    purged: u64,
    retained: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            purged: 0,
            retained: 0,
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `key`, marking the entry most-recently-used on a hit and
    /// counting the outcome either way.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let stamp = self.next_stamp();
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.stamp = stamp;
                self.hits += 1;
                Some(&slot.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used one
    /// when the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        let stamp = self.next_stamp();
        if let Some(slot) = self.map.get_mut(&key) {
            slot.value = value;
            slot.stamp = stamp;
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_oldest();
        }
        self.map.insert(key.clone(), Slot { value, stamp });
        self.recency.insert(stamp, key);
    }

    /// Evicts the least-recently-used entry.  Filings are never newer than
    /// their slots' stamps, so the oldest filing that is still current is
    /// older than every other slot; a stale one met on the way is re-filed
    /// under its slot's stamp.
    fn evict_oldest(&mut self) {
        while let Some((filed, key)) = self.recency.pop_first() {
            match self.map.get(&key) {
                Some(slot) if slot.stamp != filed => {
                    self.recency.insert(slot.stamp, key);
                }
                _ => {
                    self.map.remove(&key);
                    self.evictions += 1;
                    return;
                }
            }
        }
    }

    /// Re-keys or drops every entry in one pass — the one removal primitive:
    /// generation-aware page retention after a swap, and a tenant's cache
    /// clear.  For each entry, `decide` returns the key it should live under
    /// from now on (the old key, or the old key with the new snapshot
    /// fingerprint substituted) or `None` to drop it.  The hit / miss /
    /// eviction counters survive, so metrics keep describing the whole
    /// service lifetime.
    /// Recency order survives re-keying.  Returns `(retained, dropped)`;
    /// entries re-keyed to a *different* key count into
    /// [`CacheStats::retained`], dropped ones into [`CacheStats::purged`].
    pub fn rekey<F: FnMut(&K, &V) -> Option<K>>(&mut self, mut decide: F) -> (usize, usize) {
        let old = std::mem::take(&mut self.map);
        self.recency.clear();
        let (mut retained, mut dropped) = (0usize, 0usize);
        for (key, slot) in old {
            match decide(&key, &slot.value) {
                Some(new_key) => {
                    if new_key != key {
                        retained += 1;
                    }
                    let stamp = slot.stamp;
                    if let Some(evicted) = self.map.insert(new_key.clone(), slot) {
                        // Two entries converged on one key (e.g. a fresh
                        // live-generation page raced the retention pass that
                        // promotes its predecessor): last one wins, and the
                        // loser's stamp must not dangle in the recency index
                        // — a dangling stamp would later evict the live
                        // entry while the map stays over-counted.
                        self.recency.remove(&evicted.stamp);
                        dropped += 1;
                    }
                    self.recency.insert(stamp, new_key);
                }
                None => dropped += 1,
            }
        }
        self.retained += retained as u64;
        self.purged += dropped as u64;
        (retained, dropped)
    }

    /// Iterates the resident entries oldest-first (least-recently-used
    /// first).  The page-persistence layer writes entries in this order so
    /// that re-inserting them sequentially on reload reproduces the recency
    /// order — the restored cache evicts in the same order the drained one
    /// would have.
    pub(crate) fn iter_oldest_first(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut entries: Vec<(&K, &Slot<V>)> = self.map.iter().collect();
        entries.sort_unstable_by_key(|(_, slot)| slot.stamp);
        entries.into_iter().map(|(key, slot)| (key, &slot.value))
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            purged: self.purged,
            retained: self.retained,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// The key under which a served result page is cached.
///
/// `normalized` is the canonical query text; `snapshot_fingerprint` is the
/// tenant-folded [`soda_core::EngineSnapshot::cache_fingerprint`] — the
/// engine configuration fingerprint folded with the snapshot's generation —
/// so result pages computed under different configurations *or different
/// snapshot generations* never collide; page coordinates distinguish the
/// pages of one result list.  Folding the generation in is what makes hot
/// snapshot swaps safe: a page computed against a swapped-out generation is
/// simply no longer addressable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// Canonical query text ([`soda_core::normalize_query`]); shared, so the
    /// copies of a key a miss hands around (pending entry, job, cache slot)
    /// are pointer clones.
    pub normalized: Arc<str>,
    /// Snapshot fingerprint (configuration ⊕ generation, tenant-folded).
    pub snapshot_fingerprint: u64,
    /// Zero-based page index.
    pub page: usize,
    /// Requested page size.
    pub page_size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> CacheKey {
        CacheKey {
            normalized: s.into(),
            snapshot_fingerprint: 7,
            page: 0,
            page_size: 10,
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(4);
        assert_eq!(cache.get(&key("a")), None);
        cache.insert(key("a"), 1);
        assert_eq!(cache.get(&key("a")), Some(&1));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.len, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(2);
        cache.insert(key("a"), 1);
        cache.insert(key("b"), 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(cache.get(&key("a")), Some(&1));
        cache.insert(key("c"), 3);
        assert_eq!(cache.get(&key("b")), None, "b should have been evicted");
        assert_eq!(cache.get(&key("a")), Some(&1));
        assert_eq!(cache.get(&key("c")), Some(&3));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(2);
        cache.insert(key("a"), 1);
        cache.insert(key("b"), 2);
        cache.insert(key("a"), 10);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&key("a")), Some(&10));
    }

    #[test]
    fn dropping_everything_keeps_lifetime_counters() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(2);
        cache.insert(key("a"), 1);
        let _ = cache.get(&key("a"));
        assert_eq!(cache.rekey(|_, _| None), (0, 1));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().purged, 1);
        assert_eq!(cache.get(&key("a")), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(key("a"), 1);
        cache.insert(key("b"), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_with_different_fingerprints_do_not_collide() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(4);
        let mut other = key("a");
        other.snapshot_fingerprint = 8;
        cache.insert(key("a"), 1);
        cache.insert(other.clone(), 2);
        assert_eq!(cache.get(&key("a")), Some(&1));
        assert_eq!(cache.get(&other), Some(&2));
    }

    #[test]
    fn rekey_remaps_survivors_and_counts_both_outcomes() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(4);
        cache.insert(key("a"), 1);
        cache.insert(key("b"), 2);
        cache.insert(key("c"), 3);
        // Promote "a" and "c" to fingerprint 9, drop "b".
        let (retained, dropped) = cache.rekey(|k, _| {
            (&*k.normalized != "b").then(|| CacheKey {
                snapshot_fingerprint: 9,
                ..k.clone()
            })
        });
        assert_eq!((retained, dropped), (2, 1));
        let stats = cache.stats();
        assert_eq!(stats.retained, 2);
        assert_eq!(stats.purged, 1);
        assert_eq!(stats.len, 2);
        // The survivors answer under their new key only.
        let mut a9 = key("a");
        a9.snapshot_fingerprint = 9;
        assert_eq!(cache.get(&a9), Some(&1));
        assert_eq!(cache.get(&key("a")), None);
        // LRU order survived: "a" was just touched, so "c" evicts first.
        cache.insert(key("d"), 4);
        cache.insert(key("e"), 5);
        cache.insert(key("f"), 6);
        let mut c9 = key("c");
        c9.snapshot_fingerprint = 9;
        assert_eq!(cache.get(&c9), None, "c was the LRU survivor");
        assert_eq!(cache.get(&a9), Some(&1));
    }

    #[test]
    fn rekey_collisions_keep_map_and_recency_consistent() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(4);
        // "a" under the superseded fingerprint 7, plus a fresh racing entry
        // for the same query already under the live fingerprint 9.
        let mut a9 = key("a");
        a9.snapshot_fingerprint = 9;
        cache.insert(key("a"), 1);
        cache.insert(a9.clone(), 2);
        // The retention pass promotes everything to fingerprint 9: the two
        // entries converge on one key.
        cache.rekey(|k, _| {
            Some(CacheKey {
                snapshot_fingerprint: 9,
                ..k.clone()
            })
        });
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&a9).is_some());
        // No dangling recency stamp: filling the cache to capacity must
        // evict exactly the LRU entries, never phantom-evict the survivor.
        cache.insert(key("b"), 3);
        cache.insert(key("c"), 4);
        cache.insert(key("d"), 5);
        assert_eq!(cache.len(), 4);
        cache.insert(key("e"), 6);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(&a9), None, "a9 was the true LRU entry");
        assert_eq!(cache.get(&key("e")), Some(&6));
    }

    #[test]
    fn rekey_keeping_the_same_key_counts_as_neither() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(4);
        cache.insert(key("a"), 1);
        let (retained, dropped) = cache.rekey(|k, _| Some(k.clone()));
        assert_eq!((retained, dropped), (0, 0));
        assert_eq!(cache.stats().retained, 0);
        assert_eq!(cache.get(&key("a")), Some(&1));
    }

    #[test]
    fn rekey_purges_stale_fingerprints_and_keeps_eviction_order_sane() {
        let mut cache: LruCache<CacheKey, u32> = LruCache::new(4);
        let mut stale = key("a");
        stale.snapshot_fingerprint = 8;
        cache.insert(key("a"), 1);
        cache.insert(key("b"), 2);
        cache.insert(stale.clone(), 3);
        let outcome = cache.rekey(|k, _| (k.snapshot_fingerprint == 7).then(|| k.clone()));
        assert_eq!(outcome, (0, 1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().purged, 1);
        assert_eq!(cache.stats().evictions, 0, "purges are not evictions");
        assert_eq!(cache.get(&stale), None);
        // The survivors still evict in LRU order afterwards.
        assert_eq!(cache.get(&key("a")), Some(&1));
        cache.insert(key("c"), 4);
        cache.insert(key("d"), 5);
        cache.insert(key("e"), 6);
        assert_eq!(cache.get(&key("b")), None, "b was the LRU survivor");
        assert_eq!(cache.get(&key("a")), Some(&1));
    }

    /// The naïve exact LRU the cache must be indistinguishable from: a list,
    /// oldest first.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u32, u32)>,
        stats: CacheStats,
    }

    impl Model {
        fn get(&mut self, key: u32) -> Option<u32> {
            match self.entries.iter().position(|(k, _)| *k == key) {
                Some(at) => {
                    let entry = self.entries.remove(at);
                    self.entries.push(entry);
                    self.stats.hits += 1;
                    Some(entry.1)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        /// Returns the eviction victim, if the insert made one.
        fn insert(&mut self, key: u32, value: u32) -> Option<u32> {
            let mut victim = None;
            if let Some(at) = self.entries.iter().position(|(k, _)| *k == key) {
                self.entries.remove(at);
            } else if self.entries.len() >= self.stats.capacity {
                victim = Some(self.entries.remove(0).0);
                self.stats.evictions += 1;
            }
            self.entries.push((key, value));
            victim
        }
    }

    #[test]
    fn random_operations_match_a_naive_exact_lru() {
        // Keys are `generation * 100 + i`.  A rekey moves a third of them up
        // one generation (all at once, so no two converge), keeps a third
        // and drops a third.
        let rekeyed = |key: u32| match key % 100 % 3 {
            0 => Some(key + 100),
            1 => Some(key),
            _ => None,
        };
        for capacity in 1..=8usize {
            let mut cache: LruCache<u32, u32> = LruCache::new(capacity);
            let mut model = Model::default();
            model.stats.capacity = capacity;
            let mut generation = 0u32;
            let mut seed = capacity as u64;
            let mut draw = |bound: u32| {
                seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((seed >> 33) % u64::from(bound)) as u32
            };
            for step in 0..4_000u32 {
                let key = (generation - draw(2).min(generation)) * 100 + draw(12);
                match draw(100) {
                    0..=54 => assert_eq!(cache.get(&key).copied(), model.get(key)),
                    55..=94 => {
                        let resident = |cache: &LruCache<u32, u32>| -> Vec<u32> {
                            cache.iter_oldest_first().map(|(k, _)| *k).collect()
                        };
                        let before = resident(&cache);
                        cache.insert(key, step);
                        let victim = model.insert(key, step);
                        let after = resident(&cache);
                        let gone = before.into_iter().find(|k| !after.contains(k));
                        assert_eq!(gone, victim, "eviction victim at step {step}");
                    }
                    95..=96 => {
                        let outcome = cache.rekey(|k, _| (k % 2 == 0).then_some(*k));
                        let before = model.entries.len();
                        model.entries.retain(|(k, _)| k % 2 == 0);
                        assert_eq!(outcome, (0, before - model.entries.len()));
                        model.stats.purged += outcome.1 as u64;
                    }
                    97..=98 => {
                        generation += 1;
                        let (retained, dropped) = cache.rekey(|k, _| rekeyed(*k));
                        let before = model.entries.len();
                        model.entries = std::mem::take(&mut model.entries)
                            .into_iter()
                            .filter_map(|(k, v)| rekeyed(k).map(|k| (k, v)))
                            .collect();
                        assert_eq!(dropped, before - model.entries.len());
                        model.stats.retained += retained as u64;
                        model.stats.purged += dropped as u64;
                        let moved = |(k, _): &&(u32, u32)| k % 100 % 3 == 0;
                        assert_eq!(retained, model.entries.iter().filter(moved).count());
                    }
                    _ => {
                        let outcome = cache.rekey(|_, _| None);
                        assert_eq!(outcome, (0, model.entries.len()));
                        model.stats.purged += model.entries.len() as u64;
                        model.entries.clear();
                    }
                }
                let order: Vec<(u32, u32)> =
                    cache.iter_oldest_first().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(order, model.entries, "recency order at step {step}");
                model.stats.len = model.entries.len();
                assert_eq!(cache.stats(), model.stats, "counters at step {step}");
                // One filing per resident key: the index never outgrows the
                // map, however many hits went unfiled.
                assert_eq!(cache.recency.len(), cache.len());
            }
            assert!(model.stats.evictions > 0 && model.stats.retained > 0);
        }
    }
}
