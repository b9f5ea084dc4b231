//! Hot snapshot swapping: a generation-tracked, atomically swappable handle
//! to the current [`EngineSnapshot`].
//!
//! SODA serves warehouses whose data and metadata evolve continuously
//! (§6 of the paper describes the Credit Suisse warehouse's ongoing schema
//! and ontology churn).  The engine's indexes are immutable by design, so
//! freshness comes from *replacement*, not mutation: a writer builds (or
//! derives) a new snapshot and publishes it through a [`SnapshotHandle`],
//! while readers keep whatever snapshot they loaded until they finish — no
//! query is ever dropped or served from a half-swapped index.
//!
//! Three swap granularities, one path each, cheapest first:
//!
//! * [`absorb`](SnapshotHandle::absorb) then
//!   [`compact`](SnapshotHandle::compact) — a *data* change, as a row-level
//!   [`ChangeFeed`] (appends, wholesale replacements, truncations): the
//!   events land in the side logs of the partitions owning the touched
//!   tables, and a fold later rebuilds just those partitions;
//!   classification index, join catalog, untouched tables and untouched
//!   partitions are shared with the previous generation by `Arc`, so the
//!   other shards keep serving the very same allocations without a pause.
//! * [`refresh_graph`](SnapshotHandle::refresh_graph) — a *metadata*
//!   refresh: classification index and join catalog are rebuilt against
//!   the new graph; base data and inverted index are shared whole.
//! * [`publish`](SnapshotHandle::publish) — a full replacement snapshot
//!   (new warehouse build, new configuration semantics, anything).
//!
//! Every publication stamps a monotonically increasing **generation** into
//! the snapshot.  [`EngineSnapshot::cache_fingerprint`] folds it into the
//! cache key space, which is how stale interpretation pages die for free on
//! a swap.

use std::sync::{Arc, Mutex};

use arc_swap::ArcSwap;

use soda_ingest::ChangeFeed;
use soda_metagraph::MetaGraph;

use crate::error::Result;
use crate::snapshot::EngineSnapshot;

/// An atomically swappable, generation-stamping cell holding the current
/// [`EngineSnapshot`].
///
/// Readers ([`load`](Self::load)) get a coherent `Arc` to whatever snapshot
/// is current and keep it for the whole query — concurrent swaps only affect
/// *future* loads.  Writers ([`publish`](Self::publish),
/// [`absorb`](Self::absorb), [`compact`](Self::compact),
/// [`refresh_graph`](Self::refresh_graph)) are serialized against each other
/// by an internal lock (never held while readers load), so generation
/// numbers are strictly increasing and derived snapshots always derive from
/// the latest published one.
///
/// ```
/// use std::sync::Arc;
/// use soda_core::{EngineSnapshot, SnapshotHandle, SodaConfig};
///
/// let w = soda_warehouse::minibank::build(42);
/// let handle = SnapshotHandle::new(Arc::new(EngineSnapshot::build(
///     Arc::new(w.database),
///     Arc::new(w.graph),
///     SodaConfig::default(),
/// )));
/// assert_eq!(handle.generation(), 0);
///
/// // A reader holds generation 0 across a swap…
/// let held = handle.load();
/// let w2 = soda_warehouse::minibank::build(43);
/// handle.publish(EngineSnapshot::build(
///     Arc::new(w2.database),
///     Arc::new(w2.graph),
///     SodaConfig::default(),
/// ));
/// // …while new loads see generation 1.
/// assert_eq!(held.generation(), 0);
/// assert_eq!(handle.load().generation(), 1);
/// ```
pub struct SnapshotHandle {
    current: ArcSwap<EngineSnapshot>,
    /// Serializes writers so derive-from-current + store is atomic; under
    /// it the next publication's generation is the current one's plus one.
    writer: Mutex<()>,
}

impl std::fmt::Debug for SnapshotHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotHandle")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

impl SnapshotHandle {
    /// Wraps an initial snapshot.  Its existing generation (0 for a fresh
    /// build) is kept; the first publication gets the next one.
    pub fn new(snapshot: Arc<EngineSnapshot>) -> Self {
        Self {
            current: ArcSwap::new(snapshot),
            writer: Mutex::new(()),
        }
    }

    /// The current snapshot.  The returned `Arc` stays coherent for as long
    /// as the caller holds it, regardless of concurrent swaps — this is what
    /// a query pins for its whole pipeline run.
    pub fn load(&self) -> Arc<EngineSnapshot> {
        self.current.load_full()
    }

    /// Generation of the currently published snapshot.
    pub fn generation(&self) -> u64 {
        self.load().generation()
    }

    /// Publishes a full replacement snapshot: stamps it with the next
    /// generation and swaps it in.  In-flight readers finish on whatever
    /// they loaded; returns the stamped generation.
    pub fn publish(&self, snapshot: EngineSnapshot) -> u64 {
        let _writer = self.writer.lock().expect("snapshot writer poisoned");
        let generation = self.generation() + 1;
        self.current.store(Arc::new(snapshot.stamped(generation)));
        generation
    }

    /// The data path: absorbs a row-level [`ChangeFeed`] into a new
    /// generation **without rebuilding any frozen index partition** — the
    /// events are applied to a copy of the base data and their indexed
    /// consequences accumulate in per-shard side logs that every probe
    /// merges on the fly.  On any feed error (unknown table, arity or type
    /// violation) nothing is published and the current generation keeps
    /// serving.  Interpretation caches keyed by
    /// [`EngineSnapshot::cache_fingerprint`] see every page of the
    /// superseded generation stop being addressable; the serving layer's
    /// retention pass re-keys the pages whose probes provably answer the
    /// same instead of recomputing them.
    ///
    /// The feed is taken by value: appended rows move through the
    /// copy-on-write database derive instead of being cloned out of a
    /// borrowed feed.  Returns the stamped generation; a rejected feed
    /// stores nothing, so it leaves no gap in the sequence.
    ///
    /// Side logs tax probes on their shard until
    /// [`compact`](Self::compact) folds them back into rebuilt partitions;
    /// nothing folds them on its own.
    pub fn absorb(&self, feed: ChangeFeed) -> Result<u64> {
        let _writer = self.writer.lock().expect("snapshot writer poisoned");
        let current = self.load();
        let generation = current.generation() + 1;
        self.current
            .store(Arc::new(current.derive_absorbed(feed, generation)?));
        Ok(generation)
    }

    /// Folds the side logs of `shards` into freshly rebuilt partitions — the
    /// second half of the data path: each named partition is rebuilt
    /// from the *current* base data (which already contains every logged
    /// row), so answers are unchanged by construction.  Shards without a
    /// log to fold are skipped; returns `None` (publishing nothing) when
    /// none of the named shards has one, otherwise the new generation and
    /// the shards it folded.
    pub fn compact(&self, shards: &[usize]) -> Option<(u64, Vec<usize>)> {
        let _writer = self.writer.lock().expect("snapshot writer poisoned");
        let current = self.load();
        let logged = current.shards_with_side_logs();
        let foldable: Vec<usize> = shards
            .iter()
            .copied()
            .filter(|s| logged.contains(s))
            .collect();
        if foldable.is_empty() {
            return None;
        }
        let generation = current.generation() + 1;
        let next = current.derive_compacted(&foldable, generation);
        self.current.store(Arc::new(next));
        Some((generation, foldable))
    }

    /// Restores the generation a durable checkpoint recorded — the recovery
    /// counterpart of the stamping the swap paths do.  The current snapshot
    /// is republished carrying `generation` (sharing every built structure),
    /// so the next publication is stamped `generation + 1`, continuing the
    /// pre-crash sequence densely.
    pub fn restore_generation(&self, generation: u64) {
        let _writer = self.writer.lock().expect("snapshot writer poisoned");
        self.current
            .store(Arc::new(self.load().restored(generation)));
    }

    /// Hot swap for a metadata refresh: rebuilds the classification index
    /// and the graph-derived join catalog against `graph`, keeping the base
    /// data and the inverted index.  Returns the new generation.
    pub fn refresh_graph(&self, graph: Arc<MetaGraph>) -> u64 {
        let _writer = self.writer.lock().expect("snapshot writer poisoned");
        let current = self.load();
        let generation = current.generation() + 1;
        let next = current.derive_refreshed_graph(graph, generation);
        self.current.store(Arc::new(next));
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SodaConfig;

    fn assert_send_sync<T: Send + Sync>() {}

    fn minibank_handle(shards: usize) -> SnapshotHandle {
        let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
        SnapshotHandle::new(Arc::new(EngineSnapshot::build(
            db,
            graph,
            SodaConfig {
                shards,
                ..SodaConfig::default()
            },
        )))
    }

    #[test]
    fn handle_is_send_and_sync() {
        assert_send_sync::<SnapshotHandle>();
        assert_send_sync::<Arc<SnapshotHandle>>();
    }

    #[test]
    fn publish_stamps_monotonic_generations() {
        let handle = minibank_handle(4);
        assert_eq!(handle.generation(), 0);
        let w = soda_warehouse::minibank::build(42);
        let gen = handle.publish(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig {
                shards: 4,
                ..SodaConfig::default()
            },
        ));
        assert_eq!(gen, 1);
        assert_eq!(handle.generation(), 1);
        assert_ne!(
            handle.load().cache_fingerprint(),
            EngineSnapshot::build(
                Arc::new(soda_warehouse::minibank::build(42).database),
                Arc::new(soda_warehouse::minibank::build(42).graph),
                SodaConfig {
                    shards: 4,
                    ..SodaConfig::default()
                },
            )
            .cache_fingerprint(),
            "published generation must change the cache fingerprint"
        );
    }

    #[test]
    fn readers_keep_their_generation_across_swaps() {
        let handle = minibank_handle(1);
        let held = handle.load();
        let expected = held.search("Sara Guttinger").unwrap();
        let w = soda_warehouse::minibank::build(7);
        handle.publish(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        ));
        // The held snapshot still answers exactly as before the swap.
        assert_eq!(held.search("Sara Guttinger").unwrap(), expected);
        assert_eq!(held.generation(), 0);
        assert_eq!(handle.load().generation(), 1);
    }

    #[test]
    fn a_replace_absorbed_then_folded_answers_like_a_fresh_build() {
        let w = soda_warehouse::minibank::build(42);
        let config = SodaConfig {
            shards: 4,
            ..SodaConfig::default()
        };
        let handle = SnapshotHandle::new(Arc::new(EngineSnapshot::build(
            Arc::new(w.database.clone()),
            Arc::new(w.graph.clone()),
            config.clone(),
        )));
        let before = handle.load();
        let fp_before = before.cache_fingerprint();

        // Restate `individuals` wholesale: every existing row plus one new
        // individual.
        let individuals = w.database.table("individuals").unwrap();
        let mut rows = individuals.rows().to_vec();
        let mut row = rows[0].clone();
        let name_col = individuals
            .schema()
            .columns
            .iter()
            .position(|c| c.name == "firstname")
            .unwrap();
        row[0] = soda_relation::Value::Int(9_999);
        row[name_col] = soda_relation::Value::from("Zebulon");
        rows.push(row);
        let owner = soda_relation::shard_for_table("individuals", 4);
        let absorbed = handle
            .absorb(ChangeFeed::new().replace("individuals", rows))
            .unwrap();
        assert_eq!(absorbed, 1);
        let logged = handle.load();
        assert_eq!(handle.compact(&[owner]), Some((2, vec![owner])));
        let folded = handle.load();

        // Logged or folded, the derived snapshot answers exactly like a full
        // build over the new database and sees the new row.
        let fresh = EngineSnapshot::build(folded.database_arc(), Arc::new(w.graph), config);
        for (after, generation) in [(&logged, 1), (&folded, 2)] {
            assert_eq!(after.generation(), generation);
            assert_ne!(after.cache_fingerprint(), fp_before);
            for query in ["Zebulon", "Sara Guttinger", "wealthy customers"] {
                assert_eq!(
                    after.search(query).unwrap(),
                    fresh.search(query).unwrap(),
                    "generation {generation} diverged from a full build on '{query}'"
                );
            }
            assert!(!after.search("Zebulon").unwrap().is_empty());
        }
        assert!(folded.shards_with_side_logs().is_empty());
        // The old generation still serves its old view.
        assert!(before.search("Zebulon").unwrap().is_empty());
    }

    fn address_feed(id: i64, city: &str) -> ChangeFeed {
        ChangeFeed::new().append_row(
            "addresses",
            vec![
                soda_relation::Value::Int(id),
                soda_relation::Value::Int(1),
                soda_relation::Value::from("Stream Lane 1"),
                soda_relation::Value::from(city),
                soda_relation::Value::from("Switzerland"),
            ],
        )
    }

    #[test]
    fn absorb_serves_new_rows_without_touching_frozen_partitions() {
        let w = soda_warehouse::minibank::build(42);
        let config = SodaConfig {
            shards: 4,
            ..SodaConfig::default()
        };
        let handle = SnapshotHandle::new(Arc::new(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph.clone()),
            config.clone(),
        )));
        let before = handle.load();
        assert!(before.search("Streamville").unwrap().is_empty());

        assert_eq!(handle.absorb(address_feed(900, "Streamville")).unwrap(), 1);
        let after = handle.load();
        assert!(!after.search("Streamville").unwrap().is_empty());
        // The pinned old generation still serves its old view.
        assert!(before.search("Streamville").unwrap().is_empty());

        // No frozen partition was rebuilt: every shard Arc is shared.
        for (old, new) in before
            .inverted_index()
            .unwrap()
            .shards()
            .iter()
            .zip(after.inverted_index().unwrap().shards())
        {
            assert!(Arc::ptr_eq(old, new), "absorb must not rebuild partitions");
        }
        let owner = soda_relation::shard_for_table("addresses", 4);
        assert_eq!(after.shards_with_side_logs(), vec![owner]);
        assert_ne!(after.cache_fingerprint(), before.cache_fingerprint());

        // Byte-identical to a full rebuild over the absorbed database.
        let fresh = EngineSnapshot::build(after.database_arc(), after.graph_arc(), config.clone());
        for query in ["Streamville", "Sara Guttinger", "wealthy customers"] {
            assert_eq!(
                after.search(query).unwrap(),
                fresh.search(query).unwrap(),
                "'{query}' diverged from full rebuild"
            );
        }
        assert!(after.shard_stats().log_postings[owner] > 0);

        // Side logs are copied on write: the owner's log is a new copy, every
        // other log is the previous generation's allocation — and so on for
        // a second feed into the same table.
        let logs =
            |snapshot: &EngineSnapshot| snapshot.inverted_index().unwrap().side_logs().to_vec();
        let copied_logs = |old: &EngineSnapshot, new: &EngineSnapshot| -> Vec<usize> {
            let pairs = logs(old).into_iter().zip(logs(new)).enumerate();
            pairs
                .filter(|(_, (o, n))| !Arc::ptr_eq(o, n))
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(copied_logs(&before, &after), vec![owner]);
        assert_eq!(handle.absorb(address_feed(901, "Streamtown")).unwrap(), 2);
        let again = handle.load();
        assert_eq!(copied_logs(&after, &again), vec![owner]);
        assert!(!again.search("Streamtown").unwrap().is_empty());

        // A rejected feed publishes nothing, however far it got.
        let rejected = address_feed(902, "Nowhere").append_row("no_such_table", vec![]);
        assert!(handle.absorb(rejected).is_err());
        assert!(Arc::ptr_eq(&again, &handle.load()));
    }

    #[test]
    fn absorb_shares_every_untouched_table_with_the_previous_database() {
        let handle = minibank_handle(4);
        let before = handle.load();
        assert_eq!(handle.absorb(address_feed(900, "Streamville")).unwrap(), 1);
        let after = handle.load();

        // Copy-on-write derive: only `addresses` was copied; every other
        // table of the new database is the *same allocation* as before.
        let table_count = before.database().table_count();
        assert_eq!(
            after.database().tables_shared_with(before.database()),
            table_count - 1
        );
        assert!(!Arc::ptr_eq(
            before.database().table_arc("addresses").unwrap(),
            after.database().table_arc("addresses").unwrap()
        ));
        for name in before.database().table_names() {
            if name != "addresses" {
                assert!(
                    Arc::ptr_eq(
                        before.database().table_arc(name).unwrap(),
                        after.database().table_arc(name).unwrap()
                    ),
                    "table '{name}' must be structurally shared across absorb"
                );
            }
        }
        // The shared-table database still answers like a full rebuild.
        let fresh = EngineSnapshot::build(
            after.database_arc(),
            after.graph_arc(),
            after.config().clone(),
        );
        assert_eq!(
            after.search("Streamville").unwrap(),
            fresh.search("Streamville").unwrap()
        );
    }

    #[test]
    fn compact_folds_side_logs_without_changing_answers() {
        let handle = minibank_handle(4);
        handle.absorb(address_feed(900, "Streamville")).unwrap();
        let logged = handle.load();
        let owner = soda_relation::shard_for_table("addresses", 4);
        let expected = logged.search("Streamville").unwrap();
        assert!(!expected.is_empty());

        let (generation, folded_shards) = handle.compact(&[0, 1, 2, 3]).expect("a log to fold");
        assert_eq!((generation, folded_shards), (2, vec![owner]));
        let folded = handle.load();
        assert!(folded.shards_with_side_logs().is_empty());
        assert_eq!(folded.shard_stats().log_postings, vec![0; 4]);
        assert_eq!(folded.search("Streamville").unwrap(), expected);
        // Untouched partitions stay shared between the logged and the
        // folded generation.
        for (i, (old, new)) in logged
            .inverted_index()
            .unwrap()
            .shards()
            .iter()
            .zip(folded.inverted_index().unwrap().shards())
            .enumerate()
        {
            assert_eq!(Arc::ptr_eq(old, new), i != owner, "shard {i}");
        }

        // Nothing left to fold: no generation is spent.
        assert!(handle.compact(&[0, 1, 2, 3]).is_none());
        assert_eq!(handle.generation(), 2);
    }

    #[test]
    fn rejected_feeds_publish_nothing_and_leave_no_generation_gap() {
        let handle = minibank_handle(2);
        let before = handle.load();
        let valid_then_unknown = ChangeFeed::new()
            .replace("addresses", Vec::new())
            .replace("no_such_dimension", Vec::new());
        for bad in [
            ChangeFeed::new().append_row("no_such_table", vec![]),
            // The first event is valid on its own: it must not escape either.
            valid_then_unknown,
        ] {
            assert!(handle.absorb(bad).is_err());
            assert_eq!(handle.generation(), 0);
            assert!(Arc::ptr_eq(&before, &handle.load()));
        }
        // The next successful publication continues the sequence densely.
        assert_eq!(handle.absorb(address_feed(901, "Gapless")).unwrap(), 1);
        assert!(!handle.load().search("Gapless").unwrap().is_empty());
    }

    #[test]
    fn restore_generation_relands_the_recorded_fingerprint() {
        let handle = minibank_handle(4);
        handle.absorb(address_feed(900, "Streamville")).unwrap();
        let live = handle.load();
        let expected_fp = live.cache_fingerprint();
        let generation = live.generation();
        let answer = live.search("Streamville").unwrap();

        // A "rebooted" handle over an equivalent snapshot starts at
        // generation 0 with a different fingerprint…
        let rebooted = SnapshotHandle::new(Arc::new(EngineSnapshot::build(
            live.database_arc(),
            live.graph_arc(),
            live.config().clone(),
        )));
        assert_ne!(rebooted.load().cache_fingerprint(), expected_fp);
        // …until the checkpoint's generation is restored.
        rebooted.restore_generation(generation);
        let restored = rebooted.load();
        assert_eq!(restored.generation(), generation);
        assert_eq!(restored.cache_fingerprint(), expected_fp);
        assert_eq!(restored.search("Streamville").unwrap(), answer);
        // The sequence continues densely after restoration.
        let next = rebooted.absorb(address_feed(901, "Afterville")).unwrap();
        assert_eq!(next, generation + 1);
    }

    #[test]
    fn refresh_graph_keeps_every_inverted_index_partition() {
        let w = soda_warehouse::minibank::build(42);
        let handle = SnapshotHandle::new(Arc::new(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph.clone()),
            SodaConfig {
                shards: 4,
                ..SodaConfig::default()
            },
        )));
        // Republishing the graph bumps the snapshot generation but rebuilds
        // no inverted-index partition: every one of them is the same
        // allocation as before.
        let before = handle.load();
        let gen = handle.refresh_graph(Arc::new(w.graph));
        assert_eq!(gen, 1);
        let after = handle.load();
        assert_eq!(after.generation(), 1);
        for (old, new) in before
            .inverted_index()
            .unwrap()
            .shards()
            .iter()
            .zip(after.inverted_index().unwrap().shards())
        {
            assert!(
                Arc::ptr_eq(old, new),
                "a refresh must not rebuild partitions"
            );
        }
        // Generation is folded into the fingerprint even when no partition
        // changed, so caches keyed on it can distinguish the publications.
        assert_ne!(after.cache_fingerprint(), before.cache_fingerprint());
        for query in ["wealthy customers", "Sara Guttinger", "customers Zurich"] {
            assert_eq!(
                after.search(query).unwrap(),
                before.search(query).unwrap(),
                "'{query}'"
            );
        }
    }

    #[test]
    fn data_only_swaps_share_the_compiled_join_catalog() {
        let handle = minibank_handle(4);
        let built = handle.load();
        handle.absorb(address_feed(900, "Streamville")).unwrap();
        let logged = handle.load();
        handle.compact(&[0, 1, 2, 3]).expect("a log to fold");
        let folded = handle.load();
        for derived in [&logged, &folded] {
            assert!(std::ptr::eq(built.join_catalog(), derived.join_catalog()));
        }
    }

    #[test]
    fn refresh_graph_recompiles_the_entry_closures() {
        let w = soda_warehouse::minibank::build(42);
        let handle = SnapshotHandle::new(Arc::new(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph.clone()),
            SodaConfig::default(),
        )));
        let concept = w.graph.node("onto/private-customers").unwrap();
        let discovered = |snapshot: &EngineSnapshot| -> Vec<String> {
            let catalog = snapshot.join_catalog();
            let closure = catalog.entry_closure(concept);
            let names = closure.discovered.iter().map(|&t| catalog.table_name(t));
            names.map(|name| name.to_string()).collect()
        };
        let before = handle.load();
        assert_eq!(discovered(&before), ["individuals"]);
        let stale = before.search("private customers").unwrap();
        assert!(stale
            .iter()
            .all(|r| !r.tables.contains(&"addresses".into())));

        // The concept newly classifies a second table.
        let mut graph = w.graph;
        let addresses = graph.node("phys/addresses").unwrap();
        graph.add_edge(concept, "classifies", addresses);
        handle.refresh_graph(Arc::new(graph));
        let after = handle.load();
        assert!(!std::ptr::eq(before.join_catalog(), after.join_catalog()));
        assert_eq!(discovered(&after), ["individuals", "addresses"]);
        let fresh = after.search("private customers").unwrap();
        let joined = &fresh[0];
        assert!(
            joined.tables.contains(&"individuals".into())
                && joined.tables.contains(&"addresses".into()),
            "{:?}",
            joined.tables
        );
        assert!(joined.join_path_complete);
        assert!(
            joined.sql.contains("addresses.party_id = individuals.id"),
            "{}",
            joined.sql
        );
        // The generation that was loaded before the refresh keeps its own.
        assert_eq!(discovered(&before), ["individuals"]);
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_swap() {
        let handle = Arc::new(minibank_handle(2));
        let expected_old = handle.load().search("Sara Guttinger").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = Arc::clone(&handle);
                let expected_old = expected_old.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let snapshot = handle.load();
                        let got = snapshot.search("Sara Guttinger").unwrap();
                        // Whatever generation we pinned, the answer matches a
                        // single-threaded run against that same snapshot.
                        assert_eq!(got, snapshot.search("Sara Guttinger").unwrap());
                        if snapshot.generation() == 0 {
                            assert_eq!(got, expected_old);
                        }
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..10 {
                    let w = soda_warehouse::minibank::build(42);
                    handle.publish(EngineSnapshot::build(
                        Arc::new(w.database),
                        Arc::new(w.graph),
                        SodaConfig {
                            shards: 2,
                            ..SodaConfig::default()
                        },
                    ));
                }
            });
        });
        assert_eq!(handle.generation(), 10);
    }
}
