//! Tenant-scoped administration: the [`TenantAdmin`] facade — the **one**
//! spelling of every mutation (`reload`, `refresh_graph`, `ingest_owned`,
//! `compact`, `clear_cache`) — and the one post-swap cache pass (retention
//! for data-only swaps, which purges everything else).
//!
//! One path per kind of change: base data changes through
//! [`ingest_owned`](TenantAdmin::ingest_owned) (journaled, O(delta)) and is
//! folded by [`compact`](TenantAdmin::compact); metadata changes through
//! [`refresh_graph`](TenantAdmin::refresh_graph); everything else — a
//! foreign database, a new configuration — through
//! [`reload`](TenantAdmin::reload).

use std::collections::HashMap;
use std::sync::Arc;

use soda_core::{ChangeFeed, EngineSnapshot, MetaGraph, ProbeDep, TenantId};
use soda_relation::ShardedInvertedIndex;

use crate::cache::CacheKey;
use crate::durability::write_checkpoint;
use crate::request::ServiceError;
use crate::service::Shared;
use crate::tenants::TenantState;

/// The per-tenant administration facade, returned by
/// [`QueryService::admin`](crate::QueryService::admin).
///
/// Every mutation of what a tenant serves goes through here, scoped to the
/// one tenant named at construction — there is no way to reload tenant A
/// while holding tenant B's facade.  The facade borrows the service, so it
/// cannot outlive the worker pool it administers.
///
/// ```
/// use std::sync::Arc;
/// use soda_core::{EngineSnapshot, SodaConfig};
/// use soda_service::{QueryService, ServiceConfig};
///
/// let w = soda_warehouse::minibank::build(42);
/// let snapshot = Arc::new(EngineSnapshot::build(
///     Arc::new(w.database),
///     Arc::new(w.graph),
///     SodaConfig::default(),
/// ));
/// let service = QueryService::start(snapshot, ServiceConfig::default());
/// let admin = service.admin("default").unwrap();
/// assert_eq!(admin.generation(), 0);
/// assert!(service.admin("no-such-tenant").is_err());
/// ```
pub struct TenantAdmin<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) tenant: Arc<TenantState>,
}

impl TenantAdmin<'_> {
    /// The tenant this facade administers.
    pub fn id(&self) -> &TenantId {
        &self.tenant.id
    }

    /// Generation of the snapshot this tenant currently serves.
    pub fn generation(&self) -> u64 {
        self.tenant.snapshot().generation()
    }

    /// The engine snapshot this tenant currently serves.  A subsequent
    /// [`reload`](Self::reload) does not invalidate the returned `Arc`; it
    /// just stops being what new submissions see.
    pub fn engine(&self) -> Arc<EngineSnapshot> {
        self.tenant.snapshot()
    }

    /// Counts one snapshot swap and logs it as a `kind` event.
    fn swapped(&self, kind: &'static str, detail: String) {
        self.tenant.facts().reloads += 1;
        self.shared.event(kind, &self.tenant.id, detail);
    }

    /// Swaps in a full replacement snapshot for this tenant **without
    /// draining the worker pool**: the tenant's in-flight queries finish on
    /// the generation they pinned at submission, new submissions see the new
    /// one.  The tenant's cached pages of superseded generations are purged
    /// (they would be unaddressable anyway — the fingerprint in their key no
    /// longer matches); other tenants' pages are untouched.  The snapshot
    /// is published as the live one's successor
    /// ([`EngineSnapshot::succeeding`]); returns the new generation.  A
    /// durable reload checkpoints under the new configuration, so the next
    /// recovery must be given it (unless the checkpoint failed and no
    /// ingest has written it since).
    pub fn reload(&self, snapshot: EngineSnapshot) -> u64 {
        let tenant = &self.tenant;
        let mut writer = tenant.writer();
        let before = tenant.snapshot();
        let after = writer.publish(snapshot.succeeding(&before));
        let generation = after.generation();
        self.swapped("reload", format!("generation {generation}"));
        retain_unaffected(self.shared, tenant, &before, &after, None);
        // The reload replaced data the journal knows nothing about: record
        // the *entire* live database (plus the new generation), so the next
        // recovery lands on the reloaded content whatever base it is given.
        if let Some(journal) = writer.journal.as_mut() {
            write_checkpoint(self.shared, tenant, journal, true);
        }
        generation
    }

    /// Metadata hot swap for this tenant: rebuilds the classification index
    /// and join catalog against a refreshed graph, keeping the base data and
    /// the inverted index — see [`EngineSnapshot::refreshed`].  Returns the
    /// new generation.
    pub fn refresh_graph(&self, graph: Arc<MetaGraph>) -> u64 {
        let tenant = &self.tenant;
        let mut writer = tenant.writer();
        let before = tenant.snapshot();
        let after = writer.publish(before.refreshed(graph));
        let generation = after.generation();
        self.swapped("refresh_graph", format!("generation {generation}"));
        retain_unaffected(self.shared, tenant, &before, &after, None);
        // The graph is not journaled (recovery receives it as an argument)
        // and no row changed, but the generation moved: checkpoint the dirty
        // tables so a recovery restores the post-refresh fingerprint.
        if let Some(journal) = writer.journal.as_mut() {
            write_checkpoint(self.shared, tenant, journal, false);
        }
        generation
    }

    /// The one way base data changes under this tenant's snapshot: absorbs
    /// a row-level change feed (appends, wholesale replacements,
    /// truncations) into per-shard side logs without rebuilding any index
    /// partition ([`EngineSnapshot::absorbed`]).  On a durable service the
    /// feed is journaled write-ahead to **this tenant's** journal.  Returns
    /// the generation the feed was absorbed at; a feed the engine rejects
    /// publishes nothing.
    ///
    /// The feed is taken by value (its rows move into the new generation
    /// instead of being cloned out of a borrow); the write-ahead journal
    /// append, the absorb, the counter updates and the retention pass all
    /// run under the tenant's writer lock.  The side logs the feed grows stay
    /// until [`compact`](Self::compact) folds them.
    ///
    /// A swap whose checkpoint failed leaves the journal owing one: the
    /// next durable ingest writes it before appending, and is refused with
    /// [`ServiceError::Durability`] (nothing absorbed) while it still fails.
    ///
    /// A feed without events changes nothing, so it costs nothing: the live
    /// generation is returned with nothing journaled, published or logged —
    /// the rule [`compact`](Self::compact) follows when there is nothing to
    /// fold.
    pub fn ingest_owned(&self, feed: ChangeFeed) -> Result<u64, ServiceError> {
        let (shared, tenant) = (self.shared, &self.tenant);
        if feed.is_empty() {
            return Ok(tenant.snapshot().generation());
        }
        let mut writer = tenant.writer();
        let before = tenant.snapshot();
        let dirty = before.shards_for_tables(&feed.tables());
        let described = feed.describe();
        let (events, rows) = (feed.len() as u64, feed.row_count() as u64);
        // Write-ahead: the feed reaches the (fsynced) journal before the
        // engine absorbs it, so every acknowledged ingest is replayable
        // after a crash.  If the append fails the feed is not absorbed at
        // all; if the engine then rejects it, the journaled record is
        // deterministically re-rejected on replay — harmless either way.  A
        // checkpoint a swap still owes goes first: behind the pre-swap
        // history, the feed would replay over the wrong snapshot.
        if let Some(d) = writer.journal.as_mut() {
            if d.checkpoint_owed {
                write_checkpoint(shared, tenant, d, false);
                if d.checkpoint_owed {
                    return Err(ServiceError::Durability(
                        "the journal owes a checkpoint that failed again; feed not absorbed".into(),
                    ));
                }
            }
            let appended = d
                .journal
                .append_feed(&feed)
                .map_err(|e| ServiceError::Durability(e.to_string()))?;
            d.dirty_tables.extend(feed.tables());
            {
                let figures = &mut tenant.facts().durability;
                figures.journal_appends += 1;
                figures.journal_bytes = d.journal.len_bytes();
            }
            shared.event("journal_append", &tenant.id, format!("{appended} bytes"));
        }
        let after = writer.publish(before.absorbed(feed).map_err(ServiceError::Engine)?);
        let generation = after.generation();
        shared.event(
            "ingest",
            &tenant.id,
            format!("generation {generation}, {described}"),
        );
        {
            let mut facts = tenant.facts();
            facts.ingest_feeds += 1;
            facts.ingest_events += events;
            facts.ingest_rows += rows;
        }
        retain_unaffected(shared, tenant, &before, &after, Some(&dirty));
        Ok(generation)
    }

    /// Folds this tenant's ingestion side logs of `shards` into copies of
    /// their partitions (answers unchanged by construction; see
    /// [`EngineSnapshot::compacted`]).  Returns the new generation, or `None`
    /// when none of the named shards had a log to fold.
    pub fn compact(&self, shards: &[usize]) -> Option<u64> {
        let (shared, tenant) = (self.shared, &self.tenant);
        let mut writer = tenant.writer();
        let before = tenant.snapshot();
        let (next, folded) = before.compacted(shards)?;
        let after = writer.publish(next);
        let generation = after.generation();
        shared.event(
            "compaction",
            &tenant.id,
            format!("generation {generation}, shards {folded:?}"),
        );
        tenant.facts().compactions += 1;
        // A fold changes no answers, but the fingerprint moved: carry every
        // provably unaffected page over; pages whose probes had candidates in a
        // folded shard are recomputed (conservative — their hits merely moved
        // from the log into the frozen partition).
        retain_unaffected(shared, tenant, &before, &after, Some(&folded));
        // The fold changed no rows, so the dirty set is already right — but the
        // generation moved and the side logs are gone: a checkpoint here both keeps
        // recovery fingerprints current and truncates the journal (the feeds it
        // replaces are exactly the ones the fold absorbed into the partitions).
        if let Some(journal) = writer.journal.as_mut() {
            write_checkpoint(shared, tenant, journal, false);
        }
        Some(generation)
    }

    /// Drops this tenant's cached result pages — every entry keyed by the
    /// tenant's live fingerprint.  (Entries of superseded generations were
    /// already purged by the swap that superseded them.)  Other tenants'
    /// pages and the lifetime hit/miss counters survive.
    pub fn clear_cache(&self) {
        let live = self.tenant.folded_live();
        let mut store = self.shared.store.lock().expect("store poisoned");
        store
            .cache
            .rekey(|key, _| (key.snapshot_fingerprint != live).then(|| key.clone()));
    }
}

/// The one post-swap cache pass, for every swap of one tenant from `before`
/// to `after`, the snapshot just published.  For a *data-only* swap (ingest, compaction) the
/// two differ only in the `dirty` shards: pages keyed by `before`'s
/// fingerprint `prev` whose recorded probes provably answer the same in
/// both snapshots ([`RetentionGate`]) are re-keyed to the tenant's live
/// fingerprint (staying addressable — a retention, not a recomputation).
/// Every other page keyed by `prev` is purged — all of them after a full
/// reload or a graph refresh (`dirty` is `None`), where nothing about a
/// page is provably unchanged.  Pages under any other fingerprint —
/// other tenants' pages and this tenant's older strays — are left exactly
/// where they are; a stray under an older fingerprint was never
/// retention-checked against the intervening swaps, so it must age out of
/// the LRU, never come back.
fn retain_unaffected(
    shared: &Shared,
    tenant: &TenantState,
    before: &EngineSnapshot,
    after: &EngineSnapshot,
    dirty: Option<&[usize]>,
) {
    let prev = tenant.id.fold(before.cache_fingerprint());
    let live = tenant.id.fold(after.cache_fingerprint());
    let mut gate = dirty.map(|dirty| RetentionGate::new(before, after, dirty));
    let mut store = shared.store.lock().expect("store poisoned");
    store.cache.rekey(|key, entry| {
        if key.snapshot_fingerprint != prev || prev == live {
            Some(key.clone())
        } else if gate.as_mut().is_some_and(|gate| gate.retains(&entry.deps)) {
            Some(CacheKey {
                snapshot_fingerprint: live,
                ..key.clone()
            })
        } else {
            None
        }
    });
}

/// Whether a page keyed by `before`'s fingerprint answers the same on
/// `after`.  Such a page was computed on `before` or retained into it, so it
/// answers like `before` does; each of its probe dependencies is unchanged
/// when no dirty shard holds candidates for the recorded token in either
/// snapshot and the new index still selects that token — the other shards
/// are shared, so the probe's hits are the same.  The lookup is the only
/// pipeline step that reads base rows; the others read schema-level catalog
/// data, which a data-only swap cannot change.
///
/// The pass runs under the store lock.  Candidate counts are hash lookups,
/// so every page checks them first; selecting a probe tokenizes the phrase
/// and sums every token's live rows, so it runs only for pages whose tokens
/// the dirty shards never held, once per distinct dependency.
struct RetentionGate<'a> {
    /// `(before, after)`, or `None` when the inverted index is disabled: no
    /// query then consults base rows during interpretation, so a data-only
    /// swap changes no page.
    indexes: Option<(&'a ShardedInvertedIndex, &'a ShardedInvertedIndex)>,
    dirty: &'a [usize],
    memo: HashMap<ProbeDep, bool>,
}

impl<'a> RetentionGate<'a> {
    fn new(before: &'a EngineSnapshot, after: &'a EngineSnapshot, dirty: &'a [usize]) -> Self {
        Self {
            indexes: before.inverted_index().zip(after.inverted_index()),
            dirty,
            memo: HashMap::new(),
        }
    }

    fn retains(&mut self, deps: &[ProbeDep]) -> bool {
        let Some((before, after)) = self.indexes else {
            return true;
        };
        let dirty = self.dirty;
        let clean = |token: &str| {
            let candidates = |shard| {
                before.shard_candidates(shard, token) + after.shard_candidates(shard, token)
            };
            dirty.iter().all(|&shard| candidates(shard) == 0)
        };
        let mut tokens = deps.iter().filter_map(|dep| dep.token.as_deref());
        tokens.all(clean)
            && deps
                .iter()
                .all(|dep| self.selects_recorded_token(after, dep))
    }

    fn selects_recorded_token(&mut self, after: &ShardedInvertedIndex, dep: &ProbeDep) -> bool {
        if let Some(&ok) = self.memo.get(dep) {
            return ok;
        }
        let ok = after.probe(&dep.phrase).map(|probe| probe.token) == dep.token;
        self.memo.insert(dep.clone(), ok);
        ok
    }
}

#[cfg(test)]
mod tests {
    use soda_core::{ProbeRecorder, SearchOptions, SodaConfig};

    use super::*;
    use crate::service::tests::{address_feed, admin, minibank_service};
    use crate::{QueryRequest, QueryResponse, QueryService, ServiceConfig};

    /// The seeded mini-bank at `shards` lookup partitions.
    fn minibank_snapshot(shards: usize) -> EngineSnapshot {
        let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
        let config = SodaConfig {
            shards,
            ..SodaConfig::default()
        };
        EngineSnapshot::build(db, graph, config)
    }

    fn sharded_service(shards: usize) -> QueryService {
        QueryService::start(
            Arc::new(minibank_snapshot(shards)),
            ServiceConfig::default(),
        )
    }

    fn ask(service: &QueryService, input: &str) -> QueryResponse {
        service.query(QueryRequest::new(input)).wait().unwrap()
    }

    #[test]
    fn clear_cache_forces_recomputation() {
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        admin(&service).clear_cache();
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let stats = service.metrics().cache;
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn reload_bumps_the_generation_and_purges_stale_pages() {
        let service = minibank_service(ServiceConfig::default());
        let before = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().cache.len, 1);
        assert_eq!(service.generation(), 0);

        let w = soda_warehouse::minibank::build(42);
        let generation = admin(&service).reload(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        ));
        assert_eq!(generation, 1);
        let m = service.metrics();
        assert_eq!(m.generation, 1);
        assert_eq!(m.reloads, 1);
        assert_eq!(m.cache.len, 0, "superseded pages must be purged");
        assert_eq!(m.cache.purged, 1);

        // Identical warehouse, new generation: same answer, recomputed.
        let after = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(before, after);
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 2);
        assert_eq!(m.cache.hits, 0);
    }

    #[test]
    fn ingest_serves_new_rows_and_counts() {
        let service = minibank_service(ServiceConfig::default());
        assert!(service
            .query(QueryRequest::new("Streamville"))
            .wait()
            .unwrap()
            .page
            .results
            .is_empty());
        let generation = admin(&service)
            .ingest_owned(address_feed(900, "Streamville"))
            .unwrap();
        assert_eq!(generation, 1);
        let page = service
            .query(QueryRequest::new("Streamville"))
            .wait()
            .unwrap()
            .page;
        assert!(!page.results.is_empty());
        let m = service.metrics();
        assert_eq!(m.generation, 1);
        assert_eq!(m.reloads, 0, "an ingest is not a reload");
        assert_eq!(m.ingest.ingests, 1);
        assert_eq!(m.ingest.events, 1);
        assert_eq!(m.ingest.rows, 1);
        assert_eq!(m.ingest.compactions, 0);
        assert!(m.shards.log_postings.iter().sum::<usize>() > 0);

        // A rejected feed publishes nothing and counts nothing.
        let bad = ChangeFeed::new().append_row("no_such_table", vec![]);
        assert!(admin(&service).ingest_owned(bad).is_err());
        let m = service.metrics();
        assert_eq!(m.generation, 1);
        assert_eq!(m.ingest.ingests, 1);
    }

    #[test]
    fn manual_compaction_folds_logs_and_keeps_answers() {
        let service = minibank_service(ServiceConfig::default());
        admin(&service)
            .ingest_owned(address_feed(900, "Streamville"))
            .unwrap();
        let before = service
            .query(QueryRequest::new("Streamville"))
            .wait()
            .unwrap();
        let shards: Vec<usize> = (0..service.engine().shard_count()).collect();
        let generation = admin(&service).compact(&shards).expect("a log to fold");
        assert_eq!(generation, 2);
        assert!(
            admin(&service).compact(&shards).is_none(),
            "nothing left to fold"
        );
        let m = service.metrics();
        assert_eq!(m.ingest.compactions, 1);
        assert_eq!(m.shards.log_postings.iter().sum::<usize>(), 0);
        let after = service
            .query(QueryRequest::new("Streamville"))
            .wait()
            .unwrap();
        assert_eq!(before, after, "compaction must not change answers");
    }

    #[test]
    fn data_swaps_retain_provably_unaffected_pages() {
        // 8 shards: `individuals` (Sara) and `addresses` (the feed target)
        // live in different partitions, so the Sara page survives the swap.
        let service = sharded_service(8);
        let sara = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().cache.len, 1);

        admin(&service)
            .ingest_owned(address_feed(900, "Retainville"))
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.cache.retained, 1, "the Sara page must be carried over");
        assert_eq!(m.cache.len, 1);

        // The next identical submission is a cache hit on the new
        // generation — no recomputation — and the answer is right.
        let again = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(sara, again);
        let m = service.metrics();
        assert_eq!(m.cache.hits, 1);
        assert_eq!(m.pipeline_executions, 1);

        // A page whose probes scanned the ingested shard is NOT retained.
        service
            .query(QueryRequest::new("Retainville"))
            .wait()
            .unwrap();
        admin(&service)
            .ingest_owned(address_feed(901, "Retainville"))
            .unwrap();
        let m = service.metrics();
        // The address-touching page died; the Sara page survived again.
        assert_eq!(m.cache.retained, 2);
        let recomputed = service
            .query(QueryRequest::new("Retainville"))
            .wait()
            .unwrap()
            .page;
        // Two matching rows now — the recomputation saw the second ingest.
        assert_eq!(m.cache.len, 1, "the stale Retainville page was purged");
        assert!(!recomputed.results.is_empty());
        assert_eq!(service.metrics().pipeline_executions, 3);
    }

    #[test]
    fn retention_reaches_shards_past_sixty_four() {
        // At 80 shards `addresses` owns partition 67, apart from the
        // tables holding Sara Guttinger's postings.
        let shards = 80;
        let addresses = soda_relation::shard_for_table("addresses", shards);
        assert!(addresses >= 64);
        for table in ["individuals", "parties"] {
            assert_ne!(soda_relation::shard_for_table(table, shards), addresses);
        }
        let service = sharded_service(shards);
        let sara = ask(&service, "Sara Guttinger");
        admin(&service)
            .ingest_owned(address_feed(900, "Farville"))
            .unwrap();
        assert_eq!(service.metrics().cache.retained, 1);
        assert_eq!(ask(&service, "Sara Guttinger"), sara);
        let m = service.metrics();
        assert_eq!((m.cache.hits, m.pipeline_executions), (1, 1));
    }

    #[test]
    fn truncating_a_pages_table_purges_the_page() {
        let service = sharded_service(8);
        let sara = ask(&service, "Sara Guttinger");
        assert!(!sara.page.results.is_empty());
        admin(&service)
            .ingest_owned(ChangeFeed::new().truncate("individuals"))
            .unwrap();
        let m = service.metrics();
        assert_eq!((m.cache.retained, m.cache.purged), (0, 1));
        assert_ne!(ask(&service, "Sara Guttinger"), sara);
    }

    #[test]
    fn a_swap_that_adds_or_removes_a_pages_hits_purges_it() {
        // "Sara" is a first name in `individuals`; the feeds below make it a
        // city in the side log of `addresses`' partition, then drop it.
        let service = sharded_service(8);
        let fresh = |service: &QueryService| service.engine().search_paged("Sara", 0, 10);
        let alone = ask(&service, "Sara");
        // The new snapshot holds "sara" candidates in the dirty partition.
        admin(&service)
            .ingest_owned(address_feed(900, "Sara"))
            .unwrap();
        let logged = ask(&service, "Sara");
        assert_ne!(logged, alone);
        assert_eq!(logged.page, fresh(&service).unwrap());
        // Only the superseded snapshot held them.
        admin(&service)
            .ingest_owned(ChangeFeed::new().truncate("addresses"))
            .unwrap();
        let truncated = ask(&service, "Sara");
        assert_ne!(truncated, logged);
        assert_eq!(truncated.page, fresh(&service).unwrap());
        let m = service.metrics();
        assert_eq!((m.cache.retained, m.pipeline_executions), (0, 3));
    }

    #[test]
    fn the_gate_compares_each_probe_across_both_snapshots() {
        let before = minibank_snapshot(8);
        let deps = |snapshot: &EngineSnapshot, input: &str| {
            let recorder = ProbeRecorder::new();
            let options = SearchOptions {
                recorder: Some(&recorder),
                ..SearchOptions::page(0, 10)
            };
            snapshot.search_with(input, &options).unwrap();
            recorder.into_deps()
        };
        let sara = deps(&before, "Sara Guttinger");
        assert!(!sara.is_empty(), "the query probes the base data");
        let nowhere = deps(&before, "Retainville");
        assert!(nowhere.iter().any(|dep| dep.token.is_none()));

        let after = before.absorbed(address_feed(900, "Retainville")).unwrap();
        let retains = |dirty: &[usize], deps: &[ProbeDep]| {
            RetentionGate::new(&before, &after, dirty).retains(deps)
        };
        let addresses = after.shards_for_tables(&["addresses".to_string()]);
        assert!(retains(&addresses, &sara));
        // A phrase with no postings anywhere before the feed has some now.
        assert!(!retains(&addresses, &nowhere));
        // A partition holding the page's candidates is never clean.
        let individuals = after.shards_for_tables(&["individuals".to_string()]);
        assert!(!retains(&individuals, &sara));
    }

    #[test]
    fn concurrent_writers_on_one_tenant_get_dense_generations() {
        let service = sharded_service(4);
        let addresses = |service: &QueryService| {
            let engine = service.engine();
            engine.database().table("addresses").unwrap().row_count()
        };
        let rows_before = addresses(&service);
        let generations: Vec<u64> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2)
                .map(|writer| {
                    let admin = admin(&service);
                    scope.spawn(move || {
                        let mut published = Vec::new();
                        for i in 0..8 {
                            let feed = address_feed(1_000 + 100 * writer + i, "Denseville");
                            published.push(admin.ingest_owned(feed).unwrap());
                            if i % 3 == 2 {
                                published.extend(admin.compact(&[0, 1, 2, 3]));
                            }
                        }
                        published
                    })
                })
                .collect();
            let joined = writers.into_iter().map(|w| w.join().unwrap());
            joined.flatten().collect()
        });
        let mut sorted = generations;
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        assert_eq!(sorted, (1..=n).collect::<Vec<u64>>());
        assert_eq!(service.generation(), n);
        assert_eq!(addresses(&service), rows_before + 16);
    }

    #[test]
    fn full_reloads_still_purge_everything() {
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let w = soda_warehouse::minibank::build(42);
        admin(&service).reload(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        ));
        let m = service.metrics();
        assert_eq!(m.cache.len, 0);
        assert_eq!(m.cache.retained, 0, "full reloads retain nothing");
    }

    #[test]
    fn a_mask_only_log_is_listed_and_folded_by_compact() {
        // A Truncate leaves a log with zero postings but a mask that taxes
        // every probe of its shard: it is a log to fold all the same.
        let service = minibank_service(ServiceConfig::default());
        admin(&service)
            .ingest_owned(ChangeFeed::new().truncate("securities"))
            .unwrap();
        let logged = service.engine().shards_with_side_logs();
        assert_eq!(
            logged,
            service.engine().shards_for_tables(&["securities".into()])
        );
        assert_eq!(
            service.metrics().shards.log_postings.iter().sum::<usize>(),
            0
        );
        assert_eq!(admin(&service).compact(&logged), Some(2));
        assert_eq!(service.metrics().ingest.compactions, 1);
        assert!(service.engine().shards_with_side_logs().is_empty());
    }

    #[test]
    fn events_record_the_operational_history_in_order() {
        let service = minibank_service(ServiceConfig::default());
        admin(&service)
            .ingest_owned(address_feed(900, "Streamville"))
            .unwrap();
        let shards: Vec<usize> = (0..service.engine().shard_count()).collect();
        admin(&service).compact(&shards).expect("a log to fold");
        let w = soda_warehouse::minibank::build(42);
        admin(&service).reload(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        ));
        let events = service.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["ingest", "compaction", "reload"]);
        // Sequence numbers are monotone and the offsets non-decreasing.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].at <= pair[1].at);
        }
        assert!(
            events[0].detail.contains("1 event, 1 row over addresses"),
            "{}",
            events[0].detail
        );
    }

    #[test]
    fn tenant_scoped_cache_clears_leave_other_tenants_warm() {
        let service = minibank_service(ServiceConfig::default());
        let other = soda_warehouse::minibank::build(7);
        service
            .add_tenant(
                "acme",
                Arc::new(EngineSnapshot::build(
                    Arc::new(other.database),
                    Arc::new(other.graph),
                    SodaConfig::default(),
                )),
            )
            .unwrap();
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        service
            .query(QueryRequest::new("Sara Guttinger").tenant("acme"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().cache.len, 2);
        service.admin("acme").unwrap().clear_cache();
        let m = service.metrics();
        assert_eq!(m.cache.len, 1, "only acme's page may be dropped");
        // The default tenant still answers warm.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().cache.hits, 1);
    }
}
