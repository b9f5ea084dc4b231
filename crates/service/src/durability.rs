//! Crash safety: the per-tenant journal state, the **one** recovery
//! function both boot paths call, checkpoints, and the page-cache file a
//! graceful drain leaves for the next boot: the keys of its warm pages,
//! which recovery recomputes.
//!
//! A tenant's journal is the value its writer lock guards, so every journal
//! write runs inside one swap.  Lock order: writer → store; the tenant's
//! facts, where the journal's figures are kept, are a leaf.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use soda_core::{Database, EngineSnapshot, MetaGraph, SodaConfig, TenantId};
use soda_journal::frame::{read_frame_file, write_frame_file};
use soda_journal::{journal_path, FeedJournal, FsyncPolicy};
use soda_relation::{fold_table_name, CodecError, CodecResult, Decoder, Encoder};
use soda_trace::NoopSink;

use crate::cache::CacheKey;
use crate::config::DurabilityConfig;
use crate::request::ServiceError;
use crate::service::{CachedPage, Shared};
use crate::tenants::TenantState;
use crate::worker::search_key;

/// Magic of the persistent page-cache file (the journal has its own,
/// [`soda_journal::JOURNAL_MAGIC`]).  `5` is the format version, the only
/// one the frame reader accepts: an entry is a cache key alone, whose page
/// recovery recomputes.  A file of an earlier version (whose entries
/// carried their pages, with statements as SQL text or as trees, and their
/// probe dependencies, or a shard mask, or whose header lacked the tenant
/// field) restores nothing.
const CACHE_MAGIC: [u8; 8] = *b"SODACSH5";

/// File name of the persistent page cache under the durability directory.
const CACHE_FILE: &str = "pages.cache";

/// What [`QueryService::recover`](crate::QueryService::recover) found and
/// rebuilt, for operator logging.  The same report stays observable
/// afterwards as [`DurabilityMetrics::recovery`](crate::DurabilityMetrics::recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True when no journal existed and a fresh one was created (first boot).
    pub journal_created: bool,
    /// True when the journal began with a checkpoint whose table contents
    /// and generation were applied over the base database.
    pub checkpoint_applied: bool,
    /// Rows the applied checkpoint carried.
    pub checkpoint_rows: usize,
    /// Journaled feeds re-absorbed, in append order.
    pub replayed_feeds: u64,
    /// Journaled feeds the engine rejected again (deterministically — they
    /// were rejected when first ingested, too).
    pub rejected_feeds: u64,
    /// Bytes of torn or corrupt journal tail truncated before replay.
    pub truncated_bytes: u64,
    /// Persisted keys whose pages were recomputed into the warm cache.
    pub cache_pages_restored: u64,
    /// Persisted keys discarded as stale (fingerprint mismatch or
    /// undecodable key).
    pub cache_pages_stale: u64,
}

/// What one tenant's writers need of its journal, held under the tenant's
/// writer lock ([`TenantState::writer`](crate::tenants::TenantState::writer)):
/// a guard of it is the proof that the caller is the tenant's one writer.
/// Its figures ([`DurabilityMetrics`](crate::DurabilityMetrics)) live in
/// the tenant's facts, where `metrics()` reads them without waiting on a
/// writer.
pub(crate) struct DurabilityState {
    pub(crate) journal: FeedJournal,
    /// Every table a journaled feed (or an applied checkpoint) has touched
    /// since the base database.  A checkpoint must re-record **all** of them
    /// — recovery applies it over the unchanged base database, so a table
    /// omitted from one checkpoint would silently revert to its base
    /// content.  The set therefore only ever grows.
    pub(crate) dirty_tables: BTreeSet<String>,
    /// Set while the last checkpoint failed: the journal still holds the
    /// history before the swap that asked for it, and a feed appended
    /// behind that history would replay over the wrong snapshot.  The
    /// next ingest writes the checkpoint first, or is refused.
    pub(crate) checkpoint_owed: bool,
}

/// What a journal is replayed over.
pub(crate) enum RecoveryBase {
    /// A warehouse no engine was built over yet (the default tenant's boot).
    Warehouse(Arc<Database>, Arc<MetaGraph>, SodaConfig),
    /// A prebuilt engine (`add_tenant`), served as is when the journal
    /// holds no checkpoint, and rebuilt with its patterns when it does.
    Engine(Arc<EngineSnapshot>),
}

/// The one recovery path: opens (or creates) `tenant`'s feed journal under
/// `dir` and folds it over `base` into the snapshot to serve — the latest
/// checkpoint's tables land over the base database and its generation is
/// [`restored`](EngineSnapshot::restored), then every feed appended after
/// it is [`absorbed`](EngineSnapshot::absorbed) in order.  The journal
/// header carries the fingerprint of the configuration its last checkpoint
/// served (of `base`'s, for a journal without one) and the tenant
/// fingerprint (0 for the default tenant), so a foreign journal is refused
/// and one tenant's history can never replay into another's snapshot.
/// `base` must be what the journaled history started from.
pub(crate) fn recover_journal(
    dir: &Path,
    tenant: &TenantId,
    fsync: FsyncPolicy,
    base: RecoveryBase,
) -> Result<(Arc<EngineSnapshot>, DurabilityState, RecoveryReport), ServiceError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ServiceError::Durability(format!("creating {}: {e}", dir.display())))?;
    let (db, graph, config, prebuilt) = match base {
        RecoveryBase::Warehouse(db, graph, config) => (db, graph, config, None),
        RecoveryBase::Engine(engine) => (
            engine.database_arc(),
            engine.graph_arc(),
            engine.config().clone(),
            Some(engine),
        ),
    };
    let (journal, replay) = FeedJournal::recover(
        &journal_path(dir),
        config.fingerprint(),
        tenant.fingerprint(),
        fsync,
    )
    .map_err(|e| ServiceError::Durability(e.to_string()))?;
    let mut report = RecoveryReport {
        journal_created: replay.created,
        truncated_bytes: replay.truncated_bytes,
        ..RecoveryReport::default()
    };
    let (checkpoint, feeds) = replay.into_plan();

    // The checkpoint's tables land over the base database; everything it
    // did not record keeps its base content (which is why checkpoints
    // re-record every table ever touched).
    let mut dirty_tables = BTreeSet::new();
    let mut engine = match (&checkpoint, prebuilt) {
        (None, Some(engine)) => engine,
        (None, None) => Arc::new(EngineSnapshot::build(db, graph, config)),
        (Some(cp), prebuilt) => {
            let mut db = (*db).clone();
            for (name, rows) in &cp.tables {
                let failed = |e: soda_relation::RelationError| {
                    ServiceError::Durability(format!("applying checkpoint to `{name}`: {e}"))
                };
                let table = db.table_mut(name).map_err(failed)?;
                table.truncate();
                table.insert_all(rows.iter().cloned()).map_err(failed)?;
                report.checkpoint_rows += rows.len();
                dirty_tables.insert(fold_table_name(name).into_owned());
            }
            report.checkpoint_applied = true;
            let patterns = prebuilt.map(|e| e.patterns().clone()).unwrap_or_default();
            let built = EngineSnapshot::with_patterns(Arc::new(db), graph, config, patterns);
            Arc::new(built.restored(cp.generation))
        }
    };
    for feed in feeds {
        // A replay rejection is deterministic — the feed was rejected when
        // first ingested too (it reached the journal write-ahead) — so it
        // is counted, not fatal.  Feeds are consumed: replay moves rows
        // through the same copy-on-write path as live ingestion.
        let tables = feed.tables();
        match engine.absorbed(feed) {
            Ok(next) => {
                engine = Arc::new(next);
                report.replayed_feeds += 1;
                dirty_tables.extend(tables);
            }
            Err(_) => report.rejected_feeds += 1,
        }
    }
    let state = DurabilityState {
        journal,
        dirty_tables,
        checkpoint_owed: false,
    };
    Ok((engine, state, report))
}

/// Serializes one warm cache entry's key for the page-cache file — the
/// fingerprint included, which recovery filters on.  The page is not
/// stored: recovery recomputes it from the key.
fn encode_cache_key(key: &CacheKey) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_str(&key.normalized);
    enc.put_u64(key.snapshot_fingerprint);
    enc.put_usize(key.page);
    enc.put_usize(key.page_size);
    enc.into_bytes()
}

/// Inverse of [`encode_cache_key`]; trailing bytes are an error so a
/// miscounted frame cannot half-decode.
fn decode_cache_key(bytes: &[u8]) -> CodecResult<CacheKey> {
    let mut dec = Decoder::new(bytes);
    let key = CacheKey {
        normalized: dec.get_str()?.into(),
        snapshot_fingerprint: dec.get_u64()?,
        page: dec.get_usize()?,
        page_size: dec.get_usize()?,
    };
    if !dec.is_empty() {
        return Err(CodecError::BadLength);
    }
    Ok(key)
}

/// Reads the keys a graceful drain left under `config.dir`, keeps those
/// whose fingerprint matches the *recovered* snapshot `engine` — queries
/// will actually look them up under that key; a file stamped with another
/// configuration than `engine`'s matches none — and recomputes each one's
/// page on the calling thread with the search a worker runs on a miss
/// (the normalized text answers like every input that normalizes to it).
/// Kept and discarded keys are counted into `report`.  Strictly
/// best-effort: a missing, foreign, torn or stale file restores nothing and
/// fails nothing, and with `persist_cache` off nothing is read.
pub(crate) fn load_cache_pages(
    config: &DurabilityConfig,
    report: &mut RecoveryReport,
    engine: &EngineSnapshot,
) -> Vec<(CacheKey, CachedPage)> {
    if !config.persist_cache {
        return Vec::new();
    }
    let Ok(Some(scan)) = read_frame_file(&config.dir.join(CACHE_FILE), CACHE_MAGIC) else {
        return Vec::new();
    };
    let live =
        (scan.fingerprint == engine.config().fingerprint()).then(|| engine.cache_fingerprint());
    let mut restored = Vec::new();
    for payload in &scan.frames {
        let key = decode_cache_key(payload).ok();
        let entry = key
            .filter(|key| Some(key.snapshot_fingerprint) == live)
            .and_then(|key| {
                let (searched, deps) = search_key(engine, &key.normalized, &key, &NoopSink);
                let page = Arc::new(searched.ok()?.page);
                Some((key, CachedPage { page, deps }))
            });
        match entry {
            Some(entry) => restored.push(entry),
            None => report.cache_pages_stale += 1,
        }
    }
    report.cache_pages_restored = restored.len() as u64;
    restored
}

/// The graceful drain's last step, run with the workers joined (the cache
/// is final): persists the keys of the default tenant's live pages, oldest
/// first so re-insertion reproduces the recency order, for the next
/// [`QueryService::recover`](crate::QueryService::recover) to recompute.
/// Best-effort by design — a failed write costs warm starts, never
/// correctness.  The file is the default tenant's (other tenants recompute
/// their first pages), stamped with the live snapshot's configuration and
/// the default tenant's fingerprint, 0, so it holds only keys carrying
/// that tenant's live fingerprint: any other key could never be restored.
pub(crate) fn persist_cache_pages(shared: &Shared) {
    let Some(config) = shared
        .durability_config
        .as_ref()
        .filter(|c| c.persist_cache)
    else {
        return;
    };
    let tenant = shared.tenants.default_tenant();
    let snapshot = tenant.snapshot();
    let live = tenant.id.fold(snapshot.cache_fingerprint());
    let store = shared.store.lock().expect("store poisoned");
    let payloads: Vec<Vec<u8>> = store
        .cache
        .iter_oldest_first()
        .filter(|(key, _)| key.snapshot_fingerprint == live)
        .map(|(key, _)| encode_cache_key(key))
        .collect();
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let _ = write_frame_file(
        &config.dir.join(CACHE_FILE),
        CACHE_MAGIC,
        snapshot.config().fingerprint(),
        TenantId::default().fingerprint(),
        &refs,
    );
}

/// Writes a checkpoint of one tenant — the live content of every dirty
/// table plus the live generation, under the live configuration's
/// fingerprint — atomically *replacing* that tenant's journal `d`, which is
/// what keeps replay bounded.  With
/// `mark_all_tables` the whole live database is recorded first (a reload
/// swaps in data the journal never saw).  `d` is borrowed from the
/// tenant's writer guard, so the caller is the tenant's one writer.  A
/// failed write is counted, leaves the old journal in place and marks the
/// checkpoint owed ([`DurabilityState::checkpoint_owed`]).
pub(crate) fn write_checkpoint(
    shared: &Shared,
    tenant: &TenantState,
    d: &mut DurabilityState,
    mark_all_tables: bool,
) {
    let snapshot = tenant.snapshot();
    let db = snapshot.database();
    if mark_all_tables {
        // Folded the way the catalog folds them — and a feed's tables come
        // folded — so a table is recorded once however its schema spells it.
        let names = db.table_names().into_iter();
        d.dirty_tables
            .extend(names.map(|name| fold_table_name(name).into_owned()));
    }
    let mut tables = Vec::with_capacity(d.dirty_tables.len());
    for name in &d.dirty_tables {
        // A name the live database no longer knows (possible after a reload
        // that dropped a table) simply has nothing to record.
        if let Ok(table) = db.table(name) {
            tables.push((name.as_str(), table.rows()));
        }
    }
    let generation = snapshot.generation();
    let fingerprint = snapshot.config().fingerprint();
    let outcome = d.journal.write_checkpoint(fingerprint, generation, &tables);
    d.checkpoint_owed = outcome.is_err();
    {
        let mut facts = tenant.facts();
        let figures = &mut facts.durability;
        figures.journal_bytes = d.journal.len_bytes();
        match &outcome {
            Ok(_) => figures.checkpoints += 1,
            Err(_) => figures.checkpoint_failures += 1,
        }
    }
    match outcome {
        Ok(bytes) => shared.event(
            "checkpoint",
            &tenant.id,
            format!(
                "generation {generation}, {} tables, journal now {bytes} bytes",
                tables.len(),
            ),
        ),
        Err(e) => shared.event("checkpoint_failure", &tenant.id, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use soda_core::ResultPage;
    use soda_relation::{print_select, CompareOp, Expr, Value};

    use super::*;
    use crate::{DurabilityConfig, QueryRequest, QueryService, ServiceConfig};

    fn recover_at(dir: &Path) -> (QueryService, RecoveryReport) {
        let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
        let durability = DurabilityConfig::new(dir);
        QueryService::recover(
            db,
            graph,
            SodaConfig::default(),
            ServiceConfig::default(),
            durability,
        )
        .expect("recovery must succeed")
    }

    fn cached_keys(service: &QueryService) -> Vec<CacheKey> {
        let store = service.shared.store.lock().unwrap();
        store
            .cache
            .iter_oldest_first()
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// A restored page is recomputed from its key, not read back: a page
    /// tampered with in the cache — a date-shaped *text* literal, whose SQL
    /// would parse back as a date — comes back as the fresh page.
    #[test]
    fn a_restored_page_is_recomputed_not_read_back() {
        let dir = std::env::temp_dir().join(format!("soda-durability-key-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (service, _) = recover_at(&dir);
        let queries = ["Sara Guttinger", "wealthy customers", "salary > 100000"];
        for query in queries {
            service.query(QueryRequest::new(query)).wait().unwrap();
        }
        let keys = cached_keys(&service);
        assert_eq!(keys.len(), 3);
        let tampered = {
            let mut store = service.shared.store.lock().unwrap();
            let entry = store.cache.get(&keys[1]).unwrap();
            let deps = entry.deps.clone();
            let mut page = ResultPage::clone(&entry.page);
            let top = &mut page.results[0];
            let text = Expr::compare(
                CompareOp::Eq,
                Expr::qualified("individuals", "firstname"),
                Expr::Literal(Value::from("2020-01-01")),
            );
            top.statement.selection = Some(match top.statement.selection.take() {
                Some(filter) => Expr::And(Box::new(filter), Box::new(text)),
                None => text,
            });
            top.sql = print_select(&top.statement);
            let page = Arc::new(page);
            let entry = CachedPage {
                page: Arc::clone(&page),
                deps,
            };
            store.cache.insert(keys[1].clone(), entry);
            page
        };
        let drained = cached_keys(&service);
        drop(service);

        let (service, report) = recover_at(&dir);
        assert_eq!(report.cache_pages_restored, 3);
        assert_eq!(report.cache_pages_stale, 0);
        assert_eq!(cached_keys(&service), drained);
        let restored = {
            let mut store = service.shared.store.lock().unwrap();
            Arc::clone(&store.cache.get(&keys[1]).unwrap().page)
        };
        let fresh = service.engine().search_paged(queries[1], 0, 10).unwrap();
        assert_eq!(*restored, fresh);
        assert_ne!(restored, tampered);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
