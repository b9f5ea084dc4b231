//! Sharded inverted index over the text columns of the base data.
//!
//! The paper builds an inverted index over all 472 base tables (text columns
//! only; 9.5 GB, 24 hours to build on their hardware).  Here the index offers
//! the phrase lookup the SODA lookup step needs: given a keyword such as
//! "Zurich" or "Credit Suisse", return the columns whose cells contain it,
//! together with the matched cell value — that value becomes the filter
//! literal in the generated SQL.
//!
//! ## Value-level postings
//!
//! A [`PhraseHit`] — table, column, value, row count — is a fact about a
//! distinct value of a column, so that is what a shard stores: one entry per
//! distinct `(column, cell text)` with the text, its normalised form and its
//! row count, and `token → entry ids` (see `postings.rs`).  A probe walks
//! the entries of one token — 5 for "AUD" in a warehouse where 3 515 rows
//! hold it — and never reads the tables again.
//!
//! Two rules are unchanged from the row-level index this replaced, because
//! they decide the answers:
//!
//! * The probe token is the phrase's globally rarest token by **live row
//!   count** ([`token_frequency`](ShardedInvertedIndex::token_frequency)),
//!   first minimum winning — so a side-log-merged index, a folded one, a
//!   fresh build and any shard count choose the same token.
//! * A candidate matches when its normalised text *contains* the normalised
//!   phrase as a substring.  Intersecting the posting lists of all the
//!   phrase's tokens would be a different test: "dit suisse" finds "Credit
//!   Suisse" here, because only the probe token has to be a whole token of
//!   the cell.
//!
//! ## Sharding
//!
//! The postings are partitioned into [`IndexShard`]s by a *stable* hash of
//! the owning table ([`shard_for_table`]), so every table's postings live in
//! exactly one shard.  The partition is the unit of the streaming side
//! logs, of their fold
//! ([`with_folded_logs`](ShardedInvertedIndex::with_folded_logs), which
//! merges a log into a copy of its partition) and of cache retention; it is
//! not a unit of parallelism — a probe is a handful of entries per shard,
//! and callers walk the shards in order.  Per-shard results merge
//! deterministically ([`merge_hits`]): shards own disjoint table sets, so a sort by
//! `(table, column, value)` reproduces the output of the monolithic index
//! regardless of the shard count.

use std::sync::Arc;

use super::postings::ValuePostings;
use super::sidelog::SideLog;
use super::tokenizer::tokenize;
use crate::catalog::{fold_table_name, Database};

/// The classic (monolithic) inverted index is the 1-shard case of the
/// sharded structure.
pub type InvertedIndex = ShardedInvertedIndex;

/// Result of a phrase lookup: a column that contains the phrase, the matched
/// cell value and how many rows matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhraseHit {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// The exact cell value that matched (used as the SQL filter literal).
    pub value: String,
    /// Number of rows with this exact value that matched the phrase.
    pub row_count: usize,
}

/// A prepared phrase probe, shared by every shard of one lookup so that all
/// shards walk the entries of the *same* token.
///
/// The probe token is chosen by global frequency across all shards
/// ([`ShardedInvertedIndex::probe`]); choosing it per shard would let the
/// shard count change which candidate cells are considered and thereby the
/// result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhraseProbe {
    /// The normalized phrase: its tokens joined by single spaces.  A cell
    /// matches when its normalized text contains this needle.
    pub needle: String,
    /// The globally rarest token of the phrase — every shard walks this
    /// token's entries.  Always normalized (lower-case tokenizer output).
    pub token: String,
}

impl PhraseProbe {
    /// The probe of a phrase given as its normalized `tokens` and the live
    /// frequency of each ([`ShardedInvertedIndex::token_frequency`]): the
    /// rarest token is probed, the first one among equals.  `None` when the
    /// phrase is empty or some token has no live posting — every token of
    /// the phrase must occur in a matching cell, so the probe cannot hit.
    pub fn select(tokens: &[String], frequencies: &[usize]) -> Option<PhraseProbe> {
        debug_assert_eq!(tokens.len(), frequencies.len());
        let (rarest, &frequency) = frequencies.iter().enumerate().min_by_key(|&(_, f)| f)?;
        (frequency > 0).then(|| PhraseProbe {
            needle: tokens.join(" "),
            token: tokens[rarest].clone(),
        })
    }
}

/// Routes a string key to one of `shard_count` partitions by stable hash.
fn stable_shard(key: &str, shard_count: usize) -> usize {
    if shard_count <= 1 {
        return 0;
    }
    (crate::fnv1a(0, key.as_bytes()) % shard_count as u64) as usize
}

/// The shard that owns `table`'s postings.  Names are folded the way the
/// catalog folds them (ASCII case), so two spellings route together exactly
/// when they name the same table.
pub fn shard_for_table(table: &str, shard_count: usize) -> usize {
    stable_shard(&fold_table_name(table), shard_count)
}

/// One partition of the inverted index: the value-level postings of the
/// tables whose stable hash routes here.
#[derive(Debug, Default, Clone)]
pub struct IndexShard {
    values: ValuePostings,
}

impl IndexShard {
    /// Number of row-level postings in this shard: one per row and distinct
    /// token of its cell, however few value entries hold them.
    pub fn posting_count(&self) -> usize {
        self.values.posting_count()
    }

    /// Builds the single partition `shard_idx` of a `shard_count`-way sharded
    /// index: only the tables whose stable hash routes to that partition are
    /// scanned.  The one partition builder:
    /// [`build_sharded`](ShardedInvertedIndex::build_sharded) calls it for
    /// every shard; a fold merges a side log into a built partition
    /// ([`folded`](Self::folded)) instead of building it again.
    pub fn build_partition(db: &Database, shard_idx: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let mut shard = IndexShard::default();
        for table in db.tables() {
            if shard_for_table(&table.schema().name, shard_count) == shard_idx {
                shard.values.index_rows(table, 0);
            }
        }
        shard
    }

    /// A copy of this partition with `log` folded in: the masked tables'
    /// entries dropped, every logged value's rows added to its entry (or
    /// appended as a new one).  Counts what
    /// [`build_partition`](Self::build_partition) would over the live
    /// database, without reading it.
    pub fn folded(&self, log: &SideLog) -> Self {
        let mut values = self.values.clone();
        values.fold(&log.values, log.masked_tables());
        Self { values }
    }

    /// Probes this shard *overlaid with its side log* for a prepared phrase:
    /// frozen entries of masked tables are skipped (their rows were replaced
    /// or truncated since the partition was built), the log's entries join
    /// in, and row counts add up per `(table, column, value)` across both
    /// sources.  Returns one hit per distinct triple, sorted by it.
    /// Frozen and log entries count disjoint rows by construction (appends
    /// index only the new tail rows; replacements mask the frozen side), so
    /// the result is byte-identical to probing a partition freshly rebuilt
    /// over the updated database.
    pub fn probe_phrase_with_log(&self, probe: &PhraseProbe, log: &SideLog) -> Vec<PhraseHit> {
        let mut found = Vec::new();
        self.values
            .collect_hits(probe, log.masked_tables(), &mut found);
        log.values.collect_hits(probe, &[], &mut found);
        found.sort_unstable_by_key(|&(table, column, value, _)| (table, column, value));
        let mut hits: Vec<PhraseHit> = Vec::with_capacity(found.len());
        for (table, column, value, row_count) in found {
            match hits.last_mut() {
                Some(last)
                    if last.table == table && last.column == column && last.value == value =>
                {
                    last.row_count += row_count
                }
                _ => hits.push(PhraseHit {
                    table: table.to_string(),
                    column: column.to_string(),
                    value: value.to_string(),
                    row_count,
                }),
            }
        }
        hits
    }
}

/// Merges per-shard probe results into the canonical order: ascending by
/// `(table, column, value)`.  Because shards own disjoint table sets, this is
/// byte-identical to what the 1-shard index produces for the same probe —
/// the invariant the shard-invariance property tests pin down.  Each shard's
/// hits arrive sorted, so when at most one shard answered its list is the
/// result as it stands.
pub fn merge_hits(mut per_shard: Vec<Vec<PhraseHit>>) -> Vec<PhraseHit> {
    per_shard.retain(|hits| !hits.is_empty());
    if per_shard.len() <= 1 {
        return per_shard.pop().unwrap_or_default();
    }
    let mut all: Vec<PhraseHit> = per_shard.into_iter().flatten().collect();
    all.sort_by(|a, b| (&a.table, &a.column, &a.value).cmp(&(&b.table, &b.column, &b.value)));
    all
}

/// Inverted index over text columns of a [`Database`], partitioned by table.
///
/// Each partition sits behind an [`Arc`], so a derived index that folds
/// only some partitions' logs (see [`with_folded_logs`](Self::with_folded_logs))
/// shares the untouched ones with its parent instead of copying their
/// postings — the structural basis of per-shard hot snapshot swapping.
#[derive(Debug, Clone)]
pub struct ShardedInvertedIndex {
    shards: Vec<Arc<IndexShard>>,
    /// Per-shard side logs, parallel to `shards` (all empty until a
    /// streaming ingestion writes them through [`log_mut`](Self::log_mut)).
    /// Every probe merges a shard with its log; a fold merges the log into
    /// a copy of its partition and clears it.
    logs: Vec<Arc<SideLog>>,
}

impl Default for ShardedInvertedIndex {
    fn default() -> Self {
        Self {
            shards: vec![Arc::new(IndexShard::default())],
            logs: vec![Arc::new(SideLog::default())],
        }
    }
}

impl ShardedInvertedIndex {
    /// Builds the classic monolithic index (one shard) over every text column
    /// of every table.
    pub fn build(db: &Database) -> Self {
        Self::build_sharded(db, 1)
    }

    /// Builds the index partitioned into `shard_count` shards (clamped to at
    /// least 1) by the stable table hash, one
    /// [`build_partition`](IndexShard::build_partition) per shard.
    pub fn build_sharded(db: &Database, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        Self {
            shards: (0..shard_count)
                .map(|i| Arc::new(IndexShard::build_partition(db, i, shard_count)))
                .collect(),
            logs: (0..shard_count).map(|_| Arc::default()).collect(),
        }
    }

    /// Derives an index in which the side logs of the partitions named by
    /// `shards` are folded into copies of those partitions: each copy drops
    /// the masked tables' entries and merges the logged entries in
    /// ([`IndexShard::folded`]), and its log comes back empty.  Every other
    /// partition and log is shared with `self` by [`Arc`].  No table is
    /// read, so a fold costs the partitions it copies and the logs it
    /// merges, not the rows they describe; it answers like a rebuild over
    /// the live database, because live rows are the unmasked frozen ones
    /// plus the logged ones.  Out-of-range entries in `shards` are ignored.
    pub fn with_folded_logs(&self, shards: &[usize]) -> Self {
        let mut next = self.clone();
        for i in (0..next.shards.len()).filter(|i| shards.contains(i)) {
            next.shards[i] = Arc::new(next.shards[i].folded(&next.logs[i]));
            next.logs[i] = Arc::default();
        }
        next
    }

    /// The side log of the partition owning `table`, for writing — the one
    /// write path into a side log, which is how streaming ingestion
    /// (`soda_ingest::absorb`) records a feed.  The log is copied on write
    /// ([`Arc::make_mut`]): when it is shared with another index (the
    /// published generation this one was cloned from) the first write
    /// copies it, later writes reuse the copy, and every log the caller
    /// never names stays shared.
    pub fn log_mut(&mut self, table: &str) -> &mut SideLog {
        let shard = shard_for_table(table, self.logs.len());
        Arc::make_mut(&mut self.logs[shard])
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in partition order.  The hot-swap layer clones individual
    /// [`Arc`]s to share unchanged partitions across snapshot generations.
    pub fn shards(&self) -> &[Arc<IndexShard>] {
        &self.shards
    }

    /// The per-shard side logs, parallel to [`shards`](Self::shards) (empty
    /// logs for an index that never absorbed a change feed).
    pub fn side_logs(&self) -> &[Arc<SideLog>] {
        &self.logs
    }

    /// True when any shard carries a non-empty side log.
    pub fn has_side_logs(&self) -> bool {
        self.logs.iter().any(|l| !l.is_empty())
    }

    /// Side-log postings per shard, in partition order.
    pub fn side_log_postings(&self) -> Vec<usize> {
        self.logs.iter().map(|l| l.posting_count()).collect()
    }

    /// Total number of row-level postings in the frozen partitions.
    pub fn posting_count(&self) -> usize {
        self.shards.iter().map(|s| s.posting_count()).sum()
    }

    /// Total *live* rows holding `token` — which must be normalized
    /// (tokenizer output) — across all shards: rows of masked tables are
    /// excluded and side-log rows are included, so the count equals what a
    /// full rebuild over the ingested database would report.  Probe-token
    /// selection rides on this, which is what keeps the chosen token — and
    /// therefore the candidate set and the generated SQL — identical between
    /// a side-log-merged index and a fully rebuilt one.
    pub fn token_frequency(&self, token: &str) -> usize {
        self.shards
            .iter()
            .zip(&self.logs)
            .map(|(shard, log)| {
                shard.values.live_rows(token, log.masked_tables())
                    + log.values.live_rows(token, &[])
            })
            .sum()
    }

    /// Probes one shard, merged with its side log.
    pub fn probe_shard(&self, shard: usize, probe: &PhraseProbe) -> Vec<PhraseHit> {
        self.shards[shard].probe_phrase_with_log(probe, &self.logs[shard])
    }

    /// Number of candidate entries (frozen + side log) a probe of `token`
    /// would walk in one shard: the distinct column values holding the
    /// (normalized) token.  Frozen candidates of masked tables are included
    /// — this gauges the walk, not the hit count; it is zero exactly when
    /// the shard holds no posting of the token.
    pub fn shard_candidates(&self, shard: usize, token: &str) -> usize {
        let (frozen, log) = self.shard_candidate_split(shard, token);
        frozen + log
    }

    /// [`shard_candidates`](Self::shard_candidates) split into its two
    /// sources: `(frozen partition entries, side-log entries)`.  Query
    /// tracing reports both per probed shard, so a trace shows whether a
    /// probe's candidates came from the frozen index or from not-yet-compacted
    /// streaming ingests.
    pub fn shard_candidate_split(&self, shard: usize, token: &str) -> (usize, usize) {
        (
            self.shards[shard].values.candidates(token),
            self.logs[shard].values.candidates(token),
        )
    }

    /// Prepares a phrase probe: normalizes the phrase and selects the
    /// globally rarest token ([`PhraseProbe::select`]).  Returns `None` when
    /// the phrase has no tokens or the rarest token has no postings anywhere
    /// (the probe cannot hit).
    pub fn probe(&self, phrase: &str) -> Option<PhraseProbe> {
        let words = tokenize(phrase);
        let frequencies: Vec<usize> = words.iter().map(|w| self.token_frequency(w)).collect();
        PhraseProbe::select(&words, &frequencies)
    }

    /// Phrase lookup: finds columns whose cells contain *all* words of the
    /// phrase (as a case-insensitive substring of the cell text, mirroring the
    /// paper's "Credit Suisse" example which must match the full organisation
    /// name).  Returns one hit per distinct `(table, column, cell value)` in
    /// canonical order; the result is independent of the shard count.
    pub fn lookup_phrase(&self, phrase: &str) -> Vec<PhraseHit> {
        let Some(probe) = self.probe(phrase) else {
            return Vec::new();
        };
        merge_hits(
            (0..self.shards.len())
                .map(|shard| self.probe_shard(shard, &probe))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("organization")
                .column("party_id", DataType::Int)
                .column("org_name", DataType::Text)
                .column("country", DataType::Text)
                .primary_key("party_id")
                .build(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("address")
                .column("address_id", DataType::Int)
                .column("city", DataType::Text)
                .column("zip", DataType::Int)
                .build(),
        )
        .unwrap();
        db.insert(
            "organization",
            vec![
                Value::Int(1),
                Value::from("Credit Suisse"),
                Value::from("Switzerland"),
            ],
        )
        .unwrap();
        db.insert(
            "organization",
            vec![
                Value::Int(2),
                Value::from("Helvetia Insurance"),
                Value::from("Switzerland"),
            ],
        )
        .unwrap();
        db.insert(
            "address",
            vec![Value::Int(10), Value::from("Zurich"), Value::Int(8001)],
        )
        .unwrap();
        db.insert(
            "address",
            vec![Value::Int(11), Value::from("Geneva"), Value::Int(1201)],
        )
        .unwrap();
        db.insert(
            "address",
            vec![Value::Int(12), Value::from("Zurich"), Value::Int(8002)],
        )
        .unwrap();
        db
    }

    #[test]
    fn builds_over_text_columns_only() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        assert_eq!(idx.shard_count(), 1);
        assert_eq!(idx.token_frequency("zurich"), 2);
        assert_eq!(idx.token_frequency("8001"), 0); // numeric column not indexed
    }

    #[test]
    fn token_frequency_counts_rows_of_normalized_tokens() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        assert_eq!(idx.token_frequency("zurich"), 2);
        assert_eq!(idx.token_frequency("basel"), 0);
        // Tokens are stored normalized; so must the argument be.
        assert_eq!(idx.token_frequency("ZURICH"), 0);
        assert_eq!(idx.lookup_phrase("ZURICH"), idx.lookup_phrase("zurich"));
    }

    #[test]
    fn phrase_lookup_finds_multi_word_values() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let hits = idx.lookup_phrase("Credit Suisse");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].table, "organization");
        assert_eq!(hits[0].column, "org_name");
        assert_eq!(hits[0].value, "Credit Suisse");
        // Single word appearing in two different rows of the same column is
        // one hit with row_count 2.
        let hits = idx.lookup_phrase("Zurich");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].row_count, 2);
    }

    #[test]
    fn phrase_lookup_requires_all_words() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        assert!(idx.lookup_phrase("Credit Helvetia").is_empty());
        assert!(idx.lookup_phrase("").is_empty());
    }

    #[test]
    fn posting_count_tracks_tokens_per_cell_once() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("c", DataType::Text)
                .build(),
        )
        .unwrap();
        db.insert("t", vec![Value::from("gold gold gold")]).unwrap();
        let idx = InvertedIndex::build(&db);
        // The same token in one cell is recorded once.
        assert_eq!(idx.posting_count(), 1);
    }

    #[test]
    fn a_value_is_one_entry_however_many_rows_hold_it() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        // Two of the three addresses are in Zurich: one candidate entry
        // carrying both rows, two row-level postings.
        let probe = idx.probe("Zurich").unwrap();
        assert_eq!(idx.shard_candidates(0, &probe.token), 1);
        assert_eq!(idx.lookup_phrase("Zurich")[0].row_count, 2);
        // credit, suisse, helvetia, insurance, 2 × switzerland, 2 × zurich,
        // geneva.
        assert_eq!(idx.posting_count(), 9);
    }

    #[test]
    fn the_needle_is_a_substring_test_not_a_token_intersection() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        // Only the probe token ("suisse") has to be a whole token of the
        // cell; "dit" is a fragment of "credit".
        assert_eq!(idx.token_frequency("dit"), 0);
        assert!(idx.lookup_phrase("dit suisse").is_empty());
        let probe = PhraseProbe {
            needle: "dit suisse".into(),
            token: "suisse".into(),
        };
        let hits = idx.probe_shard(0, &probe);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value, "Credit Suisse");
    }

    #[test]
    fn stable_shard_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 8, 16] {
            for key in ["organization", "address", "trade_order_td", ""] {
                let s = stable_shard(key, n);
                assert!(s < n.max(1));
                assert_eq!(s, stable_shard(key, n), "hash must be stable");
            }
        }
        assert_eq!(stable_shard("anything", 1), 0);
        // Case-insensitive routing matches the catalog's table naming.
        assert_eq!(
            shard_for_table("Trade_Order_TD", 8),
            shard_for_table("trade_order_td", 8)
        );
    }

    #[test]
    fn sharded_build_partitions_every_table_into_exactly_one_shard() {
        let db = db();
        for shards in [2usize, 3, 8] {
            let idx = InvertedIndex::build_sharded(&db, shards);
            assert_eq!(idx.shard_count(), shards);
            // Global sizes are preserved under partitioning.
            let mono = InvertedIndex::build(&db);
            assert_eq!(idx.posting_count(), mono.posting_count());
            // Each table's hits come from exactly the shard its hash names.
            for phrase in ["Zurich", "Credit Suisse", "Switzerland", "Geneva"] {
                let probe = idx.probe(phrase).unwrap();
                for i in 0..shards {
                    for hit in idx.probe_shard(i, &probe) {
                        assert_eq!(shard_for_table(&hit.table, shards), i);
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_lookup_matches_monolithic_lookup() {
        let db = db();
        let mono = InvertedIndex::build(&db);
        for shards in [2usize, 5, 8] {
            let idx = InvertedIndex::build_sharded(&db, shards);
            for phrase in ["Zurich", "Credit Suisse", "Switzerland", "Geneva", ""] {
                assert_eq!(
                    mono.lookup_phrase(phrase),
                    idx.lookup_phrase(phrase),
                    "phrase '{phrase}' diverged at {shards} shards"
                );
                assert_eq!(
                    mono.token_frequency(&phrase.to_lowercase()),
                    idx.token_frequency(&phrase.to_lowercase()),
                    "token '{phrase}' diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn build_partition_reproduces_the_sharded_build_shard_by_shard() {
        let db = db();
        for shards in [1usize, 2, 3, 8] {
            let idx = InvertedIndex::build_sharded(&db, shards);
            for (i, shard) in idx.shards().iter().enumerate() {
                let rebuilt = IndexShard::build_partition(&db, i, shards);
                assert_eq!(rebuilt.values, shard.values, "shard {i}/{shards}");
            }
        }
    }

    /// An index built over `base` whose side logs reflect the events
    /// `apply` makes on a copy of it: the canonical ingestion shape
    /// (`soda-ingest` drives the same calls through its `absorb`).
    fn logged_index_after(
        base: &Database,
        shards: usize,
        apply: impl Fn(&mut Database, &mut InvertedIndex),
    ) -> (Database, InvertedIndex) {
        let mut idx = InvertedIndex::build_sharded(base, shards);
        let mut db = base.clone();
        apply(&mut db, &mut idx);
        (db, idx)
    }

    #[test]
    fn with_folded_logs_shares_partitions() {
        let base = db();
        let shards = 4;
        // Log a new value and one more row of a known one, and a replaced
        // table; then fold the partitions owning them.
        let (db, logged) = logged_index_after(&base, shards, |db, idx| {
            let start = db.table("address").unwrap().row_count();
            for (id, city) in [(13, "Zurich Oerlikon"), (14, "Geneva")] {
                let row = vec![Value::Int(id), Value::from(city), Value::Int(8050)];
                db.insert("address", row).unwrap();
            }
            idx.log_mut("address")
                .append_rows(db.table("address").unwrap(), start);
            db.table_mut("organization").unwrap().truncate();
            let row = vec![
                Value::Int(7),
                Value::from("Credit Suisse"),
                Value::from("Basel"),
            ];
            db.insert("organization", row).unwrap();
            idx.log_mut("organization")
                .replace_table(db.table("organization").unwrap());
        });
        let owners = [
            shard_for_table("address", shards),
            shard_for_table("organization", shards),
        ];
        let after = logged.with_folded_logs(&owners);
        // The folded index answers and counts exactly like a fresh build.
        let fresh = InvertedIndex::build_sharded(&db, shards);
        for phrase in [
            "Zurich",
            "Oerlikon",
            "Geneva",
            "Credit Suisse",
            "Helvetia",
            "Basel",
        ] {
            assert_eq!(
                after.lookup_phrase(phrase),
                fresh.lookup_phrase(phrase),
                "phrase '{phrase}'"
            );
            for token in tokenize(phrase) {
                for shard in owners {
                    assert_eq!(
                        after.shard_candidates(shard, &token),
                        fresh.shard_candidates(shard, &token),
                        "candidates of '{token}' in shard {shard}"
                    );
                }
            }
        }
        assert_eq!(after.posting_count(), fresh.posting_count());
        // "Zurich Oerlikon" is a new entry; the second "Geneva" joins its.
        assert_eq!(after.shard_candidates(owners[0], "zurich"), 2);
        assert_eq!(after.shard_candidates(owners[0], "geneva"), 1);
        assert_eq!(after.lookup_phrase("Geneva")[0].row_count, 2);
        // Untouched partitions and logs are shared, not copied; a folded
        // partition is new and its log is empty.
        let pairs = logged.shards().iter().zip(after.shards());
        for (i, (old, new)) in pairs.enumerate() {
            assert_eq!(Arc::ptr_eq(old, new), !owners.contains(&i), "shard {i}");
        }
        let pairs = logged.side_logs().iter().zip(after.side_logs());
        for (i, (old, new)) in pairs.enumerate() {
            assert_eq!(Arc::ptr_eq(old, new), !owners.contains(&i), "log {i}");
        }
        assert!(!after.has_side_logs());
        // Out-of-range indexes are ignored.
        let noop = after.with_folded_logs(&[99]);
        for (old, new) in after.shards().iter().zip(noop.shards()) {
            assert!(Arc::ptr_eq(old, new));
        }
    }

    #[test]
    fn side_log_merged_index_matches_a_full_rebuild() {
        let base = db();
        for shards in [1usize, 2, 4, 8] {
            let (new_db, logged) = logged_index_after(&base, shards, |db, idx| {
                // Append a new address row…
                let start = db.table("address").unwrap().row_count();
                db.insert(
                    "address",
                    vec![Value::Int(13), Value::from("Basel"), Value::Int(4001)],
                )
                .unwrap();
                idx.log_mut("address")
                    .append_rows(db.table("address").unwrap(), start);
                // …and replace the organization table wholesale.
                db.table_mut("organization").unwrap().truncate();
                db.insert(
                    "organization",
                    vec![
                        Value::Int(7),
                        Value::from("Basler Bank"),
                        Value::from("Basel"),
                    ],
                )
                .unwrap();
                idx.log_mut("organization")
                    .replace_table(db.table("organization").unwrap());
            });
            let rebuilt = InvertedIndex::build_sharded(&new_db, shards);
            for phrase in [
                "Basel",
                "Basler Bank",
                "Zurich",
                "Credit Suisse",
                "Switzerland",
                "Geneva",
                "",
            ] {
                assert_eq!(
                    logged.lookup_phrase(phrase),
                    rebuilt.lookup_phrase(phrase),
                    "phrase '{phrase}' diverged at {shards} shards"
                );
                for token in tokenize(phrase) {
                    assert_eq!(
                        logged.token_frequency(&token),
                        rebuilt.token_frequency(&token),
                        "frequency of '{token}' diverged at {shards} shards"
                    );
                }
            }
            // Probe selection is identical, so the same token is scanned.
            assert_eq!(
                logged.probe("Basler Bank"),
                rebuilt.probe("Basler Bank"),
                "probe choice diverged at {shards} shards"
            );
            // Credit Suisse was replaced away: both views agree it is gone.
            assert!(logged.lookup_phrase("Credit Suisse").is_empty());
            assert!(logged.has_side_logs());
            assert!(!rebuilt.has_side_logs());
        }
    }

    /// The catalog folds table names by ASCII case only, so `ÄRZTE` is not
    /// `ärzte`; masks and routing must fold the same way or a replaced
    /// table's frozen values keep answering.
    #[test]
    fn a_replaced_table_with_a_non_ascii_upper_case_name_is_masked() {
        let mut base = Database::new();
        base.create_table(
            TableSchema::builder("ÄRZTE")
                .column("id", DataType::Int)
                .column("ort", DataType::Text)
                .build(),
        )
        .unwrap();
        base.insert("ÄRZTE", vec![Value::Int(1), Value::from("Zurich")])
            .unwrap();
        for shards in [1usize, 4] {
            let owner = shard_for_table("ÄRZTE", shards);
            let (replaced_db, replaced) = logged_index_after(&base, shards, |db, idx| {
                for id in [2, 3] {
                    db.table_mut("ÄRZTE").unwrap().truncate();
                    db.insert("ÄRZTE", vec![Value::Int(id), Value::from("Basel")])
                        .unwrap();
                    idx.log_mut("ÄRZTE")
                        .replace_table(db.table("ÄRZTE").unwrap());
                }
            });
            assert!(replaced.side_logs()[owner].masks("ÄRZTE"));
            assert_eq!(
                replaced.side_logs()[owner].masked_tables().len(),
                1,
                "masked once"
            );
            let (truncated_db, truncated) = logged_index_after(&base, shards, |db, idx| {
                db.table_mut("ÄRZTE").unwrap().truncate();
                idx.log_mut("ÄRZTE").truncate_table("ÄRZTE");
            });
            for (db, logged) in [(replaced_db, replaced), (truncated_db, truncated)] {
                let rebuilt = InvertedIndex::build_sharded(&db, shards);
                for phrase in ["Zurich", "Basel"] {
                    assert_eq!(
                        logged.lookup_phrase(phrase),
                        rebuilt.lookup_phrase(phrase),
                        "phrase '{phrase}' diverged at {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_hits_returns_a_lone_answer_as_is_and_sorts_several() {
        let hit = |table: &str| PhraseHit {
            table: table.into(),
            column: "c".into(),
            value: "v".into(),
            row_count: 1,
        };
        assert!(merge_hits(vec![Vec::new(), Vec::new()]).is_empty());
        assert_eq!(
            merge_hits(vec![Vec::new(), vec![hit("a"), hit("b")], Vec::new()]),
            vec![hit("a"), hit("b")]
        );
        assert_eq!(
            merge_hits(vec![vec![hit("b"), hit("d")], vec![hit("a"), hit("c")]]),
            vec![hit("a"), hit("b"), hit("c"), hit("d")]
        );
    }

    #[test]
    fn fold_empties_log() {
        let base = db();
        let shards = 4;
        let (new_db, logged) = logged_index_after(&base, shards, |db, idx| {
            let start = db.table("address").unwrap().row_count();
            db.insert(
                "address",
                vec![Value::Int(13), Value::from("Basel"), Value::Int(4001)],
            )
            .unwrap();
            idx.log_mut("address")
                .append_rows(db.table("address").unwrap(), start);
        });
        let owner = shard_for_table("address", shards);
        assert!(!logged.side_logs()[owner].is_empty());
        let folded = logged.with_folded_logs(&[owner]);
        assert!(folded.side_logs()[owner].is_empty(), "log must be folded");
        assert!(!folded.has_side_logs());
        assert_eq!(
            folded.lookup_phrase("Basel"),
            logged.lookup_phrase("Basel"),
            "folding must not change answers"
        );
        assert_eq!(folded.side_log_postings(), vec![0; shards]);
        assert!(logged.side_log_postings()[owner] > 0);
        let fresh = InvertedIndex::build_sharded(&new_db, shards);
        assert_eq!(folded.posting_count(), fresh.posting_count());
    }

    #[test]
    fn shard_candidate_split_partitions_the_candidate_count() {
        let base = db();
        let shards = 4;
        let (_, logged) = logged_index_after(&base, shards, |db, idx| {
            let start = db.table("address").unwrap().row_count();
            db.insert(
                "address",
                vec![Value::Int(13), Value::from("Basel"), Value::Int(4001)],
            )
            .unwrap();
            idx.log_mut("address")
                .append_rows(db.table("address").unwrap(), start);
        });
        let owner = shard_for_table("address", shards);
        let probe = logged.probe("Basel").unwrap();
        for shard in 0..shards {
            let (frozen, log) = logged.shard_candidate_split(shard, &probe.token);
            assert_eq!(
                frozen + log,
                logged.shard_candidates(shard, &probe.token),
                "split must sum to the total in shard {shard}"
            );
        }
        // The appended row is indexed only in the owner's side log.
        let (_, log) = logged.shard_candidate_split(owner, &probe.token);
        assert!(log > 0, "side-log candidates must be visible in the split");
        for shard in (0..shards).filter(|&s| s != owner) {
            assert_eq!(logged.shard_candidate_split(shard, &probe.token).1, 0);
        }
    }

    #[test]
    fn log_mut_copies_only_the_owners_log_on_write() {
        let base = db();
        let shards = 4;
        let idx = InvertedIndex::build_sharded(&base, shards);
        let owner = shard_for_table("address", shards);
        let mut next = idx.clone();
        next.log_mut("Address").truncate_table("address");
        for (i, (old, new)) in idx.side_logs().iter().zip(next.side_logs()).enumerate() {
            assert_eq!(Arc::ptr_eq(old, new), i != owner, "log {i}");
        }
        assert!(next.side_logs()[owner].masks("address"));
        assert!(!idx.has_side_logs(), "the parent's logs are never written");
        // A second write reuses the copy the first one made.
        let copied = Arc::as_ptr(&next.side_logs()[owner]);
        next.log_mut("address").truncate_table("address");
        assert_eq!(Arc::as_ptr(&next.side_logs()[owner]), copied);
        // Frozen partitions are shared wholesale.
        for (old, new) in idx.shards().iter().zip(next.shards()) {
            assert!(Arc::ptr_eq(old, new));
        }
    }

    #[test]
    fn probe_picks_the_globally_rarest_token() {
        let db = db();
        let idx = InvertedIndex::build_sharded(&db, 4);
        // "suisse" (1 posting) is rarer than "credit" (1) — first wins ties —
        // and both are rarer than "switzerland" (2).
        let probe = idx.probe("Credit Suisse").unwrap();
        assert_eq!(probe.needle, "credit suisse");
        assert_eq!(probe.token, "credit");
        assert_eq!(idx.token_frequency("switzerland"), 2);
        assert!(idx.probe("no such words anywhere").is_none());
        assert!(idx.probe("").is_none());
    }
}
