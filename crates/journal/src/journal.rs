//! The feed journal: an append-only log of [`ChangeFeed`]s with checkpoint
//! truncation, bound to one engine configuration by fingerprint.

use std::fmt;
use std::path::{Path, PathBuf};

use soda_ingest::ChangeFeed;
use soda_relation::{CodecError, CodecResult, Decoder, Encoder, Row, Value};

use crate::frame::{FrameFile, FrameScan};

/// Magic prefix of a feed-journal file.  `3` is the format version, the
/// only one the reader accepts: version `2` checkpoints carried a per-shard
/// generation vector and version `1` headers lacked the tenant field, so
/// either is rejected like any foreign file and left untouched.
pub const JOURNAL_MAGIC: [u8; 8] = *b"SODAJNL3";

const KIND_FEED: u8 = 0x01;
const KIND_CHECKPOINT: u8 = 0x02;

/// When appends are forced to stable storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append — an acknowledged ingest survives a crash.
    /// The default, and what the crash-recovery guarantee assumes.
    #[default]
    Always,
    /// Leave flushing to the OS.  Faster; a crash may lose the most recent
    /// appends (the checksummed frames still guarantee the journal never
    /// replays a half-written record).
    Never,
}

impl FsyncPolicy {
    pub(crate) fn should_sync(self) -> bool {
        matches!(self, FsyncPolicy::Always)
    }
}

/// A point-in-time fold of everything the journal had recorded: the full
/// content of every table feeds have ever touched, plus the snapshot
/// generation at the moment the checkpoint was cut.
///
/// Replaying a checkpoint (apply the rows over the base warehouse, restore
/// the generation, then absorb any feeds journaled after it) lands a
/// rebooted engine on the same answers — and the same cache fingerprint — as
/// the process that wrote it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Snapshot generation at the time of the checkpoint.
    pub generation: u64,
    /// Full replacement content for every table any journaled feed ever
    /// touched: `(lower-cased table name, rows)`.
    pub tables: Vec<(String, Vec<Row>)>,
}

/// Encodes a checkpoint record straight from borrowed rows: `generation`
/// and, for each of `tables`, its lower-cased name and every row.  The
/// inverse of [`Checkpoint::decode_from`].
fn encode_checkpoint<R>(generation: u64, tables: &[(&str, R)]) -> Vec<u8>
where
    R: IntoIterator + Copy,
    R::Item: AsRef<[Value]>,
    R::IntoIter: ExactSizeIterator,
{
    let mut enc = Encoder::new();
    enc.put_u8(KIND_CHECKPOINT);
    enc.put_u64(generation);
    enc.put_usize(tables.len());
    for &(name, rows) in tables {
        let rows = rows.into_iter();
        enc.put_str(name);
        enc.put_usize(rows.len());
        for row in rows {
            enc.put_row(row.as_ref());
        }
    }
    enc.into_bytes()
}

impl Checkpoint {
    fn decode_from(dec: &mut Decoder<'_>) -> CodecResult<Self> {
        let generation = dec.get_u64()?;
        let n = dec.get_usize()?;
        if n > dec.remaining() {
            return Err(CodecError::BadLength);
        }
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            let name = dec.get_str()?;
            let rows_n = dec.get_usize()?;
            if rows_n > dec.remaining() {
                return Err(CodecError::BadLength);
            }
            let mut rows = Vec::with_capacity(rows_n);
            for _ in 0..rows_n {
                rows.push(dec.get_row()?);
            }
            tables.push((name, rows));
        }
        Ok(Self { generation, tables })
    }

    /// Total rows carried across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|(_, rows)| rows.len()).sum()
    }
}

/// One record replayed out of the journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A change feed appended by `ingest`.
    Feed(ChangeFeed),
    /// A checkpoint written by compaction (always the journal's first record
    /// when present — writing one truncates everything before it).
    Checkpoint(Checkpoint),
}

/// Everything recovery needs, read back in one pass at open time.
#[derive(Debug)]
pub struct Replay {
    /// The journal's records in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn/corrupt tail discarded during the scan.
    pub truncated_bytes: u64,
    /// True when no journal existed — this boot starts a fresh log.
    pub created: bool,
}

impl Replay {
    /// Splits the records into the latest checkpoint (if any) and the feeds
    /// journaled after it — the minimal work a recovery has to do.
    pub fn into_plan(self) -> (Option<Checkpoint>, Vec<ChangeFeed>) {
        let mut checkpoint = None;
        let mut feeds = Vec::new();
        for record in self.records {
            match record {
                JournalRecord::Checkpoint(c) => {
                    checkpoint = Some(c);
                    feeds.clear();
                }
                JournalRecord::Feed(f) => feeds.push(f),
            }
        }
        (checkpoint, feeds)
    }
}

/// Errors from journal operations.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A checksummed frame decoded to garbage — version skew or a logic bug,
    /// never ordinary corruption (that is caught by the CRC and truncated).
    Codec(CodecError),
    /// The journal on disk was written under a different engine
    /// configuration; replaying it would silently produce different answers.
    ConfigMismatch {
        /// Fingerprint stored in the journal header.
        journal: u64,
        /// Fingerprint of the engine attempting recovery.
        engine: u64,
    },
    /// The journal on disk belongs to a different tenant; replaying it
    /// would leak one tenant's ingests into another's warehouse.
    TenantMismatch {
        /// Tenant fingerprint stored in the journal header.
        journal: u64,
        /// Tenant fingerprint of the tenant attempting recovery.
        tenant: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Codec(e) => write!(f, "journal record failed to decode: {e}"),
            JournalError::ConfigMismatch { journal, engine } => write!(
                f,
                "journal was written under config fingerprint {journal:#018x}, \
                 but the engine recovering it has {engine:#018x}"
            ),
            JournalError::TenantMismatch { journal, tenant } => write!(
                f,
                "journal belongs to tenant fingerprint {journal:#018x}, \
                 but tenant {tenant:#018x} attempted to recover it"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Codec(e) => Some(e),
            JournalError::ConfigMismatch { .. } => None,
            JournalError::TenantMismatch { .. } => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<CodecError> for JournalError {
    fn from(e: CodecError) -> Self {
        JournalError::Codec(e)
    }
}

/// Result alias for journal operations.
pub(crate) type JournalResult<T> = std::result::Result<T, JournalError>;

/// The crash-safe feed journal.
///
/// One file, bound to one engine configuration: the header stores the
/// config fingerprint and [`FeedJournal::recover`] refuses to replay a
/// journal written under a different one.  [`append_feed`] logs a
/// [`ChangeFeed`] *before* the service absorbs it (write-ahead);
/// [`write_checkpoint`] atomically replaces the whole log with a single
/// checkpoint record, bounding replay time, under the fingerprint it names.
///
/// [`append_feed`]: FeedJournal::append_feed
/// [`write_checkpoint`]: FeedJournal::write_checkpoint
#[derive(Debug)]
pub struct FeedJournal {
    file: FrameFile,
}

impl FeedJournal {
    /// Opens (or creates) the journal at `path` and replays what it holds.
    ///
    /// A torn tail — the process died mid-append — is truncated in place and
    /// reported via [`Replay::truncated_bytes`]; everything before it
    /// replays normally.  An existing journal whose header fingerprint
    /// differs from `config_fingerprint` is a hard
    /// [`JournalError::ConfigMismatch`], and one whose header tenant
    /// fingerprint differs from `tenant_fingerprint` is a hard
    /// [`JournalError::TenantMismatch`]: silently ignoring either would
    /// discard acknowledged ingests (or replay another tenant's).
    pub fn recover(
        path: &Path,
        config_fingerprint: u64,
        tenant_fingerprint: u64,
        fsync: FsyncPolicy,
    ) -> JournalResult<(Self, Replay)> {
        let (file, scan) = FrameFile::open_or_create(
            path,
            JOURNAL_MAGIC,
            config_fingerprint,
            tenant_fingerprint,
            fsync,
        )?;
        if !scan.created && scan.fingerprint != config_fingerprint {
            return Err(JournalError::ConfigMismatch {
                journal: scan.fingerprint,
                engine: config_fingerprint,
            });
        }
        if !scan.created && scan.tenant != tenant_fingerprint {
            return Err(JournalError::TenantMismatch {
                journal: scan.tenant,
                tenant: tenant_fingerprint,
            });
        }
        let replay = decode_scan(scan)?;
        Ok((Self { file }, replay))
    }

    /// Appends one feed and (per the fsync policy) forces it to disk.
    /// Returns the bytes appended.
    pub fn append_feed(&mut self, feed: &ChangeFeed) -> JournalResult<u64> {
        let mut enc = Encoder::new();
        enc.put_u8(KIND_FEED);
        feed.encode_into(&mut enc);
        Ok(self.file.append(&enc.into_bytes())?)
    }

    /// Atomically replaces the journal's entire content with one
    /// [`Checkpoint`] record — the checkpoint truncation step — of
    /// `generation` and `tables`, each `(lower-cased name, rows)`, stamped
    /// with `config_fingerprint`, which the next [`recover`](Self::recover)
    /// must be given.  The rows are borrowed (a table's
    /// [`Rows`](soda_relation::Rows) view, or a slice) and encoded where
    /// they are.  A crash during the rewrite leaves either the old journal
    /// or the new one, never a mix.  Returns the journal's new size in bytes.
    pub fn write_checkpoint<R>(
        &mut self,
        config_fingerprint: u64,
        generation: u64,
        tables: &[(&str, R)],
    ) -> JournalResult<u64>
    where
        R: IntoIterator + Copy,
        R::Item: AsRef<[Value]>,
        R::IntoIter: ExactSizeIterator,
    {
        let payload = encode_checkpoint(generation, tables);
        self.file.rewrite(config_fingerprint, &[&payload])?;
        Ok(self.file.len_bytes())
    }

    /// Current journal size in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.file.len_bytes()
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }
}

/// The conventional journal file name under a durability directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("feed.journal")
}

/// The durability sub-directory owned by one named tenant:
/// `<dir>/tenants/<sanitized name>/`.  The default tenant keeps the
/// top-level directory.  Tenant names are sanitized to a conservative
/// filesystem-safe alphabet; distinct names that sanitize identically are
/// disambiguated by the tenant fingerprint suffix.
pub fn tenant_journal_dir(dir: &Path, tenant: &str, tenant_fingerprint: u64) -> PathBuf {
    if tenant_fingerprint == 0 {
        return dir.to_path_buf();
    }
    let sanitized: String = tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join("tenants")
        .join(format!("{sanitized}-{tenant_fingerprint:016x}"))
}

fn decode_scan(scan: FrameScan) -> JournalResult<Replay> {
    let mut records = Vec::with_capacity(scan.frames.len());
    for frame in &scan.frames {
        records.push(decode_record(frame)?);
    }
    Ok(Replay {
        records,
        truncated_bytes: scan.truncated_bytes,
        created: scan.created,
    })
}

fn decode_record(payload: &[u8]) -> JournalResult<JournalRecord> {
    let mut dec = Decoder::new(payload);
    let record = match dec.get_u8()? {
        KIND_FEED => JournalRecord::Feed(ChangeFeed::decode_from(&mut dec)?),
        KIND_CHECKPOINT => JournalRecord::Checkpoint(Checkpoint::decode_from(&mut dec)?),
        tag => {
            return Err(JournalError::Codec(CodecError::BadTag {
                what: "JournalRecord",
                tag,
            }))
        }
    };
    if !dec.is_empty() {
        return Err(JournalError::Codec(CodecError::BadLength));
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use soda_relation::Value;

    fn feed(n: i64) -> ChangeFeed {
        ChangeFeed::new().append_row("trades", vec![Value::Int(n), Value::from("CHF")])
    }

    #[test]
    fn fresh_journal_replays_empty() {
        let dir = TempDir::new("jnl-fresh");
        let path = journal_path(dir.path());
        let (_j, replay) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
        assert!(replay.created);
        assert!(replay.records.is_empty());
        let (checkpoint, feeds) = replay.into_plan();
        assert!(checkpoint.is_none());
        assert!(feeds.is_empty());
    }

    #[test]
    fn appended_feeds_replay_in_order() {
        let dir = TempDir::new("jnl-replay");
        let path = journal_path(dir.path());
        {
            let (mut j, _) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
            j.append_feed(&feed(1)).unwrap();
            j.append_feed(&feed(2)).unwrap();
        }
        let (_j, replay) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
        assert!(!replay.created);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(
            replay.records,
            vec![JournalRecord::Feed(feed(1)), JournalRecord::Feed(feed(2)),]
        );
    }

    #[test]
    fn config_mismatch_is_a_hard_error() {
        let dir = TempDir::new("jnl-config");
        let path = journal_path(dir.path());
        {
            let (mut j, _) = FeedJournal::recover(&path, 1, 0, FsyncPolicy::Always).unwrap();
            j.append_feed(&feed(1)).unwrap();
        }
        match FeedJournal::recover(&path, 2, 0, FsyncPolicy::Always) {
            Err(JournalError::ConfigMismatch { journal, engine }) => {
                assert_eq!((journal, engine), (1, 2));
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }

    /// A journal of an earlier format — version 1 (16-byte header with no
    /// tenant field) or version 2 (checkpoints with a per-shard generation
    /// vector) — is a foreign file: recovery fails on the magic check,
    /// whoever asks, and the file stays byte-identical.
    #[test]
    fn version_one_journal_is_rejected_untouched() {
        let dir = TempDir::new("jnl-v1");
        let path = journal_path(dir.path());
        {
            let (mut j, _) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
            j.append_feed(&feed(1)).unwrap();
        }
        let current = std::fs::read(&path).unwrap();
        let mut v1 = b"SODAJNL1".to_vec();
        v1.extend_from_slice(&current[8..16]);
        v1.extend_from_slice(&current[24..]);
        let mut v2 = b"SODAJNL2".to_vec();
        v2.extend_from_slice(&current[8..]);

        for old in [v1, v2] {
            std::fs::write(&path, &old).unwrap();
            for tenant in [0, 9] {
                match FeedJournal::recover(&path, 42, tenant, FsyncPolicy::Always) {
                    Err(JournalError::Io(e)) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    }
                    other => panic!("expected the bad-magic error, got {other:?}"),
                }
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    old,
                    "rejected journal modified"
                );
            }
        }
    }

    #[test]
    fn tenant_mismatch_is_a_hard_error() {
        let dir = TempDir::new("jnl-tenant");
        let path = journal_path(dir.path());
        {
            let (mut j, _) = FeedJournal::recover(&path, 42, 7, FsyncPolicy::Always).unwrap();
            j.append_feed(&feed(1)).unwrap();
        }
        // The right tenant replays normally …
        let (_j, replay) = FeedJournal::recover(&path, 42, 7, FsyncPolicy::Always).unwrap();
        assert_eq!(replay.records.len(), 1);
        // … a different tenant is rejected outright.
        match FeedJournal::recover(&path, 42, 8, FsyncPolicy::Always) {
            Err(JournalError::TenantMismatch { journal, tenant }) => {
                assert_eq!((journal, tenant), (7, 8));
            }
            other => panic!("expected TenantMismatch, got {other:?}"),
        }
    }

    #[test]
    fn tenant_journal_dirs_are_disjoint_and_default_stays_top_level() {
        let base = Path::new("/var/soda");
        assert_eq!(tenant_journal_dir(base, "default", 0), base);
        let acme = tenant_journal_dir(base, "acme", 0xABCD);
        let globex = tenant_journal_dir(base, "globex", 0x1234);
        assert_ne!(acme, globex);
        assert!(acme.starts_with(base.join("tenants")));
        // Hostile names sanitize to a filesystem-safe directory and distinct
        // fingerprints keep sanitization collisions apart.
        let dotty = tenant_journal_dir(base, "../etc", 0x9999);
        assert!(dotty.starts_with(base.join("tenants")));
        assert!(!dotty.to_string_lossy().contains(".."));
        assert_ne!(
            tenant_journal_dir(base, "a/b", 1),
            tenant_journal_dir(base, "a_b", 2)
        );
    }

    #[test]
    fn checkpoint_truncates_and_bounds_replay() {
        let dir = TempDir::new("jnl-ckpt");
        let path = journal_path(dir.path());
        let (mut j, _) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
        j.append_feed(&feed(1)).unwrap();
        j.append_feed(&feed(2)).unwrap();
        let before = j.len_bytes();
        let checkpoint = Checkpoint {
            generation: 5,
            tables: vec![(
                "trades".into(),
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            )],
        };
        let tables: Vec<(&str, &[Row])> = checkpoint
            .tables
            .iter()
            .map(|(name, rows)| (name.as_str(), rows.as_slice()))
            .collect();
        j.write_checkpoint(42, checkpoint.generation, &tables)
            .unwrap();
        // Checkpointing dropped the two feed records.
        assert!(j.len_bytes() < before + 64);
        j.append_feed(&feed(3)).unwrap();
        drop(j);

        let (_j, replay) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
        let (recovered, feeds) = replay.into_plan();
        assert_eq!(recovered.unwrap(), checkpoint);
        assert_eq!(feeds, vec![feed(3)]);
    }

    /// A checkpoint stamps the fingerprint it is given: the journal then
    /// belongs to that configuration, and the one it was opened under is
    /// refused.
    #[test]
    fn a_checkpoint_stamps_the_fingerprint_it_is_given() {
        let dir = TempDir::new("jnl-restamp");
        let path = journal_path(dir.path());
        let rows = [vec![Value::Int(1)]];
        {
            let (mut j, _) = FeedJournal::recover(&path, 1, 7, FsyncPolicy::Always).unwrap();
            j.append_feed(&feed(1)).unwrap();
            j.write_checkpoint(2, 3, &[("trades", &rows[..])]).unwrap();
            j.append_feed(&feed(2)).unwrap();
        }
        match FeedJournal::recover(&path, 1, 7, FsyncPolicy::Always) {
            Err(JournalError::ConfigMismatch { journal, engine }) => {
                assert_eq!((journal, engine), (2, 1));
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        let (_j, replay) = FeedJournal::recover(&path, 2, 7, FsyncPolicy::Always).unwrap();
        let (checkpoint, feeds) = replay.into_plan();
        let checkpoint = checkpoint.expect("the checkpoint replays");
        assert_eq!(checkpoint.generation, 3);
        assert_eq!(checkpoint.tables, vec![("trades".into(), rows.to_vec())]);
        assert_eq!(feeds, vec![feed(2)]);
    }

    #[test]
    fn torn_tail_loses_only_the_torn_record() {
        let dir = TempDir::new("jnl-torn");
        let path = journal_path(dir.path());
        {
            let (mut j, _) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
            j.append_feed(&feed(1)).unwrap();
            j.append_feed(&feed(2)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let (mut j, replay) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(replay.records, vec![JournalRecord::Feed(feed(1))]);
        assert!(replay.truncated_bytes > 0);
        // The journal stays usable after the truncation.
        j.append_feed(&feed(3)).unwrap();
        drop(j);
        let (_j, replay) = FeedJournal::recover(&path, 42, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(
            replay.records,
            vec![JournalRecord::Feed(feed(1)), JournalRecord::Feed(feed(3))]
        );
    }

    #[test]
    fn into_plan_keeps_only_records_after_the_last_checkpoint() {
        let a = Checkpoint {
            generation: 1,
            ..Checkpoint::default()
        };
        let b = Checkpoint {
            generation: 2,
            ..Checkpoint::default()
        };
        let replay = Replay {
            records: vec![
                JournalRecord::Feed(feed(1)),
                JournalRecord::Checkpoint(a),
                JournalRecord::Feed(feed(2)),
                JournalRecord::Checkpoint(b.clone()),
                JournalRecord::Feed(feed(3)),
            ],
            truncated_bytes: 0,
            created: false,
        };
        let (checkpoint, feeds) = replay.into_plan();
        assert_eq!(checkpoint.unwrap(), b);
        assert_eq!(feeds, vec![feed(3)]);
    }
}
