//! The four workloads, their set-up, the windowed closed-loop driver and the
//! correctness gate.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soda::core::{ChangeFeed, Database, EngineSnapshot, MetaGraph, ResultPage};
use soda::service::{FsyncPolicy, JobHandle, QueryService};

use crate::calls;
use crate::gen::{self, Draw};
use crate::hist::Histogram;
use crate::reference;
use crate::trace::{SpanRef, Tracer};

/// Outstanding requests the one generator thread keeps in flight.  With two,
/// the single worker never sleeps between jobs, so throughput is its service
/// rate; with one, every miss is a sleep/wake hand-off whose cost depends on
/// where the scheduler put the two threads (README, "Window 1 vs window 2").
const WINDOW: usize = 2;

const SETUPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// op = one query through the service.
    Search,
    /// op = query (a hit) + execute the top statement + render its snippet.
    Preview,
    /// Queries with a change feed applied every `QUERIES_PER_INGEST` of them.
    IngestMix,
}

/// `ingest_mix` cadence.  256 queries per feed keeps the hit share near 0.8
/// (p50 a hit, p95 a recompute) — never near 0.5, where the median would sit
/// on the hit/miss boundary.
pub const QUERIES_PER_INGEST: usize = 256;
const CUSTOMERS_PER_FEED: usize = 16;
const INGESTS_PER_COMPACTION: usize = 16;
/// Compactions follow ingests 8, 24, 40 … of a round, so a round ends with
/// eight feeds in the journal for the recovery check to replay.
const COMPACTION_PHASE: usize = 7;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub pool_size: usize,
    /// Whether `--seed` picks the pool's literals (see `gen`): only where
    /// the pool is large enough for the choice to average out.
    pub seeded_pool: bool,
    /// `None` = the service default (1 024 pages).
    pub cache_capacity: Option<usize>,
    pub draw: Draw,
    /// Query ops per round (≈ 0.2–1.3 s on the reference box): short, so
    /// the reference kernel is sampled often enough to track the machine.
    /// Whole blocks of [`Workload::block`] ops.
    pub ops_per_round: usize,
    /// One op in this many arrives re-spelled (0 = never).
    pub respell_every: usize,
    pub shards: usize,
    /// `cache.hit_rate` over the measured rounds must fall inside, or the
    /// run measured something other than what the workload is for.
    pub hit_band: (f64, f64),
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Fewest measured rounds, however short `--seconds` is: a median of
    /// fewer than three rounds discards nothing.
    pub min_rounds: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold_search",
        why: "ad-hoc exploration: 512 distinct questions against a 32-page cache, so ~94 % of ops run queue, worker and the five-step pipeline",
        kind: Kind::Search,
        pool_size: 512,
        seeded_pool: true,
        cache_capacity: Some(32),
        draw: Draw::Balanced,
        ops_per_round: 8 * 512,
        respell_every: 0,
        shards: 1,
        hit_band: (0.04, 0.09),
        setups: SETUPS,
        min_rounds: 3,
    },
    Workload {
        name: "warm_repeat",
        why: "dashboards and pasted questions: 64 resident pages, Zipf draws, one op in four re-spelled; every op is answered on the caller's thread and the pipeline never runs",
        kind: Kind::Search,
        pool_size: 64,
        seeded_pool: false,
        cache_capacity: None,
        draw: Draw::Zipf,
        ops_per_round: 50_000,
        respell_every: 4,
        shards: 1,
        hit_band: (1.0, 1.0),
        setups: SETUPS,
        min_rounds: 3,
    },
    Workload {
        name: "preview_execute",
        why: "the result page with snippets: a cached page, then the top statement executed and its first 20 rows rendered; executor time is > 99 % of the op",
        kind: Kind::Preview,
        pool_size: 64,
        seeded_pool: false,
        cache_capacity: None,
        draw: Draw::Balanced,
        ops_per_round: 192,
        respell_every: 0,
        shards: 1,
        hit_band: (1.0, 1.0),
        setups: SETUPS,
        min_rounds: 3,
    },
    Workload {
        name: "ingest_mix",
        why: "writes beside reads: a journaled 16-customer feed every 256 queries and a compaction every 16 feeds on a 4-shard durable service; measures what each publish costs the cache",
        kind: Kind::IngestMix,
        pool_size: 64,
        seeded_pool: false,
        cache_capacity: None,
        draw: Draw::Zipf,
        ops_per_round: 16 * QUERIES_PER_INGEST,
        respell_every: 0,
        shards: 4,
        hit_band: (0.75, 0.90),
        setups: SETUPS,
        min_rounds: 3,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload with `1/divisor` of the ops per round.  Balanced
    /// draws stay a multiple of the pool and `ingest_mix` keeps at least one
    /// compaction.
    fn scaled_down(mut self, divisor: usize) -> Self {
        let unit = match (self.kind, self.draw) {
            (Kind::IngestMix, _) => INGESTS_PER_COMPACTION * QUERIES_PER_INGEST,
            (_, Draw::Balanced) => self.pool_size,
            _ => 1,
        };
        let wanted = (self.ops_per_round / divisor).max(1);
        self.ops_per_round = wanted.div_ceil(unit).max(1) * unit;
        self
    }

    /// `--smoke`: a hundredth of the ops, one set-up, one measured round and
    /// no hit-rate band — 25 draws from 512 say nothing about a hit rate.
    pub fn smoke(self) -> Self {
        Self {
            hit_band: (0.0, 1.0),
            setups: 1,
            min_rounds: 1,
            ..self.scaled_down(100)
        }
    }

    pub fn hit_rate_in_band(&self, hit_rate: f64) -> bool {
        let (low, high) = self.hit_band;
        (low..=high).contains(&hit_rate)
    }

    /// The ops over which the draw's shares are dealt out exactly: the
    /// queries between two feeds of `ingest_mix` (so every feed is followed by
    /// the same questions whatever the seed, and its counts repeat across
    /// seeds), the whole round elsewhere.
    fn block(&self) -> usize {
        match self.kind {
            Kind::IngestMix => QUERIES_PER_INGEST,
            _ => self.ops_per_round,
        }
    }

    fn ingests_per_round(&self) -> usize {
        match self.kind {
            Kind::IngestMix => self.ops_per_round / QUERIES_PER_INGEST,
            _ => 0,
        }
    }
}

/// What the program answered at set-up, asked directly: the oracle every op
/// and the final sweep are checked against.
pub struct Reference {
    /// SQL of the page's results, in rank order, per pool query.
    pub sql: Vec<Vec<String>>,
    /// Rows the top statement returns (`preview_execute` only).
    pub top_rows: Vec<usize>,
}

impl Reference {
    pub fn compute(
        engine: &EngineSnapshot,
        pool: &[String],
        with_rows: bool,
    ) -> Result<Self, String> {
        let mut sql = Vec::with_capacity(pool.len());
        let mut top_rows = Vec::new();
        for query in pool {
            let page = calls::reference_page(engine, query)?;
            if page.results.is_empty() {
                return Err(format!(
                    "pool query {query:?} has no result on the base warehouse"
                ));
            }
            if with_rows {
                top_rows.push(calls::execute(engine, &page.results[0])?.row_count());
            }
            sql.push(page.results.into_iter().map(|r| r.sql).collect());
        }
        Ok(Self { sql, top_rows })
    }

    /// Hash of every reference statement: a ranking change between two
    /// commits shows here, next to the numbers it may explain.
    pub fn digest(&self) -> u64 {
        gen::digest(self.sql.iter().flatten().map(String::as_str))
    }

    fn matches(&self, index: usize, page: &ResultPage) -> bool {
        let expected = &self.sql[index];
        page.results.len() == expected.len()
            && page
                .results
                .iter()
                .zip(expected)
                .all(|(got, want)| &got.sql == want)
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub pool: Vec<String>,
    /// `spellings[i][v]`: pool query `i` in spelling variant `v`.
    pub spellings: Vec<[String; 3]>,
    /// One round's op order (every round replays it).
    pub sequence: Vec<u16>,
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Self {
        let pool = gen::pool(
            &calls::table2_keywords(),
            &calls::literals(),
            workload.seeded_pool.then_some(seed),
            workload.pool_size,
        );
        let spellings = pool
            .iter()
            .map(|q| [gen::respell(q, 0), gen::respell(q, 1), gen::respell(q, 2)])
            .collect();
        let sequence = gen::op_sequence(
            seed,
            pool.len(),
            workload.ops_per_round,
            workload.block(),
            workload.draw,
        );
        Self {
            pool,
            spellings,
            sequence,
        }
    }

    /// The spelling op number `op` of a round arrives in.
    #[inline]
    fn spelling(&self, workload: &Workload, op: usize) -> &str {
        let every = workload.respell_every;
        let variant = if every > 0 && op % every == every - 1 {
            1 + (op / every) % 2
        } else {
            0
        };
        &self.spellings[self.sequence[op] as usize][variant]
    }

    /// Digest of the pool and the op order: two runs with one seed must
    /// agree on it, two seeds must not.
    pub fn digest(&self) -> u64 {
        let order: String = self.sequence.iter().map(|i| format!("{i},")).collect();
        gen::digest(self.pool.iter().map(String::as_str).chain([order.as_str()]))
    }
}

/// Timings of one full set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: Duration,
    pub build: Duration,
    pub start: Duration,
    pub prefill: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate + self.build + self.start + self.prefill
    }
}

/// A service ready for its first timed op, plus what is needed to reset it.
pub struct Stand {
    pub db: Arc<Database>,
    pub graph: Arc<MetaGraph>,
    pub service: QueryService,
    /// The durable service's directory (`ingest_mix`).
    pub dir: Option<PathBuf>,
}

/// Where run artefacts (journals, span files) go: under the build directory,
/// which is inside the checkout and already ignored by git.
pub fn artefact_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("soda_bench")
}

fn fresh_journal_dir() -> Result<PathBuf, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = artefact_dir().join(format!("journal-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn remove_journal_dir(dir: &Path) {
    // Best effort: a leftover directory is ignored by git and cleared on the
    // next run that draws the same name.
    let _ = std::fs::remove_dir_all(dir);
}

/// Starts (or, for `ingest_mix`, recovers into a fresh directory) the
/// workload's service over an already-built warehouse and makes the pool
/// resident when it fits the cache.  Returns the start and prefill times.
pub fn start_stand(
    workload: &Workload,
    inputs: &Inputs,
    db: Arc<Database>,
    graph: Arc<MetaGraph>,
    engine: Option<Arc<EngineSnapshot>>,
) -> Result<(Stand, Duration, Duration), String> {
    let t = Instant::now();
    let (service, dir) = match workload.kind {
        Kind::IngestMix => {
            let dir = fresh_journal_dir()?;
            let (service, _) = calls::recover_service(
                Arc::clone(&db),
                Arc::clone(&graph),
                workload.shards,
                &dir,
                FsyncPolicy::Always,
            )?;
            (service, Some(dir))
        }
        _ => {
            let engine = engine.unwrap_or_else(|| {
                calls::build_engine(Arc::clone(&db), Arc::clone(&graph), workload.shards)
            });
            (calls::start_service(engine, workload.cache_capacity), None)
        }
    };
    let start = t.elapsed();
    let t = Instant::now();
    let capacity = workload.cache_capacity.unwrap_or(usize::MAX);
    if inputs.pool.len() <= capacity {
        for query in &inputs.pool {
            calls::wait(calls::query(&service, query))?;
        }
    }
    let prefill = t.elapsed();
    Ok((
        Stand {
            db,
            graph,
            service,
            dir,
        },
        start,
        prefill,
    ))
}

/// One full set-up: warehouse generation, index build, service start (or
/// recovery) and prefill.
pub fn full_setup(workload: &Workload, inputs: &Inputs) -> Result<(Stand, SetupTimes), String> {
    let t = Instant::now();
    let (db, graph) = calls::build_warehouse();
    let generate = t.elapsed();
    // `recover` builds the engine itself, inside the start time.
    let t = Instant::now();
    let engine = match workload.kind {
        Kind::IngestMix => None,
        _ => Some(calls::build_engine(
            Arc::clone(&db),
            Arc::clone(&graph),
            workload.shards,
        )),
    };
    let build = t.elapsed();
    let (stand, start, prefill) = start_stand(workload, inputs, db, graph, engine)?;
    Ok((
        stand,
        SetupTimes {
            generate,
            build,
            start,
            prefill,
        },
    ))
}

/// `workload.setups` full set-ups in a row (each dropped before the next is
/// built); keeps the last one and returns every timing.
pub fn repeated_setup(
    workload: &Workload,
    inputs: &Inputs,
) -> Result<(Stand, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(workload.setups);
    let mut kept = None;
    for _ in 0..workload.setups.max(1) {
        if let Some(Stand { dir: Some(dir), .. }) = kept.take() {
            remove_journal_dir(&dir);
        }
        let (stand, t) = full_setup(workload, inputs)?;
        times.push(t);
        kept = Some(stand);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// What one round measured.
pub struct Round {
    pub wall: Duration,
    pub ops: u64,
    pub failed: u64,
    pub latency: Histogram,
    /// Cache hits and misses the service counted during the round.
    pub hits: u64,
    pub misses: u64,
    /// Microseconds per reference-kernel iteration, mean of a sample taken
    /// right before the round and one right after it.
    pub reference_us: f64,
}

impl Round {
    pub fn throughput_qps(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    pub fn p50_us(&self) -> f64 {
        self.latency.quantile_us(0.50)
    }

    pub fn p95_us(&self) -> f64 {
        self.latency.quantile_us(0.95)
    }
}

/// The closed-loop generator: one thread, `WINDOW` outstanding handles.
struct Driver<'a> {
    service: &'a QueryService,
    reference: &'a Reference,
    tracer: &'a mut Tracer,
    pending: VecDeque<Pending>,
    latency: Histogram,
    failed: u64,
}

/// A submitted op whose answer has not been waited for yet.
struct Pending {
    started: Instant,
    /// Pool index of the query, for checking the answer.
    index: u16,
    op: u64,
    root: SpanRef,
    handle: JobHandle,
}

impl Driver<'_> {
    fn complete(&mut self, pending: Pending) {
        let Pending {
            started,
            index,
            op,
            root,
            handle,
        } = pending;
        let span = self.tracer.begin("service.wait", root, op);
        let answer = calls::wait(handle);
        self.tracer.end(span);
        self.latency.record(started.elapsed());
        self.tracer.end(root);
        let ok = match &answer {
            Ok(page) => self.reference.matches(index as usize, page),
            Err(_) => false,
        };
        if !ok {
            self.failed += 1;
        }
    }

    /// Submits one query.  A handle that is ready on return (a cache hit)
    /// is recorded at once and takes no window slot; otherwise the oldest
    /// outstanding handle is waited for once the window is full.
    #[inline]
    fn submit(&mut self, index: u16, input: &str, op: u64) {
        let started = Instant::now();
        let root = self.tracer.begin("op", SpanRef::NONE, op);
        let span = self.tracer.begin("service.query", root, op);
        let handle = calls::query(self.service, input);
        let ready = calls::is_ready(&handle);
        self.tracer
            .end_tagged(span, if ready { "hit" } else { "miss" });
        let pending = Pending {
            started,
            index,
            op,
            root,
            handle,
        };
        if ready {
            self.complete(pending);
            return;
        }
        self.pending.push_back(pending);
        if self.pending.len() >= WINDOW {
            self.complete_oldest();
        }
    }

    fn complete_oldest(&mut self) {
        if let Some(pending) = self.pending.pop_front() {
            self.complete(pending);
        }
    }

    fn drain(&mut self) {
        while let Some(pending) = self.pending.pop_front() {
            self.complete(pending);
        }
    }
}

/// Runs one round of `workload` against `stand`: the identical seeded op
/// sequence every time.  `feeds` are this round's change feeds
/// (`ingest_mix`), consumed.
pub fn run_round(
    workload: &Workload,
    inputs: &Inputs,
    reference: &Reference,
    stand: &Stand,
    feeds: Vec<ChangeFeed>,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let before = calls::metrics(&stand.service).cache;
    let reference_before = reference::sample_us();
    let mut driver = Driver {
        service: &stand.service,
        reference,
        tracer,
        pending: VecDeque::with_capacity(WINDOW),
        latency: Histogram::new(),
        failed: 0,
    };
    let ops = inputs.sequence.len();
    let begun = Instant::now();
    match workload.kind {
        Kind::Search => {
            for op in 0..ops {
                driver.submit(
                    inputs.sequence[op],
                    inputs.spelling(workload, op),
                    op as u64,
                );
            }
            driver.drain();
        }
        Kind::Preview => {
            let engine = calls::live_engine(&stand.service);
            for op in 0..ops {
                let index = inputs.sequence[op] as usize;
                let started = Instant::now();
                let tracer = &mut *driver.tracer;
                let root = tracer.begin("op", SpanRef::NONE, op as u64);
                let span = tracer.begin("service.query", root, op as u64);
                let handle = calls::query(&stand.service, &inputs.spellings[index][0]);
                let ready = calls::is_ready(&handle);
                tracer.end_tagged(span, if ready { "hit" } else { "miss" });
                let rows = calls::wait(handle).and_then(|page| {
                    let span = tracer.begin("exec.execute", root, op as u64);
                    let rows = calls::execute(&engine, &page.results[0]);
                    tracer.end(span);
                    rows
                });
                let ok = match rows {
                    Ok(rows) => {
                        let span = tracer.begin("exec.snippet", root, op as u64);
                        black_box(calls::snippet(&rows));
                        tracer.end(span);
                        rows.row_count() == reference.top_rows[index]
                    }
                    Err(_) => false,
                };
                driver.latency.record(started.elapsed());
                driver.tracer.end(root);
                if !ok {
                    driver.failed += 1;
                }
            }
        }
        Kind::IngestMix => {
            let mut op = 0;
            for (i, feed) in feeds.into_iter().enumerate() {
                for _ in 0..QUERIES_PER_INGEST {
                    driver.submit(
                        inputs.sequence[op],
                        inputs.spelling(workload, op),
                        op as u64,
                    );
                    op += 1;
                }
                // The feed publishes a new generation: finish what was asked
                // of the old one first, so every latency belongs to exactly
                // one generation and the counts repeat exactly.
                driver.drain();
                let span = driver
                    .tracer
                    .begin("ingest.absorb", SpanRef::NONE, op as u64);
                calls::ingest(&stand.service, feed)?;
                driver.tracer.end(span);
                if i % INGESTS_PER_COMPACTION == COMPACTION_PHASE {
                    let span = driver
                        .tracer
                        .begin("ingest.compact", SpanRef::NONE, op as u64);
                    calls::compact(&stand.service)?;
                    driver.tracer.end(span);
                }
            }
        }
    }
    let wall = begun.elapsed();
    let reference_us = (reference_before + reference::sample_us()) / 2.0;
    let after = calls::metrics(&stand.service).cache;
    Ok(Round {
        wall,
        ops: ops as u64,
        failed: driver.failed,
        latency: driver.latency,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        reference_us,
    })
}

/// The change feeds of one `ingest_mix` round, built from the base database
/// (every round starts from it again).
pub fn round_feeds(workload: &Workload, db: &Database, seed: u64) -> Vec<ChangeFeed> {
    match workload.ingests_per_round() {
        0 => Vec::new(),
        n => calls::onboarding_feeds(db, seed, n, CUSTOMERS_PER_FEED),
    }
}

/// Puts `stand` back to the state a round starts from.  Read-only workloads
/// need nothing; `ingest_mix` boots a fresh durable service over the base
/// warehouse, so every round ingests into the same rows.
pub fn reset_stand(workload: &Workload, inputs: &Inputs, stand: Stand) -> Result<Stand, String> {
    if workload.kind != Kind::IngestMix {
        return Ok(stand);
    }
    let Stand {
        db,
        graph,
        service,
        dir,
    } = stand;
    drop(service);
    if let Some(dir) = dir {
        remove_journal_dir(&dir);
    }
    start_stand(workload, inputs, db, graph, None).map(|(stand, _, _)| stand)
}

/// After the last round: re-issues every pool query and compares the SQL
/// lists byte for byte.  Returns `(attempted, failed)`.
///
/// `ingest_mix` is checked against an engine rebuilt from scratch on the
/// final database, and again after dropping the service and recovering its
/// directory — what was acknowledged must be what a restart serves.
pub fn final_sweep(
    workload: &Workload,
    inputs: &Inputs,
    reference: &Reference,
    stand: Stand,
) -> Result<(u64, u64, Option<RecoveryCheck>), String> {
    let sweep = |service: &QueryService, oracle: &Reference| -> u64 {
        let mut failed = 0;
        for (index, query) in inputs.pool.iter().enumerate() {
            match calls::wait(calls::query(service, query)) {
                Ok(page) if oracle.matches(index, &page) => {}
                _ => failed += 1,
            }
        }
        failed
    };
    let pool = inputs.pool.len() as u64;
    if workload.kind != Kind::IngestMix {
        return Ok((pool, sweep(&stand.service, reference), None));
    }
    let Stand {
        db,
        graph,
        service,
        dir,
    } = stand;
    let dir = dir.expect("ingest_mix is durable");
    let rebuilt = calls::build_engine(
        calls::live_database(&service),
        Arc::clone(&graph),
        workload.shards,
    );
    let oracle = Reference::compute(&rebuilt, &inputs.pool, false)?;
    let mut failed = sweep(&service, &oracle);
    drop(service);
    let t = Instant::now();
    let (recovered, replayed_feeds) =
        calls::recover_service(db, graph, workload.shards, &dir, FsyncPolicy::Always)?;
    let recover = t.elapsed();
    failed += sweep(&recovered, &oracle);
    drop(recovered);
    remove_journal_dir(&dir);
    Ok((
        2 * pool,
        failed,
        Some(RecoveryCheck {
            recover,
            replayed_feeds,
        }),
    ))
}

pub struct RecoveryCheck {
    pub recover: Duration,
    pub replayed_feeds: u64,
}
