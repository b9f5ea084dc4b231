//! The traced run (`--trace 1`): a few of the workload's rounds again,
//! untraced and traced alternating, with the harness recording a span around
//! every call into the program in the traced ones; then a fixed set of probes
//! that drive each layer on its own — also under spans — so every layer has
//! its own line in the ledger.
//!
//! End-to-end numbers never come from here: tracing costs time
//! (`harness.trace_overhead_pct` says how much).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use soda::core::{Database, EngineSnapshot, MetaGraph, ResultPage, SodaQuery, SodaResult};
use soda::service::{FsyncPolicy, QueryService};

use crate::affinity::Pinned;
use crate::calls::{self, Stages};
use crate::gen;
use crate::hist::Histogram;
use crate::metrics::PER_LAYER;
use crate::run::{self, median, Metric, Outcome};
use crate::trace::{Folded, SpanRef, Tracer};
use crate::workloads::{self, Round, Workload};

/// How much work the traced run does.
#[derive(Clone, Copy)]
struct Scale {
    /// Untraced/traced round pairs of the workload itself.
    pairs: usize,
    /// Queries the pipeline probes cover (three passes each).
    pipeline_pool: usize,
    /// Warm hits per probe block.
    warm_ops: usize,
    /// Alternating blocks of the sampling-overhead probe.
    overhead_blocks: usize,
}

const FULL: Scale = Scale {
    pairs: 5,
    pipeline_pool: 512,
    warm_ops: 50_000,
    overhead_blocks: 7,
};
/// `--smoke`: every code path, a hundredth of the work.
const SMOKE: Scale = Scale {
    pairs: 1,
    pipeline_pool: 64,
    warm_ops: 1_000,
    overhead_blocks: 1,
};

/// Passes over the pool by the pipeline probes; the three variants rotate,
/// so each goes first once per query.
const PIPELINE_PASSES: usize = 3;
const PROBE_FEEDS: usize = 24;
const PROBE_TAIL_FEEDS: usize = 8;
const CUSTOMERS_PER_FEED: usize = 16;

type Fold = BTreeMap<(&'static str, &'static str), Folded>;

fn folded(fold: &Fold, name: &'static str, tag: &'static str) -> Folded {
    fold.get(&(name, tag)).copied().unwrap_or_default()
}

/// Mean self time of `name` per `per` units, in µs, over every tag.
fn self_us_per(fold: &Fold, name: &'static str, per: usize) -> f64 {
    let total: u64 = fold
        .iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, f)| f.self_ns)
        .sum();
    total as f64 / per.max(1) as f64 / 1e3
}

struct Collected {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Collected {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

/// Part A: the workload, untraced and traced rounds alternating.
fn trace_workload(
    workload: &Workload,
    seed: u64,
    pairs: usize,
    tracer: &mut Tracer,
    out: &mut Collected,
) -> Result<f64, String> {
    let mut prepared = run::prepare(workload, seed)?;
    let generate: Vec<f64> = prepared
        .setups
        .iter()
        .map(|s| s.generate.as_secs_f64() * 1e3)
        .collect();
    let warehouse_generate_ms = median(&generate);

    let mut off = Tracer::off();
    let (p, _) = run::next_round(workload, prepared, seed, &mut off)?;
    prepared = p;
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    for _ in 0..pairs {
        let (p, round) = run::next_round(workload, prepared, seed, &mut off)?;
        prepared = p;
        plain.push(round);
        let (p, round) = run::next_round(workload, prepared, seed, tracer)?;
        prepared = p;
        traced.push(round);
    }

    // The service's own counters.  `ingest_mix` boots a fresh service per
    // round, so these are one round's counts there (and repeat exactly);
    // elsewhere they cover prefill, warm-up and all rounds.
    let service = calls::metrics(&prepared.stand.service);
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    let mut latency = Histogram::new();
    for round in &all {
        latency.merge(&round.latency);
    }
    let hit_rate = run::hit_rate(&plain);
    // The raw numbers behind the gated reference-unit metrics, from the
    // untraced rounds.
    let plain_qps = run::median_over(&plain, Round::throughput_qps);
    out.push("workload.throughput_qps", plain_qps, "1/s");
    out.push(
        "workload.latency_p50_us",
        run::median_over(&plain, Round::p50_us),
        "us",
    );
    out.push(
        "workload.latency_p95_us",
        run::median_over(&plain, Round::p95_us),
        "us",
    );
    out.push(
        "harness.reference_us",
        run::median_over(&plain, |r| r.reference_us),
        "us",
    );
    out.push("cache.hit_rate", hit_rate, "ratio");
    out.push("cache.evictions", service.cache.evictions as f64, "count");
    out.push("cache.retained", service.cache.retained as f64, "count");
    out.push("cache.purged", service.cache.purged as f64, "count");
    out.push(
        "service.pipeline_executions",
        service.pipeline_executions as f64,
        "count",
    );
    out.push("service.coalesced", service.coalesced as f64, "count");
    out.push(
        "service.queue_wait_p50_us",
        us(service.queue_wait.p50),
        "us",
    );
    out.push("service.latency_p99_us", latency.quantile_us(0.99), "us");
    out.push(
        "harness.trace_overhead_pct",
        (plain_qps / run::median_over(&traced, Round::throughput_qps) - 1.0) * 100.0,
        "%",
    );
    out.push(
        "harness.round_spread_pct",
        run::round_spread_pct(&plain),
        "%",
    );

    for round in &all {
        out.attempted += round.ops;
        out.failed += round.failed;
    }
    out.check(workload.hit_rate_in_band(hit_rate), || {
        let (low, high) = workload.hit_band;
        format!("cache.hit_rate {hit_rate:.4} outside {low}–{high}")
    });
    let run::Prepared {
        inputs,
        stand,
        reference,
        ..
    } = prepared;
    let (sweep_ops, sweep_failed, _) =
        workloads::final_sweep(workload, &inputs, &reference, stand)?;
    out.attempted += sweep_ops;
    out.failed += sweep_failed;
    Ok(warehouse_generate_ms)
}

/// Every time in the per-layer table is a fold of the recorded spans.
fn span_metrics(fold: &Fold, pipeline_queries: usize, out: &mut Collected) {
    let mean_us = |name, tag| folded(fold, name, tag).mean_us();
    let mean_ms = |name| folded(fold, name, "").mean_us() / 1e3;

    // Part A: the workload's own ops.
    let op = folded(fold, "op", "");
    out.push("workload.op_us", op.mean_us(), "us");
    out.push("workload.window_wait_us", op.mean_self_us(), "us");
    out.push(
        "workload.query_hit_us",
        mean_us("service.query", "hit"),
        "us",
    );
    out.push(
        "workload.query_miss_us",
        mean_us("service.query", "miss"),
        "us",
    );
    out.push("workload.wait_us", mean_us("service.wait", ""), "us");
    out.push("workload.execute_us", mean_us("exec.execute", ""), "us");
    out.push("workload.snippet_us", mean_us("exec.snippet", ""), "us");
    out.push("workload.absorb_us", mean_us("ingest.absorb", ""), "us");
    out.push("workload.compact_ms", mean_ms("ingest.compact"), "ms");

    // The probes.
    let stage = |name| self_us_per(fold, name, pipeline_queries);
    let (lookup, rank, tables, filters, sqlgen) = (
        stage("lookup"),
        stage("rank"),
        stage("tables"),
        stage("filters"),
        stage("sqlgen"),
    );
    let (parse, assemble) = (stage("query.parse"), stage("assemble"));
    // The replica's own self time: the loop, and dropping each solution's
    // plan and filters and the lookup result — work the engine does too.
    let glue = stage("pipeline");
    let direct = stage("engine.direct");
    let unattributed =
        direct - (parse + lookup + rank + tables + filters + sqlgen + assemble + glue);
    out.push(
        "engine.snapshot_build_ms",
        mean_ms("probe.engine_build"),
        "ms",
    );
    out.push("query.normalize_us", stage("query.normalize"), "us");
    out.push("query.parse_us", parse, "us");
    out.push("lookup.us", lookup, "us");
    out.push("rank.us", rank, "us");
    out.push("tables.us", tables, "us");
    out.push("filters.us", filters, "us");
    out.push("sqlgen.us", sqlgen, "us");
    out.push("pipeline.assemble_us", assemble, "us");
    out.push("pipeline.glue_us", glue, "us");
    out.push("pipeline.direct_us", direct, "us");
    out.push("pipeline.unattributed_us", unattributed, "us");
    out.push(
        "lookup.shard4_speedup",
        stage("lookup.shard1") / stage("lookup.shard4"),
        "ratio",
    );
    // A warning, not a failed op: it is a statement about timings, and in
    // this host's bad minutes (right after a build, say) timings lie.
    if unattributed.abs() >= 0.10 * direct {
        out.problems.push(format!(
            "warning: pipeline.unattributed_us {unattributed:.1} is ≥ 10 % of {direct:.1} — the stage table of this run does not add up"
        ));
    }
    out.push("service.prefill_ms", mean_ms("probe.prefill"), "ms");
    out.push("service.warm_hit_us", mean_us("probe.warm_hit", ""), "us");
    out.push(
        "service.dispatch_us",
        stage("service.cold_roundtrip") - direct,
        "us",
    );
    out.push("exec.execute_us", mean_us("probe.execute", ""), "us");
    out.push("exec.snippet_us", mean_us("probe.snippet", ""), "us");
    out.push("ingest.compact_ms", mean_ms("probe.compact"), "ms");
    out.push("journal.recover_ms", mean_ms("probe.recover"), "ms");
}

/// What the staged replica of one search produced.
struct Staged {
    page: ResultPage,
    query: SodaQuery,
    entry_points: usize,
    solutions_tried: usize,
    results_kept: usize,
}

/// One search driven stage by stage, a span around each call: one more
/// result than the page holds (so `has_next` is known), duplicates dropped —
/// what a paged search asks of the stages.
fn staged_search(
    stages: &Stages<'_>,
    input: &str,
    request: u64,
    tracer: &mut Tracer,
) -> Result<Staged, String> {
    let root = tracer.begin("pipeline", SpanRef::NONE, request);
    let span = tracer.begin("query.parse", root, request);
    let query = calls::parse(input)?;
    tracer.end(span);
    let span = tracer.begin("lookup", root, request);
    let lookup = stages.lookup(&query);
    tracer.end(span);
    let span = tracer.begin("rank", root, request);
    let solutions = stages.rank(&lookup, 11);
    tracer.end(span);
    let mut results: Vec<SodaResult> = Vec::new();
    let mut solutions_tried = 0;
    for solution in &solutions {
        solutions_tried += 1;
        let span = tracer.begin("tables", root, request);
        let mut plan = stages.tables(solution);
        tracer.end(span);
        let span = tracer.begin("filters", root, request);
        let (filters, notes) = stages.filters(solution, &mut plan, &lookup);
        tracer.end(span);
        let span = tracer.begin("sqlgen", root, request);
        let statement = stages.sqlgen(&plan, &filters, &lookup);
        tracer.end(span);
        let Some((statement, sql)) = statement else {
            continue;
        };
        let span = tracer.begin("assemble", root, request);
        if !results.iter().any(|r| r.sql == sql) {
            results.push(stages.assemble(solution, &plan, statement, sql, notes));
        }
        tracer.end(span);
        if results.len() >= 11 {
            break;
        }
    }
    let span = tracer.begin("assemble", root, request);
    let page = Stages::first_page(&results);
    tracer.end(span);
    // The engine frees its intermediates before it returns; the replica
    // must too, inside its root span, or the decomposition comes up short.
    let entry_points = lookup.complexity();
    let results_kept = results.len();
    drop((lookup, solutions, results));
    tracer.end(root);
    Ok(Staged {
        page,
        query,
        entry_points,
        solutions_tried,
        results_kept,
    })
}

/// `soda-core::query` and `soda-core::pipeline` over the 512-query pool.
///
/// Per query, back to back, so that a drift in the machine's speed cancels
/// out of every difference and ratio: the engine asked directly; the staged
/// replica of the same search; and the same question through a service whose
/// one-page cache never holds it (queue → worker → pipeline with one request
/// outstanding).  Whichever of the three goes first pays the cache misses on
/// the query's postings and rows, so the order rotates with the pass and
/// each goes first once per query.  The 1-shard and 4-shard lookups that
/// give `lookup.shard4_speedup` follow, both on warmed data, in alternating
/// order.
fn probe_pipeline(
    engine: &Arc<EngineSnapshot>,
    sharded: &EngineSnapshot,
    pool: &[String],
    tracer: &mut Tracer,
    out: &mut Collected,
) -> Result<(), String> {
    let stages = Stages::new(engine);
    let sharded_stages = Stages::new(sharded);
    let cold = calls::start_service(Arc::clone(engine), Some(1));
    let mut entry_points = 0usize;
    let mut solutions_tried = 0usize;
    let mut results_kept = 0usize;
    for pass in 0..PIPELINE_PASSES {
        for (index, input) in pool.iter().enumerate() {
            let request = index as u64;

            let span = tracer.begin("query.normalize", SpanRef::NONE, request);
            black_box(calls::normalize(input)?);
            tracer.end(span);

            let mut direct = None;
            let mut staged = None;
            let mut served = None;
            for step in 0..3 {
                match (index + pass + step) % 3 {
                    0 => {
                        let span = tracer.begin("engine.direct", SpanRef::NONE, request);
                        direct = Some(calls::reference_page(engine, input)?);
                        tracer.end(span);
                    }
                    1 => staged = Some(staged_search(&stages, input, request, tracer)?),
                    _ => {
                        let span = tracer.begin("service.cold_roundtrip", SpanRef::NONE, request);
                        let handle = calls::query(&cold, input);
                        let ready = calls::is_ready(&handle);
                        let page = calls::wait(handle)?;
                        tracer.end(span);
                        served = Some((ready, page));
                    }
                }
            }
            let (Some(direct), Some(staged), Some((ready, served))) = (direct, staged, served)
            else {
                unreachable!("three steps, three variants");
            };

            for step in 0..2 {
                let (name, lookup) = if (index + pass + step) % 2 == 0 {
                    ("lookup.shard1", &stages)
                } else {
                    ("lookup.shard4", &sharded_stages)
                };
                let span = tracer.begin(name, SpanRef::NONE, request);
                black_box(lookup.lookup(&staged.query));
                tracer.end(span);
            }

            if pass == 0 {
                entry_points += staged.entry_points;
                solutions_tried += staged.solutions_tried;
                results_kept += staged.results_kept;
                out.check(staged.page == direct, || {
                    format!("staged pipeline disagrees with the engine on {input:?}")
                });
                out.check(!ready && served == direct, || {
                    format!("cold probe {input:?}: not computed by the worker, or a different page")
                });
            }
        }
    }
    let per_query = |total: usize| total as f64 / pool.len() as f64;
    out.push("lookup.entry_points", per_query(entry_points), "count");
    out.push(
        "lookup.probes",
        stages.probes() as f64 / (pool.len() * PIPELINE_PASSES * 2) as f64,
        "count",
    );
    out.push("rank.solutions", per_query(solutions_tried), "count");
    out.push("sqlgen.results", per_query(results_kept), "count");
    out.push(
        "pipeline.useful_ratio",
        results_kept as f64 / solutions_tried.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Times `ops` warm hits drawn round-robin from `pool`; returns seconds.
fn warm_block(service: &QueryService, pool: &[String], ops: usize) -> f64 {
    let started = Instant::now();
    for op in 0..ops {
        black_box(calls::query(service, &pool[op % pool.len()]));
    }
    started.elapsed().as_secs_f64()
}

/// `soda-service`: the warm hit, scaling of the hit path with a second caller, and what default sampling + an SLO
/// would add to a hit.
fn probe_service(
    engine: &Arc<EngineSnapshot>,
    warm_pool: &[String],
    scale: Scale,
    pinned: &Pinned,
    tracer: &mut Tracer,
    out: &mut Collected,
) -> Result<(), String> {
    // Warm hit.
    let service = calls::start_service(Arc::clone(engine), None);
    let span = tracer.begin("probe.prefill", SpanRef::NONE, 0);
    for query in warm_pool {
        calls::wait(calls::query(&service, query))?;
    }
    tracer.end(span);
    for op in 0..scale.warm_ops {
        let span = tracer.begin("probe.warm_hit", SpanRef::NONE, op as u64);
        let handle = calls::query(&service, &warm_pool[op % warm_pool.len()]);
        tracer.end(span);
        out.check(calls::is_ready(&handle), || {
            "warm probe missed the cache".to_string()
        });
    }

    // Two callers, on every CPU the process may use, against one: 1.0 means
    // the `store` mutex serialises them.
    let one = scale.warm_ops as f64 / warm_block(&service, warm_pool, scale.warm_ops);
    let both = pinned.lifted(|| {
        let both = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| warm_block(&service, warm_pool, scale.warm_ops));
            }
        });
        both.elapsed()
    })?;
    let two = 2.0 * scale.warm_ops as f64 / both.as_secs_f64();
    out.push("service.warm_2c_scaling", two / one, "ratio");

    // Default sampling + SLO against neither, in alternating blocks.
    let observed = calls::start_observed_service(Arc::clone(engine));
    for query in warm_pool {
        calls::wait(calls::query(&observed, query))?;
    }
    let mut plain_s = Vec::new();
    let mut observed_s = Vec::new();
    for _ in 0..scale.overhead_blocks {
        plain_s.push(warm_block(&service, warm_pool, scale.warm_ops));
        observed_s.push(warm_block(&observed, warm_pool, scale.warm_ops));
    }
    out.push(
        "trace.sampling_overhead_pct",
        (median(&observed_s) / median(&plain_s) - 1.0) * 100.0,
        "%",
    );
    drop(observed);
    drop(service);

    Ok(())
}

/// `soda-relation::exec`: the top statement of each of the 64 pool queries.
fn probe_exec(
    engine: &EngineSnapshot,
    pool: &[String],
    tracer: &mut Tracer,
    out: &mut Collected,
) -> Result<(), String> {
    let mut rows_out = 0usize;
    let mut rows_in = 0usize;
    for (index, query) in pool.iter().enumerate() {
        let page = calls::reference_page(engine, query)?;
        let top = &page.results[0];
        let span = tracer.begin("probe.execute", SpanRef::NONE, index as u64);
        let rows = calls::execute(engine, top)?;
        tracer.end(span);
        let span = tracer.begin("probe.snippet", SpanRef::NONE, index as u64);
        black_box(calls::snippet(&rows));
        tracer.end(span);
        rows_out += rows.row_count();
        rows_in += calls::from_table_rows(engine, top);
    }
    out.push(
        "exec.rows_out",
        rows_out as f64 / pool.len() as f64,
        "count",
    );
    out.push(
        "exec.rows_in_per_row_out",
        rows_in as f64 / rows_out.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// A fresh durable 4-shard service after `PROBE_FEEDS` journaled absorbs.
struct Absorbed {
    service: QueryService,
    dir: std::path::PathBuf,
    p50_us: f64,
    journal_bytes: u64,
}

fn absorb_feeds(
    db: &Arc<Database>,
    graph: &Arc<MetaGraph>,
    seed: u64,
    fsync: FsyncPolicy,
    name: &'static str,
    tracer: &mut Tracer,
) -> Result<Absorbed, String> {
    let dir = workloads::artefact_dir().join(format!("{name}-{}", std::process::id()));
    workloads::remove_journal_dir(&dir);
    let (service, _) = calls::recover_service(Arc::clone(db), Arc::clone(graph), 4, &dir, fsync)?;
    let empty_journal = calls::metrics(&service).durability.journal_bytes;
    let mut absorb = Histogram::new();
    for (i, feed) in calls::onboarding_feeds(db, seed, PROBE_FEEDS, CUSTOMERS_PER_FEED)
        .into_iter()
        .enumerate()
    {
        let started = Instant::now();
        let span = tracer.begin(name, SpanRef::NONE, i as u64);
        calls::ingest(&service, feed)?;
        tracer.end(span);
        absorb.record(started.elapsed());
    }
    let journal_bytes = calls::metrics(&service).durability.journal_bytes - empty_journal;
    Ok(Absorbed {
        service,
        dir,
        p50_us: absorb.quantile_us(0.50),
        journal_bytes,
    })
}

/// `soda-ingest` / `soda-journal`: absorb with and without fsync, journal
/// bytes per row, a compaction, and a restart.
fn probe_ingest(
    db: &Arc<Database>,
    graph: &Arc<MetaGraph>,
    pool: &[String],
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Collected,
) -> Result<(), String> {
    let relaxed = absorb_feeds(
        db,
        graph,
        seed,
        FsyncPolicy::Never,
        "probe.absorb_nosync",
        tracer,
    )?;
    drop(relaxed.service);
    workloads::remove_journal_dir(&relaxed.dir);

    let Absorbed {
        service,
        dir,
        p50_us,
        journal_bytes,
    } = absorb_feeds(db, graph, seed, FsyncPolicy::Always, "probe.absorb", tracer)?;
    let rows = PROBE_FEEDS * CUSTOMERS_PER_FEED * 2;

    let span = tracer.begin("probe.compact", SpanRef::NONE, 0);
    calls::compact(&service)?;
    tracer.end(span);

    // A tail of feeds after the checkpoint, so the restart has a journal to
    // replay on top of it.
    let grown = calls::live_database(&service);
    for feed in calls::onboarding_feeds(&grown, seed ^ 1, PROBE_TAIL_FEEDS, CUSTOMERS_PER_FEED) {
        calls::ingest(&service, feed)?;
    }
    let live: Vec<_> = pool
        .iter()
        .map(|q| calls::wait(calls::query(&service, q)))
        .collect::<Result<_, _>>()?;
    drop(service);
    let span = tracer.begin("probe.recover", SpanRef::NONE, 0);
    let (recovered, replayed) = calls::recover_service(
        Arc::clone(db),
        Arc::clone(graph),
        4,
        &dir,
        FsyncPolicy::Always,
    )?;
    tracer.end(span);
    for (query, before) in pool.iter().zip(&live) {
        let after = calls::wait(calls::query(&recovered, query))?;
        out.check(&after == before, || {
            format!("page of {query:?} changed across a restart")
        });
    }
    drop(recovered);
    workloads::remove_journal_dir(&dir);

    out.push("ingest.absorb_us", p50_us, "us");
    out.push("journal.fsync_us", p50_us - relaxed.p50_us, "us");
    out.push(
        "journal.bytes_per_row",
        journal_bytes as f64 / rows as f64,
        "B",
    );
    out.push("journal.replayed_feeds", replayed as f64, "count");
    Ok(())
}

/// The metrics in `metrics::PER_LAYER` order; an undeclared or a missing one
/// is a bug in the harness, not a measurement.
fn in_declared_order(measured: Vec<Metric>) -> Result<Vec<Metric>, String> {
    if let Some((name, _, _)) = measured
        .iter()
        .find(|(name, _, _)| !PER_LAYER.iter().any(|d| d.name == *name))
    {
        return Err(format!("per-layer metric {name} is not declared"));
    }
    PER_LAYER
        .iter()
        .map(|declared| {
            measured
                .iter()
                .find(|(name, _, _)| *name == declared.name)
                .map(|(name, value, _)| (*name, *value, declared.unit))
                .ok_or_else(|| format!("per-layer metric {} was not measured", declared.name))
        })
        .collect()
}

/// Cost of one `Instant::now()` + `elapsed()` pair, in ns — what every span
/// adds to the interval it measures.
fn timer_overhead_ns() -> f64 {
    const PAIRS: u32 = 1_000_000;
    let started = Instant::now();
    let mut sink = 0u128;
    for _ in 0..PAIRS {
        sink += Instant::now().elapsed().as_nanos();
    }
    black_box(sink);
    started.elapsed().as_nanos() as f64 / PAIRS as f64
}

pub fn run(
    workload: &Workload,
    seed: u64,
    smoke: bool,
    pinned: &Pinned,
) -> Result<Outcome, String> {
    let scale = if smoke { SMOKE } else { FULL };
    // Per op: op + query + wait (or + execute + snippet); per pipeline probe
    // ≈ 30 spans; the warm probe one per hit.
    let mut tracer = Tracer::on(
        scale.pairs * workload.ops_per_round * 4
            + scale.pipeline_pool * PIPELINE_PASSES * 40
            + scale.warm_ops
            + 1_000,
    );
    let mut out = Collected {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };

    let warehouse_generate_ms = trace_workload(workload, seed, scale.pairs, &mut tracer, &mut out)?;
    out.push("warehouse.generate_ms", warehouse_generate_ms, "ms");

    // The probes: the same for every workload, over this seed's pools.
    let (db, graph) = calls::build_warehouse();
    let span = tracer.begin("probe.engine_build", SpanRef::NONE, 0);
    let engine = calls::build_engine(Arc::clone(&db), Arc::clone(&graph), 1);
    tracer.end(span);
    let sharded = calls::build_engine(Arc::clone(&db), Arc::clone(&graph), 4);
    out.push(
        "engine.index_postings",
        calls::index_postings(&engine) as f64,
        "count",
    );
    let table2 = calls::table2_keywords();
    let literals = calls::literals();
    let cold_pool = gen::pool(&table2, &literals, Some(seed), scale.pipeline_pool);
    let warm_pool = gen::pool(&table2, &literals, None, 64);
    probe_pipeline(&engine, &sharded, &cold_pool, &mut tracer, &mut out)?;
    drop(sharded);
    probe_service(&engine, &warm_pool, scale, pinned, &mut tracer, &mut out)?;
    probe_exec(&engine, &warm_pool, &mut tracer, &mut out)?;
    probe_ingest(&db, &graph, &warm_pool, seed, &mut tracer, &mut out)?;
    span_metrics(&tracer.fold(), cold_pool.len() * PIPELINE_PASSES, &mut out);

    out.push("harness.timer_overhead_ns", timer_overhead_ns(), "ns");
    out.push("trace.spans", tracer.span_count() as f64, "count");
    out.push(
        "harness.nproc",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        "count",
    );

    let path = workloads::artefact_dir().join(format!("trace-{}.jsonl", workload.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let mut notes = vec![
        ("workload", workload.name.to_string()),
        ("seed", seed.to_string()),
        ("spans", path.display().to_string()),
    ];
    for problem in &out.problems {
        notes.push(("problem", problem.clone()));
    }
    Ok(Outcome {
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics: in_declared_order(out.metrics)?,
        notes,
    })
}
