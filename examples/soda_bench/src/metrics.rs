//! The metric declarations: what `BENCHMARK.json` lists and what the runs
//! must print.

/// An end-to-end metric: the same five on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before it
    /// is a regression — fixed by the noise protocol (README).
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    // Query ops completed per reference-kernel iteration: (ops ÷ round wall
    // time, ingest and compaction time included) × the kernel's iteration time
    // around that round; median of the rounds.
    EndToEnd {
        name: "throughput_per_ref",
        unit: "ops/ref",
        higher_is_better: true,
        bound: 0.20,
    },
    // Median op latency (query() to the return of wait()) of a round ÷ the
    // kernel's iteration time around that round; median of the rounds.
    EndToEnd {
        name: "latency_p50_ref",
        unit: "ref",
        higher_is_better: false,
        bound: 0.25,
    },
    // 95th percentile op latency of a round (the highest with ≥ 10 samples
    // beyond it in every round) in the same unit; median of the rounds.
    EndToEnd {
        name: "latency_p95_ref",
        unit: "ref",
        higher_is_better: false,
        bound: 0.25,
    },
    // VmHWM after the last measured round.
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.08,
    },
    // Warehouse generation + index build + service start/recover + prefill;
    // median of nine set-ups per run.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A per-layer metric, printed by `--trace 1`.  What each one is, and which
/// end-to-end metric it is predicted to move on which workload, is the
/// README's interaction table.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better,
    }
}

pub const PER_LAYER: [Layer; 61] = [
    // set-up
    layer("warehouse.generate_ms", "ms", false),
    layer("engine.snapshot_build_ms", "ms", false),
    layer("service.prefill_ms", "ms", false),
    layer("engine.index_postings", "count", false),
    // soda-core::query
    layer("query.normalize_us", "us", false),
    layer("query.parse_us", "us", false),
    // soda-service
    layer("service.warm_hit_us", "us", false),
    layer("service.dispatch_us", "us", false),
    layer("service.queue_wait_p50_us", "us", false),
    layer("service.pipeline_executions", "count", false),
    layer("service.coalesced", "count", true),
    layer("service.latency_p99_us", "us", false),
    layer("service.warm_2c_scaling", "ratio", true),
    // soda-service::cache
    layer("cache.hit_rate", "ratio", true),
    layer("cache.evictions", "count", false),
    layer("cache.retained", "count", true),
    layer("cache.purged", "count", false),
    // soda-core::pipeline
    layer("lookup.us", "us", false),
    layer("rank.us", "us", false),
    layer("tables.us", "us", false),
    layer("filters.us", "us", false),
    layer("sqlgen.us", "us", false),
    layer("pipeline.assemble_us", "us", false),
    layer("pipeline.glue_us", "us", false),
    layer("pipeline.direct_us", "us", false),
    layer("pipeline.unattributed_us", "us", false),
    layer("lookup.entry_points", "count", false),
    layer("lookup.probes", "count", false),
    layer("rank.solutions", "count", false),
    layer("sqlgen.results", "count", true),
    layer("pipeline.useful_ratio", "ratio", true),
    layer("lookup.shard4_speedup", "ratio", true),
    // soda-relation::exec
    layer("exec.execute_us", "us", false),
    layer("exec.snippet_us", "us", false),
    layer("exec.rows_out", "count", false),
    layer("exec.rows_in_per_row_out", "ratio", false),
    // soda-ingest / soda-journal
    layer("ingest.absorb_us", "us", false),
    layer("ingest.compact_ms", "ms", false),
    layer("journal.fsync_us", "us", false),
    layer("journal.bytes_per_row", "B", false),
    layer("journal.recover_ms", "ms", false),
    layer("journal.replayed_feeds", "count", false),
    // soda-trace / harness
    layer("trace.sampling_overhead_pct", "%", false),
    layer("harness.trace_overhead_pct", "%", false),
    layer("harness.timer_overhead_ns", "ns", false),
    layer("harness.round_spread_pct", "%", false),
    layer("trace.spans", "count", false),
    // the traced workload itself: raw numbers and spans
    layer("workload.throughput_qps", "1/s", true),
    layer("workload.latency_p50_us", "us", false),
    layer("workload.latency_p95_us", "us", false),
    layer("harness.reference_us", "us", false),
    layer("workload.op_us", "us", false),
    layer("workload.window_wait_us", "us", false),
    layer("workload.query_hit_us", "us", false),
    layer("workload.query_miss_us", "us", false),
    layer("workload.wait_us", "us", false),
    layer("workload.execute_us", "us", false),
    layer("workload.snippet_us", "us", false),
    layer("workload.absorb_us", "us", false),
    layer("workload.compact_ms", "ms", false),
    layer("harness.nproc", "count", true),
];

/// The text of `BENCHMARK.json`, from the tables above and the workload
/// list.
pub fn benchmark_json(run_seconds: u32) -> String {
    let escape = crate::json::escape;
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    let better = |higher| if higher { "higher" } else { "lower" };
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"examples/soda_bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"examples/soda_bench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
