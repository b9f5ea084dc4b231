//! Tracing and metrics kernel for the SODA reproduction.
//!
//! The crate is deliberately tiny and dependency-free: it is threaded through
//! the query pipeline's hottest paths, so everything here is built around two
//! constraints — **near-zero cost when tracing is off** and **fixed memory
//! when it is on**:
//!
//! * [`TraceSink`] / [`SpanId`] — the span-recording interface the pipeline
//!   carries (exactly like the engine's probe recorder).  [`NoopSink`]
//!   implements every method as an empty default; call sites guard all field
//!   construction behind [`TraceSink::enabled`], so the untraced path costs
//!   one virtual call per span site.
//! * [`CollectingSink`] / [`QueryTrace`] — the recording implementation: a
//!   flat span log folded into a tree ([`QueryTrace`]) that renders as ASCII
//!   ([`QueryTrace::render`]).
//! * [`LogHistogram`] — an HDR-style log-bucketed latency histogram: fixed
//!   memory forever, mergeable, with quantiles whose relative error is
//!   bounded by the sub-bucket resolution (≤ 1/32 ≈ 3.125%) and which are
//!   monotone by construction (p50 ≤ p95 ≤ max).
//! * [`BoundedLog`] / [`OpEvent`] — a bounded ring for operational events
//!   (snapshot swaps, ingests, compactions, checkpoints, recoveries) and
//!   kept traces.
//! * [`Sampler`] — the adaptive sampling kernel behind always-on tracing:
//!   deterministic probabilistic head sampling plus a tail rule that always
//!   retains slow queries, at a cost of one atomic increment and one 64-bit
//!   mix per unsampled query.
//! * [`prom`] — a minimal Prometheus text-exposition writer plus a validator
//!   used by golden tests to keep the exported surface well-formed.

#![warn(unreachable_pub)]

mod hist;
pub mod prom;
mod ring;
mod sample;
mod span;

pub use hist::LogHistogram;
pub use ring::{BoundedLog, OpEvent};
pub use sample::{HeadDecision, SampleReason, Sampler, TraceId};
pub use span::{CollectingSink, NoopSink, QueryTrace, Span, SpanId, TraceSink, TraceValue};

/// Canonical span names emitted by the engine, so traces, metrics labels and
/// tests all agree on the vocabulary.
pub mod names {
    /// Root span of one query interpretation run.
    pub const QUERY: &str = "query";
    /// Step 1 — keyword lookup (classification + base-data probes).
    pub const LOOKUP: &str = "lookup";
    /// Step 2 — solution enumeration and ranking.
    pub const RANK: &str = "rank";
    /// Step 3 — table discovery and join selection (summed over solutions).
    pub const TABLES: &str = "tables";
    /// Step 4 — filter collection (summed over solutions).
    pub const FILTERS: &str = "filters";
    /// Step 5 — SQL generation (summed over solutions).
    pub const SQLGEN: &str = "sqlgen";
    /// One phrase's base-data probe (child of [`LOOKUP`]).
    pub const PROBE: &str = "probe";
    /// One shard's scan within a probe (child of [`PROBE`]).
    pub const PROBE_SHARD: &str = "probe_shard";
    /// Event on the [`QUERY`] root marking a warm interpretation-cache hit
    /// (no pipeline ran — the page was served from the cache).
    pub const CACHE_HIT: &str = "cache_hit";

    /// The five pipeline stages, in execution order.
    pub const STAGES: [&str; 5] = [LOOKUP, RANK, TABLES, FILTERS, SQLGEN];
}
