//! # soda-service
//!
//! The serving layer of the SODA reproduction: where `soda-core` answers one
//! query from one thread, this crate turns a built engine into a long-lived,
//! thread-safe, **multi-tenant query service** — the shape a warehouse
//! deployment needs when many business users (across many hosted
//! warehouses) hit the same worker pool all day.
//!
//! The rule of the crate is **one way to do each thing** — one submission
//! path, one mutation = one [`TenantAdmin`] method, one recovery function,
//! one metrics table — in these private modules, all `std`-only:
//!
//! * `service` — [`QueryService`], a bounded worker pool over per-tenant
//!   hot-swappable [`EngineSnapshot`](soda_core::EngineSnapshot)s (each
//!   tenant publishes its own) with a single request surface: build a
//!   [`QueryRequest`] (optionally [`.tenant(..)`](QueryRequest::tenant)),
//!   pass it to [`query`](QueryService::query), get a [`JobHandle`] that
//!   yields a [`QueryResponse`].  The worker pool is the one place the
//!   pipeline runs.  Blocking backpressure, in-flight request coalescing,
//!   graceful drain.  Its module docs tell the life of a
//!   query, hot swapping, streaming ingestion and durable restart in full.
//! * `config`, `request` — [`ServiceConfig`] and its opt-in
//!   sub-configurations; the request / response / [`ServiceError`] types.
//! * `queue`, `worker` — per-tenant lanes with round-robin pop
//!   and admission control; the worker loop.
//! * `admin` — [`TenantAdmin`] ([`QueryService::admin`]), one path per
//!   kind of change: base data changes only through
//!   [`TenantAdmin::ingest_owned`], which absorbs a row-level
//!   [`ChangeFeed`](soda_core::ChangeFeed) into per-shard side logs, and
//!   [`TenantAdmin::compact`] merges those logs into copies of their
//!   partitions when the operator asks; `refresh_graph` swaps in new metadata and `reload` anything else, all
//!   without draining the pool.
//! * `durability` — with a [`DurabilityConfig`] the service is
//!   **crash-safe**: ingests are journaled write-ahead ([`soda_journal`]),
//!   swaps and compactions checkpoint and truncate the journal, one
//!   recovery function replays it — behind [`QueryService::recover`] and
//!   [`QueryService::add_tenant`] alike — into byte-identical answers, and
//!   a graceful drain persists the keys of the default tenant's warm pages;
//!   both files carry the configuration the service last served.
//! * `tenants` — [`TenantRegistry`]: further warehouses registered at
//!   runtime, each with its own live snapshot, queue lane, admission
//!   quota and journal, while the worker pool and the cache stay shared.
//!   A tenant keeps its own state under three locks: its writer (swaps and
//!   the journal; the only publisher), its live snapshot and its facts
//!   (every latency, counter and alert state).
//!   Cache keys fold the tenant
//!   fingerprint ([`TenantId::fold`]), so tenants share one LRU without any
//!   possibility of cross-tenant hits.
//! * `cache` — [`LruCache`], mapping *canonicalized* queries
//!   ([`soda_core::normalize_query`]) plus the tenant-folded snapshot
//!   fingerprint ([`soda_core::EngineSnapshot::cache_fingerprint`]) to
//!   served pages, with hit / miss / eviction / purge accounting.
//! * `metrics`, `exposition`, `slo` — the [`ServiceMetrics`] health
//!   snapshot (QPS, histogram-backed latency with the **queue-wait /
//!   execution split** and per-stage figures, cache, queue, per-shard
//!   [`soda_core::ShardStats`], the per-tenant [`TenantMetrics`]) and its
//!   Prometheus rendering [`QueryService::metrics_text`], walked off **one
//!   table** of metric families; the operational-event log
//!   ([`QueryService::events`] / [`events_for`](QueryService::events_for)),
//!   the per-tenant rings of kept traces — slow queries and head-sampled
//!   ones alike, as the tenant's sampler ([`ServiceConfig::sampling`])
//!   decides ([`QueryService::sampled_traces`]) — and the per-tenant SLO burn-rate engine ([`ServiceConfig::slo`] →
//!   [`QueryService::alerts`]).  See `docs/OBSERVABILITY.md`.
//!
//! ```
//! use std::sync::Arc;
//! use soda_core::{EngineSnapshot, SodaConfig};
//! use soda_service::{QueryRequest, QueryService, ServiceConfig};
//!
//! let warehouse = soda_warehouse::minibank::build(42);
//! let snapshot = Arc::new(EngineSnapshot::build(
//!     Arc::new(warehouse.database),
//!     Arc::new(warehouse.graph),
//!     SodaConfig::default(),
//! ));
//! let service = QueryService::start(snapshot, ServiceConfig::default());
//! let response = service.query(QueryRequest::new("wealthy customers")).wait().unwrap();
//! assert!(response.page.results.iter().all(|r| r.sql.starts_with("SELECT")));
//! ```

#![warn(unreachable_pub)]

mod admin;
mod cache;
mod config;
mod durability;
mod exposition;
mod heap;
mod metrics;
mod queue;
mod request;
mod service;
mod slo;
mod tenants;
mod worker;

pub use admin::TenantAdmin;
pub use cache::{CacheStats, LruCache};
pub use config::{DurabilityConfig, SamplingConfig, ServiceConfig};
pub use durability::RecoveryReport;
pub use metrics::{
    DurabilityMetrics, IngestMetrics, LatencySummary, ServiceMetrics, StageLatencies, TenantMetrics,
};
pub use request::{JobHandle, JobResult, QueryRequest, QueryResponse, SampledTrace, ServiceError};
pub use service::QueryService;
pub use slo::{AlertState, BurnAlert, SloConfig};
pub use tenants::TenantRegistry;

// Re-exported so multi-tenant callers can name tenants without a direct
// dependency on the core crate.
pub use soda_core::TenantId;
// Re-exported so durable-service callers can set the fsync policy without a
// direct dependency on the journal crate.
pub use soda_journal::FsyncPolicy;
// Re-exported so observability callers can name the event/span types (and
// validate `metrics_text` output) without a direct `soda-trace` dependency.
pub use soda_trace::{OpEvent, QueryTrace};
