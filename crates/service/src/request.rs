//! What goes in and what comes out: [`QueryRequest`], [`QueryResponse`],
//! the [`JobHandle`] claim on a pending answer, [`ServiceError`], and the
//! kept-trace record ([`SampledTrace`]).

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use soda_core::{ResultPage, SodaError, TenantId};
use soda_trace::QueryTrace;

/// One query as submitted by a client — the single request surface of the
/// service.  Build fluently:
///
/// ```no_run
/// use soda_service::QueryRequest;
/// let request = QueryRequest::new("wealthy customers")
///     .page(1)
///     .tenant("acme");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The business user's input text.
    pub input: String,
    /// Zero-based page of the ranked result list.
    pub page: usize,
    /// Page size (clamped to at least 1 by the engine).
    pub page_size: usize,
    /// The tenant whose snapshot answers the query (the default tenant
    /// unless [`tenant`](Self::tenant) selected another).
    pub tenant: TenantId,
}

impl QueryRequest {
    /// A request for the first page (size 10, the paper's result page),
    /// against the default tenant.
    pub fn new(input: impl Into<String>) -> Self {
        Self {
            input: input.into(),
            page: 0,
            page_size: 10,
            tenant: TenantId::default(),
        }
    }

    /// Selects a page.
    pub fn page(mut self, page: usize) -> Self {
        self.page = page;
        self
    }

    /// Selects a page size.
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Routes the query to a hosted tenant's snapshot.
    pub fn tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// One answered query, yielded by [`JobHandle::wait`].  Its span tree, when
/// the tenant's sampler keeps it, is in
/// [`QueryService::sampled_traces`](crate::QueryService::sampled_traces).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The served result page.
    pub page: ResultPage,
}

/// One kept trace: a query whose end-to-end latency reached
/// [`SamplingConfig::slow`](crate::SamplingConfig::slow) or that the head
/// sampler drew, with the full span tree of what served it
/// (a pipeline execution, or a synthesized `cache_hit` root for warm hits).
/// Retained per tenant in a bounded ring
/// ([`QueryService::sampled_traces`](crate::QueryService::sampled_traces)).
#[derive(Debug, Clone)]
pub struct SampledTrace {
    /// The tenant the query belonged to.
    pub tenant: TenantId,
    /// The sampler-assigned trace id (16 lowercase hex digits).
    pub trace_id: String,
    /// The business user's input text, verbatim.
    pub input: String,
    /// Why the trace was kept: `"tail_slow"` or `"head"`.
    pub reason: &'static str,
    /// End-to-end latency (submission to completion).
    pub total: Duration,
    /// Time spent waiting in the queue before a worker picked the job up
    /// (zero for a warm hit).
    pub queue_wait: Duration,
    /// Pipeline execution time, dequeue to completion (zero for a warm
    /// hit).
    pub execution: Duration,
    /// The span tree.
    pub trace: QueryTrace,
}

/// Errors surfaced by the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The engine rejected or failed the query.
    Engine(SodaError),
    /// The job never completed: a worker panicked mid-query (this job's, or
    /// every worker did before this job ran).
    Disconnected,
    /// The feed journal or page cache could not be written or recovered
    /// (rendered to text because `std::io::Error` is not `Clone`).  Surfaced
    /// by [`QueryService::recover`](crate::QueryService::recover) and by an
    /// [`TenantAdmin::ingest_owned`](crate::TenantAdmin::ingest_owned) whose write-ahead
    /// append failed — such a feed is **not** absorbed, so the engine never
    /// serves rows the journal would lose in a crash.
    Durability(String),
    /// The request (or admin call) named a tenant the service does not
    /// host.
    UnknownTenant(String),
    /// [`QueryService::add_tenant`](crate::QueryService::add_tenant) was given
    /// an id that is already hosted.
    TenantExists(String),
    /// [`QueryService::add_tenant`](crate::QueryService::add_tenant) was given
    /// an id whose 64-bit fingerprint collides with an already-hosted tenant's
    /// (the default tenant's reserved `0` included).  Tenant isolation — cache
    /// keying, queue lanes, journal directories — rests on distinct
    /// fingerprints, so a colliding tenant is rejected up front instead of
    /// silently sharing another tenant's state.
    TenantFingerprintCollision {
        /// The rejected tenant id.
        tenant: String,
        /// The already-hosted tenant it collides with.
        existing: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Disconnected => write!(f, "the worker serving this job disappeared"),
            ServiceError::Durability(msg) => write!(f, "durability error: {msg}"),
            ServiceError::UnknownTenant(tenant) => write!(f, "unknown tenant `{tenant}`"),
            ServiceError::TenantExists(tenant) => {
                write!(f, "tenant `{tenant}` is already hosted")
            }
            ServiceError::TenantFingerprintCollision { tenant, existing } => write!(
                f,
                "tenant `{tenant}` has the same fingerprint as hosted tenant \
                 `{existing}`; rename it to keep tenant state disjoint"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SodaError> for ServiceError {
    fn from(e: SodaError) -> Self {
        ServiceError::Engine(e)
    }
}

/// Outcome of one served query.
pub type JobResult = Result<QueryResponse, ServiceError>;

/// What a completion holds: the page the worker computed, shared with the
/// cache slot.  [`JobHandle::wait`] turns it into the public
/// [`QueryResponse`] shape on the waiting thread.
pub(crate) type WireResult = Result<Arc<ResultPage>, ServiceError>;

/// One in-flight key's completion: set once by the worker that runs the key's
/// job, and waited on by its submitter and every coalesced submission alike.
pub(crate) type Completion = Arc<OnceLock<WireResult>>;

/// A claim on the result of a submitted query.
///
/// Cache hits and errors are resolved at submission time; misses resolve
/// when a worker finishes the job.
/// [`wait`](Self::wait) blocks until then.
#[derive(Debug)]
pub struct JobHandle {
    inner: HandleInner,
}

#[derive(Debug)]
enum HandleInner {
    Ready(Box<JobResult>),
    Pending(Completion),
}

impl JobHandle {
    pub(crate) fn ready(result: JobResult) -> Self {
        Self {
            inner: HandleInner::Ready(Box::new(result)),
        }
    }

    pub(crate) fn pending(done: Completion) -> Self {
        Self {
            inner: HandleInner::Pending(done),
        }
    }

    /// True when the query was resolved at submission (a hit or an error):
    /// `wait` will not block.  A miss reads false even once its worker has
    /// finished.
    pub fn is_ready(&self) -> bool {
        matches!(self.inner, HandleInner::Ready(_))
    }

    /// Blocks until the query completes and returns its result.
    pub fn wait(self) -> JobResult {
        match self.inner {
            HandleInner::Ready(result) => *result,
            HandleInner::Pending(done) => match done.wait() {
                Ok(page) => Ok(QueryResponse {
                    page: ResultPage::clone(page),
                }),
                Err(e) => Err(e.clone()),
            },
        }
    }
}
