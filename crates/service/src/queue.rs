//! The bounded job queue — one lane per tenant, scanned round-robin — and
//! the admission control in front of it.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use soda_core::EngineSnapshot;
use soda_trace::HeadDecision;

use crate::cache::CacheKey;
use crate::request::Completion;
use crate::service::Shared;
use crate::tenants::TenantState;

pub(crate) struct Job {
    pub(crate) key: CacheKey,
    pub(crate) input: String,
    /// The snapshot generation pinned at submission time: the worker runs
    /// the pipeline against exactly this snapshot, so a swap that lands
    /// between submission and execution cannot change the answer (or leak a
    /// new-generation page under an old-generation key).
    pub(crate) engine: Arc<EngineSnapshot>,
    /// The tenant the job belongs to, for per-tenant accounting and the
    /// still-live check against *that* tenant's current fingerprint.
    pub(crate) tenant: Arc<TenantState>,
    /// The head-sampling decision drawn at submission time (`None` when the
    /// tenant samples nothing) — drawn up front so the worker knows whether
    /// to collect a span tree *before* the pipeline runs.
    pub(crate) head: Option<HeadDecision>,
    pub(crate) submitted: Instant,
    /// The key's completion, shared with its pending entry and every handle.
    pub(crate) done: Completion,
}

/// The bounded job queue: one lane per tenant, scanned round-robin by the
/// workers, so a deep lane delays only its own tenant's jobs.
#[derive(Default)]
pub(crate) struct QueueState {
    /// `(tenant fingerprint, lane)` — created on first use and kept for the
    /// service lifetime (tenant counts are small, a linear scan wins).
    lanes: Vec<(u64, VecDeque<Job>)>,
    /// The lane the next round-robin scan starts from.
    cursor: usize,
    /// Queued jobs across all lanes (the figure the global capacity check
    /// and [`QueryService::queue_depth`] report).
    pub(crate) total: usize,
    /// Set when the service drops: the workers exit once the queue is empty.
    pub(crate) shutdown: bool,
}

impl QueueState {
    /// Jobs currently queued in `lane`'s tenant lane.
    pub(crate) fn depth_of(&self, lane: u64) -> usize {
        self.lanes
            .iter()
            .find(|(fp, _)| *fp == lane)
            .map_or(0, |(_, jobs)| jobs.len())
    }

    fn push(&mut self, lane: u64, job: Job) {
        match self.lanes.iter_mut().find(|(fp, _)| *fp == lane) {
            Some((_, jobs)) => jobs.push_back(job),
            None => {
                let mut jobs = VecDeque::new();
                jobs.push_back(job);
                self.lanes.push((lane, jobs));
            }
        }
        self.total += 1;
    }

    /// Pops the next job, scanning the lanes round-robin from the cursor —
    /// each pop serves the next non-empty tenant lane, so a tenant with a
    /// flooded lane gets at most its fair turn.
    pub(crate) fn pop_round_robin(&mut self) -> Option<Job> {
        if self.total == 0 {
            return None;
        }
        let n = self.lanes.len();
        for i in 0..n {
            let idx = (self.cursor + i) % n;
            if let Some(job) = self.lanes[idx].1.pop_front() {
                self.cursor = (idx + 1) % n;
                self.total -= 1;
                return Some(job);
            }
        }
        None
    }
}

/// The per-tenant admission quota: an even split of the queue, rounded up,
/// never below one slot.  A tenant whose lane is at quota blocks its own
/// submitters while every other tenant keeps its share of the queue.
fn admission_quota(capacity: usize, tenants: usize) -> usize {
    capacity.div_ceil(tenants.max(1)).max(1)
}

impl Shared {
    /// Admission control, then the enqueue: blocks while the whole queue is
    /// at capacity OR the job's tenant lane is at its fair share of it — the
    /// quota keeps one tenant's cold-query storm from squatting every slot.
    /// The quota is recomputed on every predicate evaluation (the tenant
    /// count is one cheap RwLock read), so a submitter that sleeps through
    /// an `add_tenant` wakes up to the tightened share.
    pub(crate) fn admit(&self, job: Job) {
        let lane = job.tenant.id.fingerprint();
        let capacity = self.config.queue_capacity.max(1);
        let mut state = self.queue.lock().expect("queue poisoned");
        let mut waited = false;
        while state.total >= capacity
            || state.depth_of(lane) >= admission_quota(capacity, self.tenants.len())
        {
            waited = true;
            state = self.not_full.wait(state).expect("queue poisoned");
        }
        if waited {
            job.tenant.facts().admission_waits += 1;
        }
        state.push(lane, job);
        drop(state);
        self.not_empty.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use crate::service::tests::minibank_service;
    use crate::{JobHandle, JobResult, QueryRequest, ServiceConfig};

    #[test]
    fn tiny_queue_applies_backpressure_without_deadlock() {
        let service = minibank_service(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 4,
            ..ServiceConfig::default()
        });
        // More jobs than queue slots: the submissions must ride the
        // backpressure and still answer everything.
        let requests: Vec<QueryRequest> = (0..8)
            .map(|i| QueryRequest::new(["customers", "Sara Guttinger"][i % 2]))
            .collect();
        let handles: Vec<JobHandle> = requests.into_iter().map(|r| service.query(r)).collect();
        let results: Vec<JobResult> = handles.into_iter().map(JobHandle::wait).collect();
        assert_eq!(results.len(), 8);
        assert!(results.iter().all(|r| r.is_ok()));
    }
}
