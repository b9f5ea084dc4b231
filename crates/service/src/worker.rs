//! The worker loop: pop a job, run the five-step pipeline against the
//! snapshot the job pinned, publish the page and complete the key's handles.

use std::sync::Arc;
use std::time::Instant;

use soda_core::{EngineSnapshot, ProbeDep, ProbeRecorder, SearchOptions, SearchOutcome};
use soda_trace::{CollectingSink, NoopSink, TraceSink};

use crate::cache::CacheKey;
use crate::queue::Job;
use crate::request::{ServiceError, WireResult};
use crate::service::{CachedPage, Served, Shared};

pub(crate) fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = state.pop_round_robin() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.not_empty.wait(state).expect("queue poisoned");
            }
        };
        // notify_all, not notify_one: admission control blocks submitters on
        // two different predicates (global capacity and per-tenant quota),
        // and a single wake-up could land on a submitter whose own lane is
        // still full while one that could proceed keeps sleeping.
        shared.not_full.notify_all();

        // If the pipeline panics, the pending entry must not leak: this
        // guard removes it and completes the key with `Disconnected`, so
        // every handle's `wait()` resolves and future submissions of the key
        // recompute instead of attaching to a dead job.
        struct PendingGuard<'a> {
            shared: &'a Shared,
            job: &'a Job,
        }
        impl Drop for PendingGuard<'_> {
            fn drop(&mut self) {
                if let Ok(mut store) = self.shared.store.lock() {
                    store.pending.remove(&self.job.key);
                }
                let _ = self.job.done.set(Err(ServiceError::Disconnected));
            }
        }
        let guard = PendingGuard { shared, job: &job };
        // Queue wait ends here: everything from `dequeued` on is execution.
        let dequeued = Instant::now();
        let queue_wait = dequeued.duration_since(job.submitted);
        // A collecting sink runs when `Shared::answered` might keep the span
        // tree, which the tenant's sampler decides.  Otherwise the noop sink
        // keeps the pipeline's instrumentation at a single `enabled()` check
        // per site.
        let head_sampled = job.head.is_some_and(|h| h.sampled);
        let sampler = job.tenant.sampler.as_ref();
        let collecting = sampler
            .is_some_and(|s| s.collects(head_sampled))
            .then(CollectingSink::new);
        let sink: &dyn TraceSink = match &collecting {
            Some(c) => c,
            None => &NoopSink,
        };
        let (searched, deps) = search_key(&job.engine, &job.input, &job.key, sink);
        let execution = dequeued.elapsed();
        let timings = searched.as_ref().ok().map(|found| found.trace.timings);
        // Shared from here on: the cache slot and the key's completion hold
        // the one page this worker computed, and each answer's copy is made
        // by the thread that waits for it.
        let outcome: WireResult = searched
            .map(|found| Arc::new(found.page))
            .map_err(ServiceError::Engine);
        // Normal path: the completion below owns the cleanup.
        std::mem::forget(guard);
        // A swap may have landed while this job ran: a page keyed by a
        // superseded fingerprint can never be hit again (submissions compute
        // keys from the live snapshot), so inserting it would only evict a
        // live entry from a full cache.  The check races benignly with a
        // concurrent swap — worst case one soon-unaddressable page slips in
        // and ages out of the LRU.
        let still_live = job.key.snapshot_fingerprint == job.tenant.folded_live();
        let entry = match &outcome {
            Ok(page) if still_live => Some(CachedPage {
                page: Arc::clone(page),
                deps,
            }),
            _ => None,
        };
        // Publish the page and retire the pending entry in one critical
        // section, so a later submission of the key either hits the page or
        // starts a new job — never attaches to a finished one.
        let in_flight = {
            let mut store = shared.store.lock().expect("store poisoned");
            let in_flight = store.pending.remove(&job.key);
            if let Some(entry) = entry {
                store.cache.insert(job.key, entry);
            }
            in_flight
        };
        // The end-to-end figure decides what is slow, so a fast pipeline
        // behind a deep queue is still kept — that *is* the slowness the
        // caller experienced.
        let served = Served::Executed {
            input: &job.input,
            head: job.head,
            split: (queue_wait, execution),
            timings: timings.as_ref(),
            sink: collecting,
        };
        let ok = outcome.is_ok();
        shared.answered(&job.tenant, served, job.submitted.elapsed(), ok);
        for submitted in in_flight.into_iter().flat_map(|f| f.coalesced) {
            shared.answered(&job.tenant, Served::Coalesced, submitted.elapsed(), ok);
        }
        // Every answer is booked before any handle wakes, so a caller that
        // reads the metrics right after `wait()` sees its own query.
        let _ = job.done.set(outcome);
    }
}

/// The one search behind a cache entry — a worker's on a miss and
/// recovery's for each persisted key: runs the pipeline for `input` at
/// `key`'s page coordinates.  The deps it returns are which phrases the
/// query probed and which probe tokens they selected — the evidence that
/// lets a data-only snapshot swap retain the page instead of purging it.
pub(crate) fn search_key(
    engine: &EngineSnapshot,
    input: &str,
    key: &CacheKey,
    sink: &dyn TraceSink,
) -> (soda_core::Result<SearchOutcome>, Vec<ProbeDep>) {
    let recorder = ProbeRecorder::new();
    let options = SearchOptions {
        recorder: Some(&recorder),
        sink,
        ..SearchOptions::page(key.page, key.page_size)
    };
    let searched = engine.search_with(input, &options);
    (searched, recorder.into_deps())
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use soda_core::TenantId;

    use crate::service::tests::minibank_service;
    use crate::{QueryRequest, SamplingConfig, ServiceConfig};

    #[test]
    fn a_slow_rule_alone_keeps_full_traces() {
        // A zero threshold marks every answered query as slow —
        // deterministic without timing games, and observable only here: a
        // real budget is never reached by a warm hit.
        let sampling = SamplingConfig::default().rate(0.0).slow(Duration::ZERO);
        let service = minibank_service(ServiceConfig::default().sampling(sampling));
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let kept = service.sampled_traces(TenantId::default()).unwrap();
        assert_eq!(kept.len(), 1);
        let capture = &kept[0];
        assert_eq!(capture.input, "Sara Guttinger");
        assert_eq!(capture.reason, "tail_slow");
        assert!(capture.queue_wait + capture.execution <= capture.total);
        let root = capture.trace.find("query").expect("query root span");
        for stage in soda_trace::names::STAGES {
            assert!(
                root.children.iter().any(|c| c.name == stage),
                "missing stage {stage} in {}",
                capture.trace.render()
            );
        }
        let slow_events = || {
            let events = service.events();
            let slow =
                |e: &&crate::OpEvent| e.kind == "slow_query" && e.detail.contains("Sara Guttinger");
            events.iter().filter(slow).count()
        };
        assert_eq!(service.metrics().slow_queries, 1);
        assert_eq!(slow_events(), 1);
        let text = service.metrics_text();
        assert!(text.contains("soda_tenant_slow_queries_total{tenant=\"default\"} 1"));

        // The end-to-end figure decides for a warm hit too: over the
        // threshold it is kept, counted and reported, once each.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let kept = service.sampled_traces(TenantId::default()).unwrap();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[1].reason, "tail_slow");
        assert_eq!(kept[1].queue_wait + kept[1].execution, Duration::ZERO);
        assert!(kept[1].trace.find("cache_hit").is_some());
        let m = service.metrics();
        assert_eq!(m.slow_queries, 2);
        assert_eq!(m.tenants[0].sampled_traces, 2);
        assert_eq!(slow_events(), 2);
    }

    #[test]
    fn a_slow_query_reads_tail_slow_even_when_head_sampled() {
        let service = minibank_service(
            ServiceConfig::default()
                .sampling(SamplingConfig::default().rate(1.0).slow(Duration::ZERO)),
        );
        for _ in 0..2 {
            service
                .query(QueryRequest::new("Sara Guttinger"))
                .wait()
                .unwrap();
        }
        let kept = service.sampled_traces(TenantId::default()).unwrap();
        assert_eq!(kept.len(), 2, "one execution, one warm hit");
        assert!(kept.iter().all(|t| t.reason == "tail_slow"), "{kept:?}");
        assert_eq!(service.metrics().slow_queries, 2);
    }

    #[test]
    fn without_a_threshold_no_traces_are_kept() {
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().slow_queries, 0);
        assert!(service
            .sampled_traces(TenantId::default())
            .unwrap()
            .is_empty());
    }
}
