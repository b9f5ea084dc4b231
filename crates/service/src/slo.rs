//! Per-tenant SLO burn-rate engine: declared latency/availability
//! objectives, rolling multi-window burn computation, and alert states.
//!
//! The model is the classic multi-window burn-rate alert: every completed
//! request lands in a per-tenant [`SloWindow`] — a ring of coarse time
//! slots, each counting the requests that met and missed the tenant's
//! latency objective and the requests that failed.  At read time the engine
//! folds the slots covering
//! the **fast** window (a 5-minute-equivalent, catches sharp regressions)
//! and the **slow** window (a 1-hour-equivalent, filters blips) and
//! divides each window's bad-event fraction by the objective's error
//! budget `1 − target`:
//!
//! ```text
//! burn = (bad events / total events) / (1 − target)
//! ```
//!
//! A burn rate of 1.0 spends the error budget exactly at the sustainable
//! pace; an alert **fires** only when *both* windows exceed
//! [`BURN_THRESHOLD`] (one window alone marks the alert **pending**), so a
//! transient spike cannot page anyone but a sustained burn fires within one
//! fast window.
//!
//! Everything here is exact counting: the objective is fixed when the
//! tenant's window is created, so a request is judged good or bad once, as
//! it is recorded.  Merging two window snapshots and computing the burn
//! rate gives exactly the figure of a single window that saw both streams —
//! property-tested below, and the reason the engine can fold per-slot
//! snapshots at read time instead of keeping per-window state in the
//! request path.

use std::collections::VecDeque;
use std::time::Duration;

/// Fraction of requests that must meet the latency objective (the error
/// budget is the remaining 1 %).
pub(crate) const LATENCY_TARGET: f64 = 0.99;
/// Fraction of requests that must succeed (availability SLO).
pub(crate) const AVAILABILITY_TARGET: f64 = 0.999;
/// The fast burn window (sharp-regression detector).
pub(crate) const FAST_WINDOW: Duration = Duration::from_secs(5 * 60);
/// The slow burn window (blip filter).
pub(crate) const SLOW_WINDOW: Duration = Duration::from_secs(60 * 60);
/// Slot width of the rolling window ring; the window arithmetic is
/// slot-resolution, so this bounds both memory and precision.
pub(crate) const RESOLUTION: Duration = Duration::from_secs(30);
/// Burn rate both windows must exceed for an alert to fire.
pub(crate) const BURN_THRESHOLD: f64 = 1.0;

/// The declared latency objective, attached via `ServiceConfig::slo(...)`;
/// the availability objective, both target fractions, the burn windows and
/// the alert threshold are the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// The latency objective: requests at or below this end-to-end latency
    /// are "good events" of the latency SLO.
    pub latency_objective: Duration,
    /// Per-tenant latency-objective overrides (tenant name → objective);
    /// tenants without an override use [`latency_objective`](Self::latency_objective).
    pub tenant_latency: Vec<(String, Duration)>,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            latency_objective: Duration::from_millis(250),
            tenant_latency: Vec::new(),
        }
    }
}

impl SloConfig {
    /// Sets the default latency objective.
    pub fn latency_objective(mut self, objective: Duration) -> Self {
        self.latency_objective = objective;
        self
    }

    /// Overrides the latency objective for one tenant.
    pub fn tenant_latency(mut self, tenant: impl Into<String>, objective: Duration) -> Self {
        self.tenant_latency.push((tenant.into(), objective));
        self
    }

    /// The latency objective in force for `tenant`.
    pub(crate) fn objective_for(&self, tenant: &str) -> Duration {
        self.tenant_latency
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, objective)| *objective)
            .unwrap_or(self.latency_objective)
    }
}

/// One slot (or one folded window) of SLO-relevant traffic, counted
/// against one latency objective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WindowBucket {
    /// Successful requests at or below the objective (latency good events).
    pub met: u64,
    /// Successful requests past the objective (latency bad events).
    pub missed: u64,
    /// Requests that failed outright (availability bad events).
    pub errors: u64,
}

impl WindowBucket {
    /// Records one completed request against the latency `objective`.
    pub(crate) fn record(&mut self, e2e: Duration, ok: bool, objective: Duration) {
        if !ok {
            self.errors += 1;
        } else if e2e <= objective {
            self.met += 1;
        } else {
            self.missed += 1;
        }
    }

    /// Folds another bucket in; burn rates over the merge equal burn rates
    /// over a bucket that saw both streams (property-tested).
    pub(crate) fn merge(&mut self, other: &WindowBucket) {
        self.met += other.met;
        self.missed += other.missed;
        self.errors += other.errors;
    }
}

/// The latency burn rate of one window: the fraction of successful
/// requests missing the objective, divided by the error budget
/// `1 − target`.  Zero when the window is empty.
pub(crate) fn latency_burn_rate(bucket: &WindowBucket, target: f64) -> f64 {
    let total = bucket.met + bucket.missed;
    if total == 0 {
        return 0.0;
    }
    let bad_fraction = bucket.missed as f64 / total as f64;
    bad_fraction / (1.0 - target).max(f64::EPSILON)
}

/// The availability burn rate of one window: the failed fraction divided
/// by the error budget.  Zero when the window is empty.
pub(crate) fn availability_burn_rate(bucket: &WindowBucket, target: f64) -> f64 {
    let total = bucket.met + bucket.missed + bucket.errors;
    if total == 0 {
        return 0.0;
    }
    let bad_fraction = bucket.errors as f64 / total as f64;
    bad_fraction / (1.0 - target).max(f64::EPSILON)
}

/// The state of one burn alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Neither window exceeds the threshold.
    Ok,
    /// Exactly one window exceeds the threshold (watch, don't page).
    Pending,
    /// Both windows exceed the threshold: the budget is burning for real.
    Firing,
}

impl AlertState {
    /// Stable lowercase label for events and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }

    /// Numeric encoding for the `soda_slo_alert_state` gauge
    /// (0 = ok, 1 = pending, 2 = firing).
    pub fn code(&self) -> u64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
        }
    }
}

/// The multi-window alert rule: firing iff **both** windows exceed the
/// threshold, pending iff exactly one does.
pub(crate) fn alert_state(fast_burn: f64, slow_burn: f64, threshold: f64) -> AlertState {
    match (fast_burn > threshold, slow_burn > threshold) {
        (true, true) => AlertState::Firing,
        (false, false) => AlertState::Ok,
        _ => AlertState::Pending,
    }
}

/// One burn alert surfaced by `QueryService::alerts()`.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnAlert {
    /// The tenant whose budget is burning.
    pub tenant: String,
    /// Which objective: `"latency"` or `"availability"`.
    pub objective: &'static str,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// The multi-window verdict.
    pub state: AlertState,
}

/// A rolling ring of [`WindowBucket`] slots wide enough to cover the slow
/// window (the service's rings span [`SLOW_WINDOW`] at [`RESOLUTION`]).
/// Recording is O(1) into the newest slot; reading folds the slots a window
/// covers into one mergeable bucket.
#[derive(Debug)]
pub(crate) struct SloWindow {
    /// The latency objective every request is judged against as it lands.
    objective: Duration,
    resolution_nanos: u128,
    max_slots: usize,
    /// `(epoch, bucket)` pairs, oldest first; epochs strictly increase.
    slots: VecDeque<(u128, WindowBucket)>,
}

impl SloWindow {
    /// A ring judging requests against the latency `objective`, sized for
    /// `slow_window` at slot width `resolution`.
    pub(crate) fn new(objective: Duration, slow_window: Duration, resolution: Duration) -> Self {
        let resolution_nanos = resolution.as_nanos().max(1);
        let span = slow_window.as_nanos().max(resolution_nanos);
        // +1: a window rarely aligns with slot boundaries, so covering it
        // takes one slot more than the exact quotient.
        let max_slots = (span.div_ceil(resolution_nanos) + 1) as usize;
        Self {
            objective,
            resolution_nanos,
            max_slots,
            slots: VecDeque::new(),
        }
    }

    /// Records one completed request observed at offset `at` from service
    /// start.
    pub(crate) fn record(&mut self, at: Duration, e2e: Duration, ok: bool) {
        let epoch = at.as_nanos() / self.resolution_nanos;
        let objective = self.objective;
        match self.slots.back_mut() {
            // Out-of-order stragglers (an older epoch after a newer slot
            // opened) fold into the newest slot: burn windows are
            // slot-resolution anyway, and epochs must stay sorted.
            Some((last, bucket)) if *last >= epoch => bucket.record(e2e, ok, objective),
            _ => {
                let mut bucket = WindowBucket::default();
                bucket.record(e2e, ok, objective);
                self.slots.push_back((epoch, bucket));
                while self.slots.len() > self.max_slots {
                    self.slots.pop_front();
                }
            }
        }
    }

    /// Folds every slot the trailing `window` (ending at `now`) covers
    /// into one bucket.
    pub(crate) fn merged(&self, now: Duration, window: Duration) -> WindowBucket {
        let start = now.saturating_sub(window).as_nanos() / self.resolution_nanos;
        let mut out = WindowBucket::default();
        for (epoch, bucket) in &self.slots {
            if *epoch >= start {
                out.merge(bucket);
            }
        }
        out
    }

    /// Scores both objectives of `tenant` over the [`FAST_WINDOW`] and the
    /// [`SLOW_WINDOW`] ending at `now`.
    pub(crate) fn burn_alerts(&self, now: Duration, tenant: &str) -> [BurnAlert; 2] {
        let fast = self.merged(now, FAST_WINDOW);
        let slow = self.merged(now, SLOW_WINDOW);
        [
            (
                "latency",
                latency_burn_rate(&fast, LATENCY_TARGET),
                latency_burn_rate(&slow, LATENCY_TARGET),
            ),
            (
                "availability",
                availability_burn_rate(&fast, AVAILABILITY_TARGET),
                availability_burn_rate(&slow, AVAILABILITY_TARGET),
            ),
        ]
        .map(|(objective, fast_burn, slow_burn)| BurnAlert {
            tenant: tenant.to_string(),
            objective,
            fast_burn,
            slow_burn,
            state: alert_state(fast_burn, slow_burn, BURN_THRESHOLD),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_windows_burn_nothing() {
        let bucket = WindowBucket::default();
        assert_eq!(latency_burn_rate(&bucket, 0.99), 0.0);
        assert_eq!(availability_burn_rate(&bucket, 0.999), 0.0);
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let objective = Duration::from_millis(100);
        let mut bucket = WindowBucket::default();
        // 90 fast requests, 10 slow ones: 10% bad against a 1% budget.
        for _ in 0..90 {
            bucket.record(Duration::from_millis(1), true, objective);
        }
        for _ in 0..10 {
            bucket.record(Duration::from_secs(1), true, objective);
        }
        let burn = latency_burn_rate(&bucket, 0.99);
        assert!((burn - 10.0).abs() < 1e-6, "burn {burn}");
        // Availability: all succeeded.
        assert_eq!(availability_burn_rate(&bucket, 0.999), 0.0);
        // Now 10 errors against 100 successes: ~9.1% bad over a 0.1% budget.
        bucket.errors = 10;
        let burn = availability_burn_rate(&bucket, 0.999);
        assert!((burn - (10.0 / 110.0) / 0.001).abs() < 1e-6, "burn {burn}");
    }

    #[test]
    fn a_request_just_past_the_objective_is_a_bad_event() {
        let objective = Duration::from_millis(250);
        let mut bucket = WindowBucket::default();
        bucket.record(objective, true, objective);
        bucket.record(Duration::from_millis(251), true, objective);
        assert_eq!((bucket.met, bucket.missed), (1, 1));
        // One of two requests missed: 50 % bad against a 1 % budget.
        let burn = latency_burn_rate(&bucket, 0.99);
        assert!((burn - 50.0).abs() < 1e-6, "burn {burn}");
    }

    #[test]
    fn alert_truth_table() {
        assert_eq!(alert_state(0.5, 0.5, 1.0), AlertState::Ok);
        assert_eq!(alert_state(2.0, 0.5, 1.0), AlertState::Pending);
        assert_eq!(alert_state(0.5, 2.0, 1.0), AlertState::Pending);
        assert_eq!(alert_state(2.0, 2.0, 1.0), AlertState::Firing);
        // The threshold itself does not fire: "exceed" is strict.
        assert_eq!(alert_state(1.0, 1.0, 1.0), AlertState::Ok);
    }

    #[test]
    fn rolling_window_drops_slots_beyond_the_slow_window() {
        let (fast_window, slow_window) = (Duration::from_secs(2), Duration::from_secs(4));
        let mut window = SloWindow::new(
            Duration::from_millis(100),
            slow_window,
            Duration::from_secs(1),
        );
        for second in 0..60u64 {
            window.record(Duration::from_secs(second), Duration::from_millis(1), true);
        }
        // Memory is bounded by the slow window, not the traffic history.
        assert!(window.slots.len() <= 6, "{} slots", window.slots.len());
        let now = Duration::from_secs(60);
        // The fast window covers the newest ~3 slots, the slow ~5.
        let fast = window.merged(now, fast_window);
        let slow = window.merged(now, slow_window);
        assert!(fast.met >= 2 && fast.met <= 3);
        assert!(slow.met >= 4 && slow.met <= 5);
        assert!(fast.met <= slow.met);
    }

    #[test]
    fn objective_overrides_resolve_per_tenant() {
        let config = SloConfig::default()
            .latency_objective(Duration::from_millis(100))
            .tenant_latency("acme", Duration::from_millis(5));
        assert_eq!(config.objective_for("acme"), Duration::from_millis(5));
        assert_eq!(config.objective_for("other"), Duration::from_millis(100));
    }

    proptest! {
        /// Merging window snapshots equals recomputing from scratch: any
        /// split of a request stream into two buckets burns exactly like
        /// a single bucket that saw everything.
        #[test]
        fn merged_snapshots_equal_recomputation(
            requests in proptest::collection::vec(
                (0u64..2_000_000_000, any::<bool>(), any::<bool>()),
                1..128,
            ),
            objective_us in 1u64..1_000_000,
            target in 0.5f64..0.9999,
        ) {
            let objective = Duration::from_micros(objective_us);
            let mut a = WindowBucket::default();
            let mut b = WindowBucket::default();
            let mut whole = WindowBucket::default();
            for &(nanos, ok, pick_a) in &requests {
                let e2e = Duration::from_nanos(nanos);
                if pick_a { a.record(e2e, ok, objective) } else { b.record(e2e, ok, objective) };
                whole.record(e2e, ok, objective);
            }
            a.merge(&b);
            prop_assert_eq!(a, whole);
            let merged_latency = latency_burn_rate(&a, target);
            let whole_latency = latency_burn_rate(&whole, target);
            prop_assert!(
                (merged_latency - whole_latency).abs() < 1e-9,
                "latency burn diverged: merged {merged_latency}, whole {whole_latency}"
            );
            let merged_avail = availability_burn_rate(&a, target);
            let whole_avail = availability_burn_rate(&whole, target);
            prop_assert!(
                (merged_avail - whole_avail).abs() < 1e-9,
                "availability burn diverged: merged {merged_avail}, whole {whole_avail}"
            );
        }

        /// The multi-window rule: an alert fires iff BOTH windows exceed
        /// the threshold, for arbitrary burn rates and thresholds.
        #[test]
        fn alert_fires_iff_both_windows_exceed(
            fast in 0.0f64..10.0,
            slow in 0.0f64..10.0,
            threshold in 0.1f64..5.0,
        ) {
            let state = alert_state(fast, slow, threshold);
            prop_assert_eq!(
                state == AlertState::Firing,
                fast > threshold && slow > threshold
            );
            prop_assert_eq!(
                state == AlertState::Ok,
                fast <= threshold && slow <= threshold
            );
        }
    }
}
