//! Adaptive trace sampling: the decision kernel behind always-on tracing.
//!
//! A [`Sampler`] answers two questions for every query the service serves:
//!
//! 1. **Head sampling** ([`Sampler::head_sample`]) — *before* execution,
//!    should this query carry a recording sink?  The decision is
//!    probabilistic with a configured rate, but **deterministic given the
//!    seed and the call sequence**: the nth call of a sampler seeded `s`
//!    always returns the same decision and the same [`TraceId`], so test
//!    runs and incident reproductions see identical sampling behaviour.
//! 2. **Tail retention** ([`Sampler::decide`]) — *after* execution, should
//!    the captured span tree be kept?  A query at or above the slow
//!    threshold ([`Sampler::with_slow`]) is always kept, whatever the draw —
//!    the traces an operator actually wants are exactly the ones uniform
//!    sampling is most likely to miss — and so is every head-sampled one.
//!
//! The cost contract mirrors the rest of the crate: an unsampled query pays
//! one atomic increment and one 64-bit mix (a handful of nanoseconds); all
//! allocation happens only on the sampled path.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// SplitMix64: a statistically solid 64-bit mixer, used both to derive the
/// per-call pseudo-random draw and to expand it into a trace id.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits — the
/// value carried into the sampled-trace rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Why a trace was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleReason {
    /// The head-sampling coin flip selected it before execution.
    Head,
    /// Its end-to-end latency reached the slow threshold.
    TailSlow,
}

impl SampleReason {
    /// Stable lowercase label for logs and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            SampleReason::Head => "head",
            SampleReason::TailSlow => "tail_slow",
        }
    }
}

/// The pre-execution half of a sampling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadDecision {
    /// Whether the head coin flip selected this query.
    pub sampled: bool,
    /// The trace id assigned to this query (also issued when unsampled, so
    /// a tail-retained trace still has a stable id).
    pub trace_id: TraceId,
}

/// A deterministic, lock-free adaptive sampler (see the module docs).
#[derive(Debug)]
pub struct Sampler {
    seed: u64,
    /// `rate × 2^64` — a `u128` so a rate of exactly 1.0 (threshold
    /// `2^64`) strictly exceeds every `u64` draw and always samples.
    threshold: u128,
    calls: AtomicU64,
    /// Keep any query at or above this end-to-end latency.
    slow: Option<Duration>,
}

impl Sampler {
    /// A sampler with the given seed and head-sampling rate (clamped to
    /// `[0, 1]`) and no slow threshold.
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        Self {
            seed,
            threshold: (rate * 2f64.powi(64)) as u128,
            calls: AtomicU64::new(0),
            slow: None,
        }
    }

    /// Sets the tail rule: every query at or above `slow` end-to-end is
    /// kept, so the caller must record spans even for head-unsampled
    /// queries.
    pub fn with_slow(mut self, slow: Option<Duration>) -> Self {
        self.slow = slow;
        self
    }

    /// Draws the nth head-sampling decision.  Deterministic: the sequence
    /// of `(sampled, trace_id)` pairs is a pure function of the seed.
    pub fn head_sample(&self) -> HeadDecision {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let draw = splitmix64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        HeadDecision {
            sampled: u128::from(draw) < self.threshold,
            trace_id: TraceId(splitmix64(draw) | 1),
        }
    }

    /// Whether a query with this head draw must record its span tree, as
    /// [`decide`](Self::decide) may keep it.
    pub fn collects(&self, head_sampled: bool) -> bool {
        head_sampled || self.slow.is_some()
    }

    /// Post-execution retention decision: `Some(reason)` when the trace
    /// should be kept.  The slow rule is tested before the head draw, so a
    /// slow query always reads [`SampleReason::TailSlow`].
    pub fn decide(&self, head_sampled: bool, latency: Duration) -> Option<SampleReason> {
        if self.slow.is_some_and(|slow| latency >= slow) {
            Some(SampleReason::TailSlow)
        } else if head_sampled {
            Some(SampleReason::Head)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rate_zero_never_samples_and_rate_one_always_does() {
        let never = Sampler::new(7, 0.0);
        let always = Sampler::new(7, 1.0);
        for _ in 0..1000 {
            assert!(!never.head_sample().sampled);
            assert!(always.head_sample().sampled);
        }
    }

    #[test]
    fn trace_ids_are_nonzero_and_render_as_16_hex_digits() {
        let s = Sampler::new(99, 0.5);
        for _ in 0..100 {
            let d = s.head_sample();
            assert_ne!(d.trace_id.0, 0);
            let text = d.trace_id.to_string();
            assert_eq!(text.len(), 16);
            assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn head_sampled_queries_are_always_kept() {
        let s = Sampler::new(1, 1.0);
        assert_eq!(
            s.decide(true, Duration::from_micros(1)),
            Some(SampleReason::Head)
        );
    }

    #[test]
    fn a_slow_query_reads_tail_slow_whatever_the_head_draw() {
        let s = Sampler::new(1, 1.0).with_slow(Some(Duration::from_millis(5)));
        for head_sampled in [false, true] {
            assert_eq!(
                s.decide(head_sampled, Duration::from_millis(5)),
                Some(SampleReason::TailSlow)
            );
        }
        assert_eq!(
            s.decide(true, Duration::from_millis(4)),
            Some(SampleReason::Head)
        );
        assert_eq!(s.decide(false, Duration::from_millis(4)), None);
    }

    #[test]
    fn a_span_tree_is_collected_when_it_may_be_kept() {
        let plain = Sampler::new(1, 0.5);
        assert!(plain.collects(true));
        assert!(!plain.collects(false));
        let slow = Sampler::new(1, 0.0).with_slow(Some(Duration::from_millis(5)));
        assert!(slow.collects(false));
    }

    proptest! {
        /// Two samplers with the same seed and rate produce identical
        /// decision and trace-id sequences — sampling is reproducible.
        #[test]
        fn same_seed_gives_identical_sequences(seed in any::<u64>(), rate in 0.0f64..1.0) {
            let a = Sampler::new(seed, rate);
            let b = Sampler::new(seed, rate);
            for _ in 0..256 {
                prop_assert_eq!(a.head_sample(), b.head_sample());
            }
        }

        /// The observed head rate lands within a loose tolerance of the
        /// configured rate over a few thousand draws.
        #[test]
        fn head_rate_is_honored_within_tolerance(seed in any::<u64>(), rate in 0.0f64..1.0) {
            let s = Sampler::new(seed, rate);
            let draws = 4096usize;
            let kept = (0..draws).filter(|_| s.head_sample().sampled).count();
            let observed = kept as f64 / draws as f64;
            // 4096 Bernoulli draws: 6σ ≈ 6·√(p(1−p)/n) ≤ 6·0.5/64 ≈ 0.047.
            prop_assert!(
                (observed - rate).abs() < 0.05,
                "rate {rate} observed {observed}"
            );
        }

        /// Any latency at or above the slow threshold is always retained,
        /// regardless of the head decision or the traffic seen before.
        #[test]
        fn tail_slow_rule_always_captures(
            seed in any::<u64>(),
            threshold_us in 1u64..10_000,
            noise in proptest::collection::vec(0u64..1_000_000, 0..64),
        ) {
            let slow = Duration::from_micros(threshold_us);
            let s = Sampler::new(seed, 0.0).with_slow(Some(slow));
            for &n in &noise {
                s.decide(false, Duration::from_nanos(n));
            }
            prop_assert_eq!(s.decide(false, slow), Some(SampleReason::TailSlow));
            prop_assert_eq!(
                s.decide(false, slow + Duration::from_micros(1)),
                Some(SampleReason::TailSlow)
            );
        }
    }
}
