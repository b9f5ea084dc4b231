//! Fixed-memory log-bucketed latency histograms (HDR-style).
//!
//! A [`LogHistogram`] buckets nanosecond values on a logarithmic grid with
//! [`SUB_BUCKETS`] linear sub-buckets per power of two: values below 32ns are
//! counted exactly, and every larger bucket spans at most `1/32 ≈ 3.125%` of
//! its value.  That makes the memory **fixed forever** (1920 × `u64` counts,
//! ~15KB), the structure **mergeable** (bucket-wise addition), and every
//! quantile's relative error **bounded by the sub-bucket resolution** — in
//! contrast to the sampling-window percentiles it replaces in the service,
//! which silently forgot everything older than the window.
//!
//! Quantiles are monotone by construction: a higher rank can only land in a
//! later bucket, and every bucket reports its (clamped) upper bound.

use std::time::Duration;

/// log2 of the sub-bucket count: the resolution knob.
const SUB_BITS: u32 = 5;

/// Linear sub-buckets per octave; also the size of the exact range `[0, 32)`.
pub(crate) const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Octaves above the exact range (value MSB in `SUB_BITS..=63`).
const OCTAVES: usize = 64 - SUB_BITS as usize;

/// Total bucket count: the exact range plus `OCTAVES × SUB_BUCKETS`.
pub(crate) const BUCKETS: usize = SUB_BUCKETS + OCTAVES * SUB_BUCKETS;

/// Bucket index for a nanosecond value; total over all of `u64`.
fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS as u64 {
        return nanos as usize;
    }
    let msb = 63 - nanos.leading_zeros();
    let octave = (msb - SUB_BITS) as usize;
    let offset = (nanos >> (msb - SUB_BITS)) as usize - SUB_BUCKETS;
    SUB_BUCKETS + octave * SUB_BUCKETS + offset
}

/// Inclusive upper bound of a bucket, in nanoseconds.
fn bucket_upper(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let rel = index - SUB_BUCKETS;
    let octave = (rel / SUB_BUCKETS) as u32;
    let offset = (rel % SUB_BUCKETS) as u64;
    let width = 1u64 << octave;
    (width << SUB_BITS)
        .wrapping_add((offset + 1).wrapping_mul(width))
        .wrapping_sub(1)
}

/// A mergeable latency histogram with fixed memory and bounded-error
/// quantiles (see the module docs).  `count`, `sum`, `min` and `max` are
/// exact; quantiles over-report by at most one sub-bucket (≤ 3.125%).
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; BUCKETS]
                .into_boxed_slice()
                .try_into()
                .expect("bucket count"),
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    /// Records one duration (saturated to `u64` nanoseconds).
    pub fn record(&mut self, value: Duration) {
        self.record_nanos(value.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one raw nanosecond value.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.counts[bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Folds another histogram into this one; quantiles of the merge are
    /// identical to a histogram that recorded both sample streams.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.min(u128::from(u64::MAX)) as u64)
    }

    /// Exact lifetime minimum (zero when empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min_nanos)
        }
    }

    /// Exact lifetime maximum (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// Exact lifetime mean (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_nanos / u128::from(self.count)) as u64)
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`.  Reports the containing
    /// bucket's upper bound clamped into `[min, max]`, so results are
    /// monotone in `q`, never under-report, and over-report by at most one
    /// sub-bucket width (relative error ≤ `1/32`).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_nanos(
                    bucket_upper(index).clamp(self.min_nanos, self.max_nanos),
                );
            }
        }
        self.max()
    }

    /// Cumulative bucket counts for Prometheus exposition: one
    /// `(upper_bound_nanos, cumulative_count)` pair per *non-empty* bucket,
    /// in increasing bound order.  The `+Inf` bucket (the total count) is the
    /// exporter's job.
    pub(crate) fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                cumulative += n;
                out.push((bucket_upper(index), cumulative));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact nearest-rank quantile over a sorted slice — the oracle.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 30, 31] {
            h.record_nanos(v);
        }
        assert_eq!(h.quantile(0.0), Duration::from_nanos(1));
        assert_eq!(h.quantile(0.5), Duration::from_nanos(3));
        assert_eq!(h.quantile(1.0), Duration::from_nanos(31));
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            probes.extend([v - 1, v, v + v / 3, v + v / 2]);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut last = 0usize;
        for &probe in &probes {
            let index = bucket_index(probe);
            assert!(index < BUCKETS, "index {index} for {probe}");
            assert!(index >= last, "index regressed at {probe}");
            last = index;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_its_members() {
        for v in [
            0u64,
            31,
            32,
            33,
            100,
            1_000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let index = bucket_index(v);
            let upper = bucket_upper(index);
            assert!(upper >= v, "upper {upper} < value {v}");
            // Relative slack stays within one sub-bucket.
            assert!(upper - v <= v / SUB_BUCKETS as u64 + 1);
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [5u64, 70, 900, 1_000_000] {
            a.record_nanos(v);
            both.record_nanos(v);
        }
        for v in [1u64, 33, 5_000_000_000] {
            b.record_nanos(v);
            both.record_nanos(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
        assert_eq!(a.cumulative_buckets(), both.cumulative_buckets());
    }

    #[test]
    fn cumulative_buckets_are_increasing() {
        let mut h = LogHistogram::new();
        for v in [10u64, 10, 500, 70_000, 70_001, 9_999_999] {
            h.record_nanos(v);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last().expect("non-empty").1, h.count());
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    proptest! {
        /// Quantiles never under-report the exact nearest-rank value and
        /// over-report by at most one sub-bucket (≤ 1/32 relative error).
        #[test]
        fn quantile_error_is_bounded(
            values in proptest::collection::vec(0u64..10_000_000_000, 1..200),
            q in 0.0f64..1.0,
        ) {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record_nanos(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let exact = exact_quantile(&sorted, q);
            let reported = h.quantile(q).as_nanos() as u64;
            prop_assert!(reported >= exact, "reported {reported} < exact {exact}");
            prop_assert!(
                reported <= exact + exact / SUB_BUCKETS as u64 + 1,
                "reported {reported} too far above exact {exact}"
            );
        }

        /// p50 ≤ p95 ≤ max, by construction, for any sample set.
        #[test]
        fn quantiles_are_monotone(
            values in proptest::collection::vec(0u64..10_000_000_000, 1..200),
        ) {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record_nanos(v);
            }
            let p50 = h.quantile(0.5);
            let p95 = h.quantile(0.95);
            prop_assert!(h.quantile(0.0) >= h.min());
            prop_assert!(p50 <= p95, "p50 {p50:?} > p95 {p95:?}");
            prop_assert!(p95 <= h.max(), "p95 {p95:?} > max {:?}", h.max());
        }
    }
}
