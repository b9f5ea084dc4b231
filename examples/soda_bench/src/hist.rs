//! The harness's latency histogram: fixed memory (so a four-million-op run
//! does not show up in `peak_rss_mib` the way a per-op `Vec` would) and
//! 128 sub-buckets per octave, i.e. < 0.8 % bucket width — the program's own
//! `LogHistogram` has 32 and would round a 5 µs hit to the nearest 150 ns.

use std::time::Duration;

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values below `2 * SUB` ns get one bucket each.
const LINEAR: usize = 2 * SUB;
/// Octaves `[2^8, 2^9) … [2^42, 2^43)` ns; anything slower (> 2 h) clamps.
const OCTAVES: usize = 35;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; LINEAR + OCTAVES * SUB],
            total: 0,
        }
    }

    fn index(nanos: u64) -> usize {
        if nanos < LINEAR as u64 {
            return nanos as usize;
        }
        let exp = 63 - nanos.leading_zeros();
        let octave = (exp - SUB_BITS - 1) as usize;
        if octave >= OCTAVES {
            return LINEAR + OCTAVES * SUB - 1;
        }
        let sub = ((nanos >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        LINEAR + octave * SUB + sub
    }

    /// Lower edge and width of a bucket, in nanoseconds.
    fn bounds(index: usize) -> (f64, f64) {
        if index < LINEAR {
            return (index as f64, 1.0);
        }
        let octave = (index - LINEAR) / SUB;
        let sub = (index - LINEAR) % SUB;
        let width = (1u64 << (octave + 1)) as f64;
        ((SUB + sub) as f64 * width, width)
    }

    pub fn record(&mut self, elapsed: Duration) {
        self.record_nanos(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn record_nanos(&mut self, nanos: u64) {
        self.counts[Self::index(nanos)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile in nanoseconds: the `ceil(q·n)`-th smallest
    /// sample, placed inside its bucket by its rank among the bucket's
    /// samples (they are assumed evenly spread), so the reading moves
    /// continuously instead of jumping from bucket to bucket.  `None` when
    /// empty.
    pub fn quantile_nanos(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            if seen + count >= rank {
                let (low, width) = Self::bounds(index);
                let within = ((rank - seen) as f64 - 0.5) / count as f64;
                return Some(low + within * width);
            }
            seen += count;
        }
        unreachable!("total is the sum of the counts")
    }

    /// [`quantile_nanos`](Self::quantile_nanos) in microseconds, 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_nanos(q).unwrap_or(0.0) / 1e3
    }
}
