//! The reference kernel: a fixed piece of *harness* work, timed right before
//! and right after every round, whose iteration time is the unit the gated
//! timing metrics are expressed in.
//!
//! Why: this sandbox's vCPUs move between speed states ≈ 1.4× apart that
//! last from seconds to minutes (README, "Known noise").  Within a state a
//! round repeats to ± 2 %; between states the same commit's throughput
//! differs by 20–50 %.  Tight register loops do not see the states at all —
//! only code with a real instruction and allocation footprint does — so the
//! kernel is that kind of code: it formats strings into a `BTreeMap`,
//! renders them as text, reads the text back into numbers and sorts the keys.
//!
//! **Frozen.**  The kernel is the unit of every recorded baseline, so this
//! file uses nothing but `std` — no other module of the harness, nothing of
//! the program — and must not be edited together with anything that is
//! measured in it.  A toolchain bump (a new `std`, a new allocator) moves the
//! unit: re-measure the baseline on both sides of one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;
const ITERATIONS_PER_BATCH: usize = 40;

fn iteration(seed: usize) -> usize {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for i in 0..64 {
        let key = format!("metric.{}.{}", (i * 7 + seed) % 13, i);
        map.entry(key)
            .or_default()
            .push(format!("{}", (i * 31 + seed) as f64 / 7.0));
    }
    let lines: Vec<String> = map
        .iter()
        .map(|(key, values)| format!("{key} = {}", values.join(" ")))
        .collect();
    let text = lines.join("\n");
    let mut read: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let (key, values) = line.split_once(" = ").expect("the kernel wrote the line");
        read.insert(
            key.to_string(),
            values
                .split(' ')
                .map(|v| v.parse().expect("the kernel wrote the number"))
                .collect(),
        );
    }
    let mut keys: Vec<&String> = read.keys().collect();
    keys.sort_by(|a, b| b.cmp(a));
    keys.len() + text.len()
}

/// Microseconds per kernel iteration, now: the median of `BATCHES` batches
/// (≈ 10 ms in all), so one interrupted batch does not count.
pub fn sample_us() -> f64 {
    let mut batches = [0.0f64; BATCHES];
    for batch in &mut batches {
        let started = Instant::now();
        let mut sink = 0;
        for seed in 0..ITERATIONS_PER_BATCH {
            sink += iteration(seed);
        }
        black_box(sink);
        *batch = started.elapsed().as_secs_f64() * 1e6 / ITERATIONS_PER_BATCH as f64;
    }
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}
