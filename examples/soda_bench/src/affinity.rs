//! One CPU for the whole run.
//!
//! Left to itself, the guest's scheduler sometimes stacks the generator and
//! the worker on one vCPU and sometimes spreads them over both, for minutes
//! at a time.  Spread, every hand-off is a cross-vCPU wake-up (an exit to the
//! host), and the same commit reads 20 % less `cold_search` throughput, 40 %
//! slower `ingest_mix` hits and 25 % *faster* `ingest_mix` recomputes (README,
//! "One vCPU").  Pinned, the run is always in the first state.  The program
//! then sees `available_parallelism() == 1` and behaves as on a one-core
//! host: lookups never fan out to helper threads.

use std::mem::size_of_val;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel takes it: one bit per CPU, 1 024 of them.
type CpuSet = [u64; 16];

fn allow(cpus: &CpuSet) -> Result<(), String> {
    // SAFETY: `cpus` is a live buffer of the size passed; pid 0 is the
    // calling thread.
    match unsafe { sched_setaffinity(0, size_of_val(cpus), cpus.as_ptr()) } {
        0 => Ok(()),
        _ => Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        )),
    }
}

/// The calling thread pinned to one CPU; threads it spawns inherit the pin.
pub struct Pinned {
    before: CpuSet,
    one: CpuSet,
}

impl Pinned {
    /// Pins the calling thread to the CPU it is running on.  Call before the
    /// first thread is spawned.
    pub fn to_current_cpu() -> Result<Self, String> {
        let mut before: CpuSet = [0; 16];
        // SAFETY: as in `allow`; the kernel writes at most the size passed.
        let (cpu, got) = unsafe {
            (
                sched_getcpu(),
                sched_getaffinity(0, size_of_val(&before), before.as_mut_ptr()),
            )
        };
        if cpu < 0 || got != 0 || cpu as usize >= 64 * before.len() {
            return Err(format!(
                "reading the current CPU: {}",
                std::io::Error::last_os_error()
            ));
        }
        let mut one: CpuSet = [0; 16];
        one[cpu as usize / 64] = 1 << (cpu as usize % 64);
        allow(&one)?;
        Ok(Self { before, one })
    }

    /// Runs `work` with every CPU the process started with allowed again —
    /// for the one probe that is about a second core.
    pub fn lifted<T>(&self, work: impl FnOnce() -> T) -> Result<T, String> {
        allow(&self.before)?;
        let out = work();
        allow(&self.one)?;
        Ok(out)
    }
}
