//! Keeps freed heap inside the process.
//!
//! Interpreting a question and, above all, executing a statement allocate a
//! transient working set — the scans, the join's tuples of scan positions
//! and its hash tables (a result keeps only its row numbers, 4 bytes per
//! row and table): at its peak ≈ 62 KB for the median top statement of the
//! enterprise warehouse, ≈ 0.66 MB for its largest (a GROUP BY over a
//! 20 000-tuple join) — and free all of it when the page or the `ResultSet`
//! is dropped.  glibc gives that memory back to the kernel two ways, and
//! the next statement then faults the same pages in again, zeroed:
//!
//! - It trims the top of the heap as soon as more than `M_TRIM_THRESHOLD`
//!   of it is free: 128 KiB unless the process happens to have freed a
//!   larger `mmap`ped block before.  In a process whose resident data is
//!   small and compact that is every statement's working set: ≈ 105 minor
//!   faults per executed statement on the `preview_execute` benchmark, 15 %
//!   of its time.
//! - It serves every block of `M_MMAP_THRESHOLD` or more with a fresh
//!   `mmap` and unmaps it on free.  That threshold starts at 128 KiB and
//!   normally rises to the size of each such block freed, but setting
//!   either parameter turns that adjustment off, so after the trim
//!   threshold is set it stays at 128 KiB for good — and a large join's
//!   tuples or a scan of a large table are such blocks.
//!
//! A service is long-lived and the next request needs that memory again, so
//! it sets both.

/// Raises the allocator's trim and mmap thresholds, once per process; a
/// no-op on an allocator that has no such parameters.
pub(crate) fn retain_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        use std::sync::Once;

        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        /// `M_TRIM_THRESHOLD` of `<malloc.h>`.
        const M_TRIM_THRESHOLD: c_int = -1;
        /// `M_MMAP_THRESHOLD` of `<malloc.h>`.
        const M_MMAP_THRESHOLD: c_int = -3;
        /// How much free memory stays at the top of the heap: several times
        /// the working set of the largest statement the benchmark warehouse
        /// produces, and small beside a serving process.
        const RETAINED_HEAP_BYTES: c_int = 64 << 20;
        /// The smallest block that gets an `mmap` of its own: the upper
        /// limit `mallopt(3)` documents for a 64-bit target
        /// (`DEFAULT_MMAP_THRESHOLD_MAX`), far above any one block of a
        /// statement's working set.
        const MMAP_THRESHOLD_BYTES: c_int = 32 << 20;

        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            // SAFETY: `mallopt` is glibc's documented tuning entry point; it
            // takes the allocator's own lock, may be called at any time from
            // any thread, and with these two parameters only stores the
            // integer it is given.  The declared signature is the one in
            // `<malloc.h>`.  A zero return (parameter rejected) leaves the
            // default in place, which is merely slower.
            unsafe {
                mallopt(M_TRIM_THRESHOLD, RETAINED_HEAP_BYTES);
                mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES);
            }
        });
    }
}
