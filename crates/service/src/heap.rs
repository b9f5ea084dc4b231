//! Keeps freed heap inside the process.
//!
//! Interpreting a question and, above all, executing a statement allocate a
//! transient working set — one `Vec` per result row, the join's tuples and
//! hash tables (a text cell shares its string with the table): ≈ 0.4 MB for
//! the median top statement of the enterprise warehouse, ≈ 3.3 MB for its
//! largest — and free all of it when the page or the `ResultSet` is dropped.
//! glibc hands the top of the heap back to the kernel as soon as more than
//! `M_TRIM_THRESHOLD` of it is free, and that threshold is 128 KiB unless the
//! process happens to have freed a larger `mmap`ped block before, so in a
//! process whose resident data is small and compact every statement returns
//! its working set to the kernel and the next one faults the same pages in
//! again, zeroed: ≈ 105 minor faults per executed statement on the
//! `preview_execute` benchmark, 15 % of its time.  A service is long-lived
//! and the next request needs that memory again, so it keeps it.

/// Raises the allocator's trim threshold, once per process; a no-op on an
/// allocator that has no such parameter.
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
        /// How much free memory stays at the top of the heap: several times
        /// the working set of the largest statement the benchmark warehouse
        /// produces, and small beside a serving process.
        const RETAINED_HEAP_BYTES: c_int = 64 << 20;

        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            // SAFETY: `mallopt` is glibc's documented tuning entry point; it
            // takes the allocator's own lock, may be called at any time from
            // any thread, and with `M_TRIM_THRESHOLD` only stores the integer
            // it is given.  The declared signature is the one in
            // `<malloc.h>`.  A zero return (parameter rejected) leaves the
            // default in place, which is merely slower.
            unsafe {
                mallopt(M_TRIM_THRESHOLD, RETAINED_HEAP_BYTES);
            }
        });
    }
}
