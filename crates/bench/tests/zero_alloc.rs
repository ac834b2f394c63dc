//! Proves the interned hot path holds its zero-allocation contract: after
//! warmup, an uninstrumented `System::step` performs no heap allocation —
//! no string-keyed map lookups, no per-cycle clones, no buffer churn.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide. The workload is fully
//! deterministic (fixed-seed Bernoulli traffic), so the allocation pattern
//! is identical on every run. The latency recorder keeps running sums per
//! stream: warmup inserts every stream's key, later recordings update it
//! in place, and the measured window sees zero allocations — not just
//! "few".

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn uninstrumented_step_allocates_nothing_at_steady_state() {
    let mut sys = memsync_bench::reference_system();
    for _ in 0..50_000 {
        sys.step();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        sys.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "uninstrumented System::step must not touch the heap at steady state"
    );
    assert_eq!(sys.cycle(), 60_000, "the workload actually ran");
}
