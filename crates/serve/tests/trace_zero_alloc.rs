//! Proves the tracing plane's hard cost constraint: with tracing disabled
//! (the default), the tracing machinery on the serve hot path performs
//! zero heap allocations. Every instrumentation site gates on one bool —
//! `ServeTracer::enabled()` — and the disabled branch must not touch the
//! heap: no `PendingSpan`, no ring locks, no registry writes, no sink.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide.

use memsync_serve::tracing::{PendingSpan, ServeTracer, TracingConfig};
use memsync_trace::SpanRecord;
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
fn disabled_tracer_path_allocates_nothing() {
    let tracer = ServeTracer::new(TracingConfig::default(), 4).expect("build tracer");
    assert!(!tracer.enabled());
    // The connection loop's per-request state when tracing is off: an
    // empty pending span (`Vec::new` is allocation-free) that `finish`
    // early-returns on. Exercised exactly as the server does it.
    let pending = PendingSpan {
        span_id: 1,
        client_assigned: false,
        decode_ns: 0,
        timings: Vec::new(),
    };

    // Warmup (nothing should allocate even here, but keep the windows
    // honest the same way the simulator's zero-alloc test does).
    for _ in 0..1_000 {
        assert!(!tracer.enabled());
        tracer.finish(&pending, 0);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100_000 {
        // The two calls the hot path makes per request when disabled.
        if tracer.enabled() {
            unreachable!("tracing is off");
        }
        tracer.finish(&pending, 0);
    }
    // A disabled tracer also swallows real timings (e.g. a stale config
    // race) without touching rings or the sink.
    tracer.finish(
        &PendingSpan {
            span_id: 2,
            client_assigned: true,
            decode_ns: 10,
            timings: vec![SpanRecord::default()],
        },
        5,
    );
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        // The one deliberate `vec!` above is the only allocation.
        1,
        "the disabled tracing path must not touch the heap"
    );
    let spans = tracer.snapshot();
    assert_eq!((spans.seen, spans.exported), (0, 0));
    tracer.flush();
}
