//! Proves the tracing plane's hard cost constraint: with tracing disabled
//! (the default), the tracing machinery on the serve hot path performs
//! zero heap allocations. Every instrumentation site gates on one bool —
//! `ServeTracer::enabled()` — and the disabled branch must not touch the
//! heap: no `PendingSpan`, no locks, no registry writes, no sink.
//!
//! Counts with the per-thread allocator in `common`: only the
//! measuring thread's allocations inside its window count, so the test
//! harness's own bookkeeping on other threads cannot land in it.

mod common;

use memsync_serve::tracing::{PendingSpan, ServeTracer, TracingConfig};
use memsync_trace::SpanRecord;

#[test]
fn disabled_tracer_path_allocates_nothing() {
    let tracer = ServeTracer::new(&TracingConfig::default()).expect("build tracer");
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

    let ((), allocated) = common::count(|| {
        for _ in 0..100_000 {
            // The two calls the hot path makes per request when disabled.
            if tracer.enabled() {
                unreachable!("tracing is off");
            }
            tracer.finish(&pending, 0);
        }
        // A disabled tracer also swallows real timings (e.g. a stale
        // config race) without counting them or touching the sink.
        tracer.finish(
            &PendingSpan {
                span_id: 2,
                client_assigned: true,
                decode_ns: 10,
                timings: vec![SpanRecord::default()],
            },
            5,
        );
    });
    assert_eq!(
        allocated.calls,
        // The one deliberate `vec!` above is the only allocation.
        1,
        "the disabled tracing path must not touch the heap"
    );
    let spans = tracer.snapshot();
    assert_eq!((spans.seen, spans.exported), (0, 0));
    tracer.flush();
}
