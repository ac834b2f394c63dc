//! Proves the batch fast path's arena contract: once the lanes and the
//! carrier scratch have grown to the working batch size, the
//! `submit_batch` → `drain_egress` steady state performs zero heap
//! allocations. Every frame is written in place into a reused lane;
//! nothing is boxed, cloned, or collected per batch.
//!
//! Counts with the per-thread allocator in `common`: only the
//! measuring thread's allocations inside its window count.

mod common;

use memsync_serve::backend::{FastBackend, ForwardingBackend};

#[test]
fn fast_backend_steady_state_allocates_nothing() {
    const EGRESS: usize = 4;
    const BATCH: usize = 512;
    let mut backend = FastBackend::new(EGRESS);
    // A mixed batch: forwarded packets plus TTL-expiry drops, reused for
    // every round (the descriptors are inputs, not state).
    let descriptors: Vec<u32> = (0..BATCH as u32)
        .map(|i| {
            let dst = 0x0a00_0000 | (i << 8) | (i & 0xff);
            let ttl = if i % 7 == 0 { 1 } else { 32 + (i % 64) };
            (dst & 0xffff_ff00) | ttl
        })
        .collect();

    // Warmup: grows the lanes and the carrier scratch to the batch's
    // working size.
    for _ in 0..8 {
        backend.submit_batch(&descriptors);
        let frames = backend.drain_egress();
        assert_eq!(frames.len(), EGRESS);
        assert_eq!(frames[0].len(), BATCH);
    }

    let (checksum, allocated) = common::count(|| {
        let mut checksum = 0u64;
        for _ in 0..2_000 {
            backend.submit_batch(&descriptors);
            let frames = backend.drain_egress();
            // Touch the borrowed view the way a shard does (classify +
            // verify reads) so the drain cannot be optimized away.
            checksum = checksum.wrapping_add(u64::from(frames[EGRESS - 1][BATCH - 1]));
        }
        checksum
    });
    assert_eq!(
        allocated.calls, 0,
        "the warmed submit/drain steady state must not touch the heap"
    );
    assert_ne!(checksum, 0);
    assert_eq!(backend.metrics().descriptors, (8 + 2_000) * BATCH as u64);
    assert_eq!(backend.lost_updates(), 0);
}
