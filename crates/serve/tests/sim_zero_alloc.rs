//! Proves the sim backend's batch path allocates nothing once warmed:
//! the descriptor scratch is reused, each egress thread's sent queue
//! drains into its lane without giving up its buffer, and the simulator
//! records produce-to-consume latencies into running sums whose keys the
//! warm-up rounds inserted. So a sim-backend shard serves in bounded
//! memory however many packets it forwards.
//!
//! Counts with the per-thread allocator in `common`: only the
//! measuring thread's allocations inside its window count.

mod common;

use memsync_core::OrganizationKind;
use memsync_netapp::Workload;
use memsync_serve::backend::{ForwardingBackend, SimBackend};
use memsync_serve::pipeline::expected_frame;

const EGRESS: usize = 4;
const BATCH: usize = 32;
const WARMUP_ROUNDS: usize = 4;
const COUNTED_ROUNDS: usize = 64;

/// Submits and drains one batch; returns how many frames differ from the
/// per-packet oracle.
fn round(backend: &mut SimBackend, descriptors: &[u32]) -> usize {
    backend.submit_batch(descriptors);
    let lanes = backend.drain_egress();
    let mut mismatches = lanes.len().abs_diff(EGRESS);
    for (i, lane) in lanes.iter().enumerate() {
        mismatches += lane.len().abs_diff(descriptors.len());
        mismatches += descriptors
            .iter()
            .zip(lane)
            .filter(|&(&d, &f)| f != expected_frame(d, i))
            .count();
    }
    mismatches
}

#[test]
fn sim_backend_steady_state_allocates_nothing() {
    let descriptors: Vec<u32> = Workload::generate(0x51A, BATCH, 16)
        .packets
        .iter()
        .map(|p| p.descriptor())
        .collect();
    for organization in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
        let mut backend = SimBackend::new(EGRESS, organization);
        for _ in 0..WARMUP_ROUNDS {
            assert_eq!(round(&mut backend, &descriptors), 0, "{organization}");
        }
        let (mismatches, allocated) = common::count(|| {
            (0..COUNTED_ROUNDS)
                .map(|_| round(&mut backend, &descriptors))
                .sum::<usize>()
        });
        assert_eq!(
            allocated.calls, 0,
            "{organization}: a warmed sim submit + drain must not touch the heap \
             ({} bytes over {COUNTED_ROUNDS} rounds)",
            allocated.bytes
        );
        assert_eq!(
            mismatches, 0,
            "{organization}: frames differ from the oracle"
        );
        assert_eq!(backend.lost_updates(), 0, "{organization}");
        let metrics = backend.metrics();
        let submitted = ((WARMUP_ROUNDS + COUNTED_ROUNDS) * BATCH) as u64;
        assert_eq!(metrics.descriptors, submitted, "{organization}");
        assert_eq!(metrics.frames, submitted * EGRESS as u64, "{organization}");
    }
}
