//! Differential validation of the forwarding backends: the cycle-accurate
//! [`SimBackend`] under **both** memory organizations and the compiled
//! [`FastBackend`] must emit byte-identical egress frame streams for the
//! same descriptor stream, however it is cut into batches.
//!
//! This is the offline sim-against-fast check. A running server checks
//! its backend one way, verify mode (`crates/serve/tests/loopback.rs`).

use memsync_core::OrganizationKind;
use memsync_netapp::{Ipv4Packet, Workload};
use memsync_serve::backend::{FastBackend, ForwardingBackend, SimBackend};

const ROUTES: usize = 16;
const EGRESS: usize = 2;

/// Runs `descriptors` through a fresh backend in `chunk`-sized batches,
/// returning the concatenated per-egress frame streams.
fn run_backend(
    mut b: Box<dyn ForwardingBackend>,
    descriptors: &[u32],
    chunk: usize,
) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); EGRESS];
    for batch in descriptors.chunks(chunk) {
        b.submit_batch(batch);
        for (i, f) in b.drain_egress().iter().enumerate() {
            out[i].extend(f);
        }
    }
    assert_eq!(b.lost_updates(), 0, "no unpaced overwrites");
    out
}

#[test]
fn all_backends_emit_byte_identical_egress_streams() {
    let w = Workload::generate(2024, 600, ROUTES);
    let descriptors: Vec<u32> = w.packets.iter().map(Ipv4Packet::descriptor).collect();
    let fast = run_backend(Box::new(FastBackend::new(EGRESS)), &descriptors, 48);
    assert_eq!(fast.len(), EGRESS);
    assert_eq!(fast[0].len(), descriptors.len(), "one frame per descriptor");

    // One descriptor per batch, a coalesced activation's worth, and the
    // whole stream in one batch.
    for chunk in [1, 48, descriptors.len()] {
        let arb = run_backend(
            Box::new(SimBackend::new(EGRESS, OrganizationKind::Arbitrated)),
            &descriptors,
            chunk,
        );
        let event = run_backend(
            Box::new(SimBackend::new(EGRESS, OrganizationKind::EventDriven)),
            &descriptors,
            chunk,
        );
        assert_eq!(
            arb, event,
            "batch {chunk}: organizations agree frame for frame"
        );
        assert_eq!(
            arb, fast,
            "batch {chunk}: fast path agrees with the cycle-accurate reference"
        );
        assert_eq!(
            run_backend(Box::new(FastBackend::new(EGRESS)), &descriptors, chunk),
            fast,
            "batch {chunk}: fast path does not depend on batch boundaries"
        );
    }
}
