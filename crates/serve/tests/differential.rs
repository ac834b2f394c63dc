//! Differential validation of the forwarding backends.
//!
//! Two layers:
//!
//! * backend-level: the cycle-accurate [`SimBackend`] under **both**
//!   memory organizations and the compiled [`FastBackend`] must emit
//!   byte-identical egress frame streams for the same descriptor stream;
//! * end-to-end: a server running the [`DifferentialBackend`] (sim
//!   reference + fast candidate, cross-checked frame by frame inside
//!   every shard activation) serves 100k packets over 8 connections with
//!   verify on — zero mismatches, zero lost updates, zero shard restarts
//!   (a divergence panics the shard, so restarts staying at zero *is* the
//!   byte-equality assertion), and totals matching the FIB oracle.

use memsync_core::OrganizationKind;
use memsync_netapp::{Ipv4Packet, Workload};
use memsync_serve::backend::{FastBackend, ForwardingBackend, SimBackend};
use memsync_serve::client::BatchResult;
use memsync_serve::{BackendKind, Client, ServeConfig, Server, SubmitOptions};
use std::time::Duration;

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
    assert_eq!(b.lost_updates(), 0, "{:?}: no unpaced overwrites", b.kind());
    out
}

#[test]
fn all_backends_emit_byte_identical_egress_streams() {
    let w = Workload::generate(2024, 600, ROUTES);
    let descriptors: Vec<u32> = w.packets.iter().map(Ipv4Packet::descriptor).collect();

    let arb = run_backend(
        Box::new(SimBackend::new(EGRESS, OrganizationKind::Arbitrated)),
        &descriptors,
        48,
    );
    let event = run_backend(
        Box::new(SimBackend::new(EGRESS, OrganizationKind::EventDriven)),
        &descriptors,
        48,
    );
    let fast = run_backend(Box::new(FastBackend::new(EGRESS)), &descriptors, 48);

    assert_eq!(arb, event, "organizations agree frame for frame");
    assert_eq!(
        arb, fast,
        "fast path agrees with the cycle-accurate reference"
    );
    assert_eq!(arb.len(), EGRESS);
    assert_eq!(arb[0].len(), descriptors.len(), "one frame per descriptor");
}

#[test]
fn differential_e2e_100k_packets_over_8_connections() {
    const CONNS: usize = 8;
    const PER_CONN: usize = 12_500; // 8 x 12,500 = 100k packets
    const BATCH: usize = 250;

    let config = ServeConfig {
        shards: 4,
        egress: EGRESS,
        routes: ROUTES,
        backend: BackendKind::Differential,
        batch_max: BATCH,
        job_timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::builder()
                    .retries(100_000)
                    .connect(addr)
                    .expect("connect");
                assert_eq!(client.server().backend, BackendKind::Differential);
                let w = Workload::generate(9000 + c as u64, PER_CONN, ROUTES);
                let (fwd, drop) = w.reference_forward();
                let mut totals = BatchResult::default();
                let verify = SubmitOptions::new().verify(true);
                for chunk in w.packets.chunks(BATCH) {
                    let r = client.submit(chunk, verify).expect("submit");
                    totals.forwarded += r.forwarded;
                    totals.dropped += r.dropped;
                    totals.mismatches += r.mismatches;
                }
                assert_eq!(totals.forwarded as usize, fwd, "conn {c}: oracle totals");
                assert_eq!(totals.dropped as usize, drop, "conn {c}: oracle totals");
                assert_eq!(totals.mismatches, 0, "conn {c}: zero verify mismatches");
                u64::from(totals.forwarded) + u64::from(totals.dropped)
            })
        })
        .collect();
    let served: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("connection thread"))
        .sum();
    assert_eq!(
        served as usize,
        CONNS * PER_CONN,
        "every packet accounted for"
    );

    let mut client = Client::connect(addr).expect("connect for stats");
    let snap = client.stats().expect("stats");
    assert_eq!(snap.packets as usize, CONNS * PER_CONN);
    assert_eq!(snap.mismatches, 0, "model agreement across 100k packets");
    assert_eq!(snap.lost_updates, 0, "no unpaced overwrites");
    // A reference/candidate divergence panics the shard mid-activation;
    // the shard would restart in place and this counter would rise. Zero
    // restarts over 100k packets is the frame-for-frame equality check.
    assert_eq!(snap.shard_restarts, 0, "no differential divergence");
    assert_eq!(snap.errors, 0, "no submit failed after acceptance");
    client.drain().expect("drain");
    client.shutdown().expect("shutdown");
    server.wait();
}
