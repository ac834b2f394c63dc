//! End-to-end loopback tests: a real server on 127.0.0.1, real TCP
//! clients, the full frame protocol (including the protocol-v2 `Hello`
//! handshake every connection now opens with).

use memsync_core::OrganizationKind;
use memsync_netapp::fib::Route;
use memsync_netapp::{Ipv4Packet, Workload};
use memsync_serve::client::BatchResult;
use memsync_serve::{
    BackendKind, Client, ClientError, Request, Response, ServeConfig, Server, SubmitOptions,
    PROTOCOL_VERSION,
};
use std::time::Duration;

/// A small, fast config for tests: 2 shards of the egress-2 app.
fn test_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        egress: 2,
        routes: 16,
        job_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::builder()
        .retries(10_000)
        .connect(addr)
        .expect("connect")
}

#[test]
fn loopback_verify_run_matches_the_oracle_and_drains_clean() {
    for organization in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
        verify_run(organization);
    }
}

/// A sim-backend server under `organization` serves 400 verified
/// packets, reports them in its stats, then drains and shuts down.
fn verify_run(organization: OrganizationKind) {
    let config = ServeConfig {
        organization,
        ..test_config()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let w = Workload::generate(42, 400, 16);
    let (fwd, drop) = w.reference_forward();
    let mut client = connect(addr);
    // The hello block mirrors the config.
    assert_eq!(client.server().version, PROTOCOL_VERSION);
    assert_eq!(client.server().backend, BackendKind::Sim);
    assert_eq!(client.server().shards, 2);
    assert_eq!(client.server().egress, 2);
    assert_eq!(client.server().routes, 16);

    let verify = SubmitOptions::new().verify(true);
    let mut totals = BatchResult::default();
    for chunk in w.packets.chunks(50) {
        let r = client.submit(chunk, verify).expect("submit");
        totals.forwarded += r.forwarded;
        totals.dropped += r.dropped;
        totals.mismatches += r.mismatches;
    }
    assert_eq!(totals.forwarded as usize, fwd);
    assert_eq!(totals.dropped as usize, drop);
    assert_eq!(
        totals.mismatches, 0,
        "{organization}: simulated frames match the model"
    );

    // The typed stats snapshot reflects the traffic.
    let snap = client.stats().expect("stats");
    assert_eq!(snap.packets, 400);
    assert_eq!(snap.mismatches, 0);
    assert_eq!(snap.shard_restarts, 0);
    assert_eq!(snap.lost_updates, 0);
    assert_eq!(snap.backend, Some(BackendKind::Sim));
    assert_eq!(snap.shards, 2);
    assert_eq!(snap.per_shard.len(), 2);
    assert_eq!(
        snap.per_shard.iter().map(|s| s.packets).sum::<u64>(),
        400,
        "per-shard packets add up to the total"
    );
    let fe = snap.frontend.expect("frontend section present");
    assert!(fe.conns_open >= 1, "this connection is counted");
    assert!(fe.conns_peak >= fe.conns_open);
    // The histograms ride the same snapshot, merged and per shard.
    let sizes = snap.batch_size.expect("merged batch-size histogram");
    assert_eq!(sizes.count, snap.batches, "one sample per activation");
    let jobs: u64 = snap
        .per_shard
        .iter()
        .map(|s| s.service_latency_us.map_or(0, |h| h.count))
        .sum();
    assert_eq!(snap.service_latency_us.map(|h| h.count), Some(jobs));

    // Graceful drain, then shutdown; wait() returns (bin would exit 0).
    client.drain().expect("drain");
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn withdrawing_the_default_route_drops_its_traffic_until_one_is_swapped_back() {
    // 198.18.0.1 resolves only through the default route, so each
    // acked mutation flips the verdict of the very next submit.
    let config = ServeConfig {
        backend: BackendKind::Fast,
        ..test_config()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let mut client = connect(server.local_addr());
    let packets: Vec<Ipv4Packet> = (0..32)
        .map(|i| Ipv4Packet::new(0x0a00_0000 + i, 0xC612_0001, 64, 6, 40))
        .collect();
    // Submits, checks the verdicts and the retirement barrier, and
    // returns the table generation the stats report.
    let step = |client: &mut Client, forwarded: u32| {
        let r = client
            .submit(&packets, SubmitOptions::new().verify(true))
            .expect("submit");
        assert_eq!(
            (r.forwarded, r.dropped, r.mismatches),
            (forwarded, 32 - forwarded, 0)
        );
        let fib = client.stats().expect("stats").fib.expect("fib section");
        assert_eq!(fib.retired, fib.generation - 1, "superseded tables retired");
        fib.generation
    };
    assert_eq!(
        step(&mut client, 32),
        1,
        "the boot table's default route forwards"
    );
    let up = client
        .route_withdraw(&[(0, 0)])
        .expect("withdraw the default");
    assert_eq!(up.applied, 1);
    assert_eq!(
        step(&mut client, 0),
        up.generation,
        "no route: every packet drops"
    );
    let up = client
        .route_add(&[Route {
            prefix: 0,
            len: 0,
            next_hop: 9,
        }])
        .expect("swap a default back in");
    assert_eq!(step(&mut client, 32), up.generation, "forwarding again");
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn a_route_add_the_classifier_cannot_encode_is_refused_and_changes_nothing() {
    // 32768 /32s in 198.18.0.0/17, each on its own next hop: one more
    // distinct hop than the flat classifier's 15-bit codes can name.
    let config = ServeConfig {
        backend: BackendKind::Fast,
        ..test_config()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let mut client = connect(server.local_addr());
    let fib = |client: &mut Client| {
        let fib = client.stats().expect("stats").fib.expect("fib section");
        (fib.generation, fib.routes, fib.swaps)
    };
    let (generation, routes, swaps) = fib(&mut client);
    let flood: Vec<Route> = (0..32_768)
        .map(|i| Route {
            prefix: 0xC612_0000 + i,
            len: 32,
            next_hop: i,
        })
        .collect();
    match client.route_add(&flood) {
        Err(ClientError::Server(msg)) => assert!(
            msg.contains("32768 distinct next hops") && msg.contains("limit of 32767"),
            "the refusal names the limit: {msg}"
        ),
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(
        fib(&mut client),
        (generation, routes, swaps),
        "nothing changed"
    );
    let up = client
        .route_add(&[Route {
            prefix: 0xC612_0000,
            len: 24,
            next_hop: 9,
        }])
        .expect("the control plane still serves");
    assert_eq!(
        (up.generation, u64::from(up.routes), up.applied),
        (generation + 1, routes + 1, 1)
    );
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn per_shard_counts_are_identical_across_same_seed_runs() {
    let mut shard_counts = Vec::new();
    for _ in 0..2 {
        let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
        let mut client = connect(server.local_addr());
        let w = Workload::generate(7, 300, 16);
        let verify = SubmitOptions::new().verify(true);
        for chunk in w.packets.chunks(32) {
            client.submit(chunk, verify).expect("submit");
        }
        client.drain().expect("drain");
        let snap = client.stats().expect("stats");
        // Keep the deterministic counters; timing-dependent fields
        // (latency summaries, queue depth) live outside the comparison.
        let counts: Vec<(u64, u64, u64, u64)> = snap
            .per_shard
            .iter()
            .map(|s| (s.packets, s.forwarded, s.dropped, s.mismatches))
            .collect();
        shard_counts.push(counts);
        client.shutdown().expect("shutdown");
        server.wait();
    }
    assert_eq!(
        shard_counts[0], shard_counts[1],
        "same seed => identical per-shard forwarded/dropped counts"
    );
    assert!(!shard_counts[0].is_empty());
}

#[test]
fn backpressure_is_observable_and_lossless() {
    // One slow shard behind a 1-deep queue and sixteen concurrent
    // submitters: most submits are deferred. An accepted job waits at
    // most two 20 ms activations, well inside the 150 ms job_timeout,
    // but a deferral queued behind seven others outlives it and is
    // answered Busy(0). Every Busy is counted, nothing stays parked, and
    // the clients' retries still deliver every packet.
    let config = ServeConfig {
        shards: 1,
        egress: 2,
        routes: 16,
        queue_cap: 1,
        shard_throttle: Some(Duration::from_millis(20)),
        job_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let w = Workload::generate(9, 320, 16);
    let (fwd, drop) = w.reference_forward();
    let handles: Vec<_> = w
        .packets
        .chunks(20)
        .map(|chunk| {
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                let mut c = connect(addr);
                let mut busy = 0u64;
                loop {
                    match c.submit_once(&chunk, SubmitOptions::new()).expect("submit") {
                        Response::Batch {
                            forwarded, dropped, ..
                        } => break (forwarded, dropped, busy),
                        Response::Busy(shard) => {
                            assert_eq!(shard, 0, "Busy names the full shard");
                            busy += 1;
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        other => panic!("unexpected submit response: {other:?}"),
                    }
                }
            })
        })
        .collect();
    let (mut forwarded, mut dropped, mut busy) = (0u32, 0u32, 0u64);
    for h in handles {
        let (f, d, b) = h.join().expect("client thread");
        forwarded += f;
        dropped += d;
        busy += b;
    }
    // Lossless: every packet classified despite the contention.
    assert_eq!(forwarded as usize, fwd);
    assert_eq!(dropped as usize, drop);
    assert!(
        busy > 0,
        "16 submitters against a 1-deep 20 ms queue must outlive a deferral"
    );

    let mut client = connect(addr);
    let snap = client.stats().expect("stats");
    assert_eq!(snap.busy, busy, "every Busy answer counted in stats");
    assert_eq!(snap.packets, 320, "no silent drops");
    assert_eq!(snap.errors, 0, "no accepted job timed out");
    let fe = snap.frontend.expect("frontend section");
    assert!(
        fe.deferred_submits >= busy,
        "every Busy was a deferral first: {fe:?}"
    );
    assert_eq!(fe.deferred_now, 0, "nothing still parked after the run");
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn killed_shard_restarts_and_service_keeps_serving() {
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr();
    let mut client = connect(addr);

    // Warm both shards, then kill shard 0.
    let w = Workload::generate(3, 100, 16);
    client
        .submit(&w.packets[..50], SubmitOptions::new())
        .expect("warm");
    client.kill_shard(0).expect("kill accepted");

    // Keep submitting until the shard has restarted itself; the
    // submit that lands on the dying shard comes back as an error (the
    // crash is visible, not silent) and a retry succeeds.
    let mut saw_error = false;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "the shard never restarted"
        );
        match client.submit(&w.packets[50..], SubmitOptions::new()) {
            Ok(_) if server.shard_restarts() >= 1 => break,
            Ok(_) => {}
            Err(e) => {
                // shard failed mid-batch => acceptor error; reconnect is
                // not needed (the connection survives), just retry.
                saw_error = true;
                let _ = e;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.shard_restarts(), 1);
    let snap = client.stats().expect("stats");
    assert_eq!(snap.shard_restarts, 1);
    // The service still serves correctly after the restart.
    let r = client
        .submit(&w.packets, SubmitOptions::new().verify(true))
        .expect("post-restart");
    assert_eq!(r.mismatches, 0);
    let _ = saw_error; // whether the kill raced a submit is timing-dependent
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn slow_writer_pausing_mid_frame_does_not_desync_the_stream() {
    use std::io::Write;
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr();

    // Raw stream (no Client): open with a well-formed Hello so the
    // handshake settles, then dribble the submit frame.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let (mut frames, mut payload) = (memsync_serve::frame::FrameReader::new(), Vec::new());
    Request::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    }
    .encode_into(&mut payload);
    memsync_serve::frame::write_frame(&mut stream, &payload).expect("hello");
    let hello_rsp = frames
        .read(&mut reader)
        .expect("read hello response")
        .expect("hello response frame");
    assert!(matches!(
        Response::decode(hello_rsp).expect("decode hello"),
        Response::Hello(_)
    ));

    let w = Workload::generate(5, 40, 16);
    let (fwd, drop) = w.reference_forward();
    Request::Submit {
        packets: &w.packets,
        options: SubmitOptions::new().verify(true),
    }
    .encode_into(&mut payload);
    let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(&payload);

    // Dribble the frame with pauses well past the reactor's 50ms poll —
    // one cut inside the 4-byte length prefix, two inside the payload.
    // The server's frame reader must resume the partial frame, not
    // discard it and re-enter the stream mid-frame.
    let mut pos = 0usize;
    for &n in &[2usize, 7, 300] {
        stream.write_all(&framed[pos..pos + n]).unwrap();
        stream.flush().unwrap();
        pos += n;
        std::thread::sleep(Duration::from_millis(120));
    }
    stream.write_all(&framed[pos..]).unwrap();
    stream.flush().unwrap();

    let rsp = frames
        .read(&mut reader)
        .expect("read response")
        .expect("response frame, not a close");
    match Response::decode(rsp).expect("decode response") {
        Response::Batch {
            forwarded,
            dropped,
            mismatches,
        } => {
            assert_eq!(forwarded as usize, fwd);
            assert_eq!(dropped as usize, drop);
            assert_eq!(mismatches, 0);
        }
        other => panic!("expected Batch, got {other:?}"),
    }
    std::mem::drop(reader);
    std::mem::drop(stream);

    let mut client = connect(addr);
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn protocol_rejects_garbage_without_dropping_the_connection() {
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    let mut client = connect(server.local_addr());

    // An out-of-range kill never leaves the client: the index is checked
    // against the negotiated shard count.
    match client.kill_shard(999) {
        Err(ClientError::ShardOutOfRange {
            shard: 999,
            shards: 2,
        }) => {}
        other => panic!("expected ShardOutOfRange, got {other:?}"),
    }
    // Forcing the raw frame through anyway still gets a server-side
    // error, and the connection keeps working afterwards.
    let rsp = client.roundtrip(&Request::Kill(999)).expect("kill oob");
    assert!(matches!(rsp, Response::Error(_)), "out-of-range shard");
    let snap = client.stats().expect("stats still works");
    assert_eq!(snap.shards, 2);

    // Draining refuses new submits with an explicit error.
    client.drain().expect("drain");
    let w = Workload::generate(1, 4, 16);
    let rsp = client
        .submit_once(&w.packets, SubmitOptions::new())
        .expect("submit while draining");
    assert!(
        matches!(rsp, Response::Error(_)),
        "draining refuses submits"
    );
    client.shutdown().expect("shutdown");
    server.wait();
}
