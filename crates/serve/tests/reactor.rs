//! End-to-end tests of the reactor's connection plane: a real server on
//! 127.0.0.1, real TCP clients, and the backpressure machinery these
//! tests pin (deferred submits, egress high-water read pausing, the
//! write deadline, conn-cap rejection).

use memsync_netapp::Workload;
use memsync_serve::client::BatchResult;
use memsync_serve::frame::{self, FrameReader};
use memsync_serve::reactor::{EGRESS_HIGH_WATER, EGRESS_LOW_WATER};
use memsync_serve::{
    Client, Request, Response, ServeConfig, Server, SubmitOptions, PROTOCOL_VERSION,
};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A small, fast config: 2 shards of the egress-2 app on one reactor
/// thread (single-threaded reactors exercise the same code and keep CI
/// machines with one core honest).
fn reactor_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        egress: 2,
        routes: 16,
        job_timeout: Duration::from_secs(30),
        reactor_threads: 1,
        ..ServeConfig::default()
    }
}

fn connect(addr: SocketAddr) -> Client {
    Client::builder()
        .retries(10_000)
        .connect(addr)
        .expect("connect")
}

/// One request's payload.
fn payload(req: &Request) -> Vec<u8> {
    let mut v = Vec::new();
    req.encode_into(&mut v);
    v
}

/// Opens a raw stream and settles the protocol handshake, returning the
/// write half, a buffered read half and its frame reader — for tests that
/// need to pipeline frames or stop reading in ways `Client` won't.
fn raw_handshake(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>, FrameReader) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut frames = FrameReader::new();
    let hello = Request::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    };
    frame::write_frame(&mut writer, &payload(&hello)).expect("hello");
    let rsp = frames
        .read(&mut reader)
        .expect("read hello response")
        .expect("hello response frame");
    assert!(matches!(
        Response::decode(rsp).expect("decode hello"),
        Response::Hello(_)
    ));
    (writer, reader, frames)
}

#[test]
fn reactor_saturated_shard_defers_submits_instead_of_busy_storms() {
    // One throttled shard behind a 2-deep queue, hammered by 8 concurrent
    // closed-loop connections. A submit that meets the full queue is
    // parked and retried internally, so clients see zero Busy responses
    // and zero retries: flow control replaces the storm. Two reactors:
    // the thread running an activation reads no requests meanwhile, so
    // only the other can fill the queue behind it.
    let config = ServeConfig {
        shards: 1,
        egress: 2,
        routes: 16,
        queue_cap: 2,
        shard_throttle: Some(Duration::from_millis(10)),
        job_timeout: Duration::from_secs(30),
        reactor_threads: 2,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let w = Workload::generate(9, 240, 16);
    let (fwd, drop) = w.reference_forward();
    let handles: Vec<_> = w
        .packets
        .chunks(30)
        .map(|chunk| {
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                let mut c = connect(addr);
                c.submit(&chunk, SubmitOptions::new()).expect("submit")
            })
        })
        .collect();
    let mut totals = BatchResult::default();
    for h in handles {
        let r = h.join().expect("client thread");
        totals.forwarded += r.forwarded;
        totals.dropped += r.dropped;
        totals.busy_retries += r.busy_retries;
    }
    // Lossless and storm-free: every packet classified, no Busy seen.
    assert_eq!(totals.forwarded as usize, fwd);
    assert_eq!(totals.dropped as usize, drop);
    assert_eq!(
        totals.busy_retries, 0,
        "deferred submits absorb the full queue; clients never see Busy"
    );

    let mut client = connect(addr);
    let snap = client.stats().expect("stats");
    assert_eq!(snap.busy, 0, "no Busy responses server-side either");
    assert_eq!(snap.packets, 240, "no silent drops");
    let fe = snap.frontend.expect("frontend section");
    assert!(
        fe.deferred_submits > 0,
        "8 conns against a 2-deep throttled queue must defer: {fe:?}"
    );
    assert_eq!(fe.deferred_now, 0, "nothing still parked after the run");
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn reactor_stops_reading_a_slow_client_at_the_egress_high_water() {
    // Satellite: bounded memory against a slow reader. Pipeline many
    // stats requests without reading a single response: the kernel
    // buffers fill, the per-connection egress queue climbs, and at
    // EGRESS_HIGH_WATER the reactor must drop read interest instead of
    // buffering the rest — pinning per-connection memory. Once we read,
    // everything drains and every response arrives in order.
    let server = Server::start("127.0.0.1:0", reactor_config()).expect("bind");
    let addr = server.local_addr();
    let (mut writer, mut reader, mut frames) = raw_handshake(addr);

    // The kernel absorbs several MB on loopback (sndbuf + rcvbuf
    // autotuning) before the server-side egress queue grows at all, so
    // the burst must comfortably exceed that: ~30k one-KB stats
    // responses ≈ 30 MB against a 256 KiB queue bound.
    const REQUESTS: usize = 30_000;
    let stats_req = payload(&Request::Stats);
    for _ in 0..REQUESTS {
        frame::write_frame(&mut writer, &stats_req).expect("pipelined stats request");
    }
    writer.flush().unwrap();

    // Watch from a second connection until the slow conn's egress queue
    // hits the high-water mark and the reactor pauses its reads.
    let mut monitor = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    let fe = loop {
        let snap = monitor.stats().expect("stats");
        let fe = snap.frontend.expect("frontend section");
        if fe.egress_highwater_bytes >= EGRESS_HIGH_WATER as u64 && fe.read_pauses >= 1 {
            break fe;
        }
        assert!(
            Instant::now() < deadline,
            "egress never reached the high-water mark: {fe:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // Bounded: the queue overshoots by at most one response beyond the
    // mark — it must not absorb the whole pipelined burst.
    assert!(
        fe.egress_highwater_bytes < (EGRESS_HIGH_WATER + 128 * 1024) as u64,
        "egress queue kept buffering past the high-water mark: {fe:?}"
    );
    const { assert!(EGRESS_LOW_WATER < EGRESS_HIGH_WATER) };

    // Drain as a reader again: every one of the pipelined responses must
    // arrive, in order, as a well-formed Stats frame — the pause/resume
    // cycle loses and corrupts nothing.
    for i in 0..REQUESTS {
        let payload = frames
            .read(&mut reader)
            .unwrap_or_else(|e| panic!("response {i}: {e}"))
            .unwrap_or_else(|| panic!("server closed before response {i}"));
        match Response::decode(payload) {
            Ok(Response::Stats(doc)) => assert!(doc.contains("\"frontend\""), "response {i}"),
            other => panic!("response {i}: expected Stats, got {other:?}"),
        }
    }
    drop(writer);
    drop(reader);

    let mut client = connect(addr);
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn reactor_conn_cap_rejection_is_a_decodable_error_frame() {
    // Satellite: over-capacity connections get a protocol-level refusal
    // (a v1-decodable Error frame), not a silent RST.
    let config = ServeConfig {
        max_conns: 2,
        ..reactor_config()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let mut held1 = connect(addr);
    let _held2 = connect(addr);

    let third = TcpStream::connect(addr).expect("tcp connect still accepted");
    third.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(third.try_clone().unwrap());
    let mut frames = FrameReader::new();
    let payload = frames
        .read(&mut reader)
        .expect("read rejection")
        .expect("an error frame, not an instant close");
    match Response::decode(payload).expect("rejection frame decodes") {
        Response::Error(msg) => {
            assert!(
                msg.contains("connection limit"),
                "rejection names the cap: {msg}"
            );
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // After the frame, the server closes its side.
    assert_eq!(
        frames.read(&mut reader).expect("clean close"),
        None,
        "rejected connection is closed after the error frame"
    );
    drop(reader);
    drop(third);

    let snap = held1.stats().expect("held connection still serves");
    let fe = snap.frontend.expect("frontend section");
    assert!(fe.conn_rejects >= 1, "rejection counted: {fe:?}");
    assert!(fe.conns_open <= 2, "cap respected: {fe:?}");

    held1.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn reactor_drops_a_peer_that_stops_reading_at_the_write_deadline() {
    // A peer pipelines stats requests and never reads a response: once
    // the kernel buffers and the egress queue are full, egress makes no
    // progress, and the write deadline must close the connection rather
    // than hold it (and up to EGRESS_HIGH_WATER of responses) forever.
    let config = ServeConfig {
        write_timeout: Duration::from_millis(500),
        ..reactor_config()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let mut monitor = connect(addr);
    let baseline = monitor
        .stats()
        .expect("stats")
        .frontend
        .expect("frontend section");

    let (mut writer, reader, _) = raw_handshake(addr);
    let flood = std::thread::spawn(move || {
        let stats_req = payload(&Request::Stats);
        for _ in 0..30_000 {
            // The server may close mid-flood; that is the point.
            if frame::write_frame(&mut writer, &stats_req).is_err() {
                break;
            }
        }
        writer
    });

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut stalled = false;
    loop {
        let fe = monitor
            .stats()
            .expect("stats")
            .frontend
            .expect("frontend section");
        stalled |= fe.egress_highwater_bytes >= EGRESS_HIGH_WATER as u64;
        if stalled && fe.conns_open == baseline.conns_open {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the non-reading peer was never dropped: {fe:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(flood.join().expect("flood thread"));
    drop(reader);
    monitor.shutdown().expect("shutdown");
    server.wait();
}
