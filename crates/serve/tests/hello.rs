//! The `Hello` handshake: the server answers only a range that contains
//! its version, and every other peer gets a clean, typed rejection —
//! never a frame desync.
//!
//! * a peer that skips the handshake, or asks for other versions, gets an
//!   `error` frame (a type that has existed since v1, so any client
//!   decodes it) and a close at a frame boundary;
//! * a server that refuses this client's version, or answers with another
//!   one, maps onto a typed [`ClientError::Unsupported`].

use memsync_serve::frame::{write_frame, FrameReader};
use memsync_serve::{
    Client, ClientError, Request, Response, ServeConfig, Server, SubmitOptions, PROTOCOL_VERSION,
};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn test_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        egress: 2,
        routes: 16,
        ..ServeConfig::default()
    }
}

/// Raw-stream helper: one request frame out, one response frame back,
/// read through the connection's one frame reader.
fn raw_roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    frames: &mut FrameReader,
    req: &Request,
) -> Option<Response> {
    let mut payload = Vec::new();
    req.encode_into(&mut payload);
    write_frame(stream, &payload).expect("write");
    frames
        .read(reader)
        .expect("read")
        .map(|p| Response::decode(p).expect("decode"))
}

#[test]
fn handshake_reports_the_version_and_serving_geometry() {
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    let client = Client::connect(server.local_addr()).expect("connect");
    let h = client.server();
    assert_eq!(h.version, PROTOCOL_VERSION);
    assert_eq!(h.backend, ServeConfig::default().backend);
    assert_eq!(h.shards, 2);
    assert_eq!(h.egress, 2);
    assert_eq!(h.routes, 16);
}

#[test]
fn submit_before_hello_is_refused_with_a_v1_decodable_error() {
    // A peer that skips the handshake and goes straight to business.
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut frames = FrameReader::new();

    let w = memsync_netapp::Workload::generate(1, 4, 16);
    let rsp = raw_roundtrip(
        &mut stream,
        &mut reader,
        &mut frames,
        &Request::Submit {
            packets: &w.packets,
            options: SubmitOptions::new(),
        },
    )
    .expect("a response frame, not a slammed connection");
    match rsp {
        // The error frame is a v1 type: the old client can decode this.
        Response::Error(msg) => {
            assert!(msg.contains("hello"), "error names the fix: {msg}");
            assert!(msg.contains("submit"), "error names the offense: {msg}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // The server closes cleanly at a frame boundary — the next read is a
    // clean EOF (Ok(None)), not a desynced byte stream or a reset.
    assert!(
        frames.read(&mut reader).expect("clean close").is_none(),
        "connection closed at a frame boundary after the rejection"
    );
}

#[test]
fn stats_and_kill_before_hello_are_also_refused() {
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    for req in [Request::Stats, Request::Kill(0), Request::Drain] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut frames = FrameReader::new();
        let rsp = raw_roundtrip(&mut stream, &mut reader, &mut frames, &req).expect("response");
        assert!(
            matches!(rsp, Response::Error(_)),
            "{req:?} before hello must be refused"
        );
    }
}

#[test]
fn version_range_outside_the_server_is_rejected_with_both_sides_named() {
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    let v = PROTOCOL_VERSION;
    // Below, above, empty, and the range a client of version 3 sends.
    for (min, max) in [(0, v - 1), (v + 1, v + 5), (v, v - 1), (0, 0), (2, 3)] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut frames = FrameReader::new();
        let rsp = raw_roundtrip(
            &mut stream,
            &mut reader,
            &mut frames,
            &Request::Hello {
                min_version: min,
                max_version: max,
            },
        )
        .expect("response");
        match rsp {
            Response::Error(msg) => {
                assert!(
                    msg.contains(&format!("{min}..={max}")),
                    "names the client range: {msg}"
                );
                assert!(
                    msg.contains(&PROTOCOL_VERSION.to_string()),
                    "names the server version: {msg}"
                );
            }
            other => panic!("expected Error for {min}..={max}, got {other:?}"),
        }
        assert!(
            frames.read(&mut reader).expect("clean close").is_none(),
            "closed at a frame boundary"
        );
    }
}

#[test]
fn repeated_hello_is_idempotent() {
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut frames = FrameReader::new();
    let hello = Request::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    };
    let first = raw_roundtrip(&mut stream, &mut reader, &mut frames, &hello).expect("first hello");
    let second =
        raw_roundtrip(&mut stream, &mut reader, &mut frames, &hello).expect("second hello");
    assert_eq!(first, second, "hello re-states the same block");
    // And the connection still serves.
    let rsp = raw_roundtrip(&mut stream, &mut reader, &mut frames, &Request::Stats).expect("stats");
    assert!(matches!(rsp, Response::Stats(_)));
}

#[test]
fn route_mutations_round_trip_after_the_handshake() {
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let up = client
        .route_add(&[memsync_netapp::fib::Route {
            prefix: 0x0a00_0000,
            len: 8,
            next_hop: 400,
        }])
        .expect("route add");
    assert_eq!(up.generation, 2, "first mutation publishes generation 2");
    // The synthetic boot table is a default route plus 16 entries.
    assert_eq!(up.routes, 18, "17 boot routes + 1");
    assert_eq!(up.applied, 1);
    let up = client
        .route_withdraw(&[(0x0a00_0000, 8), (0x0b00_0000, 8)])
        .expect("route withdraw");
    assert_eq!(up.routes, 17, "back to the boot table size");
    assert_eq!(up.applied, 1, "absent prefix does not count");
    let up = client
        .route_add(&[memsync_netapp::fib::Route {
            prefix: 0,
            len: 0,
            next_hop: 77,
        }])
        .expect("swap default");
    assert_eq!(up.applied, 1);
    // The stats fib section audits the swaps and the retirement barrier.
    let snap = client.stats().expect("stats");
    let fib = snap.fib.expect("fib section present");
    assert_eq!(fib.generation, 4, "three mutations after boot");
    assert_eq!(fib.swaps, 3);
    assert_eq!(
        fib.retired,
        fib.generation - 1,
        "every pre-swap generation provably drained"
    );
    assert_eq!(fib.swap_latency_us.expect("measured").count, 3);
}

#[test]
fn new_client_against_an_old_server_maps_to_a_typed_unsupported_error() {
    // Two fake servers of another build, one connection each: one
    // refuses the Hello with its error frame, as a server that does not
    // speak this version does; the other answers a Hello naming another
    // version.
    let other = memsync_serve::ServerHello {
        version: PROTOCOL_VERSION - 1,
        backend: memsync_serve::BackendKind::Fast,
        shards: 2,
        egress: 2,
        routes: 16,
    };
    let answers = [
        Response::Error("malformed frame: unknown request 0x06".into()),
        Response::Hello(other),
    ];
    let names = ["unknown request".to_owned(), format!("v{}", other.version)];
    for (answer, names) in answers.into_iter().zip(names) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let old_server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            if FrameReader::new()
                .read(&mut reader)
                .expect("read")
                .is_some()
            {
                let mut out = Vec::new();
                answer.encode_into(&mut out);
                write_frame(&mut stream, &out).expect("write the answer");
            }
        });
        match Client::connect(addr) {
            Err(ClientError::Unsupported(msg)) => {
                assert!(msg.contains(&names), "names {names:?}: {msg}");
            }
            Ok(_) => panic!("connect must not succeed against another version"),
            Err(other) => panic!("expected Unsupported, got {other}"),
        }
        old_server.join().unwrap();
    }
}

#[test]
fn client_side_kill_validation_uses_the_negotiated_shard_count() {
    let server = Server::start("127.0.0.1:0", test_config()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.server().shards, 2);
    // In range: accepted by the server.
    client.kill_shard(1).expect("shard 1 exists");
    // Out of range: refused locally, typed, nothing sent.
    match client.kill_shard(2) {
        Err(ClientError::ShardOutOfRange {
            shard: 2,
            shards: 2,
        }) => {}
        other => panic!("expected ShardOutOfRange, got {other:?}"),
    }
}

#[test]
fn a_receive_that_times_out_mid_response_resumes_on_retry() {
    // A fake server answers the hello, then sends the first 6 of a Batch
    // response's 17 bytes and pauses well past the client's read
    // timeout before sending the rest. The timed-out receive must keep
    // the partial frame, so a retry returns the Batch instead of reading
    // payload bytes as a length prefix.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let slow_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (mut frames, mut packets, mut out) = (FrameReader::new(), Vec::new(), Vec::new());
        let hello = frames.read(&mut reader).expect("read").expect("hello");
        assert!(matches!(
            Request::decode(hello, &mut packets),
            Ok(Request::Hello { .. })
        ));
        Response::Hello(memsync_serve::ServerHello {
            version: PROTOCOL_VERSION,
            backend: memsync_serve::BackendKind::Fast,
            shards: 2,
            egress: 2,
            routes: 16,
        })
        .encode_into(&mut out);
        write_frame(&mut stream, &out).expect("write hello");
        let submit = frames.read(&mut reader).expect("read").expect("submit");
        assert!(matches!(
            Request::decode(submit, &mut packets),
            Ok(Request::Submit { .. })
        ));
        let batch = Response::Batch {
            forwarded: 7,
            dropped: 0,
            mismatches: 0,
        };
        batch.encode_into(&mut out);
        let mut wire = Vec::new();
        write_frame(&mut wire, &out).expect("frame");
        assert_eq!(wire.len(), 17);
        stream.write_all(&wire[..6]).expect("first 6 bytes");
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(&wire[6..]).expect("the rest");
        // Hold the connection open until the client hangs up.
        let _ = frames.read(&mut reader);
    });

    let mut client = Client::builder()
        .read_timeout(Duration::from_millis(150))
        .connect(addr)
        .expect("connect");
    let w = memsync_netapp::Workload::generate(1, 7, 16);
    let timed_out = |e: &ClientError| {
        matches!(e, ClientError::Io(e)
            if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut))
    };
    match client.submit_once(&w.packets, SubmitOptions::new()) {
        Err(e) if timed_out(&e) => {}
        other => panic!("expected a read timeout mid-response, got {other:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let rsp = loop {
        std::thread::sleep(Duration::from_millis(400));
        match client.submit_recv() {
            Err(e) if timed_out(&e) && Instant::now() < deadline => {}
            other => break other.expect("the retried receive resumes the response"),
        }
    };
    assert_eq!(
        rsp,
        Response::Batch {
            forwarded: 7,
            dropped: 0,
            mismatches: 0
        }
    );
    drop(client);
    slow_server.join().unwrap();
}
