//! A peer that half-closes its connection while a request is in flight
//! must not make a reactor thread spin: the reply still arrives, and the
//! server burns no CPU to speak of while the request waits on a slow
//! shard. The shard is busy with another connection's throttled
//! activation on the other reactor, so the half-closed connection's
//! request waits in the queue while its own reactor keeps polling.
//!
//! Alone in its own test binary: it measures the whole process's CPU
//! time, which parallel tests in the same binary would inflate.

use memsync_netapp::Workload;
use memsync_serve::{
    frame, Client, Request, Response, ServeConfig, Server, SubmitOptions, PROTOCOL_VERSION,
};
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// User plus system CPU time of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 2..]
        .split(' ')
        .collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

#[test]
fn half_closed_peer_gets_its_reply_without_a_busy_loop() {
    let config = ServeConfig {
        shards: 1,
        egress: 2,
        routes: 16,
        shard_throttle: Some(Duration::from_millis(1500)),
        reactor_threads: 2,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    // Connections are dealt round-robin in accept order: the observer
    // and the half-closing peer land on one reactor, the occupier on the
    // other.
    let mut observer = Client::connect(server.local_addr()).expect("connect");
    let mut occupier = Client::connect(server.local_addr()).expect("connect");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let hello = Request::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    };
    let (mut frames, mut payload) = (frame::FrameReader::new(), Vec::new());
    hello.encode_into(&mut payload);
    frame::write_frame(&mut stream, &payload).expect("hello");
    frames
        .read(&mut reader)
        .expect("hello response")
        .expect("hello frame");

    let w = Workload::generate(8, 32, 16);
    occupier
        .submit_send(&w.packets, SubmitOptions::new())
        .expect("occupy the shard");
    // Accepted and popped: the occupier's reactor sleeps in its
    // activation, holding the shard.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = observer.stats().expect("stats");
        if snap.accepted == 1 && snap.per_shard[0].queue_depth == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the occupier never got picked up"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let submit = Request::Submit {
        packets: &w.packets,
        options: SubmitOptions::new(),
    };
    submit.encode_into(&mut payload);
    frame::write_frame(&mut stream, &payload).expect("submit");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let (cpu, started) = (process_cpu(), Instant::now());
    let reply = frames
        .read(&mut reader)
        .expect("read the reply")
        .expect("a reply, not a close");
    let (burned, waited) = (process_cpu() - cpu, started.elapsed());
    assert!(
        matches!(Response::decode(reply), Ok(Response::Batch { forwarded, dropped, .. }) if (forwarded + dropped) as usize == w.packets.len()),
        "the half-closed peer still gets its Batch"
    );
    assert!(
        burned < waited / 2,
        "the server spun while the request was in flight: {burned:?} CPU over {waited:?}"
    );
    assert_eq!(
        frames.read(&mut reader).expect("clean close"),
        None,
        "the server closes after answering"
    );
    assert!(matches!(occupier.submit_recv(), Ok(Response::Batch { .. })));
    server.stop();
    server.wait();
}
