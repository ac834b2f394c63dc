//! Exact work counts per request on the serving path: heap allocations
//! and voluntary context switches per closed-loop submit, client and
//! server together, pinned for five request shapes.
//!
//! Wall time on a shared host drifts too far to gate a change on; these
//! counts do not depend on the host's speed. Each shape runs a warm-up
//! and then three reps, and the lowest rep is compared with its pin plus
//! a fixed slack, so only increases fail. A change that lowers a count
//! lowers its pin. Each pin's comment gives the band read over 40 runs
//! (10 each in debug and release, idle and beside two busy loops): every
//! rep's allocations, and the lowest rep's context switches. In brackets
//! is what the same runs read when each shard had its own thread.
//!
//! Context switches are pinned only for the one-shard shape, at 2 per
//! request. The reactor runs the shards' activations itself, so a
//! closed-loop request parks the client once and, when the reactor finds
//! the next request already there, nothing else (1.00–1.01 per request);
//! when the reactor parks before it arrives, twice (2.00). Which one a
//! run reads is a matter of timing, on an idle host too, and the pin
//! sits at 2. Every other shape's lowest rep moves with the host's load
//! as well, from one band idle to another beside busy loops (bulk up to
//! 2.83), so it is printed, not pinned.
//!
//! Every shape runs one reactor thread, so the set of threads does not
//! depend on the host's CPU count.
//!
//! Alone in its own test binary, with one test: it reads process-wide
//! counters, which a parallel test would add to.

mod common;

use memsync_netapp::{Ipv4Packet, Workload};
use memsync_serve::router::shard_of;
use memsync_serve::{
    BackendKind, Client, Response, ServeConfig, Server, SubmitOptions, TracingConfig,
};

/// Allowed excess over an allocation pin, per request.
const ALLOC_SLACK: f64 = 0.25;
/// Allowed excess over a context-switch pin, per request.
const SWITCH_SLACK: f64 = 0.5;
/// Measured reps per shape; the lowest is compared with the pins.
const REPS: usize = 3;
/// Routes of the synthetic FIB, as in the benchmark's workloads.
const ROUTES: usize = 64;

/// One request shape and its pins.
struct Shape {
    name: &'static str,
    config: ServeConfig,
    /// One packet batch per connection, submitted once per round.
    batches: Vec<Vec<Ipv4Packet>>,
    options: SubmitOptions,
    warmup_rounds: usize,
    rounds: usize,
    /// Heap allocations per request.
    allocs: f64,
    /// Voluntary context switches per request, summed over every
    /// thread, where pinned.
    switches: Option<f64>,
}

/// Per-request counts of one rep.
#[derive(Debug, Clone, Copy)]
struct Counts {
    allocs: f64,
    switches: f64,
}

/// The two-shard fast-backend server the benchmark's `small` and `bulk`
/// workloads run, on one reactor thread.
fn two_shards() -> ServeConfig {
    ServeConfig {
        shards: 2,
        backend: BackendKind::Fast,
        reactor_threads: 1,
        ..ServeConfig::default()
    }
}

/// `n` packets, all owned by shard 0 of a two-shard server.
fn shard0_packets(n: usize) -> Vec<Ipv4Packet> {
    let packets: Vec<Ipv4Packet> = Workload::generate(0x0C0C, 16 * n, ROUTES)
        .packets
        .into_iter()
        .filter(|p| shard_of(p.dst, 2) == 0)
        .take(n)
        .collect();
    assert_eq!(packets.len(), n, "enough shard-0 packets generated");
    packets
}

/// `n` packets spread over the shards by their destinations.
fn spread_packets(seed: u64, n: usize) -> Vec<Ipv4Packet> {
    Workload::generate(seed, n, ROUTES).packets
}

fn shapes() -> Vec<Shape> {
    let verify = SubmitOptions::new().verify(true);
    vec![
        Shape {
            name: "64 verified packets, one shard",
            config: two_shards(),
            batches: vec![shard0_packets(64)],
            options: verify,
            warmup_rounds: 200,
            rounds: 1_000,
            // Measured 3.000 [4.000, the fourth the router's guard
            // `Vec`]: the reply channel's `Arc` and its first block, and
            // one packet `Vec`. Switches 1.00–1.01 idle, 1.00–1.80
            // beside busy loops, 1.995 in two later idle release runs
            // [3.25–4.04].
            allocs: 3.0,
            switches: Some(2.0),
        },
        Shape {
            name: "64 verified packets, both shards (small)",
            config: two_shards(),
            batches: vec![spread_packets(0x5A11, 64)],
            options: verify,
            warmup_rounds: 200,
            rounds: 1_000,
            // Measured 4.000 [5.000–5.141]: one packet `Vec` per shard.
            // Switches 1.00–1.01 idle, 1.00–2.00 beside busy loops
            // [4.84–7.04].
            allocs: 4.0,
            switches: None,
        },
        Shape {
            name: "64 verified packets, one shard, traced",
            config: ServeConfig {
                tracing: TracingConfig {
                    enabled: true,
                    ..TracingConfig::default()
                },
                ..two_shards()
            },
            batches: vec![shard0_packets(64)],
            options: verify,
            warmup_rounds: 200,
            rounds: 1_000,
            // Measured 4.000 [5.000]: the fourth is the span's `timings`
            // `Vec`. Switches 1.00–1.01 idle, 1.01–2.00 beside busy loops
            // [3.11–4.11].
            allocs: 4.0,
            switches: None,
        },
        Shape {
            name: "8192 unverified packets, both shards (bulk)",
            config: two_shards(),
            batches: vec![spread_packets(0xB01C, 8192)],
            options: SubmitOptions::new(),
            warmup_rounds: 50,
            rounds: 300,
            // Measured 4.000 [5.000–5.053]. Switches 1.04–1.70 idle,
            // 1.04–2.83 beside busy loops [5.54–8.11].
            allocs: 4.0,
            switches: None,
        },
        Shape {
            name: "256 connections pipelining 200 verified packets",
            config: ServeConfig {
                shards: 4,
                queue_cap: 1024,
                batch_max: 8192,
                ..two_shards()
            },
            batches: (0..256).map(|c| spread_packets(0xFA71 + c, 200)).collect(),
            options: verify,
            warmup_rounds: 3,
            rounds: 10,
            // Measured 6.000–6.008 [7.000–7.072]: one packet `Vec` per
            // shard. The count barely grows with the connections: 7.02–7.10
            // at 1,000 and 7.03–7.06 at 5,000 (3 release runs each, with
            // shard threads). Switches 0.16–0.70 idle, 0.12–0.42
            // beside busy loops [0.31–4.04].
            allocs: 6.0,
            switches: None,
        },
    ]
}

/// Voluntary context switches so far, summed over the process's
/// threads. Reading the files allocates, so call it outside a counted
/// span.
fn voluntary_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    tasks
        .flatten()
        // A thread can exit between the listing and the read; skip it.
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .expect("status lists voluntary_ctxt_switches")
        })
        .sum()
}

/// `rounds` rounds of one submit per connection: every connection sends,
/// then every connection receives, so with one connection it is a closed
/// loop. Allocates nothing on this thread once the clients are warm.
fn run_rounds(clients: &mut [Client], shape: &Shape, rounds: usize) {
    for _ in 0..rounds {
        for (client, batch) in clients.iter_mut().zip(&shape.batches) {
            client.submit_send(batch, shape.options).expect("send");
        }
        for (client, batch) in clients.iter_mut().zip(&shape.batches) {
            match client.submit_recv().expect("receive") {
                Response::Batch {
                    forwarded,
                    dropped,
                    mismatches,
                } => {
                    assert_eq!(mismatches, 0, "{}: verify mismatch", shape.name);
                    assert_eq!(
                        (forwarded + dropped) as usize,
                        batch.len(),
                        "{}: packets lost",
                        shape.name
                    );
                }
                other => panic!("{}: unexpected response {other:?}", shape.name),
            }
        }
    }
}

/// Per-request counts of each of [`REPS`] reps of `shape`.
fn measure(shape: &Shape) -> Vec<Counts> {
    let server = Server::start("127.0.0.1:0", shape.config.clone()).expect("bind loopback");
    let mut clients: Vec<Client> = shape
        .batches
        .iter()
        .map(|_| Client::connect(server.local_addr()).expect("connect"))
        .collect();
    run_rounds(&mut clients, shape, shape.warmup_rounds);
    let requests = (shape.rounds * clients.len()) as f64;
    let per_request = |n: u64| n as f64 / requests;
    let reps = (0..REPS)
        .map(|_| {
            let switches = voluntary_switches();
            let allocs = common::process_calls();
            run_rounds(&mut clients, shape, shape.rounds);
            let allocs = common::process_calls() - allocs;
            let switches = voluntary_switches() - switches;
            Counts {
                allocs: per_request(allocs),
                switches: per_request(switches),
            }
        })
        .collect();
    drop(clients);
    drop(server);
    reps
}

#[test]
fn each_request_shape_does_its_pinned_work() {
    let mut over = Vec::new();
    for shape in shapes() {
        let reps = measure(&shape);
        println!("{}: {reps:.3?}", shape.name);
        let mut check = |what: &str, pin: f64, slack: f64, count: fn(&Counts) -> f64| {
            let lowest = reps.iter().map(count).fold(f64::INFINITY, f64::min);
            if lowest > pin + slack {
                over.push(format!(
                    "{}: {lowest:.3} {what} per request, pinned at {pin}",
                    shape.name
                ));
            }
        };
        check("allocations", shape.allocs, ALLOC_SLACK, |c| c.allocs);
        if let Some(pin) = shape.switches {
            check("voluntary context switches", pin, SWITCH_SLACK, |c| {
                c.switches
            });
        }
    }
    assert!(
        over.is_empty(),
        "work per request rose:\n{}",
        over.join("\n")
    );
}
