//! Exact work counts per request on the serving path: heap allocations
//! and voluntary context switches per closed-loop submit, client and
//! server together, pinned for five request shapes.
//!
//! Wall time on a shared host drifts too far to gate a change on; these
//! counts do not depend on the host's speed. Each shape runs a warm-up
//! and then three reps, and the lowest rep is compared with its pin plus
//! a fixed slack, so only increases fail. A change that lowers a count
//! lowers its pin. Each pin's comment gives the band its reps read over
//! 40 runs (debug and release, idle and beside two busy loops), and in
//! brackets over 12 runs of the code before the pins, which allocated a
//! registry key per stats update and re-allocated the reactor's work
//! list.
//!
//! Context switches are pinned only for the one-shard shape, where they
//! repeat. Elsewhere how requests batch in a shard, and so how often a
//! thread parks, is a matter of timing. Even there the process-wide sum
//! moves with timing: when an activation takes longer, the reactor can
//! find the next request without parking, so a shard that parks once
//! more per activation (a 50 µs sleep in each) left the sum at 4.17–5.06
//! in release, within its pin's slack in 15 of 20 runs. The shard
//! threads' own count, pinned beside the sum, read 2.01–2.54 in every rep
//! of the 10 of those runs that measured it.
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
    /// Voluntary context switches per request, where they repeat.
    switches: Option<Switches>,
}

/// Voluntary context switches: every thread's, and the shard threads'.
#[derive(Debug, Clone, Copy)]
struct Switches {
    all: f64,
    shards: f64,
}

/// Per-request counts of one rep.
#[derive(Debug, Clone, Copy)]
struct Counts {
    allocs: f64,
    switches: Switches,
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
            // Measured 4.000 in every rep [13.70–14.00]: the reply
            // channel's `Arc` and its first block, the guards `Vec` and
            // one packet `Vec`.
            allocs: 4.0,
            // Measured 3.25–4.04 [3.40–4.02], and 0.78–1.65 on the shard
            // threads.
            switches: Some(Switches {
                all: 4.0,
                shards: 1.0,
            }),
        },
        Shape {
            name: "64 verified packets, both shards (small)",
            config: two_shards(),
            batches: vec![spread_packets(0x5A11, 64)],
            options: verify,
            warmup_rounds: 200,
            rounds: 1_000,
            // Measured 5.000–5.141 [23.53–25.00]: one packet `Vec` per
            // shard.
            allocs: 5.0,
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
            // Measured 5.000 in every rep [20.83–21.00]: the fifth is
            // the span's `timings` `Vec`.
            allocs: 5.0,
            switches: None,
        },
        Shape {
            name: "8192 unverified packets, both shards (bulk)",
            config: two_shards(),
            batches: vec![spread_packets(0xB01C, 8192)],
            options: SubmitOptions::new(),
            warmup_rounds: 50,
            rounds: 300,
            // Measured 5.000–5.053 [24.46–25.00].
            allocs: 5.0,
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
            // Measured 7.000–7.072 [16.57–27.24]: one packet `Vec` per
            // shard. The count barely grows with the connections: 7.02–7.10
            // at 1,000 and 7.03–7.06 at 5,000 (3 release runs each).
            allocs: 7.0,
            switches: None,
        },
    ]
}

/// Voluntary context switches so far, summed over the process's threads
/// and over its shard threads alone. Reading the files allocates, so
/// call it outside a counted span.
fn voluntary_switches() -> (u64, u64) {
    let (mut all, mut shards) = (0, 0);
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    for task in tasks.flatten() {
        let path = task.path();
        // A thread can exit between the listing and the reads; skip it.
        let (Ok(comm), Ok(status)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("status")),
        ) else {
            continue;
        };
        let n = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("status lists voluntary_ctxt_switches");
        all += n;
        if comm.starts_with("memsync-shard") {
            shards += n;
        }
    }
    (all, shards)
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
            let (all, shards) = voluntary_switches();
            let allocs = common::process_calls();
            run_rounds(&mut clients, shape, shape.rounds);
            let allocs = common::process_calls() - allocs;
            let (all_after, shards_after) = voluntary_switches();
            Counts {
                allocs: per_request(allocs),
                switches: Switches {
                    all: per_request(all_after - all),
                    shards: per_request(shards_after - shards),
                },
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
            check("voluntary context switches", pin.all, SWITCH_SLACK, |c| {
                c.switches.all
            });
            check(
                "shard-thread voluntary context switches",
                pin.shards,
                SWITCH_SLACK,
                |c| c.switches.shards,
            );
        }
    }
    assert!(
        over.is_empty(),
        "work per request rose:\n{}",
        over.join("\n")
    );
}
