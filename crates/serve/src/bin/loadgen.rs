//! The `loadgen` bin: seeded traffic against a memsync-serve instance.
//!
//! Its flags, with their defaults, are the `USAGE` line below. An unknown
//! flag, a missing value or one that does not parse or is out of range
//! prints it and exits 2 before anything connects.
//!
//! `--conns` connections each submit `--jobs` batches of `--batch`
//! seeded [`Workload`] packets, closed-loop: `Busy` is resent after a
//! pause, so every generated packet is eventually served. `--routes`
//! must match the server's FIB (checked against the server's
//! [`ServerHello`](memsync_serve::ServerHello)) and be nonzero, since
//! the traffic aims at the FIB's /24s; `--backend` (`sim` or `fast`)
//! asserts which engine the server is running.
//!
//! A pool of `min(conns, 8)` worker threads drives the connections. Each
//! worker opens its share of them at paced deadlines, spread evenly over
//! the `--ramp MS` window (default 0), then pipelines its submits: it
//! sends on every connection first, then collects every response, so all
//! connections stay in flight at once. With one connection per worker
//! that is a plain closed loop. A connection that fails to open is
//! counted (`open_failures` in the summary) and fails the run. The clock
//! starts once every connection is open and its packets generated, so
//! the reported rate covers the submits alone.
//!
//! `--churn RATE` exercises the protocol-v3 control plane while the
//! load runs: a dedicated control connection alternates add/withdraw
//! frames of 32 routes in the benchmarking prefix space `198.18.0.0/15`
//! (disjoint from the synthetic FIB, so forwarding verdicts are
//! unaffected), paced closed-loop to `RATE` route mutations per second.
//! Every reply's `applied` count is checked against the local oracle —
//! an add of 32 fresh routes must apply 32, the matching withdraw must
//! apply 32 — so a single lost update fails the run. After the load
//! window the final stats snapshot must show the route count back at
//! its pre-churn baseline and `fib.retired == fib.generation - 1` (no
//! shard still references a pre-swap table).
//!
//! `--spans` tags every submit with a client-assigned span id
//! (`conn << 32 | batch_index`), so a `--trace-spans` server exports
//! spans the offline waterfall can correlate back to this run; a server
//! without tracing ignores them. `--stats-interval MS` polls the stats
//! frame on a side connection every `MS` milliseconds and prints one
//! machine-readable `STATS` line per poll. `MS` must stay under 25 000:
//! the server closes a connection that stays quiet for 30 s.
//!
//! Every batch round trip is timed client-side; the summary reports the
//! nearest-rank p50/p99 in microseconds (`rtt_p50_us`/`rtt_p99_us`). The
//! clock runs from a batch's pipelined send to its response being
//! collected, so with several connections per worker it is completion
//! latency under fan-in, not an isolated ping.
//!
//! Every run ends with one `SUMMARY key=value ...` line for scripts.
//! Exits non-zero on any verify mismatch, on a forwarded+dropped total
//! that does not account for every accepted packet, or (via the typed
//! stats snapshot) on any server-side lost update. With `--drain` the
//! run finishes with a drain frame (and checks it succeeds); `--shutdown`
//! additionally stops the server.

use memsync_netapp::fib::Route;
use memsync_netapp::Workload;
use memsync_serve::client::BatchResult;
use memsync_serve::flags::Flags;
use memsync_serve::{BackendKind, Client, Response, SubmitOptions};
use memsync_trace::registry::percentile;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: loadgen [--addr 127.0.0.1:7171] [--conns 8] [--jobs 100] [--batch 32]
               [--seed 42] [--routes 64] [--verify] [--ramp MS]
               [--backend sim|fast] [--drain] [--shutdown]
               [--spans] [--stats-interval MS] [--churn RATE]
--stats-interval is under 25000: the server closes a connection quiet for 30 s";

fn connect(addr: &str) -> Client {
    Client::connect(addr).expect("connect to serve")
}

/// One worker: owns every `workers`-th connection (interleaved so each
/// worker's open deadlines are evenly spaced across the ramp), opens
/// each at its paced deadline, then drives all of them through `jobs`
/// pipelined rounds — send one batch on every connection first, then
/// collect every response — so the worker keeps all its connections in
/// flight instead of serializing round trips. With `spans`, each submit
/// carries the span id `conn << 32 | batch_index`. Returns the
/// aggregated batch totals, packets submitted, the open-failure count,
/// and one send-to-collected latency sample per completed batch.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    addr: &str,
    worker: usize,
    workers: usize,
    conns: usize,
    epoch: Instant,
    ramp: Duration,
    start: &Barrier,
    seed: u64,
    jobs: usize,
    batch: usize,
    routes: usize,
    base_options: SubmitOptions,
    spans: bool,
) -> (BatchResult, u64, u64, Vec<u64>) {
    struct Lane {
        client: Client,
        packets: Vec<memsync_netapp::Ipv4Packet>,
        span_base: u64,
    }
    let options = |lane: &Lane, round: usize| {
        if spans {
            base_options.span(lane.span_base | round as u64)
        } else {
            base_options
        }
    };
    let mut lanes: Vec<Lane> = Vec::new();
    let mut open_failures = 0u64;
    for g in (worker..conns).step_by(workers) {
        let due = epoch + ramp.mul_f64(g as f64 / conns as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match Client::connect(addr) {
            Ok(client) => {
                let w = Workload::generate(seed.wrapping_add(g as u64), jobs * batch, routes);
                lanes.push(Lane {
                    client,
                    packets: w.packets,
                    span_base: (g as u64) << 32,
                });
            }
            Err(e) => {
                eprintln!("open failure for connection {g}: {e}");
                open_failures += 1;
            }
        }
    }
    // Every worker finished its ramp; the timed window starts at this
    // barrier (the main thread waits on it too, then stamps t0).
    start.wait();
    let mut totals = BatchResult::default();
    let mut submitted = 0u64;
    let mut rtts = Vec::with_capacity(jobs * lanes.len());
    let mut sent_at: Vec<Instant> = Vec::with_capacity(lanes.len());
    for round in 0..jobs {
        sent_at.clear();
        for lane in &mut lanes {
            let chunk = &lane.packets[round * batch..(round + 1) * batch];
            sent_at.push(Instant::now());
            lane.client
                .submit_send(chunk, options(lane, round))
                .expect("pipelined submit send");
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            loop {
                match lane.client.submit_recv().expect("pipelined submit recv") {
                    Response::Batch {
                        forwarded,
                        dropped,
                        mismatches,
                    } => {
                        totals.forwarded += forwarded;
                        totals.dropped += dropped;
                        totals.mismatches += mismatches;
                        submitted += batch as u64;
                        rtts.push(sent_at[i].elapsed().as_nanos() as u64);
                        break;
                    }
                    Response::Busy(_) => {
                        totals.busy_retries += 1;
                        std::thread::sleep(Duration::from_millis(1));
                        let chunk = &lane.packets[round * batch..(round + 1) * batch];
                        lane.client
                            .submit_send(chunk, options(lane, round))
                            .expect("busy resend");
                    }
                    other => panic!("unexpected submit response: {other:?}"),
                }
            }
        }
    }
    (totals, submitted, open_failures, rtts)
}

/// Route mutations per control frame under `--churn`. The rate is
/// paced in whole frames, so the effective rate rounds to a multiple
/// of this.
const CHURN_BATCH: usize = 32;

/// What the churn thread observed, checked against the server's final
/// stats snapshot after the load window closes.
struct ChurnReport {
    /// Route mutations the server acknowledged (adds + withdraws).
    ops: u64,
    /// Control frames sent.
    frames: u64,
    /// Batch entries the server failed to apply — any add of fresh
    /// routes or withdraw of present routes that applied fewer than it
    /// carried. Must be zero.
    lost: u64,
    /// `fib.routes` before the first mutation; the table must return to
    /// this once churn stops (every add is paired with its withdraw).
    baseline_routes: u64,
    /// Table generation before the first mutation.
    first_generation: u64,
}

/// The `--churn` worker: alternates add/withdraw control frames of
/// [`CHURN_BATCH`] routes in `198.18.0.0/15` (RFC 2544 benchmarking
/// space — disjoint from the synthetic FIB's `10.x.0.0/16` /
/// `192.168.x.0/24` prefixes) on a dedicated connection, paced to
/// `rate` route mutations per second. Each iteration completes its
/// add/withdraw pair even if `stop` flips mid-cycle, so the table
/// always ends at its baseline.
fn run_churn(addr: &str, rate: u64, stop: &AtomicBool) -> ChurnReport {
    let mut client = connect(addr);
    let routes: Vec<Route> = (0..CHURN_BATCH as u32)
        .map(|i| Route {
            prefix: 0xC612_0000 | (i << 8), // 198.18.i.0
            len: 24,
            next_hop: 9_000 + i,
        })
        .collect();
    let prefixes: Vec<(u32, u8)> = routes.iter().map(|r| (r.prefix, r.len)).collect();
    let fib = client
        .stats()
        .expect("stats frame")
        .fib
        .expect("control-capable server renders a fib section");
    let mut report = ChurnReport {
        ops: 0,
        frames: 0,
        lost: 0,
        baseline_routes: fib.routes,
        first_generation: fib.generation,
    };
    let frame_interval = Duration::from_secs_f64(CHURN_BATCH as f64 / rate as f64);
    let mut due = Instant::now();
    let mut pace = || {
        due += frame_interval;
        // Closed-loop: if the server is slower than the pace, carry on
        // immediately instead of accumulating a send burst.
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        } else {
            due = Instant::now();
        }
    };
    while !stop.load(Ordering::Relaxed) {
        let added = client.route_add(&routes).expect("route add frame");
        report.frames += 1;
        report.ops += u64::from(added.applied);
        if (added.applied as usize) < CHURN_BATCH {
            report.lost += (CHURN_BATCH - added.applied as usize) as u64;
        }
        pace();
        let withdrawn = client
            .route_withdraw(&prefixes)
            .expect("route withdraw frame");
        report.frames += 1;
        report.ops += u64::from(withdrawn.applied);
        if (withdrawn.applied as usize) < CHURN_BATCH {
            report.lost += (CHURN_BATCH - withdrawn.applied as usize) as u64;
        }
        pace();
    }
    report
}

fn main() {
    let flags = Flags::parse(USAGE);
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:7171").to_owned();
    let conns: usize = flags.or("--conns", 8);
    let jobs: usize = flags.or("--jobs", 100);
    let batch: usize = flags.or("--batch", 32);
    let max_batch = memsync_serve::frame::MAX_SUBMIT_PACKETS;
    if !(1..=max_batch).contains(&batch) {
        flags.fail(&format!(
            "--batch must be 1..={max_batch} (one submit frame), got {batch}"
        ));
    }
    let seed: u64 = flags.or("--seed", 42);
    let routes: usize = match flags.or("--routes", 64) {
        0 => flags.fail("--routes must be nonzero: the traffic aims at the FIB's /24s"),
        n => n,
    };
    let options = SubmitOptions::new().verify(flags.has("--verify"));
    let ramp = Duration::from_millis(flags.or("--ramp", 0));
    let spans = flags.has("--spans");
    let stats_interval = flags.poll_ms("--stats-interval").map(Duration::from_millis);
    let expect_backend: Option<BackendKind> = flags.parsed("--backend");
    let churn = match flags.parsed::<u64>("--churn") {
        Some(0) => flags.fail("--churn must be nonzero"),
        v => v,
    };
    memsync_serve::raise_fd_limit();

    // One connection up front to report (and check) what the server runs.
    let hello = *connect(addr.as_str()).server();
    println!(
        "server speaks protocol v{} with {} backend ({} shards, {} egress, {} routes)",
        hello.version, hello.backend, hello.shards, hello.egress, hello.routes
    );
    assert_eq!(
        hello.routes as usize, routes,
        "--routes disagrees with the server's FIB"
    );
    if let Some(expected) = expect_backend {
        assert_eq!(
            hello.backend, expected,
            "server runs the {} backend, --backend asked for {expected}",
            hello.backend
        );
    }

    // The stats monitor polls on a dedicated connection so its requests
    // never interleave with submit traffic. It stops at the first poll
    // after the load threads finish.
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = stats_interval.map(|every| {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let run_start = Instant::now();
        std::thread::spawn(move || {
            let mut client = connect(addr.as_str());
            loop {
                let snap = client.stats().expect("stats frame");
                println!(
                    "STATS t={:.2} packets={} pps={:.0} queue_restarts={} lost_updates={}",
                    run_start.elapsed().as_secs_f64(),
                    snap.packets,
                    snap.packets_per_sec,
                    snap.shard_restarts,
                    snap.lost_updates
                );
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(every);
            }
        })
    });

    // The churn worker rides its own control connection for the whole
    // load window; it stops (completing its add/withdraw pair) when the
    // load threads finish.
    let churner = churn.map(|rate| {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_churn(&addr, rate, &stop))
    });

    let mut totals = BatchResult::default();
    let mut submitted = 0u64;
    let mut open_failures = 0u64;
    let mut rtts: Vec<u64> = Vec::new();
    let workers = conns.clamp(1, 8);
    let start = Barrier::new(workers + 1);
    let epoch = Instant::now();
    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                let (addr, start) = (addr.as_str(), &start);
                scope.spawn(move || {
                    run_worker(
                        addr, k, workers, conns, epoch, ramp, start, seed, jobs, batch, routes,
                        options, spans,
                    )
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        for h in handles {
            let (t, s, o, r) = h.join().expect("loadgen worker thread");
            totals.forwarded += t.forwarded;
            totals.dropped += t.dropped;
            totals.mismatches += t.mismatches;
            totals.busy_retries += t.busy_retries;
            submitted += s;
            open_failures += o;
            rtts.extend(r);
        }
        t0.elapsed().as_secs_f64()
    });
    stop.store(true, Ordering::Relaxed);
    if let Some(m) = monitor {
        m.join().expect("stats monitor thread");
    }
    let churn_report = churner.map(|c| c.join().expect("churn worker thread"));
    let served = u64::from(totals.forwarded) + u64::from(totals.dropped);
    println!(
        "submitted {submitted} packets over {conns} conns in {elapsed:.2}s \
         ({:.0} pkts/sec)",
        submitted as f64 / elapsed
    );
    println!(
        "forwarded {} dropped {} mismatches {} busy_retries {}",
        totals.forwarded, totals.dropped, totals.mismatches, totals.busy_retries
    );
    rtts.sort_unstable();
    // In microseconds; 0 when no batch completed.
    let percentile_us = |q| percentile(&rtts, q).map_or(0, |ns| ns / 1_000);
    let (rtt_p50_us, rtt_p99_us) = (percentile_us(0.50), percentile_us(0.99));
    println!(
        "batch rtt p50 {rtt_p50_us}µs p99 {rtt_p99_us}µs ({} samples)",
        rtts.len()
    );

    let mut failed = false;
    if totals.mismatches > 0 {
        eprintln!("FAIL: {} verify mismatches", totals.mismatches);
        failed = true;
    }
    if open_failures > 0 {
        eprintln!("FAIL: {open_failures} connection opens failed");
        failed = true;
    }
    if served != submitted {
        eprintln!("FAIL: served {served} != submitted {submitted} (silent loss)");
        failed = true;
    }

    // The server-side lost-update detector must stay at zero: paced
    // injection never overwrites an unconsumed guarded value, so any
    // count here is a pacing regression (see `memsync_hic::hazards`).
    // The typed snapshot also exposes shard restarts — a shard that
    // crashed under plain traffic is a failure even if totals added up.
    let (lost_updates, shard_restarts, churn_summary) = {
        let mut client = connect(addr.as_str());
        let snap = client.stats().expect("stats frame");
        if snap.lost_updates > 0 {
            eprintln!(
                "FAIL: server reports {} lost updates (unpaced overwrite)",
                snap.lost_updates
            );
            failed = true;
        }
        if snap.shard_restarts > 0 {
            eprintln!(
                "FAIL: {} shard restarts during an uninjected run",
                snap.shard_restarts
            );
            failed = true;
        }
        // Under `--churn` the control plane must come out clean: every
        // acked mutation applied, the table back at its pre-churn route
        // count, the generation advanced, and every superseded table
        // provably retired (`retired == generation - 1`).
        let churn_summary = churn_report.map(|report| {
            let fib = snap
                .fib
                .expect("control-capable server renders a fib section");
            println!(
                "churn: {} route mutations over {} frames, {} generations swapped \
                 (fib at gen {} with {} routes, retired {})",
                report.ops,
                report.frames,
                fib.generation - report.first_generation,
                fib.generation,
                fib.routes,
                fib.retired
            );
            if report.lost > 0 {
                eprintln!(
                    "FAIL: {} churned route mutations were acked but not applied",
                    report.lost
                );
                failed = true;
            }
            if fib.routes != report.baseline_routes {
                eprintln!(
                    "FAIL: fib holds {} routes after churn, expected the pre-churn {}",
                    fib.routes, report.baseline_routes
                );
                failed = true;
            }
            if report.frames > 0 && fib.generation <= report.first_generation {
                eprintln!(
                    "FAIL: fib generation never advanced past {} despite {} control frames",
                    report.first_generation, report.frames
                );
                failed = true;
            }
            if fib.retired != fib.generation - 1 {
                eprintln!(
                    "FAIL: retired generation {} lags the swap barrier (generation {})",
                    fib.retired, fib.generation
                );
                failed = true;
            }
            format!(
                " churn_ops={} churn_frames={} churn_lost={} fib_generation={} fib_retired={}",
                report.ops, report.frames, report.lost, fib.generation, fib.retired
            )
        });
        (snap.lost_updates, snap.shard_restarts, churn_summary)
    };

    // One machine-readable line for scripts (CI greps this). Closed-loop
    // submits are never refused; `refused=0` keeps the line's format.
    println!(
        "SUMMARY submitted={submitted} conns={conns} open_failures={open_failures} \
         forwarded={} dropped={} mismatches={} \
         busy_retries={} refused=0 elapsed_s={elapsed:.3} pps={:.0} \
         rtt_p50_us={rtt_p50_us} rtt_p99_us={rtt_p99_us} \
         lost_updates={lost_updates} shard_restarts={shard_restarts}{}",
        totals.forwarded,
        totals.dropped,
        totals.mismatches,
        totals.busy_retries,
        submitted as f64 / elapsed,
        churn_summary.as_deref().unwrap_or("")
    );

    if flags.has("--drain") || flags.has("--shutdown") {
        let mut client = connect(addr.as_str());
        match client.drain() {
            Ok(()) => println!("drain complete"),
            Err(e) => {
                eprintln!("FAIL: drain failed: {e}");
                failed = true;
            }
        }
        if flags.has("--shutdown") {
            client.shutdown().expect("shutdown frame");
            println!("shutdown sent");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
