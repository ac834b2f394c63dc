//! The `loadgen` bin: seeded traffic against a memsync-serve instance.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7171 [--conns 8] [--jobs 100] [--batch 32]
//!         [--seed 42] [--routes 64] [--verify] [--open-loop] [--ramp MS]
//!         [--backend sim|fast|differential] [--drain] [--shutdown]
//!         [--spans] [--stats-interval MS]
//! ```
//!
//! `--conns` connections each submit `--jobs` batches of `--batch`
//! seeded [`Workload`] packets. Closed-loop
//! (default) retries `Busy` with backoff, so every generated packet is
//! eventually served; `--open-loop` submits once and counts refused
//! batches instead. `--routes` must match the server's FIB (checked
//! against the negotiated [`ServerHello`](memsync_serve::ServerHello));
//! `--backend` asserts which engine the server is running.
//!
//! `--ramp MS` switches to fan-in mode for high connection counts: a
//! small pool of worker threads (at most 8) multiplexes all `--conns`
//! connections instead of one thread each, opens are paced evenly across
//! the `MS`-millisecond ramp window, and each worker pipelines submits —
//! send on every connection first, then collect every response — so all
//! connections stay in flight at once. Connections that fail to open are
//! counted (`open_failures` in the summary) and skipped, not fatal. The
//! ramp/open phase is excluded from the timed throughput window.
//! Fan-in mode is closed-loop only (`Busy` is resent after a pause).
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
//! shard still references a pre-swap table). Requires a server that
//! advertises the control capability.
//!
//! `--spans` tags every submit with a client-assigned span id
//! (`conn << 32 | batch_index`), so a `--trace-spans` server exports
//! spans the offline waterfall can correlate back to this run. It
//! requires the server to advertise the tracing capability.
//! `--stats-interval MS` subscribes a side connection to the server's
//! stats stream and prints one machine-readable `STATS` line per push.
//!
//! Every batch round trip is timed client-side; the summary reports the
//! nearest-rank p50/p99 in microseconds (`rtt_p50_us`/`rtt_p99_us`). In
//! fan-in mode the clock runs from a lane's pipelined send to its
//! response being collected, so it is completion latency under full
//! fan-in, not an isolated ping.
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
use memsync_serve::{BackendKind, Client, Response, SubmitOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn num_arg(args: &[String], key: &str, default: u64) -> u64 {
    arg_value(args, key)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{key} wants a number, got {v}"))
        })
        .unwrap_or(default)
}

fn connect(addr: &str) -> Client {
    Client::builder()
        .retries(10_000)
        .connect(addr)
        .expect("connect to serve")
}

/// One connection's closed- or open-loop run. With `spans`, each submit
/// carries the client-assigned span id `conn << 32 | batch_index`.
#[allow(clippy::too_many_arguments)]
fn run_conn(
    addr: &str,
    conn: u64,
    seed: u64,
    jobs: usize,
    batch: usize,
    routes: usize,
    base_options: SubmitOptions,
    open_loop: bool,
    spans: bool,
) -> (BatchResult, u64, u64, Vec<u64>) {
    let mut client = connect(addr);
    assert_eq!(
        client.server().routes as usize,
        routes,
        "--routes disagrees with the server's FIB"
    );
    let w = Workload::generate(seed, jobs * batch, routes);
    let mut totals = BatchResult::default();
    let mut submitted = 0u64;
    let mut refused = 0u64;
    let mut rtts = Vec::with_capacity(jobs);
    for (i, chunk) in w.packets.chunks(batch).enumerate() {
        let options = if spans {
            base_options.span(conn << 32 | i as u64)
        } else {
            base_options
        };
        let sent = Instant::now();
        if open_loop {
            match client.submit_once(chunk, options).expect("submit") {
                Response::Batch {
                    forwarded,
                    dropped,
                    mismatches,
                } => {
                    totals.forwarded += forwarded;
                    totals.dropped += dropped;
                    totals.mismatches += mismatches;
                    submitted += chunk.len() as u64;
                    rtts.push(sent.elapsed().as_nanos() as u64);
                }
                Response::Busy(_) => refused += 1,
                other => panic!("unexpected submit response: {other:?}"),
            }
        } else {
            let r = client.submit(chunk, options).expect("closed-loop submit");
            totals.forwarded += r.forwarded;
            totals.dropped += r.dropped;
            totals.mismatches += r.mismatches;
            totals.busy_retries += r.busy_retries;
            submitted += chunk.len() as u64;
            rtts.push(sent.elapsed().as_nanos() as u64);
        }
    }
    (totals, submitted, refused, rtts)
}

/// One fan-in worker: owns every `workers`-th connection (interleaved so
/// each worker's open deadlines are evenly spaced across the ramp), opens
/// each at its paced deadline, then drives all of them through `jobs`
/// pipelined rounds — send one batch on every connection first, then
/// collect every response — so the worker keeps all its connections in
/// flight instead of serializing round trips. Returns the aggregated
/// batch totals, packets submitted, the open-failure count, and one
/// send-to-collected latency sample per completed batch (the pipelined
/// completion time a real client would observe at this fan-in, not an
/// isolated ping).
#[allow(clippy::too_many_arguments)]
fn run_fanin_worker(
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
    let mut lanes: Vec<Lane> = Vec::new();
    let mut open_failures = 0u64;
    for g in (worker..conns).step_by(workers) {
        let due = epoch + ramp.mul_f64(g as f64 / conns as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match Client::builder().connect(addr) {
            Ok(client) => {
                assert_eq!(
                    client.server().routes as usize,
                    routes,
                    "--routes disagrees with the server's FIB"
                );
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
            let options = if spans {
                base_options.span(lane.span_base | round as u64)
            } else {
                base_options
            };
            sent_at.push(Instant::now());
            lane.client
                .submit_send(chunk, options)
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
                        let options = if spans {
                            base_options.span(lane.span_base | round as u64)
                        } else {
                            base_options
                        };
                        lane.client
                            .submit_send(chunk, options)
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

/// Nearest-rank percentile over an unsorted sample set, in microseconds.
/// Returns 0 when no batches completed (pure open-loop refusal runs).
fn percentile_us(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] / 1_000
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".into());
    let conns = num_arg(&args, "--conns", 8) as usize;
    let jobs = num_arg(&args, "--jobs", 100) as usize;
    let batch = num_arg(&args, "--batch", 32) as usize;
    let max_batch = memsync_serve::frame::MAX_SUBMIT_PACKETS;
    assert!(
        batch >= 1 && batch <= max_batch,
        "--batch must be 1..={max_batch} (one submit frame), got {batch}"
    );
    let seed = num_arg(&args, "--seed", 42);
    let routes = num_arg(&args, "--routes", 64) as usize;
    let options = SubmitOptions::new().verify(args.iter().any(|a| a == "--verify"));
    let open_loop = args.iter().any(|a| a == "--open-loop");
    let ramp = arg_value(&args, "--ramp").map(|v| {
        let ms: u64 = v
            .parse()
            .unwrap_or_else(|_| panic!("--ramp wants milliseconds, got {v}"));
        Duration::from_millis(ms)
    });
    memsync_serve::raise_fd_limit();
    let spans = args.iter().any(|a| a == "--spans");
    let stats_interval = arg_value(&args, "--stats-interval").map(|v| {
        let ms: u64 = v
            .parse()
            .unwrap_or_else(|_| panic!("--stats-interval wants milliseconds, got {v}"));
        assert!(ms > 0, "--stats-interval must be nonzero");
        Duration::from_millis(ms)
    });
    let expect_backend = arg_value(&args, "--backend").map(|v| {
        v.parse::<BackendKind>()
            .unwrap_or_else(|e| panic!("--backend: {e}"))
    });
    let churn = arg_value(&args, "--churn").map(|v| {
        let rate: u64 = v
            .parse()
            .unwrap_or_else(|_| panic!("--churn wants route mutations per second, got {v}"));
        assert!(rate > 0, "--churn must be nonzero");
        rate
    });

    // One connection up front to report (and check) what we negotiated.
    {
        let probe = connect(addr.as_str());
        let hello = *probe.server();
        println!(
            "negotiated protocol v{} with {} backend ({} shards, {} egress, {} routes)",
            hello.version, hello.backend, hello.shards, hello.egress, hello.routes
        );
        if let Some(expected) = expect_backend {
            assert_eq!(
                hello.backend, expected,
                "server runs the {} backend, --backend asked for {expected}",
                hello.backend
            );
        }
        if (spans || stats_interval.is_some()) && !probe.supports_tracing() {
            panic!("--spans/--stats-interval need a server that advertises the tracing capability");
        }
        if churn.is_some() && !probe.supports_control() {
            panic!("--churn needs a server that advertises the control capability (protocol v3)");
        }
        drop(probe);
    }

    // The stats-stream monitor rides a dedicated connection so its pushes
    // never interleave with submit traffic. It stops at the first push
    // after the load threads finish.
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = stats_interval.map(|every| {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let run_start = Instant::now();
        std::thread::spawn(move || {
            let mut client = connect(addr.as_str());
            client
                .stats_stream(every, |snap| {
                    println!(
                        "STATS t={:.2} packets={} pps={:.0} queue_restarts={} lost_updates={}",
                        run_start.elapsed().as_secs_f64(),
                        snap.packets,
                        snap.packets_per_sec,
                        snap.shard_restarts,
                        snap.lost_updates
                    );
                    !stop.load(Ordering::Relaxed)
                })
                .expect("stats stream");
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
    let mut refused = 0u64;
    let mut open_failures = 0u64;
    let mut rtts: Vec<u64> = Vec::new();
    let elapsed = if let Some(ramp) = ramp {
        // Fan-in mode: a bounded worker pool multiplexes all connections
        // with pipelined submits; the paced open phase is untimed.
        assert!(
            !open_loop,
            "--open-loop is not supported with --ramp (fan-in is closed-loop)"
        );
        let workers = conns.clamp(1, 8);
        let start = Arc::new(Barrier::new(workers + 1));
        let epoch = Instant::now();
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                let addr = addr.clone();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    run_fanin_worker(
                        &addr, k, workers, conns, epoch, ramp, &start, seed, jobs, batch, routes,
                        options, spans,
                    )
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        for h in handles {
            let (t, s, o, r) = h.join().expect("fan-in worker thread");
            totals.forwarded += t.forwarded;
            totals.dropped += t.dropped;
            totals.mismatches += t.mismatches;
            totals.busy_retries += t.busy_retries;
            submitted += s;
            open_failures += o;
            rtts.extend(r);
        }
        t0.elapsed().as_secs_f64()
    } else {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    run_conn(
                        &addr,
                        c as u64,
                        seed.wrapping_add(c as u64),
                        jobs,
                        batch,
                        routes,
                        options,
                        open_loop,
                        spans,
                    )
                })
            })
            .collect();
        for h in handles {
            let (t, s, r, l) = h.join().expect("loadgen connection thread");
            totals.forwarded += t.forwarded;
            totals.dropped += t.dropped;
            totals.mismatches += t.mismatches;
            totals.busy_retries += t.busy_retries;
            submitted += s;
            refused += r;
            rtts.extend(l);
        }
        t0.elapsed().as_secs_f64()
    };
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
        "forwarded {} dropped {} mismatches {} busy_retries {} refused_batches {refused}",
        totals.forwarded, totals.dropped, totals.mismatches, totals.busy_retries
    );
    rtts.sort_unstable();
    let (rtt_p50_us, rtt_p99_us) = (percentile_us(&rtts, 0.50), percentile_us(&rtts, 0.99));
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

    // One machine-readable line for scripts (CI greps this).
    println!(
        "SUMMARY submitted={submitted} conns={conns} open_failures={open_failures} \
         forwarded={} dropped={} mismatches={} \
         busy_retries={} refused={refused} elapsed_s={elapsed:.3} pps={:.0} \
         rtt_p50_us={rtt_p50_us} rtt_p99_us={rtt_p99_us} \
         lost_updates={lost_updates} shard_restarts={shard_restarts}{}",
        totals.forwarded,
        totals.dropped,
        totals.mismatches,
        totals.busy_retries,
        submitted as f64 / elapsed,
        churn_summary.as_deref().unwrap_or("")
    );

    if args.iter().any(|a| a == "--drain" || a == "--shutdown") {
        let mut client = connect(addr.as_str());
        match client.drain() {
            Ok(()) => println!("drain complete"),
            Err(e) => {
                eprintln!("FAIL: drain failed: {e}");
                failed = true;
            }
        }
        if args.iter().any(|a| a == "--shutdown") {
            client.shutdown().expect("shutdown frame");
            println!("shutdown sent");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
