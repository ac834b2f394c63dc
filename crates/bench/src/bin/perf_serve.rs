//! Self-timing harness for the memsync-serve service path.
//!
//! Boots in-process servers on ephemeral loopback ports (4 shards of the
//! egress-4 forwarding application, arbitrated organization) and drives
//! them closed-loop from several client connections, measuring sustained
//! packets/sec end to end: TCP framing, the protocol-v2 handshake, flow
//! routing, bounded queues, backend activations, and the reply path.
//! Both forwarding backends are measured — `sim` (cycle-accurate paced
//! simulator, the reference) and `fast` (the compiled batch fast path) —
//! and the best-of-reps rates land in `BENCH_serve.json` at the repo
//! root.
//!
//! Measurement discipline: every connection pre-generates its workload
//! and parks on a [`std::sync::Barrier`] before the clock starts, so
//! packet generation never pollutes the timed window; every server gets
//! an untimed warmup rep before its timed reps. The traced-off and
//! traced fast measurements run *interleaved against the same pair of
//! warmed servers* (off rep, traced rep, off rep, ...) so machine drift
//! between the two can no longer manufacture a negative tracing
//! overhead; the recorded overhead is additionally clamped at 0.
//!
//! Beyond the end-to-end rates, the batch kernels themselves are timed
//! in isolation — `FastBackend` driven submit/drain with no TCP.
//!
//! High fan-in is measured separately: a 5000-connection fan-in
//! (`reactor5k_*` — 5000 live connections each pipelining one 200-packet
//! verify batch per round, one million packets per timed round, zero
//! mismatches enforced inside the measurement).
//!
//! Modes:
//!
//! * default — full measurement per backend (3 reps x 8 conns x
//!   [`BATCH`]-packet batches), writes `BENCH_serve.json` (`--out <path>`
//!   overrides);
//! * `--check` — CI smoke: short measurements compared against the
//!   recorded values; exits non-zero (release builds only) when the sim
//!   backend is more than 3x slower than recorded, the O1-middle-end sim
//!   backend falls below 0.8x the same-run O0 sim rate (the two are
//!   pacing-bound and equal in expectation; the margin absorbs
//!   measurement noise), the traced-off fast
//!   backend fails to clear 10x the *current* sim rate, enabling tracing
//!   costs more than half the traced-off rate, or the raw batch kernels
//!   fail to clear 2x the recorded end-to-end fast rate.

use memsync_bench::arg_value;
use memsync_core::OptLevel;
use memsync_netapp::fib::Route;
use memsync_netapp::Workload;
use memsync_serve::backend::{FastBackend, ForwardingBackend};
use memsync_serve::{
    BackendKind, Client, Response, ServeConfig, Server, SubmitOptions, TracingConfig,
};
use memsync_trace::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const CONNS: usize = 8;
const BATCH: usize = 8192;
const ROUTES: usize = 64;
const EGRESS: usize = 4;

/// The fast backend must beat the sim backend by at least this factor —
/// the whole point of a compiled fast path.
const FAST_OVER_SIM_FLOOR: f64 = 10.0;

/// Enabling tracing must keep at least this fraction of the traced-off
/// rate in the CI check. The design target is <2% overhead (the recorded
/// `traced_overhead_pct` in `BENCH_serve.json` documents the measured
/// value); loopback CI runners are too noisy to enforce 2%, so the check
/// fails only on a gross regression.
const TRACED_OVER_OFF_FLOOR: f64 = 0.5;

/// The raw batch kernels (no TCP, no framing) must clear at least this
/// multiple of the *recorded end-to-end* fast rate — if they cannot, the
/// batch path has regressed to where the service path would notice.
const BATCH_OVER_E2E_FLOOR: f64 = 2.0;

/// Tracing configuration for the instrumented measurement: enabled, no
/// span export (file IO is not part of the hot-path contract).
fn traced_config() -> TracingConfig {
    TracingConfig {
        enabled: true,
        ..TracingConfig::default()
    }
}

/// Packets/sec over one rep: `conns` closed-loop connections submitting
/// `jobs` batches of [`BATCH`] packets each. Connections connect and
/// pre-generate their whole workload *before* the start barrier releases
/// the clock, so only submit/response time is measured.
fn rep(addr: std::net::SocketAddr, conns: usize, jobs: usize, seed: u64) -> f64 {
    let start = Arc::new(Barrier::new(conns + 1));
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::builder()
                    .retries(100_000)
                    .connect(addr)
                    .expect("connect");
                let w = Workload::generate(seed.wrapping_add(c as u64), jobs * BATCH, ROUTES);
                start.wait();
                let mut served = 0u64;
                for chunk in w.packets.chunks(BATCH) {
                    let r = client
                        .submit(chunk, SubmitOptions::new())
                        .expect("closed-loop submit");
                    served += u64::from(r.forwarded) + u64::from(r.dropped);
                }
                served
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    let served: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("load thread"))
        .sum();
    assert_eq!(served as usize, conns * jobs * BATCH, "lossless accounting");
    served as f64 / t0.elapsed().as_secs_f64()
}

/// Boots a fresh server running `backend` under `tracing`.
fn boot(backend: BackendKind, tracing: TracingConfig) -> Server {
    boot_opt(backend, tracing, OptLevel::O0)
}

/// [`boot`] with an explicit middle-end level for the compiled FSMs.
fn boot_opt(backend: BackendKind, tracing: TracingConfig, opt: OptLevel) -> Server {
    let config = ServeConfig {
        shards: SHARDS,
        routes: ROUTES,
        backend,
        batch_max: BATCH,
        tracing,
        opt,
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", config).expect("bind loopback")
}

/// Best-of-`reps` for the sim backend at O0 and O1, measured interleaved
/// against the same pair of warmed servers (one O0 rep, one O1 rep,
/// repeat) so machine drift hits both series equally — the `--check`
/// floor compares the two directly.
fn measure_sim_pair(jobs: usize, reps: usize) -> (f64, f64) {
    let o0_server = boot(BackendKind::Sim, TracingConfig::default());
    let o1_server = boot_opt(BackendKind::Sim, TracingConfig::default(), OptLevel::O1);
    let (o0_addr, o1_addr) = (o0_server.local_addr(), o1_server.local_addr());
    let _ = rep(o0_addr, CONNS, jobs.min(4), 0x3A3A);
    let _ = rep(o1_addr, CONNS, jobs.min(4), 0x3A3A);
    let (mut o0, mut o1) = (0.0f64, 0.0f64);
    for r in 0..reps {
        o0 = o0.max(rep(o0_addr, CONNS, jobs, 0x5EED + r as u64));
        o1 = o1.max(rep(o1_addr, CONNS, jobs, 0x9EED + r as u64));
    }
    for s in [o0_server, o1_server] {
        s.stop();
        s.wait();
    }
    (o0, o1)
}

/// Best-of-`reps` for the fast backend with tracing off and on, measured
/// **interleaved against the same pair of warmed servers** — one off rep,
/// one traced rep, repeat. Any slow machine drift (thermal, noisy
/// neighbor) hits both series equally instead of whichever happened to
/// run second, which is what used to let the reported overhead go
/// negative.
fn measure_traced_pair(jobs: usize, reps: usize) -> (f64, f64) {
    let off_server = boot(BackendKind::Fast, TracingConfig::default());
    let traced_server = boot(BackendKind::Fast, traced_config());
    let (off_addr, traced_addr) = (off_server.local_addr(), traced_server.local_addr());
    let _ = rep(off_addr, CONNS, jobs.min(4), 0x3A3A);
    let _ = rep(traced_addr, CONNS, jobs.min(4), 0x3A3A);
    let (mut off, mut traced) = (0.0f64, 0.0f64);
    for r in 0..reps {
        off = off.max(rep(off_addr, CONNS, jobs, 0x5EED + r as u64));
        traced = traced.max(rep(traced_addr, CONNS, jobs, 0x7EED + r as u64));
    }
    for s in [off_server, traced_server] {
        s.stop();
        s.wait();
    }
    (off, traced)
}

/// The 5000-connection fan-in measurement: `conns` live connections to a
/// fast-backend server, multiplexed onto 8 worker
/// threads that pipeline one verify-mode `batch`-packet submit per
/// connection per round (send on every connection, then collect every
/// response). One warmup round, then `rounds` timed rounds; returns the
/// best round's packets/sec. Panics on any verify mismatch, lost update,
/// or shard restart — at this fan-in those are correctness regressions,
/// not noise.
fn measure_reactor_fanin(conns: usize, batch: usize, rounds: usize) -> f64 {
    memsync_serve::raise_fd_limit();
    let config = ServeConfig {
        shards: SHARDS,
        routes: ROUTES,
        backend: BackendKind::Fast,
        batch_max: BATCH,
        queue_cap: 1024,
        max_conns: conns + 16,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let workers = 8;
    // Two barrier crossings bracket each round: workers arrive before
    // sending and after collecting, and the main thread times the gap.
    let round_barrier = Arc::new(Barrier::new(workers + 1));
    let handles: Vec<_> = (0..workers)
        .map(|k| {
            let rb = Arc::clone(&round_barrier);
            std::thread::spawn(move || {
                let mut lanes: Vec<_> = (k..conns)
                    .step_by(workers)
                    .map(|g| {
                        let client = Client::builder().connect(addr).expect("open fan-in lane");
                        let w = Workload::generate(0xFA71 + g as u64, batch, ROUTES);
                        (client, w.packets)
                    })
                    .collect();
                let verify = SubmitOptions::new().verify(true);
                let mut served = 0u64;
                for _ in 0..=rounds {
                    rb.wait();
                    for (client, packets) in &mut lanes {
                        client.submit_send(packets, verify).expect("pipelined send");
                    }
                    for (client, packets) in &mut lanes {
                        loop {
                            match client.submit_recv().expect("pipelined recv") {
                                Response::Batch {
                                    forwarded,
                                    dropped,
                                    mismatches,
                                } => {
                                    assert_eq!(mismatches, 0, "verify mismatch at fan-in");
                                    served += u64::from(forwarded) + u64::from(dropped);
                                    break;
                                }
                                Response::Busy(_) => {
                                    std::thread::sleep(Duration::from_millis(1));
                                    client.submit_send(packets, verify).expect("busy resend");
                                }
                                other => panic!("unexpected submit response: {other:?}"),
                            }
                        }
                    }
                    rb.wait();
                }
                served
            })
        })
        .collect();
    let mut best = 0.0f64;
    for r in 0..=rounds {
        round_barrier.wait();
        let t0 = Instant::now();
        round_barrier.wait();
        if r > 0 {
            // Round 0 is the untimed warmup (caches, FIB, kernel buffers).
            best = best.max((conns * batch) as f64 / t0.elapsed().as_secs_f64());
        }
    }
    let served: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("fan-in worker"))
        .sum();
    assert_eq!(
        served,
        ((rounds + 1) * conns * batch) as u64,
        "lossless accounting across the fan-in"
    );
    let mut client = Client::connect(addr).expect("stats connection");
    let snap = client.stats().expect("stats");
    assert_eq!(snap.lost_updates, 0, "lost updates at fan-in");
    assert_eq!(snap.shard_restarts, 0, "shard restarts at fan-in");
    assert_eq!(snap.mismatches, 0, "server-side mismatch count");
    drop(client);
    server.stop();
    server.wait();
    best
}

/// A table swap must complete (rebuild, publish, and clear the drain
/// barrier on every shard) well inside the control worker's 250ms
/// barrier deadline — a p99 at or past the deadline means retirement is
/// lagging behind publication under load.
const SWAP_LATENCY_CEILING_US: u64 = 250_000;

/// p50/p99 control-plane swap latency in microseconds: boots a
/// fast-backend server, keeps two closed-loop connections submitting
/// packets (so the post-swap drain barrier is contended, not a no-op),
/// and runs `pairs` sequential add/withdraw control pairs — each is its
/// own rebuild + publish + barrier round trip. The numbers come from
/// the server's own dequeue-to-barrier measurement in the stats `fib`
/// section; the retirement audit (`retired == generation - 1`) is
/// asserted before returning.
fn measure_swap_latency(pairs: usize) -> (u64, u64) {
    let server = boot(BackendKind::Fast, TracingConfig::default());
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let load: Vec<_> = (0..2)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::builder()
                    .retries(100_000)
                    .connect(addr)
                    .expect("background load connect");
                let w = Workload::generate(0xC0DE + c as u64, 1024, ROUTES);
                while !stop.load(Ordering::Relaxed) {
                    client
                        .submit(&w.packets, SubmitOptions::new())
                        .expect("background submit");
                }
            })
        })
        .collect();
    let mut control = Client::connect(addr).expect("control connection");
    assert!(
        control.supports_control(),
        "server must advertise the control capability"
    );
    // RFC 2544 benchmarking space, disjoint from the synthetic FIB.
    let routes: Vec<Route> = (0..32u32)
        .map(|i| Route {
            prefix: 0xC612_0000 | (i << 8),
            len: 24,
            next_hop: 9_000 + i,
        })
        .collect();
    let prefixes: Vec<(u32, u8)> = routes.iter().map(|r| (r.prefix, r.len)).collect();
    for _ in 0..pairs {
        let added = control.route_add(&routes).expect("route add");
        assert_eq!(added.applied as usize, routes.len(), "add applied fully");
        let withdrawn = control.route_withdraw(&prefixes).expect("route withdraw");
        assert_eq!(
            withdrawn.applied as usize,
            prefixes.len(),
            "withdraw applied fully"
        );
    }
    let snap = control.stats().expect("stats frame");
    stop.store(true, Ordering::Relaxed);
    for h in load {
        h.join().expect("background load thread");
    }
    drop(control);
    server.stop();
    server.wait();
    let fib = snap.fib.expect("fib section");
    assert_eq!(
        fib.retired,
        fib.generation - 1,
        "every superseded table retired"
    );
    let lat = fib.swap_latency_us.expect("swap latency after mutations");
    (lat.p50, lat.p99)
}

/// Raw kernel rate: descriptors/sec through a [`FastBackend`] submit →
/// drain loop with no service path around it.
fn measure_backend_rate(window: Duration) -> f64 {
    let descriptors: Vec<u32> = Workload::generate(0xFA57, BATCH, ROUTES)
        .packets
        .iter()
        .map(|p| p.descriptor())
        .collect();
    let mut backend = FastBackend::new(EGRESS);
    for _ in 0..16 {
        backend.submit_batch(&descriptors);
        let _ = backend.drain_egress();
    }
    let mut sink = 0u64;
    let mut served = 0u64;
    let t0 = Instant::now();
    loop {
        backend.submit_batch(&descriptors);
        let frames = backend.drain_egress();
        // Read the view the way a shard does so the work cannot fold away.
        sink = sink.wrapping_add(u64::from(frames[EGRESS - 1][BATCH - 1]));
        served += BATCH as u64;
        if t0.elapsed() >= window {
            break;
        }
    }
    let rate = served as f64 / t0.elapsed().as_secs_f64();
    assert_ne!(sink, 0);
    rate
}

fn bench_path(args: &[String]) -> String {
    arg_value(args, "--out")
        .unwrap_or_else(|| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = bench_path(&args);

    if args.iter().any(|a| a == "--check") {
        let text = std::fs::read_to_string(&path).expect("BENCH_serve.json present at repo root");
        let doc = Json::parse(&text).expect("BENCH_serve.json is JSON");
        let field = |key: &str| doc.get(key).and_then(Json::as_u64);
        let recorded = field("sim_packets_per_sec").expect("sim_packets_per_sec recorded");
        let recorded_fast = field("fast_packets_per_sec").unwrap_or(0);
        let recorded_5k = field("reactor5k_packets_per_sec");
        let (sim, sim_opt) = measure_sim_pair(8, 2);
        // The fast backend finishes a jobs=8 rep in tens of milliseconds,
        // where connect/warmup costs dominate and understate the rate —
        // give it enough jobs for the steady state to show.
        let (fast, traced) = measure_traced_pair(24, 2);
        let reactor5k = measure_reactor_fanin(5_000, 200, 1);
        let batch = measure_backend_rate(Duration::from_millis(200));
        let (swap_p50, swap_p99) = measure_swap_latency(10);
        let recorded_swap = field("swap_latency_p99_us");
        let floor = recorded as f64 / 3.0;
        println!(
            "serve perf check: sim {sim:.0} pkts/sec (recorded {recorded}, floor {floor:.0}), \
             sim O1 {sim_opt:.0} pkts/sec ({:+.1}% vs O0, floor 0.8x), \
             fast {fast:.0} pkts/sec ({:.1}x sim, floor {FAST_OVER_SIM_FLOOR:.0}x), \
             traced {traced:.0} pkts/sec ({:+.1}% vs traced-off), \
             reactor 5k-conn fan-in {reactor5k:.0} pkts/sec (recorded {:?}), \
             batch kernels {batch:.0} pkts/sec, \
             swap latency p50 {swap_p50}µs p99 {swap_p99}µs (recorded p99 {recorded_swap:?}, \
             ceiling {SWAP_LATENCY_CEILING_US}µs)",
            (sim_opt / sim - 1.0) * 100.0,
            fast / sim,
            (traced / fast - 1.0) * 100.0,
            recorded_5k
        );
        if cfg!(debug_assertions) {
            // The recorded numbers are release measurements; a debug build
            // cannot meet them, so only release runs enforce the floors.
            println!("debug build: thresholds not enforced");
            return;
        }
        let mut failed = false;
        if sim < floor {
            eprintln!("serve perf check FAILED: sim backend more than 3x slower than recorded");
            failed = true;
        }
        // The O1 middle-end must never cost simulated throughput. Both
        // rates are bounded by the same window pacing, so in expectation
        // they are equal; the 0.8x margin absorbs the same-host
        // measurement noise the interleaved best-of-reps can't (observed
        // swings of +-15% between the two halves of a run).
        if sim_opt < sim * 0.8 {
            eprintln!(
                "serve perf check FAILED: O1 sim backend {sim_opt:.0} pkts/sec fell below \
                 0.8x the same-run O0 sim rate {sim:.0}"
            );
            failed = true;
        }
        if fast < sim * FAST_OVER_SIM_FLOOR {
            eprintln!(
                "serve perf check FAILED: traced-off fast backend only {:.1}x the sim \
                 backend (needs {FAST_OVER_SIM_FLOOR:.0}x)",
                fast / sim
            );
            failed = true;
        }
        if traced < fast * TRACED_OVER_OFF_FLOOR {
            eprintln!(
                "serve perf check FAILED: tracing-enabled rate {traced:.0} fell below \
                 {TRACED_OVER_OFF_FLOOR}x the traced-off rate {fast:.0}"
            );
            failed = true;
        }
        if batch < recorded_fast as f64 * BATCH_OVER_E2E_FLOOR {
            eprintln!(
                "serve perf check FAILED: raw batch kernels {batch:.0} pkts/sec fell below \
                 {BATCH_OVER_E2E_FLOOR}x the recorded end-to-end fast rate {recorded_fast}"
            );
            failed = true;
        }
        if let Some(recorded_5k) = recorded_5k {
            if reactor5k < recorded_5k as f64 / 3.0 {
                eprintln!(
                    "serve perf check FAILED: 5k-conn fan-in {reactor5k:.0} pkts/sec fell \
                     below a third of the recorded rate {recorded_5k}"
                );
                failed = true;
            }
        }
        if swap_p99 >= SWAP_LATENCY_CEILING_US {
            eprintln!(
                "serve perf check FAILED: swap latency p99 {swap_p99}µs reached the control \
                 worker's barrier deadline — table retirement is lagging publication"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("serve perf check passed");
        return;
    }

    let jobs = 25;
    println!(
        "serve self-timing ({SHARDS} shards, {CONNS} conns x {jobs} jobs x {BATCH} packets, \
         closed loop over loopback TCP)"
    );
    let (sim, sim_opt) = measure_sim_pair(jobs, 3);
    println!("  sim backend:  {sim:.0} packets/sec");
    println!(
        "  sim backend:  {sim_opt:.0} packets/sec (O1 middle-end, {:+.1}%)",
        (sim_opt / sim - 1.0) * 100.0
    );
    let (fast, traced) = measure_traced_pair(jobs, 3);
    println!(
        "  fast backend: {fast:.0} packets/sec ({:.1}x sim, tracing off)",
        fast / sim
    );
    // Interleaved best-of-reps makes a negative overhead a measurement
    // artifact by construction; clamp so noise never records a negative.
    let overhead_pct = ((1.0 - traced / fast) * 100.0).max(0.0);
    println!("  fast backend: {traced:.0} packets/sec (tracing on, {overhead_pct:.1}% overhead)");
    let reactor5k = measure_reactor_fanin(5_000, 200, 2);
    println!("  fast backend: {reactor5k:.0} packets/sec (5000-conn verify fan-in)");
    let batch = measure_backend_rate(Duration::from_millis(500));
    println!("  batch kernels: {batch:.0} packets/sec raw");
    let (swap_p50, swap_p99) = measure_swap_latency(50);
    println!(
        "  control plane: table swap p50 {swap_p50}µs p99 {swap_p99}µs \
         (rebuild + publish + shard drain barrier, under load)"
    );

    let doc = Json::obj()
        .with(
            "workload",
            Json::Str(format!(
                "loopback closed-loop: {SHARDS} shards of forwarding app egress=4, \
                 arbitrated, {ROUTES}-route FIB, {CONNS} conns, {BATCH}-packet \
                 batches, per backend; workloads pre-generated, barrier-started"
            )),
        )
        .with("shards", (SHARDS as u64).into())
        .with("conns", (CONNS as u64).into())
        .with("batch", (BATCH as u64).into())
        .with("jobs_per_conn", (jobs as u64).into())
        .with("reps", 3u64.into())
        .with("sim_packets_per_sec", (sim.round() as u64).into())
        // The same sim backend with the O1 middle-end compiled in; the
        // `--check` floor holds it at or above 0.8x the same-run O0 rate.
        .with("sim_packets_per_sec_opt", (sim_opt.round() as u64).into())
        .with("fast_packets_per_sec", (fast.round() as u64).into())
        // The tracing-plane contract fields: the traced-off rate is the
        // canonical fast rate (tracing disabled must cost nothing), the
        // traced rate is the instrumented path, and the overhead is the
        // measured gap (design target: under 2%; interleaved reps +
        // clamping keep it non-negative).
        .with(
            "fast_packets_per_sec_traced_off",
            (fast.round() as u64).into(),
        )
        .with(
            "fast_packets_per_sec_traced",
            (traced.round() as u64).into(),
        )
        .with(
            "traced_overhead_pct",
            ((overhead_pct * 10.0).round() / 10.0).into(),
        )
        .with("fast_over_sim", ((fast / sim * 10.0).round() / 10.0).into())
        // The conns=5000 row: 5000 live connections each pipelining one
        // 200-packet verify batch per round (1M packets per timed round,
        // zero mismatches enforced in-measurement).
        .with("reactor5k_conns", 5_000u64.into())
        .with("reactor5k_batch", 200u64.into())
        .with("reactor5k_packets_per_round", 1_000_000u64.into())
        .with(
            "reactor5k_packets_per_sec",
            (reactor5k.round() as u64).into(),
        )
        // Raw kernel rate: the batch fast path with no service around it.
        .with("fast_batch_packets_per_sec", (batch.round() as u64).into())
        // Control-plane swap latency: the server's own dequeue-to-barrier
        // measurement over 50 sequential add/withdraw pairs with two
        // closed-loop connections keeping the drain barrier contended.
        .with("swap_latency_p50_us", swap_p50.into())
        .with("swap_latency_p99_us", swap_p99.into());
    std::fs::write(&path, format!("{}\n", doc.pretty())).expect("write BENCH_serve.json");
    println!("  written to {path}");
}
