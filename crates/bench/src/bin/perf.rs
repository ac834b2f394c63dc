//! Self-timing harness for the simulator hot path.
//!
//! Measures sustained cycles/sec of the uninstrumented reference workload
//! (egress-4 forwarding application, arbitrated organization, Bernoulli rx
//! traffic) and records it — together with the pre-interning baseline and
//! a serial-vs-parallel sweep timing — in `BENCH_sim.json` at the repo
//! root.
//!
//! Modes:
//!
//! * default — full measurement (3 reps × 300k cycles after 50k warmup),
//!   writes `BENCH_sim.json` (`--out <path>` overrides the location);
//! * `--check` — CI smoke: a short measurement compared against the
//!   `cycles_per_sec` recorded in `BENCH_sim.json`; exits non-zero if the
//!   current build is more than 3x slower than the recorded value.

use memsync_bench::sweep::{default_jobs, parallel_map_slice};
use memsync_bench::{arg_value, latency_grid, latency_run, reference_system};
use memsync_trace::Json;
use std::time::Instant;

/// Pre-interning throughput of the reference workload on the measurement
/// host (string-keyed BTreeMap engine, release build, best of 3): the
/// denominator of `speedup_vs_baseline`.
const BASELINE_CYCLES_PER_SEC: u64 = 916_536;

/// Best-of-`reps` sustained cycles/sec over `cycles` stepped cycles,
/// after a `warmup` that fills queues and amortized buffers.
fn measure(cycles: u64, warmup: u64, reps: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut sys = reference_system();
        for _ in 0..warmup {
            sys.step();
        }
        let t0 = Instant::now();
        for _ in 0..cycles {
            sys.step();
        }
        let rate = cycles as f64 / t0.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

/// Wall-clock seconds for one latency sweep (the six grid cells) at the
/// given worker count.
fn time_sweep(jobs: usize) -> f64 {
    let grid = latency_grid();
    let t0 = Instant::now();
    let runs = parallel_map_slice(&grid, jobs, |&(kind, n)| {
        latency_run(kind, n, 200, 0xC0FFEE, false)
    });
    assert_eq!(runs.len(), grid.len());
    t0.elapsed().as_secs_f64()
}

fn bench_path(args: &[String]) -> String {
    arg_value(args, "--out")
        .unwrap_or_else(|| format!("{}/../../BENCH_sim.json", env!("CARGO_MANIFEST_DIR")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = bench_path(&args);

    if args.iter().any(|a| a == "--check") {
        let text = std::fs::read_to_string(&path).expect("BENCH_sim.json present at repo root");
        let recorded = Json::parse(&text)
            .expect("BENCH_sim.json is JSON")
            .get("cycles_per_sec")
            .and_then(Json::as_u64)
            .expect("cycles_per_sec recorded");
        let current = measure(100_000, 10_000, 2);
        let floor = recorded as f64 / 3.0;
        println!(
            "perf check: current {current:.0} cycles/sec, recorded {recorded}, floor {floor:.0}"
        );
        if cfg!(debug_assertions) {
            // The recorded number is a release measurement; a debug build
            // cannot meet it, so only release runs enforce the floor.
            println!("debug build: threshold not enforced");
            return;
        }
        if current < floor {
            eprintln!("perf check FAILED: more than 3x slower than recorded");
            std::process::exit(1);
        }
        println!("perf check passed");
        return;
    }

    let cores = default_jobs();
    println!("simulator self-timing (reference workload: forwarding app, arbitrated, rx p=0.1)");
    let cps = measure(300_000, 50_000, 3);
    let speedup = cps / BASELINE_CYCLES_PER_SEC as f64;
    println!("  hot path: {cps:.0} cycles/sec ({speedup:.2}x the pre-interning baseline)");
    let sweep_1 = time_sweep(1);
    let sweep_n = time_sweep(cores.max(2));
    println!(
        "  latency sweep (6 cells): jobs=1 {sweep_1:.3}s, jobs={} {sweep_n:.3}s",
        cores.max(2)
    );

    let doc = Json::obj()
        .with(
            "workload",
            "forwarding app egress=4, arbitrated organization, Bernoulli rx p=0.1, uninstrumented"
                .into(),
        )
        .with("cycles_per_rep", 300_000u64.into())
        .with("reps", 3u64.into())
        .with("baseline_cycles_per_sec", BASELINE_CYCLES_PER_SEC.into())
        .with("cycles_per_sec", (cps.round() as u64).into())
        .with(
            "speedup_vs_baseline",
            ((speedup * 100.0).round() / 100.0).into(),
        )
        .with("host_cores", (cores as u64).into())
        .with(
            "sweep_jobs1_secs",
            ((sweep_1 * 1000.0).round() / 1000.0).into(),
        )
        .with(
            "sweep_jobsN_secs",
            ((sweep_n * 1000.0).round() / 1000.0).into(),
        )
        .with("sweep_jobs", (cores.max(2) as u64).into());
    std::fs::write(&path, format!("{}\n", doc.pretty())).expect("write BENCH_sim.json");
    println!("  written to {path}");
}
