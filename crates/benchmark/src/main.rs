//! `memsync-benchmark`: the serving stack's benchmark, end to end and
//! layer by layer.
//!
//! ```text
//! memsync-benchmark [--workload bulk|small|sim|churn] [--seed N] [--seconds S]
//!                   [--trace 0|1] [--quick] [--out FILE] [--spans FILE]
//! ```
//!
//! Without `--workload` every workload runs. Each workload runs 5 rounds
//! ([`FULL`]) of `S / 5` seconds of load, every round in a fresh child
//! process (the binary re-invoked with `--child`), the start workload
//! rotating each round. A round's load is an untimed warm-up (1 s, or a
//! sixth of the round if that is shorter), the timed window and, except
//! on `churn`, 20 route frames on the then idle server.
//! An untraced run reports the end-to-end metrics. A traced run
//! (`--trace 1`) runs traced and untraced rounds side by side, each half
//! as long, then times every layer in isolation, and reports the
//! per-layer metrics; it writes the benchmark's spans as JSONL to
//! `--spans` (default `target/benchmark/spans.jsonl`).
//!
//! Output: a host line, one line per `workload.metric` with its value,
//! unit, quartiles and sample count, and as the last line one JSON
//! object `{"correct","attempted","failed","metrics"}`. Any oracle or
//! audit violation makes the exit code 1. See `README.md` for the
//! workloads and the metric → layer → workload map.

mod layers;
mod round;
mod spans;
mod stats;
mod workload;

use layers::Effort;
use memsync_trace::Json;
use round::{RoundArgs, RoundResult};
use spans::Spans;
use stats::Summary;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Spec, WORKLOADS};

/// How much one run does besides its timed windows.
#[derive(Debug)]
struct Scale {
    /// Rounds per workload.
    rounds: u32,
    /// Untimed warm-up at the start of every round, at most a sixth of
    /// the round.
    warmup: Duration,
    /// Control frames after the window on non-churn workloads, per round.
    idle_swaps: usize,
    /// The layers phase of a traced run.
    effort: Effort,
}

/// A measuring run.
const FULL: Scale = Scale {
    rounds: 5,
    warmup: Duration::from_secs(1),
    idle_swaps: 20,
    effort: Effort {
        reps: 9,
        rep_time: Duration::from_millis(20),
        mutations: 100,
        builds: 5,
        sim_batches: 16,
    },
};

/// `--quick`: every code path once, for the self-test.
const QUICK: Scale = Scale {
    rounds: 1,
    warmup: Duration::from_millis(100),
    idle_swaps: 4,
    effort: Effort {
        reps: 3,
        rep_time: Duration::from_millis(2),
        mutations: 10,
        builds: 2,
        sim_batches: 2,
    },
};

const USAGE: &str = "usage: memsync-benchmark [--workload bulk|small|sim|churn] [--seed N] \
[--seconds S] [--trace 0|1] [--quick] [--out FILE] [--spans FILE]";

#[derive(Debug)]
struct Options {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<String>,
    spans: String,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 30.0,
        traced: false,
        quick: false,
        out: None,
        spans: "target/benchmark/spans.jsonl".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads =
                    vec![workload::find(v).ok_or_else(|| format!("unknown workload {v}"))?];
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value()?.clone()),
            "--spans" => o.spans = value()?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.quick {
        o.seconds = 0.5;
    }
    Ok(o)
}

/// `--child <workload> <round> <seed> <warmup_us> <window_us> <idle_swaps>
/// <traced> <spans>`: runs one round and prints its result as one JSON
/// line.
fn child(args: &[String]) -> ExitCode {
    let parsed = (|| -> Option<RoundArgs> {
        let [w, round, seed, warmup, window, idle, traced, spans] = args else {
            return None;
        };
        Some(RoundArgs {
            spec: workload::find(w)?,
            round: round.parse().ok()?,
            seed: seed.parse().ok()?,
            warmup: Duration::from_micros(warmup.parse().ok()?),
            window: Duration::from_micros(window.parse().ok()?),
            idle_swaps: idle.parse().ok()?,
            traced: traced == "1",
            spans_path: spans.clone(),
        })
    })();
    let Some(a) = parsed else {
        eprintln!("memsync-benchmark: malformed --child arguments {args:?}");
        return ExitCode::from(2);
    };
    match round::run(&a) {
        Ok(r) => {
            println!("{}", r.to_json().render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("memsync-benchmark: {} round {}: {e}", a.spec.name, a.round);
            ExitCode::FAILURE
        }
    }
}

/// Runs one round in a fresh child process and waits for it.
fn spawn_round(a: &RoundArgs) -> Result<RoundResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("--child")
        .args([
            a.spec.name.to_string(),
            a.round.to_string(),
            a.seed.to_string(),
            a.warmup.as_micros().to_string(),
            a.window.as_micros().to_string(),
            a.idle_swaps.to_string(),
            u8::from(a.traced).to_string(),
            a.spans_path.clone(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn round: {e}"))?;
    let what = format!("{} round {}", a.spec.name, a.round);
    if !out.status.success() {
        return Err(format!("{what}: child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(RoundResult::from_json)
        .ok_or_else(|| format!("{what}: unreadable result {line:?}"))
}

/// Every round of one workload.
#[derive(Debug, Default)]
struct Rounds {
    untraced: Vec<RoundResult>,
    traced: Vec<RoundResult>,
}

/// One reported metric of one workload.
#[derive(Debug)]
struct Row {
    workload: &'static str,
    name: String,
    unit: &'static str,
    summary: Summary,
    /// Per-layer (reported by traced runs) rather than end to end.
    layer: bool,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn collect<T>(rs: &[RoundResult], f: impl Fn(&RoundResult) -> T) -> Vec<T> {
    rs.iter().map(f).collect()
}

/// The end-to-end metrics, from untraced rounds. Submit latency is
/// bounded at p10: the host's interference comes and goes within a
/// round and only ever slows a submit, so on `sim` the submit times are
/// bimodal and their median flips between the modes from run to run,
/// while the fast mode repeats (README, "Host findings").
fn end_to_end(rs: &[RoundResult]) -> Vec<(&'static str, &'static str, Summary)> {
    vec![
        (
            "submit_p10_us",
            "us",
            Summary::per_round(&collect(rs, |r| r.submit_us.clone()), 10),
        ),
        (
            "swap_p50_ms",
            "ms",
            Summary::per_round(&collect(rs, |r| r.swap_ms.clone()), 50),
        ),
        (
            "setup_s",
            "s",
            Summary::of_rounds(&collect(rs, |r| r.setup_s)),
        ),
        (
            "peak_rss_mb",
            "MiB",
            Summary::of_rounds(&collect(rs, |r| r.peak_rss_mb)),
        ),
    ]
}

/// Per-layer metrics harvested from the rounds: the client's throughput,
/// median and tail latencies and counts from untraced rounds, stage
/// means and the residual from traced rounds.
fn round_layers(r: &Rounds) -> Vec<(String, &'static str, Summary)> {
    let u = &r.untraced;
    let submit = collect(u, |r| r.submit_us.clone());
    let mut rows = vec![
        (
            "client.pkts_per_s".to_string(),
            "pkt/s",
            Summary::of_rounds(&collect(u, |r| r.pkts_per_s)),
        ),
        (
            "client.submit_p50_us".into(),
            "us",
            Summary::per_round(&submit, 50),
        ),
        (
            "client.submit_p99_us".into(),
            "us",
            Summary::per_round(&submit, 99),
        ),
        (
            "client.swap_p90_ms".into(),
            "ms",
            Summary::per_round(&collect(u, |r| r.swap_ms.clone()), 90),
        ),
        (
            "client.connect_ms".to_string(),
            "ms",
            Summary::per_round(&collect(u, |r| r.connect_ms.clone()), 50),
        ),
        (
            "shard.batches".into(),
            "count",
            Summary::of_rounds(&collect(u, |r| r.batches)),
        ),
        (
            "shard.pkts_per_batch".into(),
            "pkt",
            Summary::of_rounds(&collect(u, |r| r.pkts_per_batch)),
        ),
        (
            "queue.highwater".into(),
            "count",
            Summary::of_rounds(&collect(u, |r| r.queue_highwater)),
        ),
        (
            "fib.swaps".into(),
            "count",
            Summary::of_rounds(&collect(u, |r| r.swaps)),
        ),
        (
            "control.late_p90_ms".into(),
            "ms",
            Summary::per_round(&collect(u, |r| r.late_ms.clone()), 90),
        ),
    ];
    let t = &r.traced;
    let stage_names: Vec<String> = t
        .first()
        .map(|r| r.stages.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    for name in stage_names {
        let means = collect(t, |r| {
            r.stages
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(f64::NAN, |(_, v)| *v)
        });
        rows.push((format!("stage.{name}"), "ns", Summary::of_rounds(&means)));
    }
    let residual = collect(t, |r| {
        mean(&r.submit_us) - r.stages.iter().map(|(_, v)| v).sum::<f64>() / 1e3
    });
    rows.push(("residual_us".into(), "us", Summary::of_rounds(&residual)));
    let overhead: Vec<f64> = u
        .iter()
        .zip(t)
        .map(|(u, t)| (1.0 - t.pkts_per_s / u.pkts_per_s) * 100.0)
        .collect();
    rows.push((
        "trace.overhead_pct".into(),
        "%",
        Summary::of_rounds(&overhead),
    ));
    rows
}

fn host() -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or("unknown")
        .trim();
    let rustc = Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj()
        .with("nproc", nproc.into())
        .with("kernel", read("/proc/sys/kernel/osrelease").trim().into())
        .with("rustc", Json::Str(rustc))
        .with("cpu", cpu.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        return child(&args[1..]);
    }
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("memsync-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&o) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("memsync-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every round of every workload, rotating the start workload.
/// Traced runs pair every traced round with an untraced one,
/// alternating which goes first; only the untraced one sends the
/// idle-server route frames, whose latency only it reports. A round's
/// share of `--seconds` covers its warm-up, its window and its
/// idle-server frames.
fn run_rounds(
    o: &Options,
    scale: &Scale,
    per_round: Duration,
    warmup: Duration,
) -> Result<Vec<Rounds>, String> {
    let n = o.workloads.len();
    let mut results: Vec<Rounds> = (0..n).map(|_| Rounds::default()).collect();
    for round in 0..scale.rounds {
        for k in 0..n {
            let w = (round as usize + k) % n;
            let modes: &[bool] = match (o.traced, round % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &traced in modes {
                let spec = o.workloads[w];
                let idle_swaps = if traced || spec.churn {
                    0
                } else {
                    scale.idle_swaps
                };
                let window = per_round
                    .checked_sub(warmup + round::CONTROL_PERIOD * idle_swaps as u32)
                    .filter(|w| !w.is_zero())
                    .ok_or_else(|| {
                        format!("--seconds {} leaves {} no window", o.seconds, spec.name)
                    })?;
                let r = spawn_round(&RoundArgs {
                    spec,
                    round,
                    seed: o.seed,
                    warmup,
                    window,
                    idle_swaps,
                    traced,
                    spans_path: o.spans.clone(),
                })?;
                let slot = &mut results[w];
                if traced {
                    slot.traced.push(r);
                } else {
                    slot.untraced.push(r);
                }
            }
        }
    }
    Ok(results)
}

/// Every metric row: the end-to-end ones and, in a traced run, the
/// layers phase (which also appends its spans) and the per-layer
/// numbers harvested from the rounds.
fn rows(o: &Options, scale: &Scale, results: &[Rounds]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let mut push = |workload, name, unit, summary, layer| {
        rows.push(Row {
            workload,
            name,
            unit,
            summary,
            layer,
        });
    };
    for (spec, r) in o.workloads.iter().zip(results) {
        for (name, unit, summary) in end_to_end(&r.untraced) {
            push(spec.name, name.to_string(), unit, summary, false);
        }
    }
    if !o.traced {
        return Ok(rows);
    }
    let mut spans = Spans::new(true, u64::MAX >> 8);
    for (spec, r) in o.workloads.iter().zip(results) {
        let root = spans.reserve();
        let start = Instant::now();
        let measured = layers::measure(spec, o.seed, scale.effort, &mut spans, root);
        let index = workload::index(spec);
        spans.record_as(root, "layers", 0, index, start, Instant::now());
        for (name, unit, summary) in measured {
            push(spec.name, name.to_string(), unit, summary, true);
        }
        for (name, unit, summary) in round_layers(r) {
            push(spec.name, name, unit, summary, true);
        }
    }
    spans
        .append_jsonl(&o.spans)
        .map_err(|e| format!("write {}: {e}", o.spans))?;
    Ok(rows)
}

/// Runs the benchmark and prints the report; `Ok(false)` when an oracle
/// or audit failed.
fn run(o: &Options) -> Result<bool, String> {
    let scale = if o.quick { &QUICK } else { &FULL };
    // A traced run splits the same seconds between its traced and
    // untraced rounds.
    let slots = scale.rounds * if o.traced { 2 } else { 1 };
    let per_round = Duration::from_secs_f64(o.seconds / f64::from(slots));
    let warmup = scale.warmup.min(per_round / 6);
    if o.traced {
        match std::fs::remove_file(&o.spans) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("clear {}: {e}", o.spans))
            }
            _ => {}
        }
    }
    let started = Instant::now();
    let results = run_rounds(o, scale, per_round, warmup)?;
    let rows = rows(o, scale, &results)?;

    let all: Vec<&RoundResult> = results
        .iter()
        .flat_map(|r| r.untraced.iter().chain(&r.traced))
        .collect();
    let violations: Vec<String> = all.iter().flat_map(|r| r.violations.clone()).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let correct = violations.is_empty();

    let host = host();
    println!("host {}", host.render());
    println!(
        "run: seed {} | {} round(s) x {:.3} s ({:.3} s warm-up) per workload \
         | tracing {} | {:.1} s wall",
        o.seed,
        slots,
        per_round.as_secs_f64(),
        warmup.as_secs_f64(),
        if o.traced { "on" } else { "off" },
        started.elapsed().as_secs_f64()
    );
    for r in &rows {
        let s = &r.summary;
        let flag = if s.supported {
            ""
        } else {
            " (fewer than 10 samples beyond)"
        };
        println!(
            "{}.{} {} {} q1={} q3={} n={}{flag}",
            r.workload, r.name, s.value, r.unit, s.q1, s.q3, s.n
        );
    }
    for v in &violations {
        println!("VIOLATION {v}");
    }

    if let Some(path) = &o.out {
        let metrics = rows
            .iter()
            .map(|r| {
                Json::obj()
                    .with("workload", r.workload.into())
                    .with("name", Json::Str(r.name.clone()))
                    .with("unit", r.unit.into())
                    .with("per_layer", r.layer.into())
                    .with("value", Json::Num(r.summary.value))
                    .with("q1", Json::Num(r.summary.q1))
                    .with("q3", Json::Num(r.summary.q3))
                    .with("n", r.summary.n.into())
                    .with("supported", r.summary.supported.into())
            })
            .collect();
        let doc = Json::obj()
            .with("host", host)
            .with("seed", o.seed.into())
            .with("rounds", u64::from(slots).into())
            .with("round_s", per_round.as_secs_f64().into())
            .with("warmup_s", warmup.as_secs_f64().into())
            .with("traced", o.traced.into())
            .with("correct", correct.into())
            .with("attempted", attempted.into())
            .with("failed", failed.into())
            .with(
                "violations",
                Json::Arr(violations.iter().map(|v| Json::Str(v.clone())).collect()),
            )
            .with("metrics", Json::Arr(metrics));
        std::fs::write(path, format!("{}\n", doc.pretty()))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    // The last line: the traced run's per-layer metrics or the untraced
    // run's end-to-end ones, keyed by bare name for a single workload.
    let metrics = rows
        .iter()
        .filter(|r| r.layer == o.traced)
        .fold(Json::obj(), |m, r| {
            let key = if o.workloads.len() == 1 {
                r.name.clone()
            } else {
                format!("{}.{}", r.workload, r.name)
            };
            m.with(
                &key,
                Json::obj()
                    .with("value", Json::Num(r.summary.value))
                    .with("unit", r.unit.into()),
            )
        });
    println!(
        "{}",
        Json::obj()
            .with("correct", correct.into())
            .with("attempted", attempted.into())
            .with("failed", failed.into())
            .with("metrics", metrics)
            .render()
    );
    Ok(correct)
}
