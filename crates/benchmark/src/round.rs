//! One measured round of one workload. Each round runs in a fresh child
//! process, so every round pays a real cold start and reports its own
//! peak memory.
//!
//! A round boots an in-process server (2 shards, the workload's backend,
//! every other [`ServeConfig`] field at its default), connects, times the
//! first verified submit, then drives the closed-loop data connections
//! through an untimed warm-up and the timed window. Route mutations run
//! on a fixed schedule: during the window for `churn`, after it (on an
//! idle server) for every other workload. Every reply is checked against
//! the oracle, and the round ends with the server-side audits.

use crate::spans::Spans;
use crate::workload::{self, check_batch, churn_routes, Plan, Spec, CHURN_ROUTES};
use memsync_netapp::fib::Route;
use memsync_serve::{
    Client, ClientError, Response, ServeConfig, Server, SubmitOptions, TracingConfig,
};
use memsync_trace::Json;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Control frames go out on this fixed schedule (800 route mutations/s
/// at 32 routes per frame).
pub const CONTROL_PERIOD: Duration = Duration::from_millis(40);

/// Socket deadline on every benchmark connection: a stuck server fails
/// the round instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What one round runs.
#[derive(Debug)]
pub struct RoundArgs {
    /// The workload.
    pub spec: &'static Spec,
    /// Round number (selects the input streams).
    pub round: u32,
    /// Input seed.
    pub seed: u64,
    /// Untimed warm-up before the window.
    pub warmup: Duration,
    /// Timed window.
    pub window: Duration,
    /// Control frames sent after the window on non-churn workloads.
    pub idle_swaps: usize,
    /// Server tracing and benchmark spans on.
    pub traced: bool,
    /// Where a traced round appends its spans.
    pub spans_path: String,
}

/// Everything a round measured, as the parent aggregates it.
#[derive(Debug, Default, PartialEq)]
pub struct RoundResult {
    /// `Server::start` wall time plus the first verified submit's round trip.
    pub setup_s: f64,
    /// `Client::connect` (TCP + Hello) per connection, ms.
    pub connect_ms: Vec<f64>,
    /// Packets served in the window per second.
    pub pkts_per_s: f64,
    /// Submits and control frames sent in the window.
    pub attempted: u64,
    /// Of those, the ones answered `Busy` or with an error.
    pub failed: u64,
    /// Round trip of every successful timed submit, µs.
    pub submit_us: Vec<f64>,
    /// Control frame latency from its due time to its reply, ms.
    pub swap_ms: Vec<f64>,
    /// How late each control frame went out, ms.
    pub late_ms: Vec<f64>,
    /// Peak resident memory of the round's process (`VmHWM`), MiB.
    pub peak_rss_mb: f64,
    /// Shard batch activations over the server's life.
    pub batches: f64,
    /// Packets per activation.
    pub pkts_per_batch: f64,
    /// Deepest shard queue seen, jobs.
    pub queue_highwater: f64,
    /// Route-table swaps published.
    pub swaps: f64,
    /// Mean of each traced server stage, ns, in pipeline order (traced
    /// rounds only).
    pub stages: Vec<(String, f64)>,
    /// Every violated correctness condition.
    pub violations: Vec<String>,
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|x| Json::Num(*x)).collect())
}

fn get_nums(j: &Json, key: &str) -> Option<Vec<f64>> {
    j.get(key)?.as_arr()?.iter().map(Json::as_f64).collect()
}

impl RoundResult {
    /// The result as one JSON object (the child's stdout line).
    pub fn to_json(&self) -> Json {
        let stages = self
            .stages
            .iter()
            .fold(Json::obj(), |o, (k, v)| o.with(k, Json::Num(*v)));
        let violations = self
            .violations
            .iter()
            .map(|v| Json::Str(v.clone()))
            .collect();
        Json::obj()
            .with("setup_s", self.setup_s.into())
            .with("connect_ms", nums(&self.connect_ms))
            .with("pkts_per_s", self.pkts_per_s.into())
            .with("attempted", self.attempted.into())
            .with("failed", self.failed.into())
            .with("submit_us", nums(&self.submit_us))
            .with("swap_ms", nums(&self.swap_ms))
            .with("late_ms", nums(&self.late_ms))
            .with("peak_rss_mb", self.peak_rss_mb.into())
            .with("batches", self.batches.into())
            .with("pkts_per_batch", self.pkts_per_batch.into())
            .with("queue_highwater", self.queue_highwater.into())
            .with("swaps", self.swaps.into())
            .with("stages", stages)
            .with("violations", Json::Arr(violations))
    }

    /// Parses [`RoundResult::to_json`] output.
    pub fn from_json(j: &Json) -> Option<RoundResult> {
        let f = |k: &str| j.get(k)?.as_f64();
        let stages = match j.get("stages")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(RoundResult {
            setup_s: f("setup_s")?,
            connect_ms: get_nums(j, "connect_ms")?,
            pkts_per_s: f("pkts_per_s")?,
            attempted: j.get("attempted")?.as_u64()?,
            failed: j.get("failed")?.as_u64()?,
            submit_us: get_nums(j, "submit_us")?,
            swap_ms: get_nums(j, "swap_ms")?,
            late_ms: get_nums(j, "late_ms")?,
            peak_rss_mb: f("peak_rss_mb")?,
            batches: f("batches")?,
            pkts_per_batch: f("pkts_per_batch")?,
            queue_highwater: f("queue_highwater")?,
            swaps: f("swaps")?,
            stages,
            violations: j
                .get("violations")?
                .as_arr()?
                .iter()
                .map(|v| v.as_str().map(str::to_owned))
                .collect::<Option<_>>()?,
        })
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One data connection's tally over the round.
struct DataTally {
    pkts: u64,
    attempted: u64,
    failed: u64,
    submit_us: Vec<f64>,
    last_end: Option<Instant>,
    violations: Vec<String>,
    spans: Spans,
}

/// Closed loop: submit, wait for the reply, check it, repeat until the
/// window closes. Submits that start inside `window` are timed. Traced
/// rounds (`root != 0`) tag each submit with its request id, so the
/// server's spans carry the same id as the benchmark's.
fn drive(
    client: &mut Client,
    plan: &Plan,
    spec: &Spec,
    window: &Range<Instant>,
    spans: Spans,
    root: u64,
    conn: usize,
) -> DataTally {
    let mut t = DataTally {
        pkts: 0,
        attempted: 0,
        failed: 0,
        submit_us: Vec::new(),
        last_end: None,
        violations: Vec::new(),
        spans,
    };
    for i in 0usize.. {
        let b = i % plan.batches.len();
        let batch = &plan.batches[b];
        let req = ((conn as u64) << 32) | i as u64;
        let mut options = SubmitOptions::new().verify(spec.verify);
        if root != 0 {
            options = options.span(req);
        }
        let start = Instant::now();
        if start >= window.end {
            break;
        }
        let reply = client.submit_once(batch, options);
        let end = Instant::now();
        let timed = start >= window.start;
        t.attempted += u64::from(timed);
        match reply {
            Ok(Response::Batch {
                forwarded,
                dropped,
                mismatches,
            }) => {
                if let Err(e) =
                    check_batch(plan.expect[b], batch.len(), forwarded, dropped, mismatches)
                {
                    t.violations
                        .push(format!("{} conn {conn} submit {i}: {e}", spec.name));
                    break;
                }
                if timed {
                    t.pkts += batch.len() as u64;
                    t.submit_us.push((end - start).as_secs_f64() * 1e6);
                    t.last_end = Some(end);
                    t.spans.record("submit", root, req, start, end);
                }
            }
            Ok(Response::Busy(_) | Response::Error(_)) => t.failed += u64::from(timed),
            Ok(other) => {
                t.violations.push(format!(
                    "{} conn {conn}: unexpected reply {other:?}",
                    spec.name
                ));
                break;
            }
            Err(e) => {
                t.violations.push(format!("{} conn {conn}: {e}", spec.name));
                break;
            }
        }
    }
    t
}

/// The control connection's tally.
#[derive(Default)]
struct ControlTally {
    attempted: u64,
    failed: u64,
    swap_ms: Vec<f64>,
    late_ms: Vec<f64>,
    violations: Vec<String>,
}

/// Sends `ops` control frames, alternately adding and withdrawing the
/// churn route set, the k-th due at `first_due + k * CONTROL_PERIOD`.
/// Frames due inside `timed` are timed from their due time, so a slow
/// swap also charges the frames queued behind it. `ops` is even, so the
/// table ends where it started.
fn control(
    client: &mut Client,
    routes: &[Route],
    first_due: Instant,
    ops: usize,
    timed: &Range<Instant>,
    spans: &mut Spans,
    root: u64,
) -> ControlTally {
    assert!(ops.is_multiple_of(2), "add/withdraw pairs");
    let prefixes: Vec<(u32, u8)> = routes.iter().map(|r| (r.prefix, r.len)).collect();
    let mut t = ControlTally::default();
    for k in 0..ops {
        let due = first_due + CONTROL_PERIOD * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let (name, reply) = if k % 2 == 0 {
            ("route_add", client.route_add(routes))
        } else {
            ("route_withdraw", client.route_withdraw(&prefixes))
        };
        let end = Instant::now();
        let is_timed = timed.contains(&due);
        t.attempted += u64::from(is_timed);
        match reply {
            Ok(u) if u.applied as usize == CHURN_ROUTES => {
                if is_timed {
                    t.swap_ms.push(ms(end - due));
                    t.late_ms.push(ms(sent - due));
                    spans.record(name, root, k as u64, sent, end);
                }
            }
            Ok(u) => {
                t.violations.push(format!(
                    "{name} {k} applied {} of {CHURN_ROUTES} routes",
                    u.applied
                ));
                break;
            }
            Err(ClientError::Server(_)) => t.failed += u64::from(is_timed),
            Err(e) => {
                t.violations.push(format!("{name} {k}: {e}"));
                break;
            }
        }
    }
    t
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs one round.
///
/// # Errors
///
/// Fails when the server cannot start or a connection cannot be opened;
/// correctness violations land in [`RoundResult::violations`] instead.
pub fn run(a: &RoundArgs) -> Result<RoundResult, String> {
    let spec = a.spec;
    let plans: Vec<Plan> = (0..spec.conns)
        .map(|c| {
            Plan::new(
                workload::rng(a.seed, workload::stream(spec, a.round, c)),
                spec.batch,
                spec.shard_affine.then_some(c),
            )
        })
        .collect();
    let routes = churn_routes(a.seed);
    // Disjoint span-id ranges: one per (workload, round, thread).
    let id_base = |thread: u64| {
        (((workload::index(spec) << 16) | (u64::from(a.round) << 4) | thread) + 1) << 32
    };
    let mut spans = Spans::new(a.traced, id_base(0));
    let root = spans.reserve();
    let round_start = Instant::now();
    let config = ServeConfig {
        shards: workload::SHARDS,
        backend: spec.backend,
        tracing: TracingConfig {
            enabled: a.traced,
            ..TracingConfig::default()
        },
        ..ServeConfig::default()
    };

    let boot_start = Instant::now();
    let server = Server::start("127.0.0.1:0", config).map_err(|e| format!("server start: {e}"))?;
    let boot = boot_start.elapsed();
    let mut result = RoundResult::default();
    let mut clients = Vec::new();
    for c in 0..spec.conns + usize::from(spec.churn) {
        let t = Instant::now();
        let client = Client::builder()
            .read_timeout(IO_TIMEOUT)
            .write_timeout(IO_TIMEOUT)
            .retries(0)
            .connect(server.local_addr())
            .map_err(|e| format!("connect: {e}"))?;
        let end = Instant::now();
        result.connect_ms.push(ms(end - t));
        spans.record("connect", root, c as u64, t, end);
        clients.push(client);
    }

    let first = &plans[0].batches[0];
    let t = Instant::now();
    let reply = clients[0].submit_once(first, SubmitOptions::new().verify(true));
    let first_rtt = t.elapsed();
    result.setup_s = (boot + first_rtt).as_secs_f64();
    match reply {
        Ok(Response::Batch {
            forwarded,
            dropped,
            mismatches,
        }) => {
            if let Err(e) = check_batch(
                plans[0].expect[0],
                first.len(),
                forwarded,
                dropped,
                mismatches,
            ) {
                result.violations.push(format!("first submit: {e}"));
            }
        }
        other => result
            .violations
            .push(format!("first submit answered {other:?}")),
    }
    let baseline = clients[0]
        .stats()
        .map_err(|e| format!("stats: {e}"))?
        .fib
        .map(|f| f.routes);

    let load_start = Instant::now();
    let window = load_start + a.warmup..load_start + a.warmup + a.window;
    let (data_clients, control_client) = clients.split_at_mut(spec.conns);
    let (tallies, churn_tally) = std::thread::scope(|s| {
        let data: Vec<_> = data_clients
            .iter_mut()
            .zip(&plans)
            .enumerate()
            .map(|(c, (client, plan))| {
                let window = window.clone();
                let log = Spans::new(a.traced, id_base(1 + c as u64));
                s.spawn(move || drive(client, plan, spec, &window, log, root, c))
            })
            .collect();
        let churn = control_client.first_mut().map(|client| {
            // Every frame due before the window closes, rounded up to
            // whole add/withdraw pairs.
            let due = (window.end - load_start).as_millis() / CONTROL_PERIOD.as_millis() + 1;
            let ops = (due + due % 2) as usize;
            let mut log = Spans::new(a.traced, id_base(15));
            let routes = &routes;
            let window = window.clone();
            s.spawn(move || {
                let t = control(client, routes, load_start, ops, &window, &mut log, root);
                (t, log)
            })
        });
        let tallies: Vec<DataTally> = data
            .into_iter()
            .map(|h| h.join().expect("data thread"))
            .collect();
        (tallies, churn.map(|h| h.join().expect("control thread")))
    });

    let mut last_end = window.start;
    let mut pkts = 0u64;
    for t in tallies {
        pkts += t.pkts;
        result.attempted += t.attempted;
        result.failed += t.failed;
        result.submit_us.extend(t.submit_us);
        result.violations.extend(t.violations);
        last_end = last_end.max(t.last_end.unwrap_or(window.start));
        spans.absorb(t.spans);
    }
    result.pkts_per_s = pkts as f64 / (last_end - window.start).as_secs_f64().max(1e-9);

    let ctl = match churn_tally {
        Some((t, log)) => {
            spans.absorb(log);
            t
        }
        None => {
            let now = Instant::now();
            let every = now..now + CONTROL_PERIOD * a.idle_swaps as u32;
            control(
                &mut clients[0],
                &routes,
                now,
                a.idle_swaps,
                &every,
                &mut spans,
                root,
            )
        }
    };
    result.attempted += ctl.attempted;
    result.failed += ctl.failed;
    result.swap_ms = ctl.swap_ms;
    result.late_ms = ctl.late_ms;
    result.violations.extend(ctl.violations);

    match clients[0].stats() {
        Ok(snap) => {
            audit(&snap, baseline, &mut result.violations);
            result.batches = snap.batches as f64;
            result.pkts_per_batch = snap.packets as f64 / (snap.batches.max(1)) as f64;
            result.queue_highwater = snap
                .per_shard
                .iter()
                .map(|s| s.queue_depth_highwater)
                .max()
                .unwrap_or(0) as f64;
            result.swaps = snap.fib.map_or(0, |f| f.swaps) as f64;
            result.stages = snap
                .stages
                .iter()
                .map(|s| (s.stage.clone(), s.mean))
                .collect();
        }
        Err(e) => result.violations.push(format!("final stats: {e}")),
    }
    result.peak_rss_mb = peak_rss_mb();
    drop(clients);
    server.stop();
    server.wait();
    spans.record_as(
        root,
        "round",
        0,
        u64::from(a.round),
        round_start,
        Instant::now(),
    );
    spans
        .append_jsonl(&a.spans_path)
        .map_err(|e| format!("write {}: {e}", a.spans_path))?;
    Ok(result)
}

/// The server-side audits every round ends with.
fn audit(
    snap: &memsync_serve::StatsSnapshot,
    baseline_routes: Option<u64>,
    violations: &mut Vec<String>,
) {
    if snap.lost_updates != 0 {
        violations.push(format!("{} lost updates", snap.lost_updates));
    }
    if snap.shard_restarts != 0 {
        violations.push(format!("{} shard restarts", snap.shard_restarts));
    }
    if snap.mismatches != 0 {
        violations.push(format!("{} verify mismatches", snap.mismatches));
    }
    match snap.fib {
        Some(fib) => {
            if Some(fib.routes) != baseline_routes {
                violations.push(format!(
                    "{} routes after the round, {baseline_routes:?} before",
                    fib.routes
                ));
            }
            if fib.retired + 1 != fib.generation {
                violations.push(format!(
                    "retired {} != generation {} - 1",
                    fib.retired, fib.generation
                ));
            }
        }
        None => violations.push("stats carry no fib section".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    #[test]
    fn result_round_trips_through_json() {
        let r = RoundResult {
            setup_s: 0.0123,
            connect_ms: vec![0.2, 49.9],
            pkts_per_s: 1.5e7,
            attempted: 10,
            failed: 1,
            submit_us: vec![31.5, 33.0],
            swap_ms: vec![14.0],
            late_ms: vec![0.06],
            peak_rss_mb: 120.5,
            batches: 40.0,
            pkts_per_batch: 4096.0,
            queue_highwater: 1.0,
            swaps: 4.0,
            stages: vec![("decode_ns".into(), 1234.5)],
            violations: vec!["x".into()],
        };
        let text = r.to_json().render();
        let back = RoundResult::from_json(&Json::parse(&text).expect("parses"));
        assert_eq!(back, Some(r));
    }

    /// The oracle end to end: a live server's reply passes against the
    /// expected count and fails against a deliberately wrong one.
    #[test]
    fn live_reply_fails_a_wrong_expected_count() {
        let spec = find("small").expect("workload");
        let plan = Plan::new(workload::rng(11, 0), spec.batch, None);
        let server = Server::start(
            "127.0.0.1:0",
            ServeConfig {
                shards: workload::SHARDS,
                backend: spec.backend,
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let reply = client
            .submit_once(&plan.batches[0], SubmitOptions::new().verify(true))
            .expect("submit");
        let Response::Batch {
            forwarded,
            dropped,
            mismatches,
        } = reply
        else {
            panic!("unexpected reply {reply:?}");
        };
        let n = plan.batches[0].len();
        assert!(check_batch(plan.expect[0], n, forwarded, dropped, mismatches).is_ok());
        assert!(check_batch(plan.expect[0] + 1, n, forwarded, dropped, mismatches).is_err());
        drop(client);
        server.stop();
        server.wait();
    }

    #[test]
    fn round_passes_its_audits() {
        let result = run(&RoundArgs {
            spec: find("churn").expect("workload"),
            round: 0,
            seed: 5,
            warmup: Duration::from_millis(50),
            window: Duration::from_millis(300),
            idle_swaps: 2,
            traced: false,
            spans_path: String::new(),
        })
        .expect("round runs");
        assert_eq!(result.violations, Vec::<String>::new());
        assert!(result.pkts_per_s > 0.0 && !result.submit_us.is_empty());
        assert!(!result.swap_ms.is_empty(), "churn swaps inside the window");
        assert!(result.peak_rss_mb > 0.0);
    }
}
