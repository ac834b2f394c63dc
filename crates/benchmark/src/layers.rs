//! The `layers` phase of a traced run: every layer of the serving path
//! timed in isolation, from outside, by calling its public functions on
//! the workload's own seeded packets. Each timed repetition is one span
//! named after its metric.

use crate::spans::Spans;
use crate::stats::Summary;
use crate::workload::{self, churn_routes, packets, Spec, ROUTES};
use memsync_core::{Compiler, OrganizationKind};
use memsync_netapp::forwarding::app_source;
use memsync_netapp::Ipv4Packet;
use memsync_serve::backend::{FastBackend, ForwardingBackend, SimBackend};
use memsync_serve::frame::{decode_submit_into, encode_submit_into, write_frame, FrameReader};
use memsync_serve::pipeline::PipelineModel;
use memsync_serve::queue::{JobOutcome, Reply, ShardQueue};
use memsync_serve::router::{Router, ShardSplitter};
use memsync_serve::shard::ShardTables;
use memsync_serve::tables::ControlOp;
use memsync_serve::{EpochTables, SubmitOptions};
use memsync_sim::System;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Egress consumers of the served forwarding application
/// (`ServeConfig::default().egress`).
const EGRESS: usize = 4;
/// Shards the benchmark's server runs.
const SHARDS: usize = 2;
/// Packets generated for the phase; every layer cycles through them.
const POOL: usize = 1 << 16;

/// How much work the phase does per layer.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Timed repetitions per layer (the median is reported).
    pub reps: usize,
    /// Target wall time of one repetition.
    pub rep_time: Duration,
    /// Table mutations timed for `tables.mutate_*`.
    pub mutations: usize,
    /// Whole-table builds and compiles timed.
    pub builds: usize,
    /// 512-packet batches run through the simulator.
    pub sim_batches: usize,
}

/// Times repetitions of a layer call and records one span per repetition.
struct Timer<'a> {
    spans: &'a mut Spans,
    parent: u64,
    effort: Effort,
}

impl Timer<'_> {
    /// Median nanoseconds per unit of work over `effort.reps`
    /// repetitions. `call(i)` does the i-th unit of input and returns how
    /// many units it did; one untimed call sizes the repetitions.
    fn per_unit(&mut self, name: &'static str, mut call: impl FnMut(usize) -> u64) -> Summary {
        let t = Instant::now();
        call(0);
        let est = t.elapsed().as_nanos().max(1);
        let calls = (self.effort.rep_time.as_nanos() / est).clamp(1, 1 << 20) as usize;
        let mut next = 1usize;
        let per: Vec<f64> = (0..self.effort.reps)
            .map(|rep| {
                let start = Instant::now();
                let mut units = 0u64;
                for _ in 0..calls {
                    units += call(next);
                    next += 1;
                }
                let end = Instant::now();
                self.spans.record(name, self.parent, rep as u64, start, end);
                (end - start).as_nanos() as f64 / units.max(1) as f64
            })
            .collect();
        Summary::of_rounds(&per)
    }

    /// Milliseconds of each of `n` calls, one span each.
    fn each_ms(&mut self, name: &'static str, n: usize, mut call: impl FnMut(usize)) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let start = Instant::now();
                call(i);
                let end = Instant::now();
                self.spans.record(name, self.parent, i as u64, start, end);
                (end - start).as_secs_f64() * 1e3
            })
            .collect()
    }
}

fn scale(s: Summary, by: f64) -> Summary {
    Summary {
        value: s.value * by,
        q1: s.q1 * by,
        q3: s.q3 * by,
        ..s
    }
}

fn descriptors(p: &[Ipv4Packet]) -> Vec<u32> {
    p.iter().map(Ipv4Packet::descriptor).collect()
}

/// Round trips of `payloads` (cycled) over a loopback TCP pair: the
/// client writes each frame with [`write_frame`], a peer thread reads it
/// with [`FrameReader::read`] and answers a one-byte frame.
fn frame_io(timer: &mut Timer<'_>, payloads: &[(Vec<u8>, u64)], name: &'static str) -> Summary {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|s| {
        s.spawn(move || {
            let (stream, _) = listener.accept().expect("accept loopback");
            stream.set_nodelay(true).expect("nodelay");
            let mut r = BufReader::new(stream.try_clone().expect("clone socket"));
            let mut w = BufWriter::new(stream);
            let mut frames = FrameReader::new();
            while let Ok(Some(p)) = frames.read(&mut r) {
                if write_frame(&mut w, &[p.len() as u8]).is_err() {
                    break;
                }
            }
        });
        let stream = TcpStream::connect(addr).expect("connect loopback");
        stream.set_nodelay(true).expect("nodelay");
        let mut r = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut w = BufWriter::new(stream);
        let mut frames = FrameReader::new();
        timer.per_unit(name, |i| {
            let (payload, units) = &payloads[i % payloads.len()];
            write_frame(&mut w, payload).expect("write frame");
            let ack = frames.read(&mut r).expect("read ack").expect("ack frame");
            black_box(ack);
            *units
        })
        // Dropping the client socket ends the peer's read loop.
    })
}

/// Runs every layer on `spec`'s inputs and returns `(metric, unit,
/// summary)` rows.
pub fn measure(
    spec: &Spec,
    seed: u64,
    effort: Effort,
    spans: &mut Spans,
    parent: u64,
) -> Vec<(&'static str, &'static str, Summary)> {
    let pool = packets(
        &mut workload::rng(seed, workload::stream(spec, u32::MAX, 0)),
        POOL,
    );
    let batches: Vec<&[Ipv4Packet]> = pool.chunks(spec.batch).collect();
    let options = SubmitOptions::new().verify(spec.verify);
    let mut t = Timer {
        spans,
        parent,
        effort,
    };
    let mut rows = Vec::new();

    let mut buf = Vec::new();
    rows.push((
        "frame.encode_ns_per_pkt",
        "ns",
        t.per_unit("frame.encode", |i| {
            let b = batches[i % batches.len()];
            encode_submit_into(b, options, &mut buf);
            black_box(&buf);
            b.len() as u64
        }),
    ));
    let encoded = |size: usize| -> Vec<(Vec<u8>, u64)> {
        pool.chunks(size)
            .map(|b| {
                let mut out = Vec::new();
                encode_submit_into(b, options, &mut out);
                (out, b.len() as u64)
            })
            .collect()
    };
    let payloads = encoded(spec.batch);
    let mut decoded = Vec::new();
    rows.push((
        "frame.decode_ns_per_pkt",
        "ns",
        t.per_unit("frame.decode", |i| {
            let (p, n) = &payloads[i % payloads.len()];
            decode_submit_into(p, &mut decoded).expect("own encoding decodes");
            black_box(&decoded);
            *n
        }),
    ));
    rows.push((
        "frame.io_ns_per_pkt",
        "ns",
        frame_io(&mut t, &encoded(8192), "frame.io_8192"),
    ));
    let per_req: Vec<(Vec<u8>, u64)> = encoded(64).into_iter().map(|(p, _)| (p, 1)).collect();
    rows.push((
        "frame.io_us_per_req",
        "us",
        scale(frame_io(&mut t, &per_req, "frame.io_64"), 1e-3),
    ));

    let mut splitter = ShardSplitter::new(SHARDS);
    rows.push((
        "router.split_ns_per_pkt",
        "ns",
        t.per_unit("router.split", |i| {
            let b = batches[i % batches.len()];
            splitter.split(b);
            black_box(splitter.groups().count());
            b.len() as u64
        }),
    ));
    let queues: Vec<Arc<ShardQueue>> = (0..SHARDS).map(|_| Arc::new(ShardQueue::new(64))).collect();
    let router = Router::new(queues.clone());
    let handoff = t.per_unit("router.handoff", |i| {
        let (tx, rx) = channel();
        let reply = Reply::new(tx);
        let jobs = router
            .submit(&mut splitter, batches[i % batches.len()], options, &reply)
            .expect("queues drain every call");
        drop(reply);
        for q in &queues {
            while let Some(job) = q.try_pop() {
                job.reply
                    .send(JobOutcome::default())
                    .expect("receiver alive");
            }
        }
        for _ in 0..jobs {
            black_box(rx.recv().expect("one outcome per job"));
        }
        1
    });
    rows.push(("router.handoff_us_per_req", "us", scale(handoff, 1e-3)));

    let builds = t.each_ms("fib.build", effort.builds, |_| {
        black_box(ShardTables::build(ROUTES));
    });
    rows.push(("fib.build_ms", "ms", Summary::of_rounds(&builds)));
    let tables = ShardTables::build(ROUTES);
    let dsts: Vec<Vec<u32>> = batches
        .iter()
        .map(|b| b.iter().map(|p| p.dst).collect())
        .collect();
    let mut hops = vec![None; spec.batch];
    rows.push((
        "fib.lookup_ns_per_pkt",
        "ns",
        t.per_unit("fib.lookup", |i| {
            let d = &dsts[i % dsts.len()];
            tables.dir.lookup_batch(d, &mut hops[..d.len()]);
            black_box(&hops);
            d.len() as u64
        }),
    ));
    drop(tables);

    let epoch = EpochTables::new(ShardTables::build(ROUTES));
    let routes = churn_routes(seed);
    let ops = [
        ControlOp::Add(routes.clone()),
        ControlOp::Withdraw(routes.iter().map(|r| (r.prefix, r.len)).collect()),
    ];
    let mutate = t.each_ms("tables.mutate", effort.mutations, |i| {
        black_box(epoch.mutate(std::iter::once(&ops[i % 2])));
    });
    drop(epoch);
    rows.push((
        "tables.mutate_ms_p50",
        "ms",
        Summary::per_round(std::slice::from_ref(&mutate), 50),
    ));
    rows.push((
        "tables.mutate_ms_p90",
        "ms",
        Summary::per_round(&[mutate], 90),
    ));

    let big: Vec<Vec<u32>> = pool.chunks(8192).map(descriptors).collect();
    let mut fast = FastBackend::new(EGRESS);
    rows.push((
        "backend.fast_ns_per_pkt",
        "ns",
        t.per_unit("backend.fast", |i| {
            let d = &big[i % big.len()];
            fast.submit_batch(d);
            let frames = fast.drain_egress();
            black_box(frames[EGRESS - 1][d.len() - 1]);
            d.len() as u64
        }),
    ));

    let model = PipelineModel::new();
    let expected: Vec<(Vec<u32>, Vec<Vec<u32>>)> = batches
        .iter()
        .take(64)
        .map(|b| {
            let d = descriptors(b);
            fast.submit_batch(&d);
            let frames = fast.drain_egress().to_vec();
            (d, frames)
        })
        .collect();
    let mut mismatches = 0u64;
    rows.push((
        "pipeline.verify_ns_per_pkt",
        "ns",
        t.per_unit("pipeline.verify", |i| {
            let (d, frames) = &expected[i % expected.len()];
            for (k, desc) in d.iter().enumerate() {
                let bad = frames
                    .iter()
                    .enumerate()
                    .any(|(e, f)| f[k] != model.frame(*desc, e));
                mismatches += u64::from(bad);
            }
            d.len() as u64
        }),
    ));
    assert_eq!(mismatches, 0, "fast backend frames disagree with the model");

    let compile_ms = t.each_ms("core.compile", effort.builds, |_| {
        black_box(compiled());
    });
    rows.push(("core.compile_ms", "ms", Summary::of_rounds(&compile_ms)));

    let sim_batches: Vec<Vec<u32>> = pool
        .chunks(512)
        .take(effort.sim_batches)
        .map(descriptors)
        .collect();
    let sim_pkts: u64 = sim_batches.iter().map(|b| b.len() as u64).sum();
    let mut sim = SimBackend::new(EGRESS, OrganizationKind::Arbitrated);
    let cycles_before = sim.metrics().sim_cycles;
    let sim_ns: Vec<f64> = t
        .each_ms("backend.sim", sim_batches.len(), |i| {
            sim.submit_batch(&sim_batches[i]);
            black_box(sim.drain_egress());
        })
        .iter()
        .zip(&sim_batches)
        .map(|(ms, b)| ms * 1e6 / b.len() as f64)
        .collect();
    assert_eq!(sim.lost_updates(), 0, "paced simulation lost an update");
    let cycles = sim.metrics().sim_cycles - cycles_before;
    rows.push(("backend.sim_ns_per_pkt", "ns", Summary::of_rounds(&sim_ns)));
    rows.push((
        "backend.sim_cycles_per_pkt",
        "cycles",
        Summary {
            value: cycles as f64 / sim_pkts as f64,
            q1: cycles as f64 / sim_pkts as f64,
            q3: cycles as f64 / sim_pkts as f64,
            n: sim_pkts as usize,
            supported: true,
        },
    ));

    let compiled = compiled();
    let mut sys = System::new(&compiled);
    let egress: Vec<_> = (0..EGRESS)
        .map(|e| sys.thread_id(&format!("e{e}")).expect("egress thread"))
        .collect();
    let step_ns: Vec<f64> = sim_batches
        .iter()
        .map(|b| {
            let values: Vec<i64> = b.iter().map(|&d| i64::from(d)).collect();
            let c0 = sys.cycle();
            let start = Instant::now();
            assert!(
                sys.submit_paced("rx", &egress, &values, 0, 2_000),
                "simulator stalled"
            );
            let end = Instant::now();
            t.spans.record("sim.step", parent, sys.cycle(), start, end);
            for &id in &egress {
                sys.drain_sent(id);
            }
            (end - start).as_nanos() as f64 / (sys.cycle() - c0).max(1) as f64
        })
        .collect();
    rows.push(("sim.step_ns", "ns", Summary::of_rounds(&step_ns)));
    rows
}

/// The forwarding application exactly as the sim backend compiles it.
fn compiled() -> memsync_core::CompiledSystem {
    let mut c = Compiler::new(app_source(EGRESS));
    c.organization(OrganizationKind::Arbitrated)
        .skip_validation();
    c.compile().expect("forwarding app compiles")
}
