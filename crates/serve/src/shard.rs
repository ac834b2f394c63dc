//! Shard threads: each owns one forwarding backend and batches queued
//! packets through it.
//!
//! A shard activation pops as many jobs as fit under
//! [`crate::ServeConfig::batch_max`] packets and runs them through the
//! configured [`ForwardingBackend`] in one go — amortizing queue locking,
//! stats updates, and egress draining over up to K packets. The backend
//! contract guarantees lossless, in-order frames per descriptor: the
//! cycle-accurate [`crate::backend::SimBackend`] paces injection
//! internally (guarded locations have sampling semantics — an unpaced
//! burst would silently lose packets, see
//! `pipeline::tests::unpaced_injection_overwrites_and_loses_packets`),
//! the [`crate::backend::FastBackend`] is paced by construction, and
//! [`crate::backend::DifferentialBackend`] cross-checks both. Outcomes
//! are classified with the FIB oracle; in verify mode every egress frame
//! is additionally checked against the software pipeline model
//! ([`crate::pipeline::expected_frame`]).

use crate::backend::{self, ForwardingBackend};
use crate::pipeline::PipelineModel;
use crate::queue::{Job, JobOutcome, ShardQueue};
use crate::tables::EpochTables;
use crate::tracing::StageTimings;
use crate::ServeConfig;
use memsync_netapp::fib::{synthetic_table, Dir24_8, Route};
use memsync_netapp::{Fib, Ipv4Packet};
use memsync_trace::MetricsRegistry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The route-lookup state every shard shares: the binary-trie [`Fib`]
/// (the semantic reference) and the flat [`Dir24_8`] classifier compiled
/// from it (what the hot path probes — two dependent loads per address
/// instead of a trie walk).
///
/// The flat table costs ~32 MiB, so the server builds **one** generation
/// of it at a time — the boot table at startup, and a fresh one per
/// control-plane swap ([`crate::tables::EpochTables`]). Shards hold a
/// clone of the current generation's `Arc` and re-clone only when the
/// generation counter moves, so restarted incarnations and steady-state
/// batches alike never pay a rebuild.
#[derive(Debug)]
pub struct ShardTables {
    /// The trie the table was compiled from (oracle / verify reference).
    pub fib: Fib,
    /// The DIR-24-8 classifier serving hot-path lookups.
    pub dir: Dir24_8,
}

impl ShardTables {
    /// Builds the synthetic `routes`-entry table and compiles the flat
    /// classifier from it.
    pub fn build(routes: usize) -> ShardTables {
        let fib = synthetic_table(routes);
        let dir = Dir24_8::from_fib(&fib);
        ShardTables { fib, dir }
    }

    /// Builds a table pair from an explicit route list (the control
    /// worker compiles each published generation through this).
    pub fn from_routes(routes: &[Route]) -> ShardTables {
        let mut fib = Fib::new();
        for r in routes {
            fib.insert(*r);
        }
        let dir = Dir24_8::from_fib(&fib);
        ShardTables { fib, dir }
    }
}

/// Reusable per-activation scratch: the concatenated descriptor batch and
/// the per-job outcomes. Lives across activations so the steady-state
/// batch path performs no allocation.
#[derive(Debug, Default)]
struct BatchScratch {
    descriptors: Vec<u32>,
    outcomes: Vec<JobOutcome>,
}

/// Shared handles between a shard thread, the supervisor, and the stats
/// collector. The queue and flags survive a shard panic; the backend
/// does not (the replacement thread builds a fresh one).
#[derive(Debug)]
pub struct ShardCtx {
    /// Shard index (stable across restarts).
    pub id: usize,
    /// The shard's bounded job queue.
    pub queue: Arc<ShardQueue>,
    /// Serve-level metrics for this shard (merged into stats frames).
    pub stats: Arc<Mutex<MetricsRegistry>>,
    /// Service-wide stop flag (set by shutdown).
    pub stop: Arc<AtomicBool>,
    /// Fault injection: when set, the shard panics on its next
    /// activation (cleared by the replacement).
    pub die: Arc<AtomicBool>,
    /// False while the shard is mid-activation (drain waits on this).
    pub idle: Arc<AtomicBool>,
    /// The generation-swapped route tables shared across shards *and*
    /// restarts. The shard clones the current generation's `Arc` and
    /// re-clones only when the generation counter moves.
    pub tables: Arc<EpochTables>,
    /// Highest table generation this shard has synced to — the shard's
    /// acknowledgement in the control plane's drain barrier.
    pub gen_seen: Arc<AtomicU64>,
    /// Service configuration.
    pub config: ServeConfig,
}

/// Classifies a job's packets the way [`crate::pipeline::oracle_forwards`]
/// does, against the flat table: a packet forwards when its TTL survives
/// the decrement and its dst resolves. Returns `(forwarded, dropped)`.
/// `Dir24_8` agrees with the trie by the differential property test;
/// `classifier_agrees_with_the_oracle` below pins the two end to end.
fn classify(dir: &Dir24_8, packets: &[Ipv4Packet]) -> (u32, u32) {
    let forwarded = packets
        .iter()
        .filter(|p| p.ttl > 1 && dir.lookup(p.dst).is_some())
        .count() as u32;
    (forwarded, packets.len() as u32 - forwarded)
}

/// Processes one coalesced batch: execute, classify, verify, reply.
///
/// `picked_at` is the instant the activation popped its first job —
/// `Some` only when request tracing is on. Everything timing-related
/// hangs off it: `None` means not a single `Instant::now` call on this
/// path.
#[allow(clippy::too_many_arguments)]
fn process_batch(
    backend: &mut dyn ForwardingBackend,
    model: &PipelineModel,
    tables: &ShardTables,
    jobs: &mut Vec<Job>,
    scratch: &mut BatchScratch,
    shard_id: usize,
    stats: &Mutex<MetricsRegistry>,
    picked_at: Option<Instant>,
) {
    scratch.descriptors.clear();
    for j in jobs.iter() {
        scratch
            .descriptors
            .extend(j.packets.iter().map(Ipv4Packet::descriptor));
    }
    let n = scratch.descriptors.len();
    let before = backend.metrics();
    let lost_before = backend.lost_updates();
    let exec_start = picked_at.map(|_| Instant::now());
    backend.submit_batch(&scratch.descriptors);
    // Counters advance at submit time (the backend contract), so the
    // batch's deltas are read *before* the zero-copy drain borrows the
    // backend for the rest of the activation.
    let after = backend.metrics();
    let sim_cycles = after.sim_cycles - before.sim_cycles;
    // A conforming backend never overwrites an unconsumed guarded value;
    // a nonzero delta here is the lost-update bug the static pass
    // (`memsync-lint`) guards against, resurfacing at runtime.
    let lost_updates = backend.lost_updates() - lost_before;
    let egress_start = picked_at.map(|_| Instant::now());

    // Walk the concatenated batch job by job against the borrowed egress
    // lanes — the backend's own arena buffers, never copied out.
    scratch.outcomes.clear();
    let mut totals = JobOutcome::default();
    {
        let frames = backend.drain_egress();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(
                f.len(),
                n,
                "shard {shard_id}: egress e{i} returned {} frames for {n} descriptors",
                f.len()
            );
        }
        let mut offset = 0usize;
        for job in jobs.iter() {
            let (forwarded, dropped) = classify(&tables.dir, &job.packets);
            let mut out = JobOutcome {
                forwarded,
                dropped,
                ..JobOutcome::default()
            };
            if job.options.verify {
                for (k, p) in job.packets.iter().enumerate() {
                    let desc = p.descriptor();
                    let bad = frames
                        .iter()
                        .enumerate()
                        .any(|(i, f)| f[offset + k] != model.frame(desc, i));
                    if bad {
                        out.mismatches += 1;
                    }
                }
            }
            offset += job.packets.len();
            totals.forwarded += out.forwarded;
            totals.dropped += out.dropped;
            totals.mismatches += out.mismatches;
            scratch.outcomes.push(out);
        }
    }

    // Attach stage timings to every outcome. Queue residency is per job;
    // coalesce/execute/egress are activation-level durations attributed
    // whole to each job in the batch (documented on [`StageTimings`]), as
    // are the backend-reported sim-cycle and frame deltas.
    if let (Some(pick), Some(exec_s), Some(egress_s)) = (picked_at, exec_start, egress_start) {
        let coalesce_ns = exec_s.saturating_duration_since(pick).as_nanos() as u64;
        let execute_ns = egress_s.saturating_duration_since(exec_s).as_nanos() as u64;
        let egress_ns = egress_s.elapsed().as_nanos() as u64;
        let frames_emitted = after.frames - before.frames;
        for (job, out) in jobs.iter().zip(scratch.outcomes.iter_mut()) {
            out.timings = Some(StageTimings {
                shard: shard_id as u16,
                packets: job.packets.len() as u32,
                queue_ns: pick.saturating_duration_since(job.enqueued).as_nanos() as u64,
                coalesce_ns,
                execute_ns,
                egress_ns,
                sim_cycles,
                frames: frames_emitted,
            });
        }
    }

    // Record stats *before* replying: a client that queries stats right
    // after its submit response must already see this batch.
    {
        let mut reg = stats.lock().unwrap_or_else(PoisonError::into_inner);
        reg.add("serve.packets", n as u64);
        reg.add("serve.forwarded", u64::from(totals.forwarded));
        reg.add("serve.dropped", u64::from(totals.dropped));
        reg.add("serve.mismatches", u64::from(totals.mismatches));
        reg.add("serve.lost_updates", lost_updates);
        reg.add("serve.sim_cycles", sim_cycles);
        reg.inc("serve.batches");
        reg.record_bucket("serve.batch_size", n as u64);
        for job in jobs.iter() {
            reg.record_bucket(
                "serve.service_latency_us",
                job.enqueued.elapsed().as_micros() as u64,
            );
        }
        // Shard-side stage histograms feed the live tracing views; the
        // identical numbers ride the outcomes into span records, so the
        // offline JSONL and the stats frame agree bucket for bucket.
        for out in &scratch.outcomes {
            if let Some(t) = out.timings {
                reg.record_bucket("serve.stage.queue_ns", t.queue_ns);
                reg.record_bucket("serve.stage.coalesce_ns", t.coalesce_ns);
                reg.record_bucket("serve.stage.execute_ns", t.execute_ns);
                reg.record_bucket("serve.stage.egress_ns", t.egress_ns);
            }
        }
    }
    // Drain (not consume) both vectors so their capacity survives into
    // the next activation.
    for (job, out) in jobs.drain(..).zip(scratch.outcomes.drain(..)) {
        // A receiver that went away (connection dropped mid-flight) is
        // not the shard's problem. The send already woke the session, so
        // the drop need not wake it again.
        let _ = job.reply.send(out);
        job.reply.drop_quietly();
    }
}

/// The shard thread body: loops popping and processing batches until the
/// stop flag rises. Panics (deliberate via the kill flag, real bugs, or a
/// differential-backend divergence) unwind out of here into the
/// supervisor's restart path.
pub fn run(ctx: &ShardCtx) {
    let mut backend = backend::build(&ctx.config);
    let model = PipelineModel::new();
    let (mut generation, mut tables) = ctx.tables.current();
    // Acknowledge the generation this incarnation booted on: a shard
    // restarted mid-swap syncs here, so the control worker's drain
    // barrier never waits on a dead incarnation.
    ctx.gen_seen.store(generation, Ordering::Release);
    let mut jobs: Vec<Job> = Vec::new();
    let mut scratch = BatchScratch::default();
    while !ctx.stop.load(Ordering::Acquire) {
        // Table-swap check: one atomic load per iteration. When the
        // control worker publishes a new generation, re-clone the table
        // Arc and acknowledge — after the store this shard provably never
        // reads an older generation again, which is exactly what
        // retirement needs. No lock is taken unless the counter actually
        // moved.
        if ctx.tables.generation() != generation {
            let (fresh_gen, fresh) = ctx.tables.current();
            generation = fresh_gen;
            tables = fresh;
            ctx.gen_seen.store(generation, Ordering::Release);
        }
        // The busy pop clears the idle flag under the queue lock, so a
        // drain that sees the queue empty afterwards also sees the shard
        // busy — quiescent() can't fire mid-handoff. The control worker
        // nudges this condvar on publish ([`ShardQueue::notify`]), so a
        // parked shard acks a swap in microseconds, not a poll period.
        let Some(first) = ctx
            .queue
            .pop_timeout_busy(Duration::from_millis(20), &ctx.idle)
        else {
            continue;
        };
        let picked_at = ctx.config.tracing.enabled.then(Instant::now);
        if ctx.die.swap(false, Ordering::AcqRel) {
            // Put the job back? No — the kill emulates a crash mid-batch:
            // the job is dropped, its reply channel closes, and the
            // acceptor reports the submit as failed. Lossy only in the
            // sense a real crash is; never silent.
            panic!("shard {} killed by fault injection", ctx.id);
        }
        // Coalesce follow-on jobs up to the activation budget, into the
        // activation-scratch vec (drained by process_batch, capacity
        // kept).
        jobs.clear();
        jobs.push(first);
        let mut packets: usize = jobs[0].packets.len();
        while packets < ctx.config.batch_max {
            match ctx.queue.try_pop() {
                Some(j) => {
                    packets += j.packets.len();
                    jobs.push(j);
                }
                None => break,
            }
        }
        if let Some(throttle) = ctx.config.shard_throttle {
            std::thread::sleep(throttle);
        }
        process_batch(
            backend.as_mut(),
            &model,
            &tables,
            &mut jobs,
            &mut scratch,
            ctx.id,
            &ctx.stats,
            picked_at,
        );
        if ctx.queue.is_empty() {
            ctx.idle.store(true, Ordering::Release);
        }
    }
    ctx.idle.store(true, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::frame::SubmitOptions;
    use crate::queue::Reply;
    use memsync_netapp::Workload;
    use std::sync::mpsc::channel;
    use std::time::Instant;

    fn ctx(config: ServeConfig) -> ShardCtx {
        ShardCtx {
            id: 0,
            queue: Arc::new(ShardQueue::new(config.queue_cap)),
            stats: Arc::new(Mutex::new(MetricsRegistry::new())),
            stop: Arc::new(AtomicBool::new(false)),
            die: Arc::new(AtomicBool::new(false)),
            idle: Arc::new(AtomicBool::new(true)),
            tables: Arc::new(EpochTables::new(ShardTables::build(config.routes))),
            gen_seen: Arc::new(AtomicU64::new(0)),
            config,
        }
    }

    fn fast_config() -> ServeConfig {
        ServeConfig {
            egress: 2,
            routes: 16,
            backend: BackendKind::Fast,
            ..ServeConfig::default()
        }
    }

    /// One manual activation of a single job carrying `packets`, instead
    /// of the full thread loop; returns the job's outcome.
    fn activate(
        ctx: &ShardCtx,
        backend: &mut dyn ForwardingBackend,
        packets: &[Ipv4Packet],
        options: SubmitOptions,
        shard_id: usize,
        picked_at: Option<Instant>,
    ) -> JobOutcome {
        let (tx, rx) = channel();
        let (_, tables) = ctx.tables.current();
        process_batch(
            backend,
            &PipelineModel::new(),
            &tables,
            &mut vec![Job {
                packets: packets.to_vec(),
                options,
                reply: Reply::new(tx),
                enqueued: Instant::now(),
            }],
            &mut BatchScratch::default(),
            shard_id,
            &ctx.stats,
            picked_at,
        );
        rx.recv().expect("the activation answers its job")
    }

    #[test]
    fn shard_processes_a_batch_matching_the_oracle_on_every_backend() {
        for kind in [
            BackendKind::Sim,
            BackendKind::Fast,
            BackendKind::Differential,
        ] {
            let config = ServeConfig {
                backend: kind,
                ..fast_config()
            };
            let ctx = ctx(config.clone());
            let w = Workload::generate(77, 40, config.routes);
            let (fwd, drop) = w.reference_forward();
            let mut backend = backend::build(&ctx.config);
            let verify = SubmitOptions::new().verify(true);
            let out = activate(&ctx, backend.as_mut(), &w.packets, verify, 0, None);
            assert_eq!(out.timings, None, "{kind}: tracing off, no timings");
            assert_eq!(out.forwarded as usize, fwd, "{kind}");
            assert_eq!(out.dropped as usize, drop, "{kind}");
            assert_eq!(out.mismatches, 0, "{kind}: backend matches the model");
            let reg = ctx.stats.lock().unwrap();
            assert_eq!(reg.counter("serve.packets"), 40);
            assert_eq!(reg.counter("serve.batches"), 1);
            assert_eq!(
                reg.counter("serve.lost_updates"),
                0,
                "{kind}: a conforming backend never overwrites an unconsumed value"
            );
            let sizes = reg.bucket_histogram("serve.batch_size").unwrap();
            assert_eq!(
                (sizes.count(), sizes.min(), sizes.max()),
                (1, Some(40), Some(40))
            );
            if kind == BackendKind::Fast {
                assert_eq!(reg.counter("serve.sim_cycles"), 0, "no simulator ran");
            } else {
                assert!(reg.counter("serve.sim_cycles") > 0);
            }
            assert_eq!(
                reg.bucket_histogram("serve.service_latency_us")
                    .unwrap()
                    .count(),
                1
            );
        }
    }

    #[test]
    fn traced_batch_attaches_timings_and_stage_histograms() {
        let ctx = ctx(fast_config());
        let w = Workload::generate(9, 24, ctx.config.routes);
        let mut backend = backend::build(&ctx.config);
        let picked_at = Some(Instant::now());
        let out = activate(
            &ctx,
            backend.as_mut(),
            &w.packets,
            SubmitOptions::new(),
            3,
            picked_at,
        );
        let t = out.timings.expect("tracing on attaches timings");
        assert_eq!(t.shard, 3);
        assert_eq!(t.packets, 24);
        assert_eq!(t.frames, 24 * 2, "one frame per egress lane");
        assert_eq!(t.sim_cycles, 0, "fast backend reports no cycles");
        let reg = ctx.stats.lock().unwrap();
        for stage in [
            "serve.stage.queue_ns",
            "serve.stage.coalesce_ns",
            "serve.stage.execute_ns",
            "serve.stage.egress_ns",
        ] {
            let h = reg.bucket_histogram(stage).unwrap_or_else(|| {
                panic!("stage histogram {stage} missing");
            });
            assert_eq!(h.count(), 1, "{stage}: one sample per job");
        }
        // The histogram saw the same number the span will carry.
        assert_eq!(
            reg.bucket_histogram("serve.stage.execute_ns")
                .unwrap()
                .max(),
            Some(t.execute_ns)
        );
    }

    #[test]
    fn shard_stats_stay_bucketed_over_many_activations() {
        // A long-lived shard keeps O(1) stats: every histogram is a
        // bucketed one, however many activations it served.
        let ctx = ctx(fast_config());
        let w = Workload::generate(5, 8, ctx.config.routes);
        let mut backend = backend::build(&ctx.config);
        const N: u64 = 200;
        for _ in 0..N {
            activate(
                &ctx,
                backend.as_mut(),
                &w.packets,
                SubmitOptions::new(),
                0,
                None,
            );
        }
        let reg = ctx.stats.lock().unwrap();
        assert_eq!(
            reg.to_json().get("histograms"),
            Some(&memsync_trace::Json::obj()),
            "no raw-sample histogram"
        );
        let sizes = reg.bucket_histogram("serve.batch_size").unwrap();
        assert_eq!((sizes.count(), sizes.max()), (N, Some(8)));
        let latency = reg.bucket_histogram("serve.service_latency_us").unwrap();
        assert_eq!(latency.count(), N, "one job per activation");
    }

    #[test]
    fn classifier_agrees_with_the_oracle() {
        // The flat-table classifier must give the verdict oracle_forwards
        // gives against the trie, TTL-dead packets sharing a dst with
        // live ones included.
        let tables = ShardTables::build(64);
        let mut w = Workload::generate(31, 500, 64);
        w.packets[5].ttl = 1;
        w.packets[6].ttl = 0;
        let mut dead_dup = w.packets[0];
        dead_dup.ttl = 1;
        w.packets.push(dead_dup);
        for p in &w.packets {
            let forwards = crate::pipeline::oracle_forwards(p, &tables.fib);
            assert_eq!(
                classify(&tables.dir, std::slice::from_ref(p)),
                (u32::from(forwards), u32::from(!forwards)),
                "classifier diverged from the oracle for {p:?}"
            );
        }
        let want = w
            .packets
            .iter()
            .filter(|p| crate::pipeline::oracle_forwards(p, &tables.fib))
            .count() as u32;
        assert_eq!(
            classify(&tables.dir, &w.packets),
            (want, w.packets.len() as u32 - want)
        );
    }

    #[test]
    fn per_shard_counts_are_seed_deterministic() {
        // Same packets, two fresh shards: byte-identical counters.
        let config = ServeConfig {
            backend: BackendKind::Sim,
            ..fast_config()
        };
        let w = Workload::generate(123, 64, config.routes);
        let mut counts = Vec::new();
        for _ in 0..2 {
            let ctx = ctx(config.clone());
            let mut backend = backend::build(&ctx.config);
            let verify = SubmitOptions::new().verify(true);
            let out = activate(&ctx, backend.as_mut(), &w.packets, verify, 0, None);
            let reg = ctx.stats.lock().unwrap();
            counts.push((
                out,
                reg.counter("serve.forwarded"),
                reg.counter("serve.dropped"),
                reg.counter("serve.sim_cycles"),
            ));
        }
        assert_eq!(counts[0], counts[1]);
    }
}
