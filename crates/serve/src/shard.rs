//! Shards without threads: each shard's forwarding engine runs on
//! whichever reactor thread finds it free.
//!
//! A [`Shard`] keeps its execution state (backend, pipeline model, cached
//! table generation, batch scratch) in one engine behind a mutex. Once a
//! reactor thread has enqueued the jobs of every request it read, it
//! calls [`Shard::step`]: if jobs are queued and the engine is free, the
//! reactor runs one activation itself, and otherwise leaves the jobs to
//! the holder. This is flat combining (Hendler et al., SPAA 2010):
//! whoever finds the shard free serves every queued request, as one
//! arbiter serves all of a memory's requesters, with no handoff to a
//! server thread. Whoever lets go of the engine re-checks the queue, so
//! a job whose submitter lost the `try_lock` is never stranded: a reactor
//! owes the shard another step after each activation, and the drain
//! barrier ([`Shard::adopt`]) and the quiescence probe wake the front
//! job's reactor instead, so only reactors run activations. The engine
//! lock is the shard's only busy flag: jobs are popped only under it.
//!
//! An activation pops as many jobs as fit under
//! [`crate::ServeConfig::batch_max`] packets and runs them through the
//! configured [`ForwardingBackend`] in one go — amortizing queue locking,
//! stats updates, and egress draining over up to K packets. The backend
//! contract guarantees lossless, in-order frames per descriptor: the
//! cycle-accurate [`crate::backend::SimBackend`] paces injection
//! internally (guarded locations have sampling semantics — an unpaced
//! burst would silently lose packets, see
//! `pipeline::tests::unpaced_injection_overwrites_and_loses_packets`),
//! and the [`crate::backend::FastBackend`] is paced by construction.
//! Outcomes are classified with the FIB oracle; in verify mode every
//! egress frame is additionally checked against the software pipeline
//! model ([`crate::pipeline::expected_frame`]), the server's one runtime
//! check of a backend.
//!
//! Everything that must outlive a crash is the [`Shard`] record: queue,
//! stats (the typed `ShardStats` each activation records into, in
//! [`crate::stats`]), kill flag, restart carryover. Each activation runs under
//! `catch_unwind`; a panic (the kill frame, a stalled simulator tripping
//! its cycle budget) drops only the batch in flight, whose reply
//! channels close, and the engine with it.
//! The next job builds a fresh engine; queued jobs survive and the stats
//! keep counting. The restart is counted in `shard_restarts`, and the
//! packet total at that moment is latched as `restart_carryover`.

use crate::backend::{self, ForwardingBackend};
use crate::pipeline::PipelineModel;
use crate::queue::{unpoison, Job, JobOutcome, ShardQueue};
use crate::stats::ShardStats;
use crate::tables::EpochTables;
use crate::ServeConfig;
use memsync_netapp::fib::{synthetic_table, Dir24_8, Route};
use memsync_netapp::{Fib, Ipv4Packet};
use memsync_trace::SpanRecord;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

/// The route-lookup state every shard shares: the binary-trie [`Fib`]
/// (the semantic reference) and the flat [`Dir24_8`] classifier compiled
/// from it (what the hot path probes — two dependent loads per address
/// instead of a trie walk).
///
/// The flat table costs ~32 MiB, so the server keeps **one** live
/// generation of it — the boot table at startup, then a fresh one per
/// control-plane swap ([`crate::tables::EpochTables`]) — and a replaced
/// generation is freed once the drain barrier retires it, so two are
/// resident only during a swap. Shard engines hold a clone of the live
/// generation's `Arc` and re-clone only when the generation counter
/// moves, so rebuilt engines and steady-state batches alike never pay a
/// table rebuild.
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

    /// Builds a table pair from an explicit route list.
    pub fn from_routes(routes: &[Route]) -> ShardTables {
        let mut fib = Fib::new();
        for r in routes {
            fib.insert(*r);
        }
        let dir = Dir24_8::from_fib(&fib);
        ShardTables { fib, dir }
    }
}

/// A shard's execution state, held by the reactor running an activation
/// (or the drain barrier, or a quiescence probe). Its scratch lives across
/// activations, so the steady-state batch path performs no allocation.
#[derive(Debug)]
struct Engine {
    backend: Box<dyn ForwardingBackend>,
    model: PipelineModel,
    /// The generation `tables` was published as.
    generation: u64,
    tables: Arc<ShardTables>,
    /// The activation's coalesced jobs, their concatenated descriptors
    /// and their outcomes (drained, capacity kept).
    jobs: Vec<Job>,
    descriptors: Vec<u32>,
    outcomes: Vec<JobOutcome>,
}

impl Engine {
    fn new(config: &ServeConfig, epoch: &EpochTables) -> Engine {
        let (generation, tables) = epoch.current();
        Engine {
            backend: backend::build(config),
            model: PipelineModel::new(),
            generation,
            tables,
            jobs: Vec::new(),
            descriptors: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Moves onto the published table if the generation moved, dropping
    /// the reference to the older one: one atomic load when it did not.
    fn sync(&mut self, epoch: &EpochTables) {
        if epoch.generation() != self.generation {
            (self.generation, self.tables) = epoch.current();
        }
    }

    /// Processes the coalesced `jobs`: execute, classify, verify, reply.
    ///
    /// `picked_at` is the instant the activation popped its first job —
    /// `Some` only when request tracing is on. Everything timing-related
    /// hangs off it: `None` means not a single `Instant::now` call on this
    /// path.
    fn process_batch(&mut self, shard: &Shard, picked_at: Option<Instant>) {
        self.descriptors.clear();
        for j in &self.jobs {
            self.descriptors
                .extend(j.packets.iter().map(Ipv4Packet::descriptor));
        }
        let n = self.descriptors.len();
        let before = self.backend.metrics();
        let lost_before = self.backend.lost_updates();
        let exec_start = picked_at.map(|_| Instant::now());
        self.backend.submit_batch(&self.descriptors);
        // Counters advance at submit time (the backend contract), so the
        // batch's deltas are read *before* the zero-copy drain borrows the
        // backend for the rest of the activation.
        let after = self.backend.metrics();
        let sim_cycles = after.sim_cycles - before.sim_cycles;
        // A conforming backend never overwrites an unconsumed guarded value;
        // a nonzero delta here is the lost-update bug the static pass
        // (`memsync-lint`) guards against, resurfacing at runtime.
        let lost_updates = self.backend.lost_updates() - lost_before;
        let egress_start = picked_at.map(|_| Instant::now());

        // Walk the concatenated batch job by job against the borrowed egress
        // lanes — the backend's own arena buffers, never copied out.
        self.outcomes.clear();
        {
            let frames = self.backend.drain_egress();
            for (i, f) in frames.iter().enumerate() {
                assert_eq!(
                    f.len(),
                    n,
                    "shard {}: egress e{i} returned {} frames for {n} descriptors",
                    shard.id,
                    f.len()
                );
            }
            let mut offset = 0usize;
            for job in self.jobs.iter() {
                let (forwarded, dropped) = classify(&self.tables.dir, &job.packets);
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
                            .any(|(i, f)| f[offset + k] != self.model.frame(desc, i));
                        if bad {
                            out.mismatches += 1;
                        }
                    }
                }
                offset += job.packets.len();
                self.outcomes.push(out);
            }
        }

        // Attach a span record to every outcome. Queue residency is per job;
        // coalesce/execute/egress are activation-level durations attributed
        // whole to each job in the batch (documented on `SpanRecord`), as are
        // the backend-reported sim-cycle and frame deltas.
        if let (Some(pick), Some(exec_s), Some(egress_s)) = (picked_at, exec_start, egress_start) {
            let coalesce_ns = exec_s.saturating_duration_since(pick).as_nanos() as u64;
            let execute_ns = egress_s.saturating_duration_since(exec_s).as_nanos() as u64;
            let egress_ns = egress_s.elapsed().as_nanos() as u64;
            let frames_emitted = after.frames - before.frames;
            for (job, out) in self.jobs.iter().zip(self.outcomes.iter_mut()) {
                out.timings = Some(SpanRecord {
                    shard: shard.id as u16,
                    packets: job.packets.len() as u64,
                    queue_ns: pick.saturating_duration_since(job.enqueued).as_nanos() as u64,
                    coalesce_ns,
                    execute_ns,
                    egress_ns,
                    sim_cycles,
                    frames: frames_emitted,
                    ..SpanRecord::default()
                });
            }
        }

        // Record stats *before* replying: a client that queries stats right
        // after its submit response must already see this batch. A traced
        // job's stages are recorded from its span record, so the offline
        // JSONL and the stats frame agree bucket for bucket.
        {
            let mut stats = unpoison(shard.stats.lock());
            stats.record_batch(n as u64, lost_updates, sim_cycles);
            for (job, out) in self.jobs.iter().zip(&self.outcomes) {
                stats.record_job(out, job.enqueued.elapsed().as_micros() as u64);
            }
        }
        // Drain (not consume) both vectors so their capacity survives into
        // the next activation.
        for (job, out) in self.jobs.drain(..).zip(self.outcomes.drain(..)) {
            // A receiver that went away (connection dropped mid-flight) is
            // not the shard's problem. The send already woke the session, so
            // the drop need not wake it again.
            let _ = job.reply.send(out);
            job.reply.drop_quietly();
        }
    }
}

/// One shard: the state that outlives a panicked activation, shared with
/// the router (the queue), the stats collector, the sessions (kill and
/// drain), the reactors that run its activations and the control
/// worker's drain barrier, plus the engine.
#[derive(Debug)]
pub struct Shard {
    /// Shard index.
    pub id: usize,
    /// The shard's bounded job queue.
    pub queue: Arc<ShardQueue>,
    /// This shard's live stats (summed into stats frames).
    pub(crate) stats: Mutex<ShardStats>,
    /// Fault injection: when set, the shard panics on its next
    /// activation (cleared on restart).
    pub die: AtomicBool,
    /// Packet total latched at the shard's most recent restart (0 while
    /// it never restarted). The stats keep counting across restarts, so a
    /// nonzero value proves pre-restart traffic still counts in the stats
    /// frame.
    pub carryover: AtomicU64,
    /// Times an activation panicked and the engine was rebuilt.
    pub restarts: AtomicU64,
    /// `None` until the first job, and after a panic until the next. Lock
    /// order: this, then the queue, the published table slot, the stats.
    engine: Mutex<Option<Engine>>,
}

impl Shard {
    /// A new shard with an empty queue of `queue_cap` jobs. Its first
    /// job builds its engine.
    pub fn new(id: usize, queue_cap: usize) -> Shard {
        Shard {
            id,
            queue: Arc::new(ShardQueue::new(queue_cap)),
            stats: Mutex::default(),
            die: AtomicBool::new(false),
            carryover: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            engine: Mutex::new(None),
        }
    }

    /// Whether nothing is queued and nothing is in flight — the drain
    /// completion condition: the queue is empty under the engine lock. A
    /// probe that takes the lock lets go without stepping, so it hands a
    /// job queued meanwhile to its owner.
    pub fn quiescent(&self) -> bool {
        let quiet = match self.engine.try_lock() {
            Err(TryLockError::WouldBlock) => return false,
            Ok(_) | Err(TryLockError::Poisoned(_)) => self.queue.is_empty(),
        };
        self.queue.wake_front();
        quiet
    }

    /// Runs one activation on the calling thread if a job is queued and
    /// no other thread holds the engine. Returns whether it ran one; if
    /// so the caller owes the shard another step (a submitter whose
    /// `try_lock` lost meanwhile left its job queued). A caller that
    /// loses the `try_lock` owes nothing: the holder does.
    pub fn step(&self, epoch: &EpochTables, config: &ServeConfig) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let mut engine = match self.engine.try_lock() {
            Ok(engine) => engine,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        self.activate(&mut engine, epoch, config);
        true
    }

    /// The drain barrier's part for this shard: waits out an activation
    /// in progress, moves the engine onto the published table, and hands
    /// what queued meanwhile to its owner. It never runs an activation.
    pub fn adopt(&self, epoch: &EpochTables) {
        if let Some(engine) = unpoison(self.engine.lock()).as_mut() {
            engine.sync(epoch);
        }
        self.queue.wake_front();
    }

    /// One activation under `catch_unwind`. A panic drops the engine and
    /// its popped jobs, clears the kill flag, latches the carryover and
    /// counts the restart.
    fn activate(&self, slot: &mut Option<Engine>, epoch: &EpochTables, config: &ServeConfig) {
        // The engine's guard stays outside the unwind, so its lock is not
        // poisoned; the record's other locks recover from poisoning and
        // everything else is atomic.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            self.run_batch(slot, epoch, config);
        }));
        if ran.is_err() {
            *slot = None;
            eprintln!("[shard {}] died; restarting", self.id);
            let total = unpoison(self.stats.lock()).packets;
            self.carryover.store(total, Ordering::Relaxed);
            self.die.store(false, Ordering::Release);
            // Release: whoever reads the new count also sees the carryover.
            self.restarts.fetch_add(1, Ordering::Release);
        }
    }

    /// Pops a batch of up to `batch_max` packets and processes it.
    fn run_batch(&self, slot: &mut Option<Engine>, epoch: &EpochTables, config: &ServeConfig) {
        let Some(first) = self.queue.try_pop() else {
            return;
        };
        let picked_at = config.tracing.enabled.then(Instant::now);
        if self.die.swap(false, Ordering::AcqRel) {
            // The kill emulates a crash mid-batch: the job is dropped, its
            // reply channel closes, and the session reports the submit as
            // failed. Lossy only in the sense a real crash is; never
            // silent.
            panic!("shard {} killed by fault injection", self.id);
        }
        let engine = slot.get_or_insert_with(|| Engine::new(config, epoch));
        // Table-swap check: one atomic load per activation.
        engine.sync(epoch);
        // Coalesce follow-on jobs up to the activation budget.
        let mut packets = first.packets.len();
        engine.jobs.push(first);
        while packets < config.batch_max {
            match self.queue.try_pop() {
                Some(j) => {
                    packets += j.packets.len();
                    engine.jobs.push(j);
                }
                None => break,
            }
        }
        if let Some(throttle) = config.shard_throttle {
            std::thread::sleep(throttle);
        }
        engine.process_batch(self, picked_at);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::frame::SubmitOptions;
    use crate::queue::Reply;
    use memsync_netapp::Workload;
    use std::sync::mpsc::{channel, Receiver, TryRecvError};
    use std::time::{Duration, Instant};

    impl Shard {
        /// Whether another thread holds the engine (for tests that must
        /// act while it does).
        pub(crate) fn engine_busy(&self) -> bool {
            matches!(self.engine.try_lock(), Err(TryLockError::WouldBlock))
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

    /// A job carrying `packets`, and the receiver its outcome arrives on.
    fn job(packets: &[Ipv4Packet], options: SubmitOptions) -> (Job, Receiver<JobOutcome>) {
        let (tx, rx) = channel();
        let job = Job {
            packets: packets.to_vec(),
            options,
            reply: Reply::new(tx),
            enqueued: Instant::now(),
        };
        (job, rx)
    }

    /// A shard record with its engine, driven one manual activation at a
    /// time.
    struct Rig {
        shard: Shard,
        engine: Engine,
    }

    impl Rig {
        fn new(id: usize, config: &ServeConfig) -> Rig {
            let epoch = EpochTables::new(ShardTables::build(config.routes));
            Rig {
                shard: Shard::new(id, config.queue_cap),
                engine: Engine::new(config, &epoch),
            }
        }

        /// One activation of a single job carrying `packets`; returns
        /// the job's outcome.
        fn activate(
            &mut self,
            packets: &[Ipv4Packet],
            options: SubmitOptions,
            picked_at: Option<Instant>,
        ) -> JobOutcome {
            let (job, rx) = job(packets, options);
            self.engine.jobs.push(job);
            self.engine.process_batch(&self.shard, picked_at);
            rx.recv().expect("the activation answers its job")
        }

        fn stats(&self) -> std::sync::MutexGuard<'_, ShardStats> {
            self.shard.stats.lock().unwrap()
        }
    }

    #[test]
    fn shard_processes_a_batch_matching_the_oracle_on_every_backend() {
        for kind in [BackendKind::Sim, BackendKind::Fast] {
            let config = ServeConfig {
                backend: kind,
                ..fast_config()
            };
            let mut rig = Rig::new(0, &config);
            let w = Workload::generate(77, 40, config.routes);
            let (fwd, drop) = w.reference_forward();
            let out = rig.activate(&w.packets, SubmitOptions::new().verify(true), None);
            assert_eq!(out.timings, None, "{kind}: tracing off, no timings");
            assert_eq!(out.forwarded as usize, fwd, "{kind}");
            assert_eq!(out.dropped as usize, drop, "{kind}");
            assert_eq!(out.mismatches, 0, "{kind}: backend matches the model");
            let stats = rig.stats();
            assert_eq!(stats.packets, 40);
            assert_eq!(stats.batches, 1);
            assert_eq!(
                stats.lost_updates, 0,
                "{kind}: a conforming backend never overwrites an unconsumed value"
            );
            let sizes = &stats.batch_size;
            assert_eq!(
                (sizes.count(), sizes.min(), sizes.max()),
                (1, Some(40), Some(40))
            );
            if kind == BackendKind::Fast {
                assert_eq!(stats.sim_cycles, 0, "no simulator ran");
            } else {
                assert!(stats.sim_cycles > 0);
            }
            assert_eq!(stats.service_latency_us.count(), 1);
        }
    }

    #[test]
    fn traced_batch_attaches_timings_and_stage_histograms() {
        let mut rig = Rig::new(3, &fast_config());
        let w = Workload::generate(9, 24, 16);
        let out = rig.activate(&w.packets, SubmitOptions::new(), Some(Instant::now()));
        let t = out.timings.expect("tracing on attaches timings");
        assert_eq!(t.shard, 3);
        assert_eq!(t.packets, 24);
        assert_eq!(t.frames, 24 * 2, "one frame per egress lane");
        assert_eq!(t.sim_cycles, 0, "fast backend reports no cycles");
        let stages = rig.stats().stages.section();
        let counts: Vec<_> = stages.iter().map(|s| (s.stage.as_str(), s.count)).collect();
        assert_eq!(
            counts,
            [
                ("queue_ns", 1),
                ("coalesce_ns", 1),
                ("execute_ns", 1),
                ("egress_ns", 1)
            ],
            "one sample of each shard stage per job"
        );
        // The histogram saw the same number the span will carry.
        assert_eq!(stages[2].max, t.execute_ns);
    }

    #[test]
    fn shard_stats_stay_bucketed_over_many_activations() {
        // A long-lived shard keeps O(1) stats: every histogram is a
        // bucketed one, however many activations it served.
        let mut rig = Rig::new(0, &fast_config());
        let w = Workload::generate(5, 8, 16);
        const N: u64 = 200;
        for _ in 0..N {
            rig.activate(&w.packets, SubmitOptions::new(), None);
        }
        let stats = rig.stats();
        let sizes = &stats.batch_size;
        assert_eq!((sizes.count(), sizes.max()), (N, Some(8)));
        assert_eq!(
            stats.service_latency_us.count(),
            N,
            "one job per activation"
        );
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
            let mut rig = Rig::new(0, &config);
            let out = rig.activate(&w.packets, SubmitOptions::new().verify(true), None);
            let stats = rig.stats();
            counts.push((out, stats.forwarded, stats.dropped, stats.sim_cycles));
        }
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn a_killed_shard_restarts_in_place_and_serves_the_jobs_queued_behind_it() {
        let config = fast_config();
        let epoch = EpochTables::new(ShardTables::build(config.routes));
        let shard = Shard::new(0, config.queue_cap);
        let w = Workload::generate(6, 32, 16);
        let queue = |packets: &[Ipv4Packet]| {
            let (job, rx) = job(packets, SubmitOptions::new());
            shard.queue.try_push(job).expect("the queue has room");
            rx
        };
        let first = queue(&w.packets);
        while shard.step(&epoch, &config) {}
        first
            .try_recv()
            .expect("the stepping caller answers inline");

        // The kill lands on the next job popped: A dies with the engine,
        // while B and C wait in the queue for the rebuilt one. Stepping
        // until nothing is owed serves them all.
        shard.die.store(true, Ordering::Release);
        let a = queue(&w.packets[..8]);
        let b = queue(&w.packets[8..16]);
        let c = queue(&w.packets[16..]);
        while shard.step(&epoch, &config) {}
        assert_eq!(
            a.try_recv(),
            Err(TryRecvError::Disconnected),
            "the killed activation drops its job"
        );
        let b = b.try_recv().expect("B survives the crash");
        let c = c.try_recv().expect("C survives the crash");
        assert_eq!((b.forwarded + b.dropped, c.forwarded + c.dropped), (8, 16));
        assert_eq!(shard.restarts.load(Ordering::Relaxed), 1);
        assert_eq!(
            shard.carryover.load(Ordering::Relaxed),
            w.packets.len() as u64,
            "the carryover latches the packets served before the kill"
        );
        assert!(
            !shard.die.load(Ordering::Acquire),
            "the restart clears the kill"
        );
        assert!(shard.quiescent(), "nothing queued, nothing in flight");
    }

    #[test]
    fn a_job_pushed_during_a_throttled_activation_is_answered_by_the_holder() {
        let config = ServeConfig {
            shard_throttle: Some(Duration::from_millis(200)),
            ..fast_config()
        };
        let epoch = EpochTables::new(ShardTables::build(config.routes));
        let shard = Shard::new(0, config.queue_cap);
        let w = Workload::generate(7, 32, 16);
        let (a, a_rx) = job(&w.packets[..16], SubmitOptions::new());
        let (b, b_rx) = job(&w.packets[16..], SubmitOptions::new());
        shard.queue.try_push(a).expect("the queue has room");
        std::thread::scope(|s| {
            let holder = s.spawn(|| while shard.step(&epoch, &config) {});
            // A is popped (only the engine's holder pops): the holder
            // sleeps in A's activation with the engine locked.
            while !shard.queue.is_empty() || !shard.engine_busy() {
                assert!(!holder.is_finished(), "A's activation ended unobserved");
                std::thread::sleep(Duration::from_millis(1));
            }
            shard.queue.try_push(b).expect("the queue has room");
            assert!(
                !shard.step(&epoch, &config),
                "the lost try_lock leaves B to the holder"
            );
            assert_eq!(b_rx.try_recv(), Err(TryRecvError::Empty));
            holder.join().expect("the holder returns");
        });
        // No further push or call: the holder's re-check after letting go
        // of A's activation found B.
        assert_eq!(a_rx.try_recv().map(|o| o.forwarded + o.dropped), Ok(16));
        assert_eq!(b_rx.try_recv().map(|o| o.forwarded + o.dropped), Ok(16));
        assert!(shard.quiescent());
        assert_eq!(unpoison(shard.stats.lock()).batches, 2);
    }

    #[test]
    fn a_shard_mid_activation_is_not_quiescent_with_its_queue_empty() {
        let config = ServeConfig {
            shard_throttle: Some(Duration::from_millis(200)),
            ..fast_config()
        };
        let epoch = EpochTables::new(ShardTables::build(config.routes));
        let shard = Shard::new(0, config.queue_cap);
        let w = Workload::generate(8, 16, 16);
        let (a, a_rx) = job(&w.packets, SubmitOptions::new());
        shard.queue.try_push(a).expect("the queue has room");
        std::thread::scope(|s| {
            let holder = s.spawn(|| while shard.step(&epoch, &config) {});
            // Only the engine's holder pops: once the queue is empty, A
            // is in flight.
            while !shard.queue.is_empty() {
                assert!(!holder.is_finished(), "A's activation ended unobserved");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                !shard.quiescent(),
                "the engine is held, so A is in flight although nothing is queued"
            );
            holder.join().expect("the holder returns");
        });
        assert_eq!(a_rx.try_recv().map(|o| o.forwarded + o.dropped), Ok(16));
        assert!(shard.quiescent(), "answered, and the engine is free");
    }
}
