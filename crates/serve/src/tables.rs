//! Generation-swapped route tables: the RCU core of the live control
//! plane (protocol v3).
//!
//! The paper's thesis is that synchronization should ride on the memory
//! system's visibility guarantees rather than explicit locks, and the
//! control plane applies it to the route tables: shard engines (readers)
//! never take the table lock on the hot path — they load one atomic
//! generation counter per activation and keep classifying against their
//! cached `Arc<ShardTables>` until the counter moves. The control worker (the
//! single writer) applies mutations to its private trie, compiles a
//! **fresh** flat classifier, swaps it into the published slot, and only
//! then bumps the generation — so a reader observes either the old table
//! or the new one in full, never a torn intermediate state. An op whose
//! result the flat classifier could not encode (too many distinct next
//! hops or overflow blocks) is refused before it touches the trie, so no
//! client frame can make the build panic.
//!
//! The slot holds the one live `(generation, Arc<ShardTables>)` pair and
//! nothing else: like a guarded BRAM word, released when its dependency
//! count reaches zero, a table lives exactly as long as someone holds its
//! `Arc`. The slot's mutex is taken only when a reader re-syncs or the
//! writer publishes, and only to clone or replace an `Arc` — never across
//! a build or a free — so it exists to keep the crate `unsafe`-free, not
//! to order anything.
//!
//! Retirement mirrors the drain barrier of the 1024-core shared-memory
//! barrier literature: after publishing generation `N`, the worker takes
//! each shard's engine lock once ([`Shard::adopt`]), which waits out an
//! activation in progress, moves the engine onto generation `N` (dropping
//! its reference to the older table) and wakes the reactor owning any job
//! queued behind it; it runs no activation. Once every shard is through,
//! generations `< N` are retired. There is nothing to wait for beyond
//! those locks, so the barrier neither polls nor times out. The last
//! reference to the outgoing table is then the one the worker took before
//! mutating; it drops that after the replies are sent, and the 32 MiB
//! free runs on the control thread — never on a shard's data path,
//! inside the swap latency, or under the slot lock. The stats frame
//! surfaces the `generation`/`retired` pair so the property is externally
//! auditable.

use crate::queue::{unpoison, Reply};
use crate::shard::{Shard, ShardTables};
use crate::snapshot::{FibSnapshot, SwapLatencySnapshot};
use memsync_netapp::fib::{CapacityError, Dir24_8, Route};
use memsync_netapp::Fib;
use memsync_trace::registry::percentile;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One control-plane mutation, decoded from a v3 frame (or issued by a
/// host-side test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlOp {
    /// Insert (or re-target) a batch of routes; `0/0` is the default.
    Add(Vec<Route>),
    /// Withdraw a batch of `(prefix, len)` entries; absent entries are
    /// counted out of `applied` rather than erroring.
    Withdraw(Vec<(u32, u8)>),
}

impl ControlOp {
    /// Applies the op to `fib`; returns how many of its entries took
    /// effect.
    fn apply(&self, fib: &mut Fib) -> u32 {
        match self {
            ControlOp::Add(routes) => {
                for r in routes {
                    fib.insert(*r);
                }
                routes.len() as u32
            }
            ControlOp::Withdraw(prefixes) => prefixes
                .iter()
                .filter(|(prefix, len)| fib.remove(*prefix, *len).is_some())
                .count() as u32,
        }
    }
}

/// The typed outcome of one control op: which generation made the
/// mutation visible, the table size after it, and how many of the op's
/// entries actually changed the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlOutcome {
    /// The table generation that carries this mutation.
    pub generation: u64,
    /// Routes in the table after the mutation.
    pub routes: u32,
    /// Entries that took effect (withdraws of absent prefixes don't).
    pub applied: u32,
}

/// One queued control op plus its outcome path.
#[derive(Debug)]
pub struct ControlJob {
    /// The mutation to apply.
    pub op: ControlOp,
    /// Where the outcome goes: the published change, or why the op was
    /// refused.
    pub reply: Reply<Result<ControlOutcome, String>>,
}

/// Swap-latency accounting: total count plus a ring of the most recent
/// samples (microseconds) for the percentile summary.
#[derive(Debug, Default)]
struct SwapLatency {
    count: u64,
    samples: Vec<u64>,
}

const LATENCY_RING: usize = 1024;

/// The live route table every shard reads through, and the single
/// writer's trie it is compiled from.
#[derive(Debug)]
pub struct EpochTables {
    /// The generation in `live`, mirrored for the activations' lock-free
    /// check; starts at 1 (the boot table). Stored after `live` changes,
    /// so a reader that sees it move finds that table, or a newer one,
    /// in the slot.
    generation: AtomicU64,
    /// The published `(generation, table)` pair: the only reference this
    /// structure keeps to any table.
    live: Mutex<(u64, Arc<ShardTables>)>,
    /// Highest generation proven drained: the barrier moved every shard's
    /// engine onto a newer one, so no engine references it or anything
    /// older.
    retired: AtomicU64,
    /// The single writer's private trie — the authoritative mutable
    /// route set every published table is compiled from.
    writer: Mutex<Fib>,
    latency: Mutex<SwapLatency>,
}

impl EpochTables {
    /// Wraps the boot table as generation 1.
    pub fn new(initial: ShardTables) -> EpochTables {
        let writer = initial.fib.clone();
        EpochTables {
            generation: AtomicU64::new(1),
            live: Mutex::new((1, Arc::new(initial))),
            retired: AtomicU64::new(0),
            writer: Mutex::new(writer),
            latency: Mutex::new(SwapLatency::default()),
        }
    }

    /// The current generation: one `Acquire` load, the only thing an
    /// activation touches here.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The published `(generation, tables)` pair, read under one lock
    /// held only to clone the `Arc`.
    pub fn current(&self) -> (u64, Arc<ShardTables>) {
        let live = unpoison(self.live.lock());
        (live.0, Arc::clone(&live.1))
    }

    /// The published generation and its table's route count, from one
    /// read of the slot.
    fn published(&self) -> (u64, u64) {
        let live = unpoison(self.live.lock());
        (live.0, live.1.fib.len() as u64)
    }

    /// Routes in the current table.
    pub fn routes(&self) -> u64 {
        self.published().1
    }

    /// Swaps published so far: every generation after the boot table.
    pub fn swaps(&self) -> u64 {
        self.published().0 - 1
    }

    /// Highest generation proven drained by the barrier.
    pub fn retired(&self) -> u64 {
        self.retired.load(Ordering::Relaxed)
    }

    /// Applies a batch of ops to the writer trie, compiles a fresh
    /// table, and publishes it as the next generation. One rebuild and
    /// one swap cover the whole batch — that coalescing is what makes
    /// 1k routes/sec of churn affordable when a single `Dir24_8` build
    /// fills 16M `tbl24` slots.
    ///
    /// Each op is staged on a copy of the trie and committed only if the
    /// flat classifier can still encode the result
    /// ([`Dir24_8::check_capacity`]). An op that cannot is refused with
    /// the limit it hit and changes nothing; the rest of the batch still
    /// applies. A batch refused whole publishes nothing. Returns one
    /// outcome per op, in op order.
    pub fn mutate<'a, I>(&self, ops: I) -> Vec<Result<ControlOutcome, String>>
    where
        I: IntoIterator<Item = &'a ControlOp>,
    {
        // The writer lock is held across the publish so concurrent
        // mutators (host tests; the server has a single worker) serialize
        // whole batches and generation numbers stay dense.
        let mut fib = unpoison(self.writer.lock());
        let applied: Vec<Result<u32, CapacityError>> = ops
            .into_iter()
            .map(|op| {
                let mut staged = Fib::clone(&fib);
                let applied = op.apply(&mut staged);
                Dir24_8::check_capacity(&staged.routes())?;
                *fib = staged;
                Ok(applied)
            })
            .collect();
        let mut generation = self.generation.load(Ordering::Relaxed);
        if applied.iter().any(Result::is_ok) {
            generation += 1;
            let fresh = Arc::new(ShardTables {
                dir: Dir24_8::from_fib(&fib),
                fib: Fib::clone(&fib),
            });
            // Swap the complete table into the slot, then bump the
            // counter the activations follow. The outgoing `Arc` is
            // dropped after the slot lock is released: the table is freed
            // here only when neither an engine nor the caller holds it.
            let outgoing = std::mem::replace(&mut *unpoison(self.live.lock()), (generation, fresh));
            self.generation.store(generation, Ordering::Release);
            drop(outgoing);
        }
        let routes = fib.len() as u32;
        applied
            .into_iter()
            .map(|applied| match applied {
                Ok(applied) => Ok(ControlOutcome {
                    generation,
                    routes,
                    applied,
                }),
                Err(e) => Err(format!("route table refused: {e}")),
            })
            .collect()
    }

    /// Marks every generation `<= gen` retired (monotonic).
    pub fn retire_up_to(&self, gen: u64) {
        self.retired.fetch_max(gen, Ordering::AcqRel);
    }

    /// Records one swap's dequeue-to-barrier latency: from the worker
    /// dequeuing the batch's first op, through coalescing, the rebuild
    /// and the publish, to the drain barrier completing.
    pub fn record_swap_latency(&self, micros: u64) {
        let mut l = unpoison(self.latency.lock());
        if l.samples.len() == LATENCY_RING {
            let at = (l.count as usize) % LATENCY_RING;
            l.samples[at] = micros;
        } else {
            l.samples.push(micros);
        }
        l.count += 1;
    }

    /// The snapshot's `fib` section: the published generation with its
    /// table's route count and the swaps before it, the retired
    /// generation, and percentiles over the recent swap-latency ring
    /// (absent before the first swap completes).
    pub fn snapshot(&self) -> FibSnapshot {
        let (generation, routes) = self.published();
        let swap_latency_us = {
            let l = unpoison(self.latency.lock());
            let mut sorted = l.samples.clone();
            sorted.sort_unstable();
            let pick = |q| percentile(&sorted, q).expect("a max implies samples");
            sorted.last().map(|&max| SwapLatencySnapshot {
                count: l.count,
                p50: pick(0.50),
                p99: pick(0.99),
                max,
            })
        };
        FibSnapshot {
            generation,
            routes,
            swaps: generation - 1,
            retired: self.retired(),
            swap_latency_us,
        }
    }
}

/// Most ops folded into one rebuild+swap.
const COALESCE_MAX: usize = 64;

/// A clonable handle for enqueueing control ops on the worker.
#[derive(Debug, Clone)]
pub struct ControlHandle {
    tx: Sender<ControlJob>,
    /// The table structure itself — stats and shard spawns read through
    /// this.
    pub tables: Arc<EpochTables>,
}

impl ControlHandle {
    /// Enqueues one op; `false` means the worker is gone (shutdown).
    pub fn submit(&self, op: ControlOp, reply: Reply<Result<ControlOutcome, String>>) -> bool {
        self.tx.send(ControlJob { op, reply }).is_ok()
    }
}

/// Spawns the control worker: a single thread that drains queued ops,
/// folds them into one rebuild+publish, runs the shard drain barrier,
/// and replies. Returns the submit handle and the join handle. The
/// worker never runs a shard activation.
pub fn spawn_control_worker(
    tables: Arc<EpochTables>,
    shards: Vec<Arc<Shard>>,
    stop: Arc<AtomicBool>,
) -> (ControlHandle, JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = ControlHandle {
        tx,
        tables: Arc::clone(&tables),
    };
    let thread = std::thread::Builder::new()
        .name("memsync-control".into())
        .spawn(move || control_worker(&tables, &shards, &rx, &stop))
        .expect("control thread spawns");
    (handle, thread)
}

fn control_worker(
    tables: &EpochTables,
    shards: &[Arc<Shard>],
    rx: &Receiver<ControlJob>,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::Acquire) {
        let first = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let started = Instant::now();
        let mut jobs = vec![first];
        while jobs.len() < COALESCE_MAX {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        // Hold the outgoing table until the replies are out, so its free
        // is not part of the swap latency or the clients' wait.
        let (_, outgoing) = tables.current();
        let outcomes = tables.mutate(jobs.iter().map(|j| &j.op));
        // The drain barrier: the previous generation is retired once
        // every shard's engine has moved onto the new one. The worker
        // holds neither `writer` nor `live` here (lock order: engine
        // first).
        if let Some(published) = outcomes.iter().find_map(|o| o.as_ref().ok()) {
            for s in shards {
                s.adopt(tables);
            }
            tables.retire_up_to(published.generation - 1);
            tables.record_swap_latency(started.elapsed().as_micros() as u64);
        }
        for (job, outcome) in jobs.into_iter().zip(outcomes) {
            // A hung-up receiver (the connection went away mid-op) is
            // not the worker's problem.
            let _ = job.reply.send(outcome);
        }
        // Once the barrier completed no engine holds the outgoing table,
        // so this frees it.
        drop(outgoing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::frame::SubmitOptions;
    use crate::queue::{CountWaker, Job, JobOutcome};
    use crate::ServeConfig;
    use memsync_netapp::Ipv4Packet;
    use std::sync::mpsc::{channel, TryRecvError};

    fn fast_config(shard_throttle: Option<Duration>) -> ServeConfig {
        ServeConfig {
            egress: 2,
            routes: 16,
            backend: BackendKind::Fast,
            shard_throttle,
            ..ServeConfig::default()
        }
    }

    /// A one-packet job, and the receiver its outcome arrives on.
    fn job() -> (Job, std::sync::mpsc::Receiver<JobOutcome>) {
        let (tx, rx) = channel();
        (job_replying_on(Reply::new(tx)), rx)
    }

    fn job_replying_on(reply: Reply<JobOutcome>) -> Job {
        Job {
            packets: vec![Ipv4Packet::new(0x0a00_0001, 0x0b00_0001, 64, 6, 40)],
            options: SubmitOptions::new(),
            reply,
            enqueued: Instant::now(),
        }
    }

    /// Serves one job, which builds the shard's engine on the published
    /// table.
    fn serve_one(shard: &Shard, epoch: &EpochTables, config: &ServeConfig) {
        let (job, rx) = job();
        shard.queue.try_push(job).expect("the queue has room");
        while shard.step(epoch, config) {}
        rx.try_recv().expect("the stepping caller answers inline");
    }

    fn route(prefix: u32, len: u8, next_hop: u32) -> Route {
        Route {
            prefix,
            len,
            next_hop,
        }
    }

    fn ok(generation: u64, routes: u32, applied: u32) -> Result<ControlOutcome, String> {
        Ok(ControlOutcome {
            generation,
            routes,
            applied,
        })
    }

    #[test]
    fn publish_bumps_the_generation_and_readers_see_whole_tables() {
        let epoch = EpochTables::new(ShardTables::from_routes(&[route(0, 0, 7)]));
        let (gen, t) = epoch.current();
        assert_eq!(gen, 1);
        assert_eq!(t.dir.lookup(0x0a00_0001), Some(7));
        let r = epoch.mutate(&[ControlOp::Add(vec![route(0x0a00_0000, 8, 42)])]);
        assert_eq!(r, [ok(2, 2, 1)]);
        // The old Arc keeps serving the old world; current() sees the new.
        assert_eq!(t.dir.lookup(0x0a00_0001), Some(7));
        let (gen2, t2) = epoch.current();
        assert_eq!(gen2, 2);
        assert_eq!(t2.dir.lookup(0x0a00_0001), Some(42));
        assert_eq!(t2.fib.lookup(0x0a00_0001), Some(42), "trie rides along");
        assert_eq!(epoch.swaps(), 1);
        assert_eq!(epoch.routes(), 2);
    }

    #[test]
    fn a_replaced_table_is_freed_as_soon_as_its_last_reader_lets_go() {
        let epoch = EpochTables::new(ShardTables::from_routes(&[route(0, 0, 7)]));
        let boot = Arc::downgrade(&epoch.current().1);
        epoch.mutate(&[ControlOp::Add(vec![route(0, 0, 8)])]);
        assert!(boot.upgrade().is_none(), "nothing else held the boot table");

        let (_, reader) = epoch.current();
        let second = Arc::downgrade(&reader);
        epoch.mutate(&[ControlOp::Add(vec![route(0, 0, 9)])]);
        assert!(second.upgrade().is_some(), "a reader still holds it");
        assert_eq!(reader.dir.lookup(1), Some(8), "and still classifies");
        drop(reader);
        assert!(second.upgrade().is_none());
        assert_eq!(epoch.current().1.dir.lookup(1), Some(9));
    }

    #[test]
    fn withdraw_counts_only_entries_that_existed() {
        let epoch = EpochTables::new(ShardTables::from_routes(&[
            route(0, 0, 7),
            route(0x0a00_0000, 8, 42),
        ]));
        let r = epoch.mutate(&[ControlOp::Withdraw(vec![
            (0x0a00_0000, 8),
            (0xdead_0000, 16), // never inserted
        ])]);
        assert_eq!(r, [ok(2, 1, 1)], "absent withdraw does not count");
        let (_, t) = epoch.current();
        assert_eq!(t.dir.lookup(0x0a00_0001), Some(7), "default shows through");
    }

    #[test]
    fn coalesced_batches_apply_in_op_order_under_one_swap() {
        let epoch = EpochTables::new(ShardTables::from_routes(&[]));
        let ops = [
            ControlOp::Add(vec![route(0x0a00_0000, 8, 1)]),
            ControlOp::Add(vec![route(0x0a00_0000, 8, 2)]), // re-target wins
            ControlOp::Withdraw(vec![(0x0a00_0000, 8)]),
            ControlOp::Add(vec![route(0x0a00_0000, 8, 3)]),
        ];
        let r = epoch.mutate(&ops);
        assert_eq!(r, vec![ok(2, 1, 1); 4], "one swap for the whole batch");
        let (_, t) = epoch.current();
        assert_eq!(t.dir.lookup(0x0a00_0001), Some(3));
    }

    #[test]
    fn barrier_waits_out_an_activation_and_leaves_no_engine_on_the_old_table() {
        let config = fast_config(Some(Duration::from_millis(200)));
        let epoch = EpochTables::new(ShardTables::from_routes(&[route(0, 0, 7)]));
        let shard = Shard::new(0, config.queue_cap);
        let (job, rx) = job();
        shard.queue.try_push(job).expect("the queue has room");
        std::thread::scope(|s| {
            let holder = s.spawn(|| while shard.step(&epoch, &config) {});
            // The job is popped (only the engine's holder pops): its
            // activation built the engine on the boot table and sleeps.
            while !shard.queue.is_empty() || !shard.engine_busy() {
                assert!(!holder.is_finished(), "the activation ended unobserved");
                std::thread::sleep(Duration::from_millis(1));
            }
            // The worker's part: keep the outgoing table, publish, run
            // the barrier.
            let outgoing = epoch.current().1;
            let boot = Arc::downgrade(&outgoing);
            epoch.mutate(&[ControlOp::Add(vec![route(0, 0, 8)])]);
            shard.adopt(&epoch);
            assert!(
                rx.try_recv().is_ok(),
                "the barrier returned only after the activation answered"
            );
            drop(outgoing);
            assert!(
                boot.upgrade().is_none(),
                "once the worker lets go, no engine holds the old table"
            );
            holder.join().expect("the holder returns");
        });
    }

    #[test]
    fn a_job_whose_try_lock_loses_to_the_barrier_is_handed_to_its_owner() {
        let config = fast_config(None);
        let epoch = EpochTables::new(ShardTables::from_routes(&[route(0, 0, 7)]));
        let shard = Shard::new(0, config.queue_cap);
        serve_one(&shard, &epoch, &config);
        // The engine lags one generation, so the barrier reads the slot.
        epoch.mutate(&[ControlOp::Add(vec![route(0, 0, 8)])]);
        let owner = Arc::new(CountWaker::default());
        let (tx, rx) = channel();
        let job = job_replying_on(Reply::with_waker(tx, Arc::clone(&owner) as _));
        let batches = || unpoison(shard.stats.lock()).batches;
        std::thread::scope(|s| {
            // Holding the slot parks the barrier inside the engine lock.
            let live = unpoison(epoch.live.lock());
            let barrier = s.spawn(|| shard.adopt(&epoch));
            while !shard.engine_busy() {
                std::thread::sleep(Duration::from_millis(1));
            }
            shard.queue.try_push(job).expect("the queue has room");
            assert!(
                !shard.step(&epoch, &config),
                "the lost try_lock leaves the job to the barrier"
            );
            drop(live);
            barrier.join().expect("the barrier returns");
        });
        assert_eq!(
            owner.0.load(Ordering::Relaxed),
            1,
            "letting go, the barrier woke the job's owner"
        );
        assert_eq!(shard.queue.len(), 1, "the barrier ran no activation");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(batches(), 1, "only serve_one's batch");
        // The owner's next pass steps the shard.
        assert!(shard.step(&epoch, &config));
        assert_eq!(rx.try_recv().map(|o| o.forwarded), Ok(1));
        assert_eq!(batches(), 2);
        assert!(!shard.step(&epoch, &config), "nothing is owed");
        assert!(shard.quiescent());
    }

    #[test]
    fn control_worker_round_trips_ops_and_retires_generations() {
        let epoch = Arc::new(EpochTables::new(ShardTables::from_routes(&[route(
            0, 0, 7,
        )])));
        let config = fast_config(None);
        let shard = Arc::new(Shard::new(0, 4));
        serve_one(&shard, &epoch, &config);
        let stop = Arc::new(AtomicBool::new(false));
        let boot = Arc::downgrade(&epoch.current().1);
        let (handle, worker) =
            spawn_control_worker(Arc::clone(&epoch), vec![shard], Arc::clone(&stop));
        let (tx, rx) = channel();
        assert!(handle.submit(
            ControlOp::Add(vec![route(0x0a00_0000, 8, 5)]),
            Reply::new(tx),
        ));
        let out = rx.recv_timeout(Duration::from_secs(5)).expect("outcome");
        assert_eq!(out, ok(2, 2, 1));
        assert_eq!(epoch.retired(), 1, "boot generation retired post-barrier");
        let fib = epoch.snapshot();
        assert_eq!((fib.generation, fib.routes, fib.swaps), (2, 2, 1));
        let summary = fib.swap_latency_us.expect("one swap measured");
        assert_eq!(summary.count, 1);
        stop.store(true, Ordering::Release);
        worker.join().unwrap();
        assert!(
            boot.upgrade().is_none(),
            "the worker freed the boot table once the barrier retired it"
        );
    }

    #[test]
    fn an_op_the_classifier_cannot_encode_is_refused_and_its_batch_mates_apply() {
        // 32768 /32s in 198.18.0.0/17, each with its own next hop, and
        // 32768 /32s in distinct /24s on one hop: one over each limit.
        let too_many_hops =
            ControlOp::Add((0..32_768).map(|i| route(0xc612_0000 + i, 32, i)).collect());
        let too_many_blocks = ControlOp::Add((0..32_768).map(|i| route(i << 8, 32, 1)).collect());
        let epoch = EpochTables::new(ShardTables::from_routes(&[route(0, 0, 7)]));
        let r = epoch.mutate(&[
            too_many_hops.clone(),
            ControlOp::Add(vec![route(0x0a00_0000, 8, 42)]),
            too_many_blocks,
        ]);
        assert_eq!(
            r[0],
            Err("route table refused: 32768 distinct next hops exceed the \
                 DIR-24-8 limit of 32767"
                .into())
        );
        assert_eq!(r[1], ok(2, 2, 1), "the valid op still applies");
        assert!(
            matches!(&r[2], Err(e) if e.contains("32768 overflow blocks")),
            "{:?}",
            r[2]
        );
        let (gen, t) = epoch.current();
        assert_eq!((gen, epoch.routes(), epoch.swaps()), (2, 2, 1));
        assert_eq!(
            t.dir.lookup(0xc612_0001),
            Some(7),
            "refused routes never land"
        );
        assert_eq!(t.dir.lookup(0x0a00_0001), Some(42));

        // A batch refused whole publishes nothing, and leaves the writer
        // trie as it was: the next op publishes exactly one generation
        // over the same two routes.
        assert!(epoch.mutate(&[too_many_hops])[0].is_err());
        assert_eq!(
            (epoch.generation(), epoch.routes(), epoch.swaps()),
            (2, 2, 1)
        );
        assert_eq!(
            epoch.mutate(&[ControlOp::Add(vec![route(0, 0, 9)])]),
            [ok(3, 2, 1)]
        );
    }

    #[test]
    fn latency_ring_survives_overflow() {
        let epoch = EpochTables::new(ShardTables::from_routes(&[]));
        for i in 0..(LATENCY_RING as u64 + 10) {
            epoch.record_swap_latency(i);
        }
        let s = epoch.snapshot().swap_latency_us.unwrap();
        assert_eq!(s.count, LATENCY_RING as u64 + 10);
        assert_eq!(s.max, LATENCY_RING as u64 + 9, "newest sample retained");
        assert!(s.p50 <= s.p99 && s.p99 <= s.max);
    }
}
