//! Generation-swapped route tables: the RCU core of the live control
//! plane (protocol v3).
//!
//! The paper's thesis is that synchronization should ride on the memory
//! system's visibility guarantees rather than explicit locks, and the
//! control plane applies it to the route tables: shards (readers) never
//! take a lock on the hot path — they load one atomic generation counter
//! per activation loop and keep classifying against their cached
//! `Arc<ShardTables>` until the counter moves. The control worker (the
//! single writer) applies mutations to its private trie, compiles a
//! **fresh** flat classifier, publishes it into the slot the readers are
//! *not* watching, and only then bumps the generation — so a reader
//! observes either the old table or the new one in full, never a torn
//! intermediate state.
//!
//! Retirement mirrors the drain barrier of the 1024-core shared-memory
//! barrier literature: after publishing generation `N`, the worker waits
//! until every shard has acknowledged (stored `gen_seen >= N`) before
//! declaring generations `< N` retired. The acknowledgement is the proof
//! that no shard still holds a reference to an older table when its slot
//! is eventually reused — and the stats frame surfaces the
//! `generation`/`retired` pair so the property is externally auditable.
//!
//! The two slots are `Mutex<Arc<ShardTables>>`, but the mutex is never
//! contended in steady state: readers lock `slots[gen % 2]`, the writer
//! only ever stores into `slots[(gen + 1) % 2]`, and by the time a slot
//! is reused (two generations later) the barrier guarantees every shard
//! has moved past it. The lock is held just long enough to clone an
//! `Arc` — nanoseconds — and exists only to keep the crate `unsafe`-free.

use crate::queue::{ReplyWaker, ShardQueue};
use crate::shard::ShardTables;
use crate::snapshot::{FibSnapshot, SwapLatencySnapshot};
use memsync_netapp::fib::Route;
use memsync_netapp::Fib;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn unpoison<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A panicking control worker leaves the trie and slots in a valid
    // state (mutations are applied route by route, publishes are whole
    // Arc stores); recover the guard.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// One control-plane mutation, decoded from a v3 frame (or issued by a
/// host-side test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlOp {
    /// Insert (or re-target) a batch of routes.
    Add(Vec<Route>),
    /// Withdraw a batch of `(prefix, len)` entries; absent entries are
    /// counted out of `applied` rather than erroring.
    Withdraw(Vec<(u32, u8)>),
    /// Re-target the default route in one frame.
    SwapDefault(u32),
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

/// The outcome path of one control op: an mpsc sender plus an optional
/// waker, mirroring [`crate::queue::Reply`] so a session parks a
/// control frame the way it parks a submit and gets woken.
#[derive(Clone)]
pub struct ControlReply {
    tx: Sender<ControlOutcome>,
    waker: Option<Arc<dyn ReplyWaker>>,
}

impl ControlReply {
    /// A reply with no waker — for callers that block on the receiver.
    pub fn new(tx: Sender<ControlOutcome>) -> ControlReply {
        ControlReply { tx, waker: None }
    }

    /// A reply that wakes `waker` after delivery and on drop (covering a
    /// control worker that dies with ops queued).
    pub fn with_waker(tx: Sender<ControlOutcome>, waker: Arc<dyn ReplyWaker>) -> ControlReply {
        ControlReply {
            tx,
            waker: Some(waker),
        }
    }

    /// Delivers the outcome, then wakes the session. A hung-up receiver
    /// (the connection went away mid-op) is not the worker's problem.
    pub fn send(&self, outcome: ControlOutcome) {
        let _ = self.tx.send(outcome);
        if let Some(w) = &self.waker {
            w.wake();
        }
    }
}

impl Drop for ControlReply {
    fn drop(&mut self) {
        if let Some(w) = &self.waker {
            w.wake();
        }
    }
}

impl fmt::Debug for ControlReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlReply")
            .field("waker", &self.waker.is_some())
            .finish_non_exhaustive()
    }
}

/// One queued control op plus its outcome path.
#[derive(Debug)]
pub struct ControlJob {
    /// The mutation to apply.
    pub op: ControlOp,
    /// Where the outcome goes.
    pub reply: ControlReply,
}

/// What the control worker needs from one shard to run the drain
/// barrier: its queue (to nudge it off the pop condvar) and its
/// generation acknowledgement.
#[derive(Debug, Clone)]
pub struct ShardGate {
    /// The shard's job queue ([`ShardQueue::notify`] wakes a parked
    /// shard so it runs its generation check promptly).
    pub queue: Arc<ShardQueue>,
    /// Highest generation the shard has re-synced its tables to.
    pub gen_seen: Arc<AtomicU64>,
}

/// Result of applying a batch of coalesced control ops.
#[derive(Debug)]
pub struct MutateResult {
    /// The generation the batch published.
    pub generation: u64,
    /// Routes in the table after the batch.
    pub routes: u32,
    /// Per-op applied counts, in op order.
    pub applied: Vec<u32>,
}

/// Swap-latency accounting: total count plus a ring of the most recent
/// samples (microseconds) for the percentile summary.
#[derive(Debug, Default)]
struct SwapLatency {
    count: u64,
    samples: Vec<u64>,
}

const LATENCY_RING: usize = 1024;

/// The generation-swapped table pair every shard reads through.
#[derive(Debug)]
pub struct EpochTables {
    /// Current generation; starts at 1 (the boot table).
    generation: AtomicU64,
    /// Two-slot publication scheme: the table for generation `g` lives
    /// in `slots[g % 2]`; the writer only ever stores into the slot the
    /// *next* generation will occupy.
    slots: [Mutex<Arc<ShardTables>>; 2],
    /// Routes in the current table (stats reads without locking).
    routes: AtomicU64,
    /// Swaps published so far (`generation - 1` in steady state).
    swaps: AtomicU64,
    /// Highest generation proven drained: every shard acknowledged a
    /// newer one, so no reader references it or anything older.
    retired: AtomicU64,
    /// The single writer's private trie — the authoritative mutable
    /// route set every published table is compiled from.
    writer: Mutex<Fib>,
    latency: Mutex<SwapLatency>,
}

impl EpochTables {
    /// Wraps the boot table as generation 1.
    pub fn new(initial: ShardTables) -> EpochTables {
        let routes = initial.fib.len() as u64;
        let writer = fib_from_routes(&initial.fib.routes());
        let arc = Arc::new(initial);
        EpochTables {
            generation: AtomicU64::new(1),
            slots: [Mutex::new(Arc::clone(&arc)), Mutex::new(arc)],
            routes: AtomicU64::new(routes),
            swaps: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            writer: Mutex::new(writer),
            latency: Mutex::new(SwapLatency::default()),
        }
    }

    /// The current generation. One relaxed-ordering-free atomic load —
    /// this is the only thing the shard hot loop touches per iteration.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current `(generation, tables)` pair. The slot lock is held
    /// only to clone the `Arc`; the writer never stores into the slot a
    /// current-generation reader is looking at (see the module docs), so
    /// the lock is uncontended in steady state.
    pub fn current(&self) -> (u64, Arc<ShardTables>) {
        let gen = self.generation.load(Ordering::Acquire);
        let tables = Arc::clone(&unpoison(self.slots[(gen & 1) as usize].lock()));
        (gen, tables)
    }

    /// Routes in the current table.
    pub fn routes(&self) -> u64 {
        self.routes.load(Ordering::Relaxed)
    }

    /// Swaps published so far.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
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
    pub fn mutate<'a, I>(&self, ops: I) -> MutateResult
    where
        I: IntoIterator<Item = &'a ControlOp>,
    {
        // The writer lock is held across the publish so concurrent
        // mutators (host tests; the server has a single worker) serialize
        // whole batches and generation numbers stay dense.
        let mut fib = unpoison(self.writer.lock());
        let mut applied = Vec::new();
        for op in ops {
            let n = match op {
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
                ControlOp::SwapDefault(next_hop) => {
                    fib.insert(Route {
                        prefix: 0,
                        len: 0,
                        next_hop: *next_hop,
                    });
                    1
                }
            };
            applied.push(n);
        }
        let routes = fib.routes();
        let fresh = ShardTables::from_routes(&routes);
        let gen = self.generation.load(Ordering::Relaxed) + 1;
        // Publish into the slot current-generation readers are not
        // watching, then bump the generation: readers following the
        // counter can only ever see a complete table.
        *unpoison(self.slots[(gen & 1) as usize].lock()) = Arc::new(fresh);
        self.routes.store(routes.len() as u64, Ordering::Relaxed);
        self.generation.store(gen, Ordering::Release);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        MutateResult {
            generation: gen,
            routes: routes.len() as u32,
            applied,
        }
    }

    /// Marks every generation `<= gen` retired (monotonic).
    pub fn retire_up_to(&self, gen: u64) {
        self.retired.fetch_max(gen, Ordering::AcqRel);
    }

    /// Records one swap's publish-to-barrier latency.
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

    /// The snapshot's `fib` section: generation, route and swap counters,
    /// and percentiles over the recent swap-latency ring (absent before
    /// the first swap completes).
    pub fn snapshot(&self) -> FibSnapshot {
        let swap_latency_us = {
            let l = unpoison(self.latency.lock());
            let mut sorted = l.samples.clone();
            sorted.sort_unstable();
            let pick = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
            sorted.last().map(|&max| SwapLatencySnapshot {
                count: l.count,
                p50: pick(0.50),
                p99: pick(0.99),
                max,
            })
        };
        FibSnapshot {
            generation: self.generation(),
            routes: self.routes(),
            swaps: self.swaps(),
            retired: self.retired(),
            swap_latency_us,
        }
    }
}

fn fib_from_routes(routes: &[Route]) -> Fib {
    let mut fib = Fib::new();
    for r in routes {
        fib.insert(*r);
    }
    fib
}

/// How long the worker waits for every shard to acknowledge a new
/// generation before giving up on retiring the old one (a shard may be
/// mid-restart; its replacement syncs on spawn, so retirement only
/// lags — it is never wrong).
pub const BARRIER_DEADLINE: Duration = Duration::from_millis(250);

/// Most ops folded into one rebuild+swap.
const COALESCE_MAX: usize = 64;

/// Waits until every shard's `gen_seen` reaches `gen`, nudging parked
/// shards off their pop condvars. Returns whether the barrier completed
/// inside `deadline`.
pub fn await_generation(gates: &[ShardGate], gen: u64, deadline: Duration) -> bool {
    let start = Instant::now();
    loop {
        for g in gates {
            g.queue.notify();
        }
        if gates
            .iter()
            .all(|g| g.gen_seen.load(Ordering::Acquire) >= gen)
        {
            return true;
        }
        if start.elapsed() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

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
    pub fn submit(&self, op: ControlOp, reply: ControlReply) -> bool {
        self.tx.send(ControlJob { op, reply }).is_ok()
    }
}

/// Spawns the control worker: a single thread that drains queued ops,
/// folds them into one rebuild+publish, runs the shard drain barrier,
/// and replies. Returns the submit handle and the join handle.
pub fn spawn_control_worker(
    tables: Arc<EpochTables>,
    gates: Vec<ShardGate>,
    stop: Arc<AtomicBool>,
) -> (ControlHandle, JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = ControlHandle {
        tx,
        tables: Arc::clone(&tables),
    };
    let thread = std::thread::Builder::new()
        .name("memsync-control".into())
        .spawn(move || control_worker(&tables, &gates, &rx, &stop))
        .expect("control thread spawns");
    (handle, thread)
}

fn control_worker(
    tables: &EpochTables,
    gates: &[ShardGate],
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
        let result = tables.mutate(jobs.iter().map(|j| &j.op));
        // The drain barrier: the previous generation is retired only
        // once every shard acknowledges the new one. On deadline (a
        // shard mid-restart) retirement lags until the next swap — the
        // stats pair generation/retired makes the lag observable.
        if await_generation(gates, result.generation, BARRIER_DEADLINE) {
            tables.retire_up_to(result.generation - 1);
        }
        tables.record_swap_latency(started.elapsed().as_micros() as u64);
        for (job, applied) in jobs.into_iter().zip(result.applied) {
            job.reply.send(ControlOutcome {
                generation: result.generation,
                routes: result.routes,
                applied,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn route(prefix: u32, len: u8, next_hop: u32) -> Route {
        Route {
            prefix,
            len,
            next_hop,
        }
    }

    #[test]
    fn publish_bumps_the_generation_and_readers_see_whole_tables() {
        let epoch = EpochTables::new(ShardTables::from_routes(&[route(0, 0, 7)]));
        let (gen, t) = epoch.current();
        assert_eq!(gen, 1);
        assert_eq!(t.dir.lookup(0x0a00_0001), Some(7));
        let r = epoch.mutate(&[ControlOp::Add(vec![route(0x0a00_0000, 8, 42)])]);
        assert_eq!(r.generation, 2);
        assert_eq!(r.routes, 2);
        assert_eq!(r.applied, [1]);
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
    fn withdraw_counts_only_entries_that_existed() {
        let epoch = EpochTables::new(ShardTables::from_routes(&[
            route(0, 0, 7),
            route(0x0a00_0000, 8, 42),
        ]));
        let r = epoch.mutate(&[ControlOp::Withdraw(vec![
            (0x0a00_0000, 8),
            (0xdead_0000, 16), // never inserted
        ])]);
        assert_eq!(r.applied, [1], "absent withdraw does not count");
        assert_eq!(r.routes, 1);
        let (_, t) = epoch.current();
        assert_eq!(t.dir.lookup(0x0a00_0001), Some(7), "default shows through");
    }

    #[test]
    fn swap_default_retargets_in_one_op() {
        let epoch = EpochTables::new(ShardTables::from_routes(&[route(0, 0, 7)]));
        let r = epoch.mutate(&[ControlOp::SwapDefault(99)]);
        assert_eq!(r.applied, [1]);
        assert_eq!(r.routes, 1, "replaces, not adds");
        let (_, t) = epoch.current();
        assert_eq!(t.dir.lookup(0x1234_5678), Some(99));
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
        assert_eq!(r.generation, 2, "one swap for the whole batch");
        assert_eq!(r.applied, [1, 1, 1, 1]);
        let (_, t) = epoch.current();
        assert_eq!(t.dir.lookup(0x0a00_0001), Some(3));
    }

    #[test]
    fn barrier_retires_only_after_every_shard_acks() {
        let gates: Vec<ShardGate> = (0..3)
            .map(|_| ShardGate {
                queue: Arc::new(ShardQueue::new(4)),
                gen_seen: Arc::new(AtomicU64::new(1)),
            })
            .collect();
        assert!(!await_generation(&gates, 2, Duration::from_millis(10)));
        gates[0].gen_seen.store(2, Ordering::Release);
        gates[1].gen_seen.store(2, Ordering::Release);
        assert!(
            !await_generation(&gates, 2, Duration::from_millis(10)),
            "one laggard holds the barrier"
        );
        gates[2].gen_seen.store(2, Ordering::Release);
        assert!(await_generation(&gates, 2, Duration::from_millis(100)));
    }

    #[test]
    fn control_worker_round_trips_ops_and_retires_generations() {
        let epoch = Arc::new(EpochTables::new(ShardTables::from_routes(&[route(
            0, 0, 7,
        )])));
        // A fake "shard": echo every generation straight into gen_seen so
        // the barrier completes.
        let gate = ShardGate {
            queue: Arc::new(ShardQueue::new(4)),
            gen_seen: Arc::new(AtomicU64::new(1)),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let echo_stop = Arc::clone(&stop);
        let echo_tables = Arc::clone(&epoch);
        let echo_seen = Arc::clone(&gate.gen_seen);
        let echo = std::thread::spawn(move || {
            while !echo_stop.load(Ordering::Acquire) {
                echo_seen.store(echo_tables.generation(), Ordering::Release);
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        let (handle, worker) =
            spawn_control_worker(Arc::clone(&epoch), vec![gate], Arc::clone(&stop));
        let (tx, rx) = channel();
        assert!(handle.submit(
            ControlOp::Add(vec![route(0x0a00_0000, 8, 5)]),
            ControlReply::new(tx),
        ));
        let out = rx.recv_timeout(Duration::from_secs(5)).expect("outcome");
        assert_eq!(out.generation, 2);
        assert_eq!(out.routes, 2);
        assert_eq!(out.applied, 1);
        assert_eq!(epoch.retired(), 1, "boot generation retired post-barrier");
        let fib = epoch.snapshot();
        assert_eq!((fib.generation, fib.routes, fib.swaps), (2, 2, 1));
        let summary = fib.swap_latency_us.expect("one swap measured");
        assert_eq!(summary.count, 1);
        stop.store(true, Ordering::Release);
        worker.join().unwrap();
        echo.join().unwrap();
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
