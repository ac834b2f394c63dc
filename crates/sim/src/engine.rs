//! The simulation engine: wires synthesized thread FSMs to behavioral
//! memory-organization models and steps the whole system cycle by cycle.
//!
//! The hot path is fully interned (see [`crate::intern`]): thread names
//! are resolved to dense [`ThreadId`] indices once at [`System::new`]
//! time, banks are indexed in allocation order, per-bank routing tables
//! map pseudo-port slots to thread ids and back, and every per-cycle
//! buffer (requests, wrapper inputs/outputs) is preallocated.
//!
//! A step does work only where state can change:
//!
//! - **Which threads tick.** The engine keeps a runnable set, and a step
//!   ticks exactly its members, in thread-index order. A thread leaves the
//!   set when its tick ends with it waiting on memory, or on `recv` with
//!   an empty queue: it is parked. It rejoins when the wait can end: a
//!   grant or read data that completes its memory op (it then ticks the
//!   next cycle), or a message queued for its `recv` (by an arrival
//!   source, it ticks the same cycle; from [`System::push_message`],
//!   [`System::push_messages`] or [`System::submit_paced`], the next
//!   step).
//! - **Parked counters.** A parked thread's `cycles` and `blocked_cycles`
//!   are not touched while it is parked. The engine records the cycle its
//!   parking began, adds the span when the thread rejoins, and
//!   [`System::thread_cycles`] adds the open span of a thread still
//!   parked. Every thread's cycle count thus equals [`System::cycle`], as
//!   if it had been ticked every cycle.
//! - **Routing.** Each memory op's bank and input slot are resolved at
//!   construction, from the op's constant address. Only an op whose
//!   element index is computed at run time is routed by its address when
//!   it posts. A posted request goes into its bank's input slot once and
//!   is held there until the thread stops holding it, normally at the
//!   bank's grant.
//! - **Banks.** A bank whose last step left it settled (a fixed point of
//!   its inputs) skips its step, and only advances its cycle count, until
//!   a request is posted to it. The private port-A delivery pass visits
//!   only the reads in flight. An instrumented step still steps
//!   every bank, because the per-cycle stall events and the occupancy
//!   gauge are the trace; parked threads emit no events either way.
//! - **Batches.** [`System::run_until_sent`] re-checks its target only
//!   after a step in which some thread sent.
//!
//! Every observable (cycle counts, per-thread counters, sent messages,
//! latency sums, lost updates, trace bytes) is what ticking every thread
//! and stepping every bank on every cycle produces:
//! `crates/sim/tests/golden_metrics.rs` pins it, and pins the work done
//! ([`System::work`]) for the arbitrated paced run.
//!
//! A warmed uninstrumented [`System::step`] performs no `String` clones
//! and no heap allocation. Its one map work is latency recording: each
//! write and delivery looks its key up in the
//! [`memsync_trace::LatencyRecorder`]'s ordered maps, which allocate only
//! when a key is first inserted. Two tests pin the allocation count at
//! zero: `crates/bench/tests/zero_alloc.rs` counts a stepped reference
//! system, and `crates/serve/tests/sim_zero_alloc.rs` counts a warmed
//! sim-backend batch, from submit to drain.

use crate::arb_model::{ArbInputs, ArbOutputs, ArbitratedModel};
use crate::bram_model::BramModel;
use crate::event_model::{EventDrivenModel, EvtInputs, EvtOutputs};
use crate::intern::{Interner, ThreadId};
use crate::thread_model::{MemRequest, MemResponse, ThreadExec};
use crate::traffic::ArrivalProcess;
use memsync_core::modulo::ModuloSchedule;
use memsync_core::{CompiledSystem, OrganizationKind};
use memsync_synth::ir::PortClass;
use memsync_trace::{
    EventKind, MetricsRegistry, NullSink, Port, RecordingSink, TraceEvent, TraceSink,
};
use std::collections::VecDeque;

/// One synchronization bank under simulation, with its per-cycle input and
/// output buffers (reused every cycle — stepping allocates nothing).
#[derive(Debug, Clone)]
enum BankModel {
    Arbitrated {
        model: ArbitratedModel,
        inp: ArbInputs,
        out: ArbOutputs,
    },
    EventDriven {
        model: EventDrivenModel,
        inp: EvtInputs,
        out: EvtOutputs,
    },
}

impl BankModel {
    /// Whether the last step left a fixed point (see the models' `settled`).
    fn settled(&self) -> bool {
        match self {
            BankModel::Arbitrated { model, .. } => model.settled(),
            BankModel::EventDriven { model, .. } => model.settled(),
        }
    }

    /// Advances the cycle count of a settled model in place of its step.
    fn skip_cycle(&mut self) {
        match self {
            BankModel::Arbitrated { model, .. } => model.skip_cycle(),
            BankModel::EventDriven { model, .. } => model.skip_cycle(),
        }
    }

    /// Sets an input slot: a posted request is held there until its thread
    /// stops holding it and the slot is set back to `None`.
    #[inline]
    fn set_slot(&mut self, at: Slot, req: Option<&MemRequest>) {
        match (self, at) {
            (BankModel::Arbitrated { inp, .. }, Slot::Consumer(c)) => {
                inp.c_req[usize::from(c)] = req.map(|r| r.addr);
            }
            (BankModel::Arbitrated { inp, .. }, Slot::Producer(p)) => {
                inp.d_req[usize::from(p)] =
                    req.map(|r| (r.addr, r.write.unwrap_or(0), r.dep_number));
            }
            (BankModel::EventDriven { inp, .. }, Slot::Consumer(c)) => {
                inp.c_addr[usize::from(c)] = req.map(|r| r.addr);
            }
            (BankModel::EventDriven { inp, .. }, Slot::Producer(p)) => {
                inp.p_req[usize::from(p)] = req.map(|r| (r.addr, r.write.unwrap_or(0)));
            }
        }
    }
}

/// A pseudo-port input slot of a sync bank.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Consumer(u16),
    Producer(u16),
}

/// Where a thread's posted request is held: a slot of a sync bank.
#[derive(Debug, Clone, Copy)]
struct Held {
    bank: u32,
    slot: Slot,
}

/// Where a memory op's requests go, resolved at construction.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Port A: the thread's private bank.
    Private,
    /// An input slot of a sync bank.
    Sync(Held),
    /// Nowhere: no bank guards the address, or the thread has no slot of
    /// the port's kind in the bank that does. The request is never posted.
    Unrouted,
    /// The element index is computed at run time: the request is routed
    /// by its address when it posts.
    ByAddress,
}

/// A sync bank's wrapper model plus the interned routing tables the
/// per-cycle loop uses in place of name lookups.
#[derive(Debug)]
struct SimBank {
    model: BankModel,
    /// Consumer pseudo-port slot -> executing thread (None when the named
    /// consumer did not compile to a thread).
    consumer_thread: Vec<Option<ThreadId>>,
    /// Producer pseudo-port slot -> executing thread.
    producer_thread: Vec<Option<ThreadId>>,
    /// Thread -> consumer pseudo-port slot in this bank.
    consumer_slot: Vec<Option<u16>>,
    /// Thread -> producer pseudo-port slot in this bank.
    producer_slot: Vec<Option<u16>>,
    /// Address of the last issued read per consumer slot, for latency
    /// attribution when the data arrives a cycle later.
    last_issue: Vec<Option<u32>>,
    /// Precomputed `bank{b}.deplist_occupancy` gauge name (instrumented
    /// stepping must not format strings per cycle either).
    gauge_name: String,
    /// Whether a request was posted since the model's last step.
    posted: bool,
}

/// The runnable set and, for each parked thread, the cycle its parking
/// began (see the module docs).
#[derive(Debug)]
struct Scheduler {
    /// Bit `ti % 64` of word `ti / 64` set: thread `ti` ticks.
    runnable: Vec<u64>,
    /// Per parked thread, the first cycle it was not ticked.
    parked_since: Vec<u64>,
}

impl Scheduler {
    /// Every thread runnable.
    fn new(n_threads: usize) -> Self {
        let mut runnable = vec![0u64; n_threads.div_ceil(64)];
        for ti in 0..n_threads {
            runnable[ti / 64] |= 1 << (ti % 64);
        }
        Scheduler {
            runnable,
            parked_since: vec![0; n_threads],
        }
    }

    fn is_runnable(&self, ti: usize) -> bool {
        self.runnable[ti / 64] >> (ti % 64) & 1 == 1
    }

    /// Parks thread `ti`: it is not ticked from cycle `from` on.
    fn park(&mut self, ti: usize, from: u64) {
        self.runnable[ti / 64] &= !(1 << (ti % 64));
        self.parked_since[ti] = from;
    }

    /// Cycles thread `ti` has spent parked up to cycle `now` (0 when it is
    /// runnable).
    fn parked_for(&self, ti: usize, now: u64) -> u64 {
        if self.is_runnable(ti) {
            0
        } else {
            now - self.parked_since[ti]
        }
    }

    /// Makes parked thread `ti` runnable from cycle `at` on, counting the
    /// cycles it spent parked as blocked ones.
    fn wake(&mut self, t: &mut ThreadExec, ti: usize, at: u64) {
        debug_assert!(!self.is_runnable(ti), "only a parked thread wakes");
        let parked = at - self.parked_since[ti];
        t.cycles += parked;
        t.blocked_cycles += parked;
        self.runnable[ti / 64] |= 1 << (ti % 64);
    }

    /// A message was queued for thread `ti`: a thread parked at its `recv`
    /// ticks from cycle `at` on.
    fn message_queued(&mut self, t: &mut ThreadExec, ti: usize, at: u64) {
        if !self.is_runnable(ti) && t.can_progress(true) {
            self.wake(t, ti, at);
        }
    }
}

/// The simulator's work so far, the simulator half of the count gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Thread ticks: one per runnable thread per cycle.
    pub thread_ticks: u64,
    /// Wrapper-model steps; a settled bank that skips its step adds none.
    pub bank_steps: u64,
}

/// A full system simulation.
#[derive(Debug)]
pub struct System {
    threads: Vec<ThreadExec>,
    banks: Vec<SimBank>,
    /// Private port-A banks, indexed by [`ThreadId`].
    private: Vec<BramModel>,
    /// Private port-A reads issued this cycle as `(thread, addr, data)`,
    /// in thread order; their data is delivered next cycle, the bank's
    /// one-cycle read latency.
    private_issued: Vec<(usize, u32, u32)>,
    /// Private port-A reads whose data is delivered this cycle.
    private_due: Vec<(usize, u32, u32)>,
    /// Rx message queues, indexed by [`ThreadId`].
    rx_queues: Vec<VecDeque<i64>>,
    /// Attached arrival processes as `(thread index, source)`, in thread
    /// order.
    sources: Vec<(usize, Box<dyn ArrivalProcess>)>,
    /// `(guarded base addr, bank index)` sorted by address, for routing
    /// (see [`route_of`]).
    addr_route: Vec<(u32, u32)>,
    /// Per thread, the route of each of its memory sites.
    routes: Vec<Vec<Route>>,
    /// Which threads tick.
    sched: Scheduler,
    /// Requests posted this cycle as `(thread index, request)`, in thread
    /// order (reused every cycle).
    requests: Vec<(usize, MemRequest)>,
    /// Per thread, the bank slot holding its posted request.
    held: Vec<Option<Held>>,
    /// Slots whose threads stopped holding their requests this cycle,
    /// emptied at the end of the cycle (reused every cycle).
    released: Vec<Held>,
    /// Whether some thread sent a message in the last step.
    sent_in_step: bool,
    work: WorkCounts,
    /// Name tables for threads and banks (IDs are dense indices).
    interner: Interner,
    cycle: u64,
    /// Counters, histograms, and produce-to-consume latency measurements.
    pub metrics: MetricsRegistry,
    /// Downstream event sink ([`NullSink`] until [`System::set_sink`]).
    sink: Box<dyn TraceSink>,
    /// Whether stepping goes through the instrumented model paths.
    instrumented: bool,
}

impl System {
    /// Builds a simulation from a compiled system, instantiating the
    /// behavioral model matching its organization.
    pub fn new(compiled: &CompiledSystem) -> Self {
        Self::with_organization(compiled, compiled.organization)
    }

    /// Builds a simulation with an explicit organization (to compare both
    /// on the same compiled program).
    pub fn with_organization(compiled: &CompiledSystem, kind: OrganizationKind) -> Self {
        let threads: Vec<ThreadExec> = compiled.fsms.iter().cloned().map(ThreadExec::new).collect();
        let interner = Interner::new(compiled.fsms.iter().map(|f| f.thread.clone()).collect());
        let n_threads = threads.len();
        let mut banks = Vec::new();
        let mut addr_route: Vec<(u32, u32)> = Vec::new();
        for (bi, bank) in compiled.plan.sync_banks.iter().enumerate() {
            let model = match kind {
                OrganizationKind::Arbitrated => {
                    let mut m = ArbitratedModel::new(
                        bank.producers.len(),
                        bank.consumers.len(),
                        bank.wrapper_spec().deplist_entries as usize,
                    );
                    for g in &bank.guarded {
                        m.configure(g.base_addr, g.dep_number)
                            .expect("allocation fits the dependency list");
                    }
                    BankModel::Arbitrated {
                        model: m,
                        inp: ArbInputs {
                            c_req: vec![None; bank.consumers.len()],
                            d_req: vec![None; bank.producers.len()],
                            a_req: None,
                        },
                        out: ArbOutputs::default(),
                    }
                }
                OrganizationKind::EventDriven => {
                    let schedule = ModuloSchedule::new(bank.service_order.clone())
                        .expect("allocation produced a valid schedule");
                    BankModel::EventDriven {
                        model: EventDrivenModel::new(
                            bank.producers.len(),
                            bank.consumers.len(),
                            schedule,
                        ),
                        inp: EvtInputs {
                            p_req: vec![None; bank.producers.len()],
                            c_addr: vec![None; bank.consumers.len()],
                            a_req: None,
                        },
                        out: EvtOutputs::default(),
                    }
                }
            };
            // Slot <-> thread routing tables, interned once.
            let mut consumer_thread = Vec::with_capacity(bank.consumers.len());
            let mut producer_thread = Vec::with_capacity(bank.producers.len());
            let mut consumer_slot = vec![None; n_threads];
            let mut producer_slot = vec![None; n_threads];
            for (slot, name) in bank.consumers.iter().enumerate() {
                let tid = interner.thread_id(name);
                consumer_thread.push(tid);
                if let Some(t) = tid {
                    consumer_slot[t.idx()] = Some(slot as u16);
                }
            }
            for (slot, name) in bank.producers.iter().enumerate() {
                let tid = interner.thread_id(name);
                producer_thread.push(tid);
                if let Some(t) = tid {
                    producer_slot[t.idx()] = Some(slot as u16);
                }
            }
            for g in &bank.guarded {
                addr_route.push((g.base_addr, bi as u32));
            }
            let last_issue = vec![None; bank.consumers.len()];
            banks.push(SimBank {
                model,
                consumer_thread,
                producer_thread,
                consumer_slot,
                producer_slot,
                last_issue,
                gauge_name: format!("bank{bi}.deplist_occupancy"),
                posted: false,
            });
        }
        addr_route.sort_unstable();
        let routes = threads
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                t.mem_sites()
                    .iter()
                    .map(|&(port, addr)| match (port, addr) {
                        (PortClass::A, _) => Route::Private,
                        (_, Some(addr)) => route_of(&addr_route, &banks, ti, port, addr)
                            .map_or(Route::Unrouted, Route::Sync),
                        (_, None) => Route::ByAddress,
                    })
                    .collect()
            })
            .collect();
        System {
            private: vec![BramModel::new(); n_threads],
            private_issued: Vec::with_capacity(n_threads),
            private_due: Vec::with_capacity(n_threads),
            rx_queues: vec![VecDeque::new(); n_threads],
            sources: Vec::new(),
            routes,
            sched: Scheduler::new(n_threads),
            requests: Vec::with_capacity(n_threads),
            held: vec![None; n_threads],
            released: Vec::with_capacity(n_threads),
            sent_in_step: false,
            work: WorkCounts::default(),
            threads,
            banks,
            addr_route,
            interner,
            cycle: 0,
            metrics: MetricsRegistry::new(),
            sink: Box::new(NullSink),
            instrumented: false,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Thread ticks and bank steps so far.
    pub fn work(&self) -> WorkCounts {
        self.work
    }

    /// Id of a thread by name (cold-path lookup).
    pub fn thread_id(&self, name: &str) -> Option<ThreadId> {
        self.interner.thread_id(name)
    }

    /// Routes cycle events to `sink` and turns on instrumented stepping
    /// (models emit events, the registry counts them). Use a
    /// [`memsync_trace::SharedSink`] to keep a handle for inspection.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = sink;
        self.instrumented = true;
    }

    /// Turns on instrumented stepping without an event stream: the
    /// [`MetricsRegistry`] still sees every event (counters, grant-wait
    /// histograms, occupancy marks), but nothing is buffered or written.
    pub fn enable_metrics(&mut self) {
        self.instrumented = true;
    }

    /// Access a thread by name. Its cycle counters are read through
    /// [`System::thread_cycles`].
    pub fn thread(&self, name: &str) -> Option<&ThreadExec> {
        self.interner
            .thread_id(name)
            .map(|id| &self.threads[id.idx()])
    }

    /// `(cycles, blocked_cycles)` of a thread: the cycles it has run,
    /// which equal [`System::cycle`], and of those the cycles that ended
    /// with it blocked on memory or I/O, parked cycles included.
    pub fn thread_cycles(&self, id: ThreadId) -> (u64, u64) {
        let t = &self.threads[id.idx()];
        let parked = self.sched.parked_for(id.idx(), self.cycle);
        (t.cycles + parked, t.blocked_cycles + parked)
    }

    /// Queues a message for a thread's `recv` interface.
    pub fn push_message(&mut self, thread: &str, value: i64) {
        if let Some(id) = self.interner.thread_id(thread) {
            self.push_rx(id.idx(), value);
        }
    }

    /// Queues a batch of messages for a thread's `recv` interface — the
    /// shard-facing submit path of `memsync-serve`: one lock of the system
    /// per batch instead of one call per packet.
    pub fn push_messages<I>(&mut self, thread: &str, values: I)
    where
        I: IntoIterator<Item = i64>,
    {
        if let Some(id) = self.interner.thread_id(thread) {
            let q = &mut self.rx_queues[id.idx()];
            q.extend(values);
            if !q.is_empty() {
                self.sched
                    .message_queued(&mut self.threads[id.idx()], id.idx(), self.cycle);
            }
        }
    }

    /// Queues `value` for thread `ti`'s `recv`, between steps.
    fn push_rx(&mut self, ti: usize, value: i64) {
        self.rx_queues[ti].push_back(value);
        self.sched
            .message_queued(&mut self.threads[ti], ti, self.cycle);
    }

    /// Messages a thread has sent on its tx interface so far.
    pub fn sent_count(&self, id: ThreadId) -> usize {
        self.threads[id.idx()].sent.len()
    }

    /// Takes (and clears) everything a thread has sent on its tx
    /// interface. The returned `Vec` takes the queue's buffer with it, so
    /// the next send allocates a fresh one; a driver that drains batch by
    /// batch uses [`System::drain_sent_in_place`] instead.
    pub fn drain_sent(&mut self, id: ThreadId) -> Vec<i64> {
        std::mem::take(&mut self.threads[id.idx()].sent)
    }

    /// Drains everything a thread has sent on its tx interface, in order,
    /// while the queue keeps its capacity: once warmed, a long-running
    /// driver (a serve shard) drains each batch without touching the heap,
    /// and `sent` never grows without bound.
    pub fn drain_sent_in_place(&mut self, id: ThreadId) -> std::vec::Drain<'_, i64> {
        self.threads[id.idx()].sent.drain(..)
    }

    /// Steps until every thread in `ids` has sent at least `target`
    /// messages in total (since construction or the last drain plus what
    /// `sent_count` showed), or `max_cycles` elapse. Returns whether the
    /// target was reached — the batch-activation primitive the serve
    /// shards use: submit K descriptors, run until K egress frames emerge.
    pub fn run_until_sent(&mut self, ids: &[ThreadId], target: usize, max_cycles: u64) -> bool {
        let done =
            |threads: &[ThreadExec]| ids.iter().all(|id| threads[id.idx()].sent.len() >= target);
        if done(&self.threads) {
            return true;
        }
        for _ in 0..max_cycles {
            self.step();
            // Only a send brings the target closer.
            if self.sent_in_step && done(&self.threads) {
                return true;
            }
        }
        false
    }

    /// Paced batch submission: pushes `values` onto `thread`'s rx queue
    /// one at a time, running the system after each push until every
    /// thread in `egress` has sent `base + k + 1` messages (`base` is the
    /// undrained sent count before this batch). Pacing matters: guarded
    /// locations have sampling semantics, so an unpaced burst would
    /// overwrite unconsumed values and silently lose messages. Returns
    /// `false` if any value fails to emerge within `budget_per_value`
    /// cycles (a stalled pipeline). `thread` is looked up once per call;
    /// values for a name no thread has are dropped, as
    /// [`System::push_message`] drops them.
    pub fn submit_paced(
        &mut self,
        thread: &str,
        egress: &[ThreadId],
        values: &[i64],
        base: usize,
        budget_per_value: u64,
    ) -> bool {
        let rx = self.interner.thread_id(thread);
        for (k, &v) in values.iter().enumerate() {
            if let Some(id) = rx {
                self.push_rx(id.idx(), v);
            }
            if !self.run_until_sent(egress, base + k + 1, budget_per_value) {
                return false;
            }
        }
        true
    }

    /// Total guarded-location overwrites of unconsumed values across every
    /// sync bank — the dynamic lost-update detector. A correctly paced
    /// program keeps this at 0; any increment means a producer re-fired
    /// before all consumers in its dependency list read, and the sampling
    /// semantics of §3.1 silently dropped the pending value. The static
    /// counterpart is `memsync_hic::hazards` (the `lost_update` hazard).
    pub fn lost_updates(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| match &b.model {
                BankModel::Arbitrated { model, .. } => model.lost_updates(),
                BankModel::EventDriven { model, .. } => model.lost_updates(),
            })
            .sum()
    }

    /// Attaches an arrival process to a thread's network interface.
    ///
    /// # Panics
    ///
    /// Panics if `thread` names no compiled thread.
    pub fn attach_source(&mut self, thread: &str, source: Box<dyn ArrivalProcess>) {
        let id = self
            .interner
            .thread_id(thread)
            .expect("source attached to a known thread");
        match self.sources.binary_search_by_key(&id.idx(), |(t, _)| *t) {
            Ok(i) => self.sources[i].1 = source,
            Err(i) => self.sources.insert(i, (id.idx(), source)),
        }
    }

    /// Advances the system one clock cycle.
    pub fn step(&mut self) {
        // Disjoint field borrows for the whole cycle: thread state, bank
        // state, queues, and metrics are updated side by side.
        let Self {
            threads,
            banks,
            private,
            rx_queues,
            sources,
            addr_route,
            routes,
            sched,
            requests,
            held,
            released,
            private_issued,
            private_due,
            sent_in_step,
            work,
            cycle,
            metrics,
            sink,
            instrumented,
            ..
        } = self;
        let instrumented = *instrumented;
        let now = *cycle;
        // Sync banks come first in the trace's bank numbering; private
        // per-thread port-A banks follow at `n_sync + thread_index`.
        let n_sync = banks.len() as u16;

        // Traffic arrivals. A thread parked at `recv` ticks this cycle.
        for (ti, src) in sources.iter_mut() {
            let ti = *ti;
            if let Some(v) = src.poll(now) {
                let q = &mut rx_queues[ti];
                q.push_back(v);
                sched.message_queued(&mut threads[ti], ti, now);
                if instrumented {
                    let mut tee = RecordingSink {
                        sink: &mut **sink,
                        registry: metrics,
                    };
                    tee.emit(&TraceEvent {
                        cycle: now,
                        bank: 0,
                        port: Port::Rx,
                        addr: 0,
                        kind: EventKind::QueuePush {
                            thread: ti,
                            depth: q.len(),
                        },
                    });
                }
            }
        }

        // 1. Tick the runnable threads, in index order, and collect the
        //    requests they post. A thread whose tick leaves it unable to
        //    progress parks from the next cycle on.
        requests.clear();
        *sent_in_step = false;
        for w in 0..sched.runnable.len() {
            let mut bits = sched.runnable[w];
            while bits != 0 {
                let ti = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let t = &mut threads[ti];
                let q = &mut rx_queues[ti];
                let mut rx = q.front().copied();
                let had = rx.is_some();
                let sent = t.sent.len();
                let req = t.tick(&mut rx, true);
                work.thread_ticks += 1;
                *sent_in_step |= t.sent.len() != sent;
                if had && rx.is_none() {
                    q.pop_front();
                    if instrumented {
                        let mut tee = RecordingSink {
                            sink: &mut **sink,
                            registry: metrics,
                        };
                        tee.emit(&TraceEvent {
                            cycle: now,
                            bank: 0,
                            port: Port::Rx,
                            addr: 0,
                            kind: EventKind::QueuePop {
                                thread: ti,
                                depth: q.len(),
                            },
                        });
                    }
                }
                if let Some(r) = req {
                    requests.push((ti, r));
                }
                if !t.can_progress(!q.is_empty()) {
                    sched.park(ti, now + 1);
                }
            }
        }

        // 2. Route this cycle's requests, in thread order. A private port-A
        //    access resolves at once (it is never arbitrated); a sync
        //    request goes into its bank's input slot, where it stays until
        //    released.
        for &(ti, r) in requests.iter() {
            let h = match routes[ti][r.site as usize] {
                Route::Private => {
                    let bram = &mut private[ti];
                    let kind = match r.write {
                        Some(data) => {
                            bram.write(r.addr, data);
                            EventKind::Write { producer: ti, data }
                        }
                        None => {
                            private_issued.push((ti, r.addr, bram.read(r.addr)));
                            EventKind::ReadIssue { consumer: ti }
                        }
                    };
                    deliver(
                        threads,
                        sched,
                        held,
                        released,
                        ti,
                        MemResponse::Granted,
                        now,
                    );
                    if instrumented {
                        let mut tee = RecordingSink {
                            sink: &mut **sink,
                            registry: metrics,
                        };
                        tee.emit(&TraceEvent {
                            cycle: now,
                            bank: n_sync + ti as u16,
                            port: Port::A,
                            addr: r.addr,
                            kind,
                        });
                    }
                    continue;
                }
                Route::Sync(h) => h,
                Route::ByAddress => match route_of(addr_route, banks, ti, r.port, r.addr) {
                    Some(h) => h,
                    None => continue,
                },
                Route::Unrouted => continue,
            };
            let bank = &mut banks[h.bank as usize];
            bank.model.set_slot(h.slot, Some(&r));
            bank.posted = true;
            held[ti] = Some(h);
        }

        // 3. Step each sync bank and feed grants/data back to threads. A
        //    settled bank with no new request would change nothing but its
        //    cycle count; an instrumented run steps it anyway for its
        //    per-cycle stall events and occupancy gauge.
        for (bi, bank) in banks.iter_mut().enumerate() {
            if !instrumented && !bank.posted && bank.model.settled() {
                bank.model.skip_cycle();
                continue;
            }
            bank.posted = false;
            work.bank_steps += 1;
            let bid = bi as u16;
            let SimBank {
                model,
                consumer_thread,
                producer_thread,
                last_issue,
                gauge_name,
                ..
            } = bank;
            let mut feed =
                |tid: ThreadId, resp| deliver(threads, sched, held, released, tid.idx(), resp, now);
            match model {
                BankModel::Arbitrated { model: m, inp, out } => {
                    if instrumented {
                        let mut tee = RecordingSink {
                            sink: &mut **sink,
                            registry: metrics,
                        };
                        m.step_traced_into(inp, bid, &mut tee, out);
                        metrics.observe_gauge(gauge_name, m.deplist().occupancy() as u64);
                    } else {
                        m.step_traced_into(inp, bid, &mut NullSink, out);
                    }
                    // Data delivery for last cycle's issue first: a
                    // same-cycle producer write belongs to the *next*
                    // produce-consume round, so deliveries must be
                    // attributed before the new write is recorded.
                    // (When instrumented, the model's Deliver/Write events
                    // already fed the latency recorder via the registry.)
                    if let Some((c, data)) = out.c_data {
                        if let Some(tid) = consumer_thread[c] {
                            feed(tid, MemResponse::Data(data));
                        }
                        if !instrumented {
                            if let Some(addr) = last_issue[c] {
                                metrics.record_delivery(addr, c, now);
                            }
                        }
                    }
                    // The producer grant.
                    if let Some(p) = out.granted_producer() {
                        if let Some(tid) = producer_thread[p] {
                            if !instrumented {
                                if let Some((addr, _, _)) = inp.d_req[p] {
                                    metrics.record_write(addr, now);
                                }
                            }
                            feed(tid, MemResponse::Granted);
                        }
                    }
                    // The consumer grant (read issued); remember the
                    // address for delivery attribution.
                    if let Some(c) = out.granted_consumer() {
                        if let Some(tid) = consumer_thread[c] {
                            feed(tid, MemResponse::Granted);
                        }
                        if let Some(addr) = inp.c_req[c] {
                            last_issue[c] = Some(addr);
                        }
                    }
                }
                BankModel::EventDriven { model: m, inp, out } => {
                    if instrumented {
                        let mut tee = RecordingSink {
                            sink: &mut **sink,
                            registry: metrics,
                        };
                        m.step_traced_into(inp, bid, &mut tee, out);
                    } else {
                        m.step_traced_into(inp, bid, &mut NullSink, out);
                    }
                    // Deliveries before new writes (same-cycle attribution).
                    if let Some((c, data)) = out.c_data {
                        if let Some(tid) = consumer_thread[c] {
                            // The consumer is mid-read: grant + data in one
                            // delivery (the event releases the blocked read).
                            feed(tid, MemResponse::Granted);
                            feed(tid, MemResponse::Data(data));
                        }
                        if !instrumented {
                            if let Some(addr) = inp.c_addr[c] {
                                metrics.record_delivery(addr, c, now);
                            }
                        }
                    }
                    for (p, granted) in out.p_grant.iter().enumerate() {
                        if !granted {
                            continue;
                        }
                        if let Some(tid) = producer_thread[p] {
                            if !instrumented {
                                if let Some((addr, _)) = inp.p_req[p] {
                                    metrics.record_write(addr, now);
                                }
                            }
                            feed(tid, MemResponse::Granted);
                        }
                    }
                }
            }
        }

        // 4. Deliver private-bank read data issued last cycle, and make
        //    this cycle's issues next cycle's deliveries.
        for &(ti, addr, data) in private_due.iter() {
            deliver(
                threads,
                sched,
                held,
                released,
                ti,
                MemResponse::Data(data),
                now,
            );
            if instrumented {
                let mut tee = RecordingSink {
                    sink: &mut **sink,
                    registry: metrics,
                };
                tee.emit(&TraceEvent {
                    cycle: now,
                    bank: n_sync + ti as u16,
                    port: Port::A,
                    addr,
                    kind: EventKind::Deliver { consumer: ti, data },
                });
            }
        }
        private_due.clear();
        std::mem::swap(private_due, private_issued);

        // 5. Empty the slots of requests no longer held. A bank's inputs
        //    for a cycle are what its threads held after their ticks, so a
        //    slot a delivery released empties only once every bank has
        //    stepped. A settled bank stays settled when a request leaves
        //    (see the models' `settled`), so a release does not wake it.
        if !released.is_empty() {
            for h in released.drain(..) {
                banks[h.bank as usize].model.set_slot(h.slot, None);
            }
        }

        *cycle += 1;
    }

    /// Runs until every thread has completed at least `iterations`
    /// run-to-completion iterations, or `max_cycles` elapse.
    ///
    /// Returns whether the iteration target was reached.
    pub fn run_until_iterations(&mut self, iterations: u64, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.threads.iter().all(|t| t.iterations >= iterations) {
                return true;
            }
            self.step();
        }
        self.threads.iter().all(|t| t.iterations >= iterations)
    }
}

/// The bank slot a request of thread `ti` on `port` at `addr` is held in:
/// guarded addresses are globally unique (see alloc), so a binary search
/// finds the owning bank, whose tables give the thread's slot there.
fn route_of(
    addr_route: &[(u32, u32)],
    banks: &[SimBank],
    ti: usize,
    port: PortClass,
    addr: u32,
) -> Option<Held> {
    let pos = addr_route.binary_search_by_key(&addr, |&(a, _)| a).ok()?;
    let bi = addr_route[pos].1;
    let bank = &banks[bi as usize];
    let slot = match port {
        PortClass::C | PortClass::B => bank.consumer_slot[ti].map(Slot::Consumer),
        PortClass::D => bank.producer_slot[ti].map(Slot::Producer),
        PortClass::A => None,
    }?;
    Some(Held { bank: bi, slot })
}

/// Feeds `resp`, produced in cycle `now`, to thread `ti`. A thread whose
/// wait thereby ends ticks again from the next cycle. A thread that stops
/// holding a request posted to a bank slot queues that slot for release at
/// the end of the cycle. Normally this is the bank's own grant, but a
/// delivery can reach a thread waiting elsewhere: an event-driven slot
/// served before its consumer waits (see
/// `EventDrivenModel::step_traced_into`).
#[inline]
fn deliver(
    threads: &mut [ThreadExec],
    sched: &mut Scheduler,
    held: &mut [Option<Held>],
    released: &mut Vec<Held>,
    ti: usize,
    resp: MemResponse,
    now: u64,
) {
    let t = &mut threads[ti];
    if t.deliver(resp) {
        sched.wake(t, ti, now + 1);
    }
    if t.held_request().is_none() {
        if let Some(h) = held[ti].take() {
            released.push(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::PeriodicSource;
    use memsync_core::Compiler;
    use memsync_synth::eval::call_function;

    const FIGURE1: &str = r#"
        thread t1 () {
            int x1, xtmp, x2;
            #consumer{mt1,[t2,y1],[t3,z1]}
            x1 = f(xtmp, x2);
        }
        thread t2 () {
            int y1, y2;
            #producer{mt1,[t1,x1]}
            y1 = g(x1, y2);
        }
        thread t3 () {
            int z1, z2;
            #producer{mt1,[t1,x1]}
            z1 = h(x1, z2);
        }
    "#;

    fn compiled(kind: OrganizationKind) -> CompiledSystem {
        let mut c = Compiler::new(FIGURE1);
        c.organization(kind);
        c.skip_validation();
        c.compile().expect("figure 1 compiles")
    }

    #[test]
    fn figure1_values_flow_under_arbitration() {
        let sys_desc = compiled(OrganizationKind::Arbitrated);
        let mut sys = System::new(&sys_desc);
        assert!(sys.run_until_iterations(2, 2000), "threads make progress");
        // x1 itself is memory-resident (port D); the consumers' registers
        // prove the value crossed the shared memory.
        let x1 = call_function("f", &[0, 0]);
        assert_eq!(
            sys.thread("t2").unwrap().var("y1"),
            Some(call_function("g", &[x1, 0]))
        );
        assert_eq!(
            sys.thread("t3").unwrap().var("z1"),
            Some(call_function("h", &[x1, 0]))
        );
    }

    #[test]
    fn figure1_values_flow_under_event_driven() {
        let sys_desc = compiled(OrganizationKind::EventDriven);
        let mut sys = System::new(&sys_desc);
        assert!(sys.run_until_iterations(2, 2000), "threads make progress");
        let x1 = call_function("f", &[0, 0]);
        assert_eq!(
            sys.thread("t2").unwrap().var("y1"),
            Some(call_function("g", &[x1, 0]))
        );
        assert_eq!(
            sys.thread("t3").unwrap().var("z1"),
            Some(call_function("h", &[x1, 0]))
        );
    }

    #[test]
    fn event_driven_latencies_are_deterministic_figure1() {
        let sys_desc = compiled(OrganizationKind::EventDriven);
        let mut sys = System::new(&sys_desc);
        assert!(sys.run_until_iterations(20, 20_000));
        for (addr, consumer) in sys.metrics.streams() {
            let stats = sys.metrics.stats(addr, consumer).expect("samples exist");
            assert!(stats.count >= 10, "enough samples");
            assert!(
                stats.is_deterministic(),
                "event-driven latency must be exact; got {stats:?}"
            );
        }
    }

    #[test]
    fn thread_ids_follow_the_compiled_fsms() {
        let sys_desc = compiled(OrganizationKind::Arbitrated);
        let sys = System::new(&sys_desc);
        for (i, name) in ["t1", "t2", "t3"].into_iter().enumerate() {
            let id = sys.thread_id(name).expect("thread interned");
            assert_eq!(id, ThreadId(i as u32));
            assert_eq!(sys.thread(name).expect("thread exists").name(), name);
        }
        assert_eq!(sys.thread_id("nope"), None);
    }

    /// Figure 1 with the producer paced by packet arrivals — §3.1's
    /// "writes happen when packets arrive from a network and are
    /// probabilistic in nature".
    const FIGURE1_PACED: &str = r#"
        thread t1 () {
            message pkt;
            int x1, x2;
            recv pkt;
            #consumer{mt1,[t2,y1],[t3,z1]}
            x1 = f(pkt, x2);
        }
        thread t2 () {
            int y1, y2;
            #producer{mt1,[t1,x1]}
            y1 = g(x1, y2);
        }
        thread t3 () {
            int z1, z2;
            #producer{mt1,[t1,x1]}
            z1 = h(x1, z2);
        }
    "#;

    #[test]
    fn arbitrated_consumers_see_variable_latency_under_contention() {
        // Two consumers contending on one bus: arbitration order makes the
        // second consumer's latency differ from the first's.
        let mut c = Compiler::new(FIGURE1_PACED);
        c.organization(OrganizationKind::Arbitrated)
            .skip_validation();
        let compiled = c.compile().unwrap();
        let mut sys = System::new(&compiled);
        sys.attach_source(
            "t1",
            Box::new(crate::traffic::BernoulliSource::new(11, 0.05)),
        );
        for _ in 0..20_000 {
            sys.step();
        }
        let pooled = sys.metrics.pooled_stats().expect("samples recorded");
        assert!(pooled.count >= 20, "{pooled:?}");
        assert!(
            pooled.max > pooled.min,
            "contended arbitration should spread latencies: {pooled:?}"
        );
    }

    /// The invariant held requests rest on: after every step, each bank's
    /// inputs are what rebuilding them from the threads' held requests
    /// gives, each routed by its address, as the engine once did every
    /// cycle.
    fn assert_slots_hold_the_threads_requests(sys: &System) {
        let inputs = |m: &BankModel| match m {
            BankModel::Arbitrated { inp, .. } => format!("{inp:?}"),
            BankModel::EventDriven { inp, .. } => format!("{inp:?}"),
        };
        for (bi, bank) in sys.banks.iter().enumerate() {
            let mut want = bank.model.clone();
            for c in 0..bank.consumer_thread.len() {
                want.set_slot(Slot::Consumer(c as u16), None);
            }
            for p in 0..bank.producer_thread.len() {
                want.set_slot(Slot::Producer(p as u16), None);
            }
            for (ti, t) in sys.threads.iter().enumerate() {
                let Some(r) = t.held_request() else { continue };
                match route_of(&sys.addr_route, &sys.banks, ti, r.port, r.addr) {
                    Some(h) if h.bank as usize == bi => want.set_slot(h.slot, Some(&r)),
                    _ => {}
                }
            }
            assert_eq!(
                inputs(&bank.model),
                inputs(&want),
                "bank {bi} after cycle {}",
                sys.cycle
            );
        }
    }

    /// The scheduler's invariant: the threads the next step ticks are
    /// exactly those a tick could change, and every thread's cycle count,
    /// parked spans included, is the system's.
    fn assert_runnable_threads_can_progress(sys: &System) {
        for (ti, (t, q)) in sys.threads.iter().zip(&sys.rx_queues).enumerate() {
            assert_eq!(
                sys.sched.is_runnable(ti),
                t.can_progress(!q.is_empty()),
                "thread {ti} after cycle {}",
                sys.cycle
            );
            let (cycles, blocked) = sys.thread_cycles(ThreadId(ti as u32));
            assert_eq!(cycles, sys.cycle, "thread {ti}'s cycles");
            assert!(blocked <= cycles, "thread {ti}: {blocked} blocked cycles");
        }
    }

    #[test]
    fn held_slots_match_the_threads_every_cycle() {
        let forwarding = memsync_netapp::forwarding::app_source(4);
        for (src, rx) in [(FIGURE1_PACED, "t1"), (forwarding.as_str(), "rx")] {
            for kind in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
                let mut c = Compiler::new(src);
                c.organization(kind).skip_validation();
                let mut sys = System::new(&c.compile().unwrap());
                // Heavy unpaced traffic: overwrites, late consumers and
                // every stall path.
                sys.attach_source(rx, Box::new(crate::traffic::BernoulliSource::new(7, 0.3)));
                for _ in 0..3_000 {
                    sys.step();
                    assert_slots_hold_the_threads_requests(&sys);
                    assert_runnable_threads_can_progress(&sys);
                }
                assert!(
                    sys.thread(rx).unwrap().iterations > 50,
                    "{kind}: traffic flowed"
                );
            }
        }
    }

    /// Messages queued between steps wake a thread parked at `recv` for
    /// the next step, and its parked cycles count as blocked ones.
    #[test]
    fn a_message_queued_between_steps_wakes_its_thread() {
        let src = "thread rx () { message m; int v; recv m; v = m + 1; send v; }";
        let mut c = Compiler::new(src);
        c.skip_validation();
        let mut sys = System::new(&c.compile().unwrap());
        let rx = sys.thread_id("rx").unwrap();
        for _ in 0..10 {
            sys.step();
        }
        assert!(!sys.sched.is_runnable(rx.idx()), "parked at recv");
        let (cycles, blocked) = sys.thread_cycles(rx);
        assert_eq!(cycles, 10);
        sys.push_message("rx", 41);
        assert_runnable_threads_can_progress(&sys);
        assert!(sys.run_until_sent(&[rx], 1, 100));
        assert_eq!(sys.drain_sent(rx), vec![42]);
        // Back round to its recv, where it parks again.
        while sys.sched.is_runnable(rx.idx()) {
            sys.step();
        }
        let ticks = sys.work().thread_ticks;
        for _ in 0..5 {
            sys.step();
        }
        assert_eq!(sys.work().thread_ticks, ticks, "parked again: no ticks");
        let (cycles_after, blocked_after) = sys.thread_cycles(rx);
        assert_eq!(cycles_after, sys.cycle());
        assert!(blocked_after >= blocked + 5);
        assert_runnable_threads_can_progress(&sys);
    }

    #[test]
    fn batch_submit_runs_until_sent_and_drains() {
        let src = r#"
            thread rx () {
                message m;
                int v;
                recv m;
                v = m + 1;
                send v;
            }
        "#;
        let mut c = Compiler::new(src);
        c.skip_validation();
        let compiled = c.compile().unwrap();
        let mut sys = System::new(&compiled);
        let rx = sys.thread_id("rx").unwrap();
        sys.push_messages("rx", [10i64, 20, 30]);
        assert!(sys.run_until_sent(&[rx], 3, 10_000), "batch completes");
        assert_eq!(sys.drain_sent(rx), vec![11, 21, 31]);
        assert_eq!(sys.sent_count(rx), 0, "drained");
        // A second batch starts from a clean sent buffer.
        sys.push_messages("rx", [40i64]);
        assert!(sys.run_until_sent(&[rx], 1, 10_000));
        assert_eq!(sys.drain_sent(rx), vec![41]);
        // Unknown thread names are ignored, matching push_message.
        sys.push_messages("nope", [1i64]);
    }

    #[test]
    fn recv_driven_thread_consumes_traffic() {
        let src = r#"
            thread rx () {
                message m;
                int seen;
                recv m;
                seen = seen + 1;
                send m;
            }
        "#;
        let mut c = Compiler::new(src);
        c.skip_validation();
        let compiled = c.compile().unwrap();
        let mut sys = System::new(&compiled);
        sys.attach_source("rx", Box::new(PeriodicSource::new(10, 0)));
        for _ in 0..200 {
            sys.step();
        }
        let t = sys.thread("rx").unwrap();
        assert!(
            t.iterations >= 10,
            "one message per period: {}",
            t.iterations
        );
        assert!(t.sent.len() >= 10);
        // Payloads pass through in order.
        assert_eq!(&t.sent[0..3], &[1, 2, 3]);
    }
}
