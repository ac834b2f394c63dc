//! The simulation engine: wires synthesized thread FSMs to behavioral
//! memory-organization models and steps the whole system cycle by cycle.
//!
//! The hot path is fully interned (see [`crate::intern`]): thread names
//! are resolved to dense [`ThreadId`] indices once at [`System::new`]
//! time, banks are indexed in allocation order, per-bank routing tables
//! map pseudo-port slots to thread ids and back, and every per-cycle
//! buffer (requests, wrapper inputs/outputs) is preallocated.
//!
//! A step does work only where state can change. It ticks the threads that
//! can progress: a thread waiting on memory, or on `recv` with an empty
//! queue, is parked, and the step only counts the cycle in its `cycles` and
//! `blocked_cycles`. A posted request goes into its bank's input slot once
//! and is held there until the thread stops holding it, normally at the
//! bank's grant. A bank whose last step left it settled (a fixed point of
//! its inputs) skips its step, and only advances its cycle count, until a
//! request is posted to it. The private port-A delivery pass runs only
//! while a private read is in flight. An instrumented step still steps every bank, because the
//! per-cycle stall events and the occupancy gauge are the trace; parked
//! threads emit no events either way. Every observable (cycle counts,
//! per-thread counters, sent messages, latency sums, lost updates, trace
//! bytes) is what ticking every thread and stepping every bank on every
//! cycle produces: `crates/sim/tests/golden_metrics.rs` pins it.
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

/// Per-thread private port-A bank with the one-cycle read latency.
#[derive(Debug, Clone, Default)]
struct PrivateBank {
    bram: BramModel,
    /// Read issued this cycle: `(addr, data)` delivered next cycle.
    inflight: Option<(u32, u32)>,
    /// Read data due this cycle: `(addr, data)`.
    pending_delivery: Option<(u32, u32)>,
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

/// A full system simulation.
#[derive(Debug)]
pub struct System {
    threads: Vec<ThreadExec>,
    banks: Vec<SimBank>,
    /// Private port-A banks, indexed by [`ThreadId`].
    private: Vec<PrivateBank>,
    /// Rx message queues, indexed by [`ThreadId`].
    rx_queues: Vec<VecDeque<i64>>,
    /// Attached arrival processes as `(thread index, source)`, in thread
    /// order.
    sources: Vec<(usize, Box<dyn ArrivalProcess>)>,
    /// `(guarded base addr, bank index)` sorted by address: requests route
    /// by binary search instead of scanning every bank's guarded list.
    addr_route: Vec<(u32, u32)>,
    /// Requests posted this cycle as `(thread index, request)`, in thread
    /// order (reused every cycle).
    requests: Vec<(usize, MemRequest)>,
    /// Per thread, the bank slot holding its posted request.
    held: Vec<Option<Held>>,
    /// Slots whose threads stopped holding their requests this cycle,
    /// emptied at the end of the cycle (reused every cycle).
    released: Vec<Held>,
    /// Whether a private port-A read awaits delivery next cycle.
    private_read_pending: bool,
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
        System {
            private: vec![PrivateBank::default(); n_threads],
            rx_queues: vec![VecDeque::new(); n_threads],
            sources: Vec::new(),
            requests: Vec::with_capacity(n_threads),
            held: vec![None; n_threads],
            released: Vec::with_capacity(n_threads),
            private_read_pending: false,
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

    /// Access a thread by name.
    pub fn thread(&self, name: &str) -> Option<&ThreadExec> {
        self.interner
            .thread_id(name)
            .map(|id| &self.threads[id.idx()])
    }

    /// Queues a message for a thread's `recv` interface.
    pub fn push_message(&mut self, thread: &str, value: i64) {
        if let Some(id) = self.interner.thread_id(thread) {
            self.rx_queues[id.idx()].push_back(value);
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
            self.rx_queues[id.idx()].extend(values);
        }
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
        for _ in 0..max_cycles {
            if done(&self.threads) {
                return true;
            }
            self.step();
        }
        done(&self.threads)
    }

    /// Paced batch submission: pushes `values` onto `thread`'s rx queue
    /// one at a time, running the system after each push until every
    /// thread in `egress` has sent `base + k + 1` messages (`base` is the
    /// undrained sent count before this batch). Pacing matters: guarded
    /// locations have sampling semantics, so an unpaced burst would
    /// overwrite unconsumed values and silently lose messages. Returns
    /// `false` if any value fails to emerge within `budget_per_value`
    /// cycles (a stalled pipeline).
    pub fn submit_paced(
        &mut self,
        thread: &str,
        egress: &[ThreadId],
        values: &[i64],
        base: usize,
        budget_per_value: u64,
    ) -> bool {
        for (k, &v) in values.iter().enumerate() {
            self.push_message(thread, v);
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
            requests,
            held,
            released,
            private_read_pending,
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

        // Traffic arrivals.
        for (ti, src) in sources.iter_mut() {
            let ti = *ti;
            if let Some(v) = src.poll(now) {
                let q = &mut rx_queues[ti];
                q.push_back(v);
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

        // 1. Tick the threads that can progress and collect the requests
        //    they post. A parked thread only counts the cycle.
        requests.clear();
        for (ti, (t, q)) in threads.iter_mut().zip(rx_queues.iter_mut()).enumerate() {
            if !t.can_progress(!q.is_empty()) {
                t.skip_cycle();
                continue;
            }
            let mut rx = q.front().copied();
            let had = rx.is_some();
            let req = t.tick(&mut rx, true);
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
        }

        // 2. Private port-A banks: resolve immediately (never arbitrated).
        let mut private_read_issued = false;
        for &(ti, r) in requests.iter() {
            if r.port != PortClass::A {
                continue;
            }
            let bank = &mut private[ti];
            let kind = match r.write {
                Some(data) => {
                    bank.bram.write(r.addr, data);
                    threads[ti].deliver(MemResponse::Granted);
                    EventKind::Write { producer: ti, data }
                }
                None => {
                    bank.inflight = Some((r.addr, bank.bram.read(r.addr)));
                    private_read_issued = true;
                    threads[ti].deliver(MemResponse::Granted);
                    EventKind::ReadIssue { consumer: ti }
                }
            };
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
        }

        // 3a. Post this cycle's sync requests into their bank's input
        //     slots, where they stay until released.
        for &(ti, r) in requests.iter() {
            if r.port == PortClass::A {
                continue;
            }
            // Guarded addresses are globally unique (see alloc): binary
            // search finds the owning bank without scanning guarded lists.
            let Ok(pos) = addr_route.binary_search_by_key(&r.addr, |&(a, _)| a) else {
                continue;
            };
            let bi = addr_route[pos].1;
            let bank = &mut banks[bi as usize];
            let slot = match r.port {
                PortClass::C | PortClass::B => bank.consumer_slot[ti].map(Slot::Consumer),
                PortClass::D => bank.producer_slot[ti].map(Slot::Producer),
                PortClass::A => None,
            };
            let Some(slot) = slot else { continue };
            bank.model.set_slot(slot, Some(&r));
            bank.posted = true;
            held[ti] = Some(Held { bank: bi, slot });
        }

        // 3b. Step each sync bank and feed grants/data back to threads. A
        //     settled bank with no new request would change nothing but
        //     its cycle count; an instrumented run steps it anyway for its
        //     per-cycle stall events and occupancy gauge.
        for (bi, bank) in banks.iter_mut().enumerate() {
            if !instrumented && !bank.posted && bank.model.settled() {
                bank.model.skip_cycle();
                continue;
            }
            bank.posted = false;
            let bid = bi as u16;
            let SimBank {
                model,
                consumer_thread,
                producer_thread,
                last_issue,
                gauge_name,
                ..
            } = bank;
            let mut feed = |tid: ThreadId, resp| deliver(threads, held, released, tid.idx(), resp);
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
                    // Producer grants.
                    for (p, granted) in out.d_grant.iter().enumerate() {
                        if !granted {
                            continue;
                        }
                        if let Some(tid) = producer_thread[p] {
                            if !instrumented {
                                if let Some((addr, _, _)) = inp.d_req[p] {
                                    metrics.record_write(addr, now);
                                }
                            }
                            feed(tid, MemResponse::Granted);
                        }
                    }
                    // Consumer grants (read issued); remember the address
                    // for delivery attribution.
                    for (c, granted) in out.c_grant.iter().enumerate() {
                        if !granted {
                            continue;
                        }
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

        // 4. Deliver private-bank read data scheduled last cycle, and
        //    promote this cycle's issues to next cycle's deliveries.
        if *private_read_pending || private_read_issued {
            let mut pending = false;
            for (ti, bank) in private.iter_mut().enumerate() {
                if let Some((addr, data)) = bank.pending_delivery.take() {
                    deliver(threads, held, released, ti, MemResponse::Data(data));
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
                bank.pending_delivery = bank.inflight.take();
                pending |= bank.pending_delivery.is_some();
            }
            *private_read_pending = pending;
        }

        // 5. Empty the slots of requests no longer held. A bank's inputs
        //    for a cycle are what its threads held after their ticks, so a
        //    slot a delivery released empties only once every bank has
        //    stepped. A settled bank stays settled when a request leaves
        //    (see the models' `settled`), so a release does not wake it.
        for h in released.drain(..) {
            banks[h.bank as usize].model.set_slot(h.slot, None);
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

/// Feeds `resp` to thread `ti`. A thread that thereby stops holding a
/// request posted to a bank slot queues that slot for release at the end
/// of the cycle. Normally this is the bank's own grant, but a delivery can
/// reach a thread waiting elsewhere: an event-driven slot served before its
/// consumer waits (see `EventDrivenModel::step_traced_into`).
fn deliver(
    threads: &mut [ThreadExec],
    held: &mut [Option<Held>],
    released: &mut Vec<Held>,
    ti: usize,
    resp: MemResponse,
) {
    let t = &mut threads[ti];
    t.deliver(resp);
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
    /// gives, as the engine once did every cycle.
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
                let Ok(pos) = sys.addr_route.binary_search_by_key(&r.addr, |&(a, _)| a) else {
                    continue;
                };
                if sys.addr_route[pos].1 as usize != bi {
                    continue;
                }
                let slot = match r.port {
                    PortClass::C | PortClass::B => bank.consumer_slot[ti].map(Slot::Consumer),
                    PortClass::D => bank.producer_slot[ti].map(Slot::Producer),
                    PortClass::A => None,
                };
                if let Some(slot) = slot {
                    want.set_slot(slot, Some(&r));
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
                }
                assert!(
                    sys.thread(rx).unwrap().iterations > 50,
                    "{kind}: traffic flowed"
                );
            }
        }
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
