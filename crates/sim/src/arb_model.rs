//! Cycle-accurate behavioral model of the arbitrated memory organization,
//! mirroring the pipelined RTL of `memsync_core::arbitrated` cycle for
//! cycle: decision (compare + round-robin) in one cycle, BRAM issue in the
//! next, read data one cycle after that; producer writes pre-empt the port
//! and pipelined reads replay.
//!
//! The decision stage works on masks, as the RTL does. Each pseudo-port
//! resolves the address it presents to its dependency-list entry once, when
//! the address first appears, and keeps that entry while it holds the
//! request. A consumer is eligible when its entry's bit is set in the
//! list's pending mask, and the round-robin arbiter grants among the
//! eligible mask by rotating it to the pointer and taking the lowest set
//! bit. At most one consumer and one producer win a cycle, so a step
//! clears only the grant lanes the previous step set.

use crate::bram_model::BramModel;
use memsync_core::arbiter::RoundRobin;
use memsync_core::deplist::{DependencyList, ReadOutcome};
use memsync_trace::{EventKind, NullSink, Port, Role, TraceEvent, TraceSink};

/// Per-cycle inputs of the wrapper.
#[derive(Debug, Clone, Default)]
pub struct ArbInputs {
    /// Consumer pseudo-port requests: `Some(addr)` while the consumer holds
    /// its blocking read.
    pub c_req: Vec<Option<u32>>,
    /// Producer pseudo-port requests: `Some((addr, data, dep_number))`.
    pub d_req: Vec<Option<(u32, u32, u8)>>,
    /// Port A access: `Some((addr, data, we))`.
    pub a_req: Option<(u32, u32, bool)>,
}

/// Per-cycle outputs of the wrapper.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArbOutputs {
    /// Grant pulse per consumer (the read was issued this cycle; data is on
    /// the bus next cycle).
    pub c_grant: Vec<bool>,
    /// Grant pulse per producer (the write happened this cycle).
    pub d_grant: Vec<bool>,
    /// Read data delivered this cycle to the consumer granted last cycle.
    pub c_data: Option<(usize, u32)>,
    /// Port A read data (for the address presented last cycle).
    pub a_data: Option<u32>,
    /// The set lane of `c_grant`, if any.
    c_won: Option<usize>,
    /// The set lane of `d_grant`, if any.
    d_won: Option<usize>,
}

impl ArbOutputs {
    /// The consumer granted this cycle: the one set lane of `c_grant`.
    pub fn granted_consumer(&self) -> Option<usize> {
        self.c_won
    }

    /// The producer granted this cycle: the one set lane of `d_grant`.
    pub fn granted_producer(&self) -> Option<usize> {
        self.d_won
    }

    /// Lowers last cycle's grant pulses. A buffer already sized for the
    /// wrapper has at most one lane set per port class, so only those are
    /// cleared; any other buffer is sized (once) with every lane low.
    #[inline]
    fn begin_cycle(&mut self, consumers: usize, producers: usize) {
        if self.c_grant.len() == consumers && self.d_grant.len() == producers {
            if let Some(i) = self.c_won.take() {
                self.c_grant[i] = false;
            }
            if let Some(j) = self.d_won.take() {
                self.d_grant[j] = false;
            }
        } else {
            self.c_grant.clear();
            self.c_grant.resize(consumers, false);
            self.d_grant.clear();
            self.d_grant.resize(producers, false);
            self.c_won = None;
            self.d_won = None;
        }
    }

    fn grant_consumer(&mut self, i: usize) {
        self.c_grant[i] = true;
        self.c_won = Some(i);
    }

    fn grant_producer(&mut self, j: usize) {
        self.d_grant[j] = true;
        self.d_won = Some(j);
    }
}

/// A pseudo-port's last presented address and the dependency-list entry it
/// resolved to (`None` inside: no entry guards the address).
type Resolved = Option<(u32, Option<usize>)>;

/// The entry guarding `addr`, searched in the CAM only when the port
/// presents an address other than its last one.
fn entry_of(port: &mut Resolved, deplist: &DependencyList, addr: u32) -> Option<usize> {
    match *port {
        Some((last, entry)) if last == addr => entry,
        _ => {
            let entry = deplist.find(addr);
            *port = Some((addr, entry));
            entry
        }
    }
}

/// The behavioral wrapper.
#[derive(Debug, Clone)]
pub struct ArbitratedModel {
    consumers: usize,
    producers: usize,
    deplist: DependencyList,
    rr: RoundRobin,
    /// Registered decision: consumer index waiting to issue.
    pipe: Option<usize>,
    /// Read issued last cycle: (consumer, addr, data arriving now).
    inflight: Option<(usize, u32, u32)>,
    /// Port A read issued last cycle.
    a_inflight: Option<u32>,
    bram: BramModel,
    cycle: u64,
    /// Per consumer port, its request's dependency-list entry.
    c_entry: Vec<Resolved>,
    /// Per producer port, its request's dependency-list entry.
    d_entry: Vec<Resolved>,
    /// Producer writes that overwrote a guarded value with unconsumed
    /// reads outstanding (the sampling-semantics lost-update detector).
    lost_updates: u64,
    /// Whether the last step left a fixed point: nothing in flight, no
    /// producer write and no eligible consumer, so stepping again with the
    /// same inputs would change nothing but the cycle count.
    settled: bool,
}

impl ArbitratedModel {
    /// Creates the model; the dependency list is configured via
    /// [`ArbitratedModel::configure`].
    ///
    /// # Panics
    ///
    /// Panics if pseudo-port counts exceed the base architecture (8).
    pub fn new(producers: usize, consumers: usize, deplist_entries: usize) -> Self {
        assert!((1..=8).contains(&producers) && (1..=8).contains(&consumers));
        ArbitratedModel {
            consumers,
            producers,
            deplist: DependencyList::new(deplist_entries),
            rr: RoundRobin::new(consumers),
            pipe: None,
            inflight: None,
            a_inflight: None,
            bram: BramModel::new(),
            cycle: 0,
            c_entry: vec![None; consumers],
            d_entry: vec![None; producers],
            lost_updates: 0,
            settled: false,
        }
    }

    /// Configuration-time population of the dependency list.
    ///
    /// # Errors
    ///
    /// Propagates [`DependencyList::configure`] failures.
    pub fn configure(&mut self, base_addr: u32, dep_number: u8) -> Result<(), String> {
        self.settled = false;
        // A new entry can guard an address a port already resolved.
        self.c_entry.fill(None);
        self.d_entry.fill(None);
        self.deplist.configure(base_addr, dep_number)
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Direct view of the dependency list (tests, metrics).
    pub fn deplist(&self) -> &DependencyList {
        &self.deplist
    }

    /// Producer writes so far that overwrote a guarded value before every
    /// consumer read it — the dynamic lost-update detector. Always 0 for
    /// programs whose producers are correctly paced; `> 0` means data was
    /// silently dropped by the sampling semantics of §3.1.
    pub fn lost_updates(&self) -> u64 {
        self.lost_updates
    }

    /// Whether the last step left a fixed point: stepping again with the
    /// same inputs would change nothing but the cycle count. Inputs with
    /// fewer requests keep it a fixed point: they cannot make a consumer
    /// eligible or start a write.
    pub(crate) fn settled(&self) -> bool {
        self.settled
    }

    /// Advances the cycle count alone, in place of a step that
    /// [`ArbitratedModel::settled`] says would change nothing else.
    pub(crate) fn skip_cycle(&mut self) {
        debug_assert!(self.settled, "only a settled model skips its step");
        self.cycle += 1;
    }

    /// Whether consumer `i`'s request at `addr` has an open
    /// produce–consume cycle to read.
    fn eligible(&mut self, i: usize, addr: u32) -> bool {
        entry_of(&mut self.c_entry[i], &self.deplist, addr)
            .is_some_and(|e| self.deplist.pending_mask() >> e & 1 == 1)
    }

    /// Advances one clock cycle.
    ///
    /// # Panics
    ///
    /// Panics if the request vectors do not match the pseudo-port counts.
    pub fn step(&mut self, inputs: &ArbInputs) -> ArbOutputs {
        self.step_traced(inputs, 0, &mut NullSink)
    }

    /// Advances one clock cycle, emitting cycle events to `sink` with
    /// `bank` attribution. [`ArbitratedModel::step`] is this with a
    /// [`NullSink`]: the method is generic over the sink, so that step
    /// compiles with the instrumentation removed.
    ///
    /// # Panics
    ///
    /// Panics if the request vectors do not match the pseudo-port counts.
    pub fn step_traced<S: TraceSink + ?Sized>(
        &mut self,
        inputs: &ArbInputs,
        bank: u16,
        sink: &mut S,
    ) -> ArbOutputs {
        let mut out = ArbOutputs::default();
        self.step_traced_into(inputs, bank, sink, &mut out);
        out
    }

    /// [`ArbitratedModel::step_traced`] into a caller-owned output buffer.
    ///
    /// The grant vectors are sized once (to the pseudo-port counts); after
    /// that a step lowers only the lanes the previous step raised, so a
    /// steady-state step performs no heap allocation. The engine keeps one
    /// buffer per bank.
    ///
    /// # Panics
    ///
    /// Panics if the request vectors do not match the pseudo-port counts.
    pub fn step_traced_into<S: TraceSink + ?Sized>(
        &mut self,
        inputs: &ArbInputs,
        bank: u16,
        sink: &mut S,
        out: &mut ArbOutputs,
    ) {
        assert_eq!(inputs.c_req.len(), self.consumers, "c_req length");
        assert_eq!(inputs.d_req.len(), self.producers, "d_req length");
        let cycle = self.cycle;
        let ev = |port: Port, addr: u32, kind: EventKind| TraceEvent {
            cycle,
            bank,
            port,
            addr,
            kind,
        };
        out.begin_cycle(self.consumers, self.producers);
        out.c_data = self.inflight.take().map(|(i, addr, d)| {
            sink.emit(&ev(
                Port::C,
                addr,
                EventKind::Deliver {
                    consumer: i,
                    data: d,
                },
            ));
            (i, d)
        });
        out.a_data = self.a_inflight.take();

        // Port A: direct, always served, one-cycle read latency.
        if let Some((addr, data, we)) = inputs.a_req {
            if we {
                self.bram.write(addr, data);
            } else {
                self.a_inflight = Some(self.bram.read(addr));
            }
        }

        // Port D: fixed priority among producers, highest overall priority.
        let d_winner = inputs
            .d_req
            .iter()
            .enumerate()
            .find_map(|(j, r)| r.map(|r| (j, r)));
        let any_d = d_winner.is_some();
        if let Some((j, (addr, data, dep))) = d_winner {
            // A write needs a matching entry (§3.1); the dependency number
            // is supplied by the producer and re-arms the counter. The
            // checked write is the single counted overwrite path: a re-arm
            // while reads are outstanding destroys the pending value.
            if let Some(e) = entry_of(&mut self.d_entry[j], &self.deplist, addr) {
                let outcome = self.deplist.producer_write_at(e);
                debug_assert!(outcome.accepted());
                if outcome.lost_update() {
                    self.lost_updates += 1;
                }
                let _ = dep; // dep_number is fixed at configuration time
                self.bram.write(addr, data);
                out.grant_producer(j);
                if sink.enabled() {
                    sink.emit(&ev(Port::D, addr, EventKind::DepListHit { producer: j }));
                    sink.emit(&ev(Port::D, addr, EventKind::Write { producer: j, data }));
                    sink.emit(&ev(
                        Port::D,
                        addr,
                        EventKind::Grant {
                            role: Role::Producer,
                            index: j,
                        },
                    ));
                }
            } else if sink.enabled() {
                sink.emit(&ev(Port::D, addr, EventKind::DepListMiss { producer: j }));
            }
            if sink.enabled() {
                // Lower-priority producers holding requests wait for the port.
                for (p, r) in inputs.d_req.iter().enumerate().skip(j + 1) {
                    if let Some((paddr, _, _)) = r {
                        sink.emit(&ev(Port::D, *paddr, EventKind::WindowStall { producer: p }));
                    }
                }
            }
        }

        // Port C issue stage: the registered winner reads the BRAM unless a
        // producer pre-empted the port this cycle (replay).
        if !any_d {
            if let Some(i) = self.pipe.take() {
                if let Some(addr) = inputs.c_req[i] {
                    let outcome = match entry_of(&mut self.c_entry[i], &self.deplist, addr) {
                        Some(e) => self.deplist.consumer_read_at(e),
                        None => ReadOutcome::Unguarded,
                    };
                    debug_assert!(
                        matches!(outcome, ReadOutcome::Granted { .. }),
                        "issue stage found a drained entry: decision raced"
                    );
                    out.grant_consumer(i);
                    self.inflight = Some((i, addr, self.bram.read(addr)));
                    if sink.enabled() {
                        sink.emit(&ev(Port::C, addr, EventKind::ReadIssue { consumer: i }));
                        sink.emit(&ev(
                            Port::C,
                            addr,
                            EventKind::Grant {
                                role: Role::Consumer,
                                index: i,
                            },
                        ));
                    }
                } // else: the consumer withdrew; drop the grant.
            }
        } else if self.pipe.is_some() && sink.enabled() {
            // A producer pre-empted the port: the piped read replays.
            let i = self.pipe.expect("checked above");
            if let Some(addr) = inputs.c_req[i] {
                sink.emit(&ev(Port::C, addr, EventKind::ArbStall { consumer: i }));
            }
        }

        // Port C decision stage: when the pipe is free and no producer is
        // writing, round-robin among eligible consumers.
        if !any_d && self.pipe.is_none() && out.c_won.is_none() {
            let mut eligible = 0u8;
            for (i, r) in inputs.c_req.iter().enumerate() {
                if let Some(addr) = *r {
                    if self.eligible(i, addr) {
                        eligible |= 1 << i;
                    }
                }
            }
            self.pipe = self.rr.grant(eligible);
        }

        // Stall attribution for every consumer still holding an unserved
        // request: eligible ones lost arbitration (or sit in the decision
        // pipe); the rest wait on their dependency.
        if sink.enabled() {
            for (i, r) in inputs.c_req.iter().enumerate() {
                let Some(addr) = *r else { continue };
                if out.c_won == Some(i) {
                    continue;
                }
                let kind = if self.eligible(i, addr) || self.pipe == Some(i) {
                    EventKind::ArbStall { consumer: i }
                } else {
                    EventKind::DepWait { consumer: i }
                };
                sink.emit(&ev(Port::C, addr, kind));
            }
        }

        // With no producer requesting, a read that issued is now in flight,
        // and otherwise the decision stage ran: an empty pipe then means no
        // consumer was eligible.
        self.settled = !any_d
            && self.pipe.is_none()
            && self.inflight.is_none()
            && self.a_inflight.is_none()
            && inputs.a_req.is_none();
        self.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle(consumers: usize, producers: usize) -> ArbInputs {
        ArbInputs {
            c_req: vec![None; consumers],
            d_req: vec![None; producers],
            a_req: None,
        }
    }

    #[test]
    fn produce_then_consume_two_consumers() {
        let mut m = ArbitratedModel::new(1, 2, 4);
        m.configure(0x10, 2).unwrap();

        // Consumers wait before the producer writes: no grants.
        let mut inp = idle(2, 1);
        inp.c_req = vec![Some(0x10), Some(0x10)];
        let out = m.step(&inp);
        assert_eq!(out.c_grant, vec![false, false]);

        // Producer writes 42.
        let mut wr = idle(2, 1);
        wr.d_req[0] = Some((0x10, 42, 2));
        let out = m.step(&wr);
        assert!(out.d_grant[0]);

        // Both consumers keep requesting; each needs decision+issue cycles.
        let mut got: Vec<(usize, u32)> = Vec::new();
        let mut reqs = vec![Some(0x10), Some(0x10)];
        for _ in 0..10 {
            let mut inp = idle(2, 1);
            inp.c_req = reqs.clone();
            let out = m.step(&inp);
            for (i, g) in out.c_grant.iter().enumerate() {
                if *g {
                    reqs[i] = None; // consumer saw its grant, drops request
                }
            }
            if let Some((i, d)) = out.c_data {
                got.push((i, d));
            }
        }
        assert_eq!(got.len(), 2, "both consumers served exactly once");
        assert!(got.iter().all(|&(_, d)| d == 42));
        let served: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
        assert!(served.contains(&0) && served.contains(&1));
        // The produce-consume cycle is closed: further reads block.
        let mut inp = idle(2, 1);
        inp.c_req[0] = Some(0x10);
        let out = m.step(&inp);
        assert!(!out.c_grant[0]);
        assert!(!m.deplist().is_pending(0x10));
    }

    #[test]
    fn producer_preempts_pipelined_read() {
        let mut m = ArbitratedModel::new(1, 1, 4);
        m.configure(0x20, 1).unwrap();
        let mut wr = idle(1, 1);
        wr.d_req[0] = Some((0x20, 7, 1));
        m.step(&wr); // write 7, arm

        // Cycle 1: consumer requests -> decision lands in pipe.
        let mut rd = idle(1, 1);
        rd.c_req[0] = Some(0x20);
        let out = m.step(&rd);
        assert!(!out.c_grant[0], "decision cycle only");

        // Cycle 2: a producer write arrives simultaneously -> read replays.
        let mut both = idle(1, 1);
        both.c_req[0] = Some(0x20);
        both.d_req[0] = Some((0x20, 8, 1));
        let out = m.step(&both);
        assert!(out.d_grant[0], "write has priority");
        assert!(!out.c_grant[0], "read replayed");

        // Cycle 3: read issues, sees the NEW value 8 next cycle.
        let out = m.step(&rd);
        assert!(out.c_grant[0]);
        let out = m.step(&idle(1, 1));
        assert_eq!(out.c_data, Some((0, 8)));
    }

    #[test]
    fn round_robin_alternates_under_contention() {
        let mut m = ArbitratedModel::new(1, 2, 4);
        m.configure(0x1, 2).unwrap();
        m.configure(0x2, 2).unwrap();
        let mut order = Vec::new();
        for round in 0..4 {
            // Re-arm both addresses each round.
            let mut wr = idle(2, 1);
            wr.d_req[0] = Some((0x1, round, 2));
            m.step(&wr);
            let mut wr = idle(2, 1);
            wr.d_req[0] = Some((0x2, round, 2));
            m.step(&wr);
            // Both consumers contend for different addresses.
            let mut reqs = vec![Some(0x1), Some(0x2)];
            for _ in 0..8 {
                let mut inp = idle(2, 1);
                inp.c_req = reqs.clone();
                let out = m.step(&inp);
                for (i, g) in out.c_grant.iter().enumerate() {
                    if *g {
                        order.push(i);
                        reqs[i] = None;
                    }
                }
                if reqs.iter().all(Option::is_none) {
                    break;
                }
            }
        }
        // Fairness: both consumers appear equally often.
        let count0 = order.iter().filter(|&&i| i == 0).count();
        let count1 = order.iter().filter(|&&i| i == 1).count();
        assert_eq!(count0, count1, "order: {order:?}");
    }

    #[test]
    fn port_a_is_single_cycle_and_independent() {
        let mut m = ArbitratedModel::new(1, 1, 4);
        let mut inp = idle(1, 1);
        inp.a_req = Some((100, 55, true));
        m.step(&inp); // write via port A
        let mut inp = idle(1, 1);
        inp.a_req = Some((100, 0, false));
        m.step(&inp); // read issued
        let out = m.step(&idle(1, 1));
        assert_eq!(out.a_data, Some(55));
    }

    #[test]
    fn lost_updates_count_overwrites_of_unconsumed_values() {
        let mut m = ArbitratedModel::new(1, 1, 4);
        m.configure(0x8, 1).unwrap();
        assert_eq!(m.lost_updates(), 0);
        // First write: clean.
        let mut wr = idle(1, 1);
        wr.d_req[0] = Some((0x8, 1, 1));
        m.step(&wr);
        assert_eq!(m.lost_updates(), 0);
        // Second write before the consumer reads: the value is lost.
        let mut wr = idle(1, 1);
        wr.d_req[0] = Some((0x8, 2, 1));
        m.step(&wr);
        assert_eq!(m.lost_updates(), 1);
        // Consumer drains; the next write is clean again.
        let mut rd = idle(1, 1);
        rd.c_req[0] = Some(0x8);
        m.step(&rd); // decision
        m.step(&rd); // issue (read granted, counter drained)
        let mut wr = idle(1, 1);
        wr.d_req[0] = Some((0x8, 3, 1));
        m.step(&wr);
        assert_eq!(m.lost_updates(), 1);
    }

    #[test]
    fn write_without_entry_is_rejected() {
        let mut m = ArbitratedModel::new(1, 1, 4);
        let mut wr = idle(1, 1);
        wr.d_req[0] = Some((0x99, 1, 1));
        let out = m.step(&wr);
        assert!(!out.d_grant[0]);
    }

    /// A step into the engine's reused buffer, which clears only last
    /// cycle's grant lanes, outputs what a step into a fresh buffer does.
    #[test]
    fn a_reused_output_buffer_matches_a_fresh_one() {
        let mut rng = memsync_trace::Pcg32::seed_from_u64(0x5EED_0028);
        let mut reused = ArbitratedModel::new(2, 3, 4);
        reused.configure(0x1, 2).unwrap();
        reused.configure(0x2, 1).unwrap();
        let mut fresh = reused.clone();
        let mut out = ArbOutputs::default();
        // Ports behave as threads do: a request is held until granted.
        let mut inp = idle(3, 2);
        for cycle in 0..2_000 {
            for c in inp.c_req.iter_mut().filter(|c| c.is_none()) {
                *c = rng.gen_bool(0.3).then(|| 1 + u32::from(rng.gen_bool(0.5)));
            }
            for (j, d) in inp
                .d_req
                .iter_mut()
                .enumerate()
                .filter(|(_, d)| d.is_none())
            {
                *d = rng
                    .gen_bool(0.1)
                    .then(|| (1 + u32::from(rng.gen_bool(0.5)), cycle, j as u8));
            }
            reused.step_traced_into(&inp, 0, &mut NullSink, &mut out);
            let want = fresh.step(&inp);
            assert_eq!(out, want, "cycle {cycle}");
            assert_eq!(out.granted_consumer(), want.c_grant.iter().position(|&g| g));
            assert_eq!(out.granted_producer(), want.d_grant.iter().position(|&g| g));
            if let Some(i) = out.granted_consumer() {
                inp.c_req[i] = None;
            }
            if let Some(j) = out.granted_producer() {
                inp.d_req[j] = None;
            }
        }
        assert_eq!(reused.lost_updates(), fresh.lost_updates());
    }

    #[test]
    fn grant_to_data_latency_is_one_cycle() {
        let mut m = ArbitratedModel::new(1, 1, 4);
        m.configure(0x5, 1).unwrap();
        let mut wr = idle(1, 1);
        wr.d_req[0] = Some((0x5, 77, 1));
        m.step(&wr);
        let mut rd = idle(1, 1);
        rd.c_req[0] = Some(0x5);
        let o1 = m.step(&rd); // decision
        assert!(!o1.c_grant[0]);
        let o2 = m.step(&rd); // issue
        assert!(o2.c_grant[0]);
        assert_eq!(o2.c_data, None);
        let o3 = m.step(&idle(1, 1)); // data
        assert_eq!(o3.c_data, Some((0, 77)));
    }
}
