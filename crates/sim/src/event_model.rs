//! Cycle-accurate behavioral model of the event-driven statically scheduled
//! organization, mirroring `memsync_core::event_driven`: the selection logic
//! blocks until the window producer writes; consumers are then released one
//! slot at a time in compile-time order, each read issuing at its ack and
//! delivering data (with the event pulse) one cycle later.

use crate::bram_model::BramModel;
use memsync_core::modulo::{ModuloSchedule, SelectionLogic, SelectionOutput};
use memsync_trace::{EventKind, NullSink, Port, Role, TraceEvent, TraceSink};

/// Per-cycle inputs.
#[derive(Debug, Clone, Default)]
pub struct EvtInputs {
    /// Producer requests: `Some((addr, data))` while the producer holds its
    /// blocking write.
    pub p_req: Vec<Option<(u32, u32)>>,
    /// Consumer read addresses: `Some(addr)` while the consumer is waiting
    /// at its guarded read (serves as the ack when its slot arrives).
    pub c_addr: Vec<Option<u32>>,
    /// Port A access: `Some((addr, data, we))`.
    pub a_req: Option<(u32, u32, bool)>,
}

/// Per-cycle outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvtOutputs {
    /// Grant pulse per producer (write accepted this cycle).
    pub p_grant: Vec<bool>,
    /// Event pulse per consumer, aligned with its read data.
    pub c_event: Vec<bool>,
    /// Read data delivered this cycle: `(consumer, data)`.
    pub c_data: Option<(usize, u32)>,
    /// Port A read data (for the address presented last cycle).
    pub a_data: Option<u32>,
}

/// The behavioral wrapper.
#[derive(Debug, Clone)]
pub struct EventDrivenModel {
    producers: usize,
    consumers: usize,
    selection: SelectionLogic,
    /// Read issued last cycle: (consumer, addr, data arriving now).
    inflight: Option<(usize, u32, u32)>,
    a_inflight: Option<u32>,
    bram: BramModel,
    cycle: u64,
    /// Consumers of the last accepted write still owed their slot. The
    /// selection logic only admits a write when the previous burst is
    /// fully served, so this organization converts would-be overwrites
    /// into [`memsync_trace::EventKind::WindowStall`] backpressure — but
    /// the invariant is asserted by counting, not assumed: guarded-write
    /// audit for the lost-update detector.
    outstanding: usize,
    /// Per-producer service-burst length (schedule row length), fixed at
    /// construction so the counted write path allocates nothing.
    burst_len: Vec<usize>,
    /// Writes accepted while the previous value had unserved consumers —
    /// structurally impossible here (see `outstanding`), counted anyway so
    /// both organizations expose the same detector.
    lost_updates: u64,
    /// Whether the last step left a fixed point: nothing in flight, no open
    /// window and no write from the window producer, so stepping again with
    /// the same inputs would change nothing but the cycle count.
    settled: bool,
}

impl EventDrivenModel {
    /// Creates the model from the static service schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule names more producers/consumers than given.
    pub fn new(producers: usize, consumers: usize, schedule: ModuloSchedule) -> Self {
        assert_eq!(
            schedule.producers(),
            producers,
            "schedule rows == producers"
        );
        for p in 0..producers {
            for &c in schedule.order_of(p) {
                assert!(c < consumers, "schedule names consumer {c} of {consumers}");
            }
        }
        let burst_len = (0..producers).map(|p| schedule.order_of(p).len()).collect();
        EventDrivenModel {
            producers,
            consumers,
            selection: SelectionLogic::new(schedule),
            inflight: None,
            a_inflight: None,
            bram: BramModel::new(),
            cycle: 0,
            outstanding: 0,
            burst_len,
            lost_updates: 0,
            settled: false,
        }
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Which producer currently holds the selection window.
    pub fn window_producer(&self) -> usize {
        self.selection.window_producer()
    }

    /// Writes accepted while a previous value still had unserved
    /// consumers. The selection window makes this structurally impossible
    /// (§3.2 blocks the producer instead), so this stays 0 — it exists so
    /// the guarded-write audit covers both organizations with one counter.
    pub fn lost_updates(&self) -> u64 {
        self.lost_updates
    }

    /// Whether the last step left a fixed point: stepping again with the
    /// same inputs would change nothing but the cycle count. Inputs with
    /// fewer requests keep it a fixed point: they cannot open a window.
    pub(crate) fn settled(&self) -> bool {
        self.settled
    }

    /// Advances the cycle count alone, in place of a step that
    /// [`EventDrivenModel::settled`] says would change nothing else.
    pub(crate) fn skip_cycle(&mut self) {
        debug_assert!(self.settled, "only a settled model skips its step");
        self.cycle += 1;
    }

    /// Advances one clock cycle.
    ///
    /// # Panics
    ///
    /// Panics if the request vectors do not match the pseudo-port counts.
    pub fn step(&mut self, inputs: &EvtInputs) -> EvtOutputs {
        self.step_traced(inputs, 0, &mut NullSink)
    }

    /// Advances one clock cycle, emitting cycle events to `sink` with
    /// `bank` attribution. [`EventDrivenModel::step`] is this with a
    /// [`NullSink`]: the method is generic over the sink, so that step
    /// compiles with the instrumentation removed.
    ///
    /// # Panics
    ///
    /// Panics if the request vectors do not match the pseudo-port counts.
    pub fn step_traced<S: TraceSink + ?Sized>(
        &mut self,
        inputs: &EvtInputs,
        bank: u16,
        sink: &mut S,
    ) -> EvtOutputs {
        let mut out = EvtOutputs::default();
        self.step_traced_into(inputs, bank, sink, &mut out);
        out
    }

    /// [`EventDrivenModel::step_traced`] into a caller-owned output buffer.
    ///
    /// The pulse vectors are resized once and then reused cycle after
    /// cycle, so a steady-state step performs no heap allocation. The
    /// engine keeps one buffer per bank.
    ///
    /// # Panics
    ///
    /// Panics if the request vectors do not match the pseudo-port counts.
    pub fn step_traced_into<S: TraceSink + ?Sized>(
        &mut self,
        inputs: &EvtInputs,
        bank: u16,
        sink: &mut S,
        out: &mut EvtOutputs,
    ) {
        assert_eq!(inputs.p_req.len(), self.producers, "p_req length");
        assert_eq!(inputs.c_addr.len(), self.consumers, "c_addr length");
        let cycle = self.cycle;
        let ev = |port: Port, addr: u32, kind: EventKind| TraceEvent {
            cycle,
            bank,
            port,
            addr,
            kind,
        };
        out.p_grant.clear();
        out.p_grant.resize(self.producers, false);
        out.c_event.clear();
        out.c_event.resize(self.consumers, false);
        out.c_data = None;
        out.a_data = self.a_inflight.take();
        // Deliver last cycle's read with its event pulse.
        if let Some((i, addr, d)) = self.inflight.take() {
            out.c_event[i] = true;
            out.c_data = Some((i, d));
            sink.emit(&ev(
                Port::B,
                addr,
                EventKind::Deliver {
                    consumer: i,
                    data: d,
                },
            ));
        }

        // Port A.
        if let Some((addr, data, we)) = inputs.a_req {
            if we {
                self.bram.write(addr, data);
            } else {
                self.a_inflight = Some(self.bram.read(addr));
            }
        }

        // Selection logic: only the window producer's write is accepted
        // (blocking for all others).
        let wp = self.selection.window_producer();
        let serving = self.selection.is_serving();
        let producer_writes = !serving && inputs.p_req[wp].is_some();
        if producer_writes {
            let (addr, data) = inputs.p_req[wp].expect("checked above");
            // Counted guarded-write path: a write admitted while the
            // previous burst had unserved consumers would overwrite an
            // unconsumed value. The window blocks exactly that, so the
            // counter stays 0 — but it is counted, not assumed.
            if self.outstanding > 0 {
                self.lost_updates += 1;
            }
            self.outstanding = self.burst_len[wp];
            self.bram.write(addr, data);
            out.p_grant[wp] = true;
            if sink.enabled() {
                sink.emit(&ev(Port::D, addr, EventKind::Write { producer: wp, data }));
                sink.emit(&ev(
                    Port::D,
                    addr,
                    EventKind::Grant {
                        role: Role::Producer,
                        index: wp,
                    },
                ));
            }
        }
        if sink.enabled() {
            // Every other producer holding a write is blocked by the window
            // (or by the ongoing service burst).
            for (p, r) in inputs.p_req.iter().enumerate() {
                if let Some((paddr, _)) = r {
                    if !out.p_grant[p] {
                        sink.emit(&ev(Port::D, *paddr, EventKind::WindowStall { producer: p }));
                    }
                }
            }
        }
        let mut served: Option<usize> = None;
        match self.selection.step(producer_writes) {
            SelectionOutput::AwaitingProducer { .. } => {}
            SelectionOutput::Serve { consumer, .. } => {
                // The served consumer's read issues at the address it
                // presents. The selection logic has already advanced, so the
                // slot is served whether or not that consumer is waiting:
                // nothing holds the producer until its window's consumers
                // wait. An absent consumer gets a read of address 0,
                // delivered with its event pulse next cycle. If it posts its
                // read in that delivery cycle, it takes the word read at
                // address 0, which is its value only when its guarded
                // location sits there. If it posts later, it waits for the
                // next window and this value is lost. No counter records
                // either case.
                let addr = inputs.c_addr[consumer].unwrap_or(0);
                self.inflight = Some((consumer, addr, self.bram.read(addr)));
                self.outstanding = self.outstanding.saturating_sub(1);
                served = Some(consumer);
                if sink.enabled() {
                    sink.emit(&ev(Port::B, addr, EventKind::ReadIssue { consumer }));
                    sink.emit(&ev(
                        Port::B,
                        addr,
                        EventKind::Grant {
                            role: Role::Consumer,
                            index: consumer,
                        },
                    ));
                }
            }
        }
        if sink.enabled() {
            // Consumers holding reads outside their slot wait on the event.
            for (c, r) in inputs.c_addr.iter().enumerate() {
                if let Some(addr) = r {
                    if served != Some(c) {
                        sink.emit(&ev(Port::B, *addr, EventKind::DepWait { consumer: c }));
                    }
                }
            }
        }

        self.settled = self.inflight.is_none()
            && self.a_inflight.is_none()
            && inputs.a_req.is_none()
            && !self.selection.is_serving()
            && inputs.p_req[self.selection.window_producer()].is_none();
        self.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle(producers: usize, consumers: usize) -> EvtInputs {
        EvtInputs {
            p_req: vec![None; producers],
            c_addr: vec![None; consumers],
            a_req: None,
        }
    }

    fn figure1_model() -> EventDrivenModel {
        EventDrivenModel::new(1, 2, ModuloSchedule::new(vec![vec![0, 1]]).unwrap())
    }

    #[test]
    fn consumers_served_in_static_order() {
        let mut m = figure1_model();
        // Producer writes 99 at address 4; both consumers waiting.
        let mut inp = idle(1, 2);
        inp.p_req[0] = Some((4, 99));
        inp.c_addr = vec![Some(4), Some(4)];
        let out = m.step(&inp);
        assert!(out.p_grant[0]);

        // Slots fire in order 0 then 1, each with data the cycle after.
        let mut wait = idle(1, 2);
        wait.c_addr = vec![Some(4), Some(4)];
        let o1 = m.step(&wait); // slot 0 read issues
        assert_eq!(o1.c_data, None);
        let o2 = m.step(&wait); // slot 1 read issues; slot 0 data delivered
        assert_eq!(o2.c_data, Some((0, 99)));
        assert!(o2.c_event[0]);
        let o3 = m.step(&idle(1, 2));
        assert_eq!(o3.c_data, Some((1, 99)));
        assert!(o3.c_event[1]);
    }

    #[test]
    fn latency_is_exact_and_repeatable() {
        // The §3.2 claim: post-write latency per consumer is a constant.
        let mut m = figure1_model();
        let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for round in 0..5u32 {
            let mut inp = idle(1, 2);
            inp.p_req[0] = Some((4, round));
            inp.c_addr = vec![Some(4), Some(4)];
            let write_cycle = m.cycle();
            let out = m.step(&inp);
            assert!(out.p_grant[0]);
            let mut wait = idle(1, 2);
            wait.c_addr = vec![Some(4), Some(4)];
            let mut pending = 2;
            while pending > 0 {
                let out = m.step(&wait);
                if let Some((i, d)) = out.c_data {
                    assert_eq!(d, round);
                    latencies[i].push(m.cycle() - 1 - write_cycle);
                    pending -= 1;
                }
            }
        }
        // Every round produced the same latency per consumer.
        for (i, l) in latencies.iter().enumerate() {
            assert!(
                l.windows(2).all(|w| w[0] == w[1]),
                "consumer {i} latencies vary: {l:?}"
            );
        }
        // And consumer 1 (slot 1) is exactly one slot later than consumer 0.
        assert_eq!(latencies[1][0], latencies[0][0] + 1);
    }

    #[test]
    fn non_window_producer_blocks() {
        let schedule = ModuloSchedule::new(vec![vec![0], vec![1]]).unwrap();
        let mut m = EventDrivenModel::new(2, 2, schedule);
        assert_eq!(m.window_producer(), 0);
        // Producer 1 tries to write while producer 0 holds the window.
        let mut inp = idle(2, 2);
        inp.p_req[1] = Some((2, 5));
        let out = m.step(&inp);
        assert!(!out.p_grant[1], "blocked until the window rotates");
        // Producer 0 writes; its single consumer is served; window rotates.
        let mut inp = idle(2, 2);
        inp.p_req[0] = Some((1, 4));
        inp.c_addr[0] = Some(1);
        assert!(m.step(&inp).p_grant[0]);
        let mut wait = idle(2, 2);
        wait.c_addr[0] = Some(1);
        m.step(&wait);
        m.step(&idle(2, 2));
        assert_eq!(m.window_producer(), 1);
        // Now producer 1's write is accepted.
        let mut inp = idle(2, 2);
        inp.p_req[1] = Some((2, 5));
        assert!(m.step(&inp).p_grant[1]);
    }

    #[test]
    fn event_driven_never_loses_updates() {
        // Audit pin: the window converts would-be overwrites into
        // backpressure, so the lost-update counter must stay 0 even under
        // a producer hammering writes every cycle.
        let mut m = figure1_model();
        for round in 0..20u32 {
            let mut inp = idle(1, 2);
            inp.p_req[0] = Some((4, round));
            inp.c_addr = vec![Some(4), Some(4)];
            m.step(&inp);
        }
        assert_eq!(m.lost_updates(), 0);
    }

    #[test]
    fn custom_order_respected() {
        let schedule = ModuloSchedule::new(vec![vec![2, 0, 1]]).unwrap();
        let mut m = EventDrivenModel::new(1, 3, schedule);
        let mut inp = idle(1, 3);
        inp.p_req[0] = Some((0, 1));
        inp.c_addr = vec![Some(0); 3];
        m.step(&inp);
        let mut wait = idle(1, 3);
        wait.c_addr = vec![Some(0); 3];
        let mut served = Vec::new();
        for _ in 0..6 {
            let out = m.step(&wait);
            if let Some((i, _)) = out.c_data {
                served.push(i);
            }
        }
        assert_eq!(served, vec![2, 0, 1]);
    }

    #[test]
    fn port_a_unaffected_by_events() {
        let mut m = figure1_model();
        let mut inp = idle(1, 2);
        inp.a_req = Some((9, 33, true));
        m.step(&inp);
        let mut inp = idle(1, 2);
        inp.a_req = Some((9, 0, false));
        m.step(&inp);
        let out = m.step(&idle(1, 2));
        assert_eq!(out.a_data, Some(33));
    }
}
