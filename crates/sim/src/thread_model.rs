//! Cycle-accurate execution of synthesized thread FSMs.
//!
//! A [`ThreadExec`] runs one [`Fsm`] exactly as the generated hardware
//! would: one state per cycle, pure (chained) operations free within their
//! state, memory operations issuing requests that may block the state until
//! the memory organization grants them, `recv`/`send` blocking on the
//! network interface. The engine drives `tick` once per cycle, except while
//! the thread is parked on a wait no tick can resolve, and feeds back
//! grants/data through [`ThreadExec::deliver`].

use memsync_synth::eval::{
    call_function, eval_binary_datapath, eval_unary_datapath, mask_to_width,
};
use memsync_synth::fsm::{Fsm, StateNext};
use memsync_synth::ir::{OpKind, PortClass, Residency, Temp, Value};

/// Stack buffer size for datapath call arguments; calls with more spill to
/// a (cold) heap path.
const MAX_CALL_ARGS: usize = 8;

/// A memory request a thread holds while blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Wrapper port class.
    pub port: PortClass,
    /// Address within the bank.
    pub addr: u32,
    /// Write data (None = read).
    pub write: Option<u32>,
    /// Dependency number presented on writes through port D.
    pub dep_number: u8,
}

/// Response events fed back by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemResponse {
    /// The held request was granted this cycle (write done / read issued).
    Granted,
    /// Read data arrived.
    Data(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    /// Executing freely.
    None,
    /// Holding a memory request; `result` is the temp receiving read data.
    Mem {
        req: MemRequest,
        result: Option<u32>, // temp id
        granted: bool,
    },
    /// Blocked on `recv`.
    Recv { var: u32 },
    /// Blocked on `send`.
    Send { value: i64 },
}

/// Executes one thread FSM cycle by cycle.
#[derive(Debug, Clone)]
pub struct ThreadExec {
    fsm: Fsm,
    regs: Vec<i64>,
    /// Temp values, indexed densely by [`Temp`] id (sized at construction
    /// by scanning the FSM so the per-cycle path never reallocates).
    temps: Vec<i64>,
    /// Per-variable `(port, base_addr)`, resolved once at construction:
    /// `MemBinding::residency_of` clones the dependency-name strings on
    /// every call, which would put an allocation on every memory op.
    residency: Vec<(PortClass, u32)>,
    state: usize,
    op_pos: usize,
    waiting: Waiting,
    /// Completed run-to-completion iterations.
    pub iterations: u64,
    /// Cycles executed. This includes the cycles in which the engine parks
    /// the thread instead of ticking it (see [`crate::engine`]).
    pub cycles: u64,
    /// Cycles that ended with the thread blocked on memory or I/O — the
    /// per-thread stall attribution the trace layer reports. This includes
    /// every cycle the engine parks the thread.
    pub blocked_cycles: u64,
    /// Messages sent on the tx interface.
    pub sent: Vec<i64>,
}

impl ThreadExec {
    /// Creates an executor over a synthesized FSM.
    pub fn new(fsm: Fsm) -> Self {
        let regs = vec![0; fsm.vars.len()];
        // Size the dense temp table up front: the hot loop indexes it
        // without ever growing.
        let mut n_temps = 0usize;
        for st in &fsm.states {
            for op in &st.ops {
                if let Some(t) = op.result {
                    n_temps = n_temps.max(t.0 as usize + 1);
                }
                for a in &op.args {
                    if let Value::Temp(t) = a {
                        n_temps = n_temps.max(t.0 as usize + 1);
                    }
                }
            }
        }
        let residency = fsm
            .vars
            .iter()
            .map(|v| match fsm.binding.residency_of(v) {
                Residency::Memory {
                    port, base_addr, ..
                } => (port, base_addr),
                Residency::Register => (PortClass::A, 0),
            })
            .collect();
        ThreadExec {
            fsm,
            regs,
            temps: vec![0; n_temps],
            residency,
            state: 0,
            op_pos: 0,
            waiting: Waiting::None,
            iterations: 0,
            cycles: 0,
            blocked_cycles: 0,
            sent: Vec::new(),
        }
    }

    /// Thread name.
    pub fn name(&self) -> &str {
        &self.fsm.thread
    }

    /// Current register value of a variable.
    pub fn var(&self, name: &str) -> Option<i64> {
        self.fsm.var_id(name).map(|id| self.regs[id.0 as usize])
    }

    /// Whether the thread is stalled on a memory request or I/O.
    pub fn is_blocked(&self) -> bool {
        !matches!(self.waiting, Waiting::None)
    }

    /// Whether a tick can change anything. A thread waiting on memory, or
    /// on `recv` while `rx_ready` is false, would only count the cycle as
    /// blocked: the engine parks it and calls [`ThreadExec::skip_cycle`]
    /// instead. (`send` never waits: the engine's tx side is always ready.)
    pub(crate) fn can_progress(&self, rx_ready: bool) -> bool {
        match self.waiting {
            Waiting::None | Waiting::Send { .. } => true,
            Waiting::Recv { .. } => rx_ready,
            Waiting::Mem { .. } => false,
        }
    }

    /// Counts one cycle in which the thread was parked: exactly what a tick
    /// of a blocked thread does.
    pub(crate) fn skip_cycle(&mut self) {
        debug_assert!(self.is_blocked(), "only a blocked thread parks");
        self.cycles += 1;
        self.blocked_cycles += 1;
    }

    fn store_var(&mut self, id: u32, value: i64) {
        store_var_masked(&self.fsm.widths, &mut self.regs, id, value);
    }

    /// Advances one cycle. `rx` offers an incoming message (taken if the
    /// thread is at a `recv`); `tx_ready` gates `send`. Returns the memory
    /// request the thread is holding at the end of the cycle, if any.
    pub fn tick(&mut self, rx: &mut Option<i64>, tx_ready: bool) -> Option<MemRequest> {
        let req = self.tick_inner(rx, tx_ready);
        if self.is_blocked() {
            self.blocked_cycles += 1;
        }
        req
    }

    fn tick_inner(&mut self, rx: &mut Option<i64>, tx_ready: bool) -> Option<MemRequest> {
        self.cycles += 1;
        // Resolve blocking I/O first.
        match self.waiting {
            Waiting::Recv { var } => {
                if let Some(msg) = rx.take() {
                    self.store_var(var, msg);
                    self.waiting = Waiting::None;
                    self.op_pos += 1;
                    self.run_state();
                }
                return self.held_request();
            }
            Waiting::Send { value } => {
                if tx_ready {
                    self.sent.push(value);
                    self.waiting = Waiting::None;
                    self.op_pos += 1;
                    self.run_state();
                }
                return self.held_request();
            }
            Waiting::Mem { .. } => {
                // Still blocked; the request stays posted.
                return self.held_request();
            }
            Waiting::None => {}
        }
        self.run_state();
        self.held_request()
    }

    /// Feeds back a grant or read data for the held request.
    pub fn deliver(&mut self, resp: MemResponse) {
        let Waiting::Mem {
            req,
            result,
            granted: _,
        } = self.waiting
        else {
            return;
        };
        match resp {
            MemResponse::Granted => {
                if req.write.is_some() {
                    // Write complete.
                    self.waiting = Waiting::None;
                    self.op_pos += 1;
                } else {
                    // Read issued; data comes later.
                    self.waiting = Waiting::Mem {
                        req,
                        result,
                        granted: true,
                    };
                }
            }
            MemResponse::Data(d) => {
                if let Some(t) = result {
                    set_temp(&mut self.temps, Some(Temp(t)), i64::from(d));
                }
                self.waiting = Waiting::None;
                self.op_pos += 1;
            }
        }
    }

    /// The memory request the thread holds, not yet granted.
    pub(crate) fn held_request(&self) -> Option<MemRequest> {
        match &self.waiting {
            Waiting::Mem { req, granted, .. } if !*granted => Some(*req),
            _ => None,
        }
    }

    /// Executes ops of the current state until a blocking op or the state
    /// completes (then takes the transition). At most one state per cycle.
    ///
    /// This is the simulator's innermost loop: ops are executed by
    /// reference (no clones) and results land in the dense temp table, so
    /// a cycle with no `send`/`recv` performs no heap allocation.
    fn run_state(&mut self) {
        let ThreadExec {
            fsm,
            regs,
            temps,
            residency,
            state,
            op_pos,
            waiting,
            iterations,
            ..
        } = self;
        if fsm.states.is_empty() {
            return;
        }
        loop {
            let st = &fsm.states[*state];
            if *op_pos >= st.ops.len() {
                break;
            }
            let op = &st.ops[*op_pos];
            match &op.kind {
                OpKind::Copy => {
                    let v = value_of(regs, temps, op.args[0]);
                    set_temp(temps, op.result, v);
                }
                OpKind::Unary(u) => {
                    let v = eval_unary_datapath(*u, value_of(regs, temps, op.args[0]));
                    set_temp(temps, op.result, v);
                }
                OpKind::Binary(bop) => {
                    let v = eval_binary_datapath(
                        *bop,
                        value_of(regs, temps, op.args[0]),
                        value_of(regs, temps, op.args[1]),
                    );
                    set_temp(temps, op.result, v);
                }
                OpKind::Call(name) => {
                    // Datapath networks take a handful of inputs: evaluate
                    // into a stack buffer, spilling to the heap only for
                    // pathological arities.
                    let v = if op.args.len() <= MAX_CALL_ARGS {
                        let mut buf = [0i64; MAX_CALL_ARGS];
                        for (slot, a) in buf.iter_mut().zip(op.args.iter()) {
                            *slot = value_of(regs, temps, *a);
                        }
                        call_function(name, &buf[..op.args.len()])
                    } else {
                        let args: Vec<i64> =
                            op.args.iter().map(|a| value_of(regs, temps, *a)).collect();
                        call_function(name, &args)
                    };
                    set_temp(temps, op.result, v);
                }
                OpKind::Select => {
                    let v = if value_of(regs, temps, op.args[0]) != 0 {
                        value_of(regs, temps, op.args[1])
                    } else {
                        value_of(regs, temps, op.args[2])
                    };
                    set_temp(temps, op.result, v);
                }
                OpKind::StoreVar { var } => {
                    let v = value_of(regs, temps, op.args[0]);
                    store_var_masked(&fsm.widths, regs, var.0, v);
                }
                OpKind::MemRead { var, .. } => {
                    let (port, base) = residency[var.0 as usize];
                    let idx = value_of(regs, temps, op.args[0]) as u32;
                    *waiting = Waiting::Mem {
                        req: MemRequest {
                            port,
                            addr: base.wrapping_add(idx),
                            write: None,
                            dep_number: 0,
                        },
                        result: op.result.map(|t| t.0),
                        granted: false,
                    };
                    return;
                }
                OpKind::MemWrite { var, dep } => {
                    let (port, base) = residency[var.0 as usize];
                    let idx = value_of(regs, temps, op.args[0]) as u32;
                    let data = value_of(regs, temps, op.args[1]) as u32;
                    let dep_number = dep.as_ref().map(|_| 1).unwrap_or(0);
                    *waiting = Waiting::Mem {
                        req: MemRequest {
                            port,
                            addr: base.wrapping_add(idx),
                            write: Some(data),
                            dep_number,
                        },
                        result: None,
                        granted: false,
                    };
                    return;
                }
                OpKind::Recv { var } => {
                    *waiting = Waiting::Recv { var: var.0 };
                    return;
                }
                OpKind::Send => {
                    let v = value_of(regs, temps, op.args[0]);
                    *waiting = Waiting::Send { value: v };
                    return;
                }
            }
            *op_pos += 1;
        }
        // State complete: take the transition (consumes the cycle).
        let st = &fsm.states[*state];
        *op_pos = 0;
        *state = match &st.next {
            StateNext::Goto(t) => *t,
            StateNext::Branch {
                cond,
                then_state,
                else_state,
            } => {
                if value_of(regs, temps, *cond) != 0 {
                    *then_state
                } else {
                    *else_state
                }
            }
            StateNext::Switch {
                selector,
                arms,
                default,
            } => {
                let sel = value_of(regs, temps, *selector);
                arms.iter()
                    .find(|(k, _)| i64::from(*k as u32) == sel || *k == sel)
                    .map(|(_, t)| *t)
                    .unwrap_or(*default)
            }
            StateNext::Restart => {
                *iterations += 1;
                0
            }
        };
    }
}

// Free helpers over disjoint `ThreadExec` fields, so `run_state` can read
// ops by reference while writing registers and temps.

#[inline]
fn value_of(regs: &[i64], temps: &[i64], v: Value) -> i64 {
    match v {
        Value::Const(c) => i64::from(c as u32),
        Value::Var(id) => regs[id.0 as usize],
        Value::Temp(t) => temps.get(t.0 as usize).copied().unwrap_or(0),
    }
}

#[inline]
fn set_temp(temps: &mut Vec<i64>, t: Option<Temp>, v: i64) {
    if let Some(t) = t {
        let i = t.0 as usize;
        if i >= temps.len() {
            // Cold: the table is pre-sized from the FSM at construction.
            temps.resize(i + 1, 0);
        }
        temps[i] = v;
    }
}

#[inline]
fn store_var_masked(widths: &[u32], regs: &mut [i64], id: u32, value: i64) {
    let width = widths[id as usize].min(32);
    regs[id as usize] = mask_to_width(value, width);
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_synth::ir::MemBinding;
    use memsync_synth::Synthesis;

    fn exec_of(src: &str, binding: MemBinding) -> ThreadExec {
        let program = memsync_hic::parser::parse(src).unwrap();
        let fsm = Synthesis::of(&program).binding(binding).run().unwrap().fsm;
        ThreadExec::new(fsm)
    }

    fn run_free(t: &mut ThreadExec, cycles: usize) {
        for _ in 0..cycles {
            let mut rx = None;
            let req = t.tick(&mut rx, true);
            assert!(req.is_none(), "unexpected memory request");
        }
    }

    #[test]
    fn straight_line_computes() {
        let mut t = exec_of(
            "thread t() { int a, b; a = 5; b = a * 3 + 1; }",
            MemBinding::new(),
        );
        run_free(&mut t, 20);
        assert_eq!(t.var("a"), Some(5));
        assert_eq!(t.var("b"), Some(16));
        assert!(t.iterations >= 1);
    }

    #[test]
    fn loop_counts_correctly() {
        let mut t = exec_of(
            "thread t() { int i, acc; acc = 0; for (i = 0; i < 5; i = i + 1) { acc = acc + i; } }",
            MemBinding::new(),
        );
        // Run until one iteration completes.
        let mut guard = 0;
        while t.iterations == 0 {
            let mut rx = None;
            t.tick(&mut rx, true);
            guard += 1;
            assert!(guard < 1000, "runaway loop");
        }
        assert_eq!(t.var("acc"), Some(10));
    }

    #[test]
    fn case_dispatch() {
        let mut t = exec_of(
            "thread t() { int s, r; s = 2; case (s) { when 1: r = 10; when 2: r = 20; default: r = 0; } }",
            MemBinding::new(),
        );
        let mut guard = 0;
        while t.iterations == 0 {
            let mut rx = None;
            t.tick(&mut rx, true);
            guard += 1;
            assert!(guard < 1000);
        }
        assert_eq!(t.var("r"), Some(20));
    }

    #[test]
    fn recv_blocks_until_message() {
        let mut t = exec_of(
            "thread t() { message m; int x; recv m; x = m + 1; }",
            MemBinding::new(),
        );
        for _ in 0..5 {
            let mut rx = None;
            t.tick(&mut rx, true);
        }
        assert!(t.is_blocked(), "blocked at recv");
        let mut rx = Some(41);
        t.tick(&mut rx, true);
        assert_eq!(rx, None, "message consumed");
        for _ in 0..10 {
            let mut rx = None;
            t.tick(&mut rx, true);
        }
        assert_eq!(t.var("x"), Some(42));
    }

    #[test]
    fn send_blocks_until_ready() {
        let mut t = exec_of("thread t() { int a; a = 7; send a; }", MemBinding::new());
        for _ in 0..10 {
            let mut rx = None;
            t.tick(&mut rx, false);
        }
        assert!(t.sent.is_empty(), "tx not ready yet");
        let mut rx = None;
        t.tick(&mut rx, true);
        assert_eq!(t.sent, vec![7]);
    }

    #[test]
    fn guarded_read_posts_port_c_request() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::C, 5, Some("m".into()), None);
        let mut t = exec_of("thread c() { int w, v; w = v + 1; }", binding);
        let mut rx = None;
        let req = t.tick(&mut rx, true);
        let req = req.expect("request posted");
        assert_eq!(req.port, PortClass::C);
        assert_eq!(req.addr, 5);
        assert_eq!(req.write, None);
        // Request held until granted.
        let mut rx = None;
        assert!(t.tick(&mut rx, true).is_some());
        t.deliver(MemResponse::Granted);
        let mut rx = None;
        assert!(
            t.tick(&mut rx, true).is_none(),
            "read issued, awaiting data"
        );
        t.deliver(MemResponse::Data(9));
        for _ in 0..10 {
            let mut rx = None;
            t.tick(&mut rx, true);
        }
        assert_eq!(t.var("w"), Some(10));
    }

    #[test]
    fn guarded_write_posts_port_d_request() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::D, 3, None, Some("m".into()));
        let mut t = exec_of("thread p() { int v; v = 9; }", binding);
        let mut rx = None;
        let req = t.tick(&mut rx, true).expect("request posted");
        assert_eq!(req.port, PortClass::D);
        assert_eq!(req.addr, 3);
        assert_eq!(req.write, Some(9));
        t.deliver(MemResponse::Granted);
        let mut rx = None;
        assert!(t.tick(&mut rx, true).is_none(), "write complete");
    }

    #[test]
    fn call_matches_rtl_network_semantics() {
        let mut t = exec_of(
            "thread t() { int a, b, c; a = 1; b = 2; c = f(a, b); }",
            MemBinding::new(),
        );
        run_free(&mut t, 20);
        assert_eq!(t.var("c"), Some(call_function("f", &[1, 2])));
    }

    #[test]
    fn char_variables_are_masked() {
        let mut t = exec_of("thread t() { char c; c = 300; }", MemBinding::new());
        run_free(&mut t, 10);
        assert_eq!(t.var("c"), Some(300 & 0xff));
    }
}
