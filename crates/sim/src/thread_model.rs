//! Cycle-accurate execution of synthesized thread FSMs.
//!
//! A [`ThreadExec`] runs one [`Fsm`] exactly as the generated hardware
//! would: one state per cycle, pure (chained) operations free within their
//! state, memory operations issuing requests that may block the state until
//! the memory organization grants them, `recv`/`send` blocking on the
//! network interface. The engine drives `tick` once per cycle, except while
//! the thread is parked on a wait no tick can resolve, and feeds back
//! grants/data through [`ThreadExec::deliver`].
//!
//! # The lowered form
//!
//! [`ThreadExec::new`] lowers the FSM once into the form the interpreter
//! runs, and the [`Fsm`] stays only as the source of names:
//!
//! - Every operand indexes one `i64` slot file. The variables come first
//!   (slot = variable id), then the temps (dense by temp id), then one slot
//!   per distinct constant, widened once the way the datapath reads it.
//! - The states' ops become one flat array of fixed-size ops. Each state
//!   keeps the range of its ops and its transition, whose branch condition
//!   or switch selector is a slot too.
//! - What a `DfOp` left to each execution is resolved once: a call's name
//!   hash (the network is then [`call_function_seeded`]), a variable's
//!   memory port and base address, and its width mask. A pure op without a
//!   result does nothing and is dropped.
//! - Each memory op is a numbered site. [`MemRequest::site`] names the one
//!   a request came from, so the engine routes it by site, not by address.

use memsync_hic::ast::{BinaryOp, UnaryOp};
use memsync_synth::eval::{
    call_function_seeded, eval_binary_datapath, eval_unary_datapath, mask_to_width, name_seed,
};
use memsync_synth::fsm::{Fsm, StateNext};
use memsync_synth::ir::{OpKind, PortClass, Residency, Value};
use std::collections::HashMap;

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
    /// The memory op that posted the request: its index among the
    /// thread's memory ops, in state order.
    pub site: u32,
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
    /// Holding a memory request; `result` is the slot receiving read data.
    Mem {
        req: MemRequest,
        result: Option<u32>,
        granted: bool,
    },
    /// Blocked on `recv`: the message lands in slot `var`, masked.
    Recv { var: u32, mask: i64 },
    /// Blocked on `send`.
    Send { value: i64 },
}

/// One lowered operation: operands and destinations are slot indices.
#[derive(Debug, Clone, Copy)]
enum Op {
    Copy {
        dst: u32,
        a: u32,
    },
    Unary {
        op: UnaryOp,
        dst: u32,
        a: u32,
    },
    Binary {
        op: BinaryOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// The call network seeded by `seed` over the `len` argument slots
    /// listed from `call_args[args]`.
    Call {
        seed: u64,
        dst: u32,
        args: u32,
        len: u32,
    },
    Select {
        dst: u32,
        cond: u32,
        a: u32,
        b: u32,
    },
    /// A register write, masked to the variable's width.
    Store {
        var: u32,
        src: u32,
        mask: i64,
    },
    MemRead {
        site: u32,
        port: PortClass,
        base: u32,
        idx: u32,
        dst: Option<u32>,
    },
    MemWrite {
        site: u32,
        port: PortClass,
        dep_number: u8,
        base: u32,
        idx: u32,
        data: u32,
    },
    Recv {
        var: u32,
        mask: i64,
    },
    Send {
        src: u32,
    },
}

/// A lowered transition; conditions and selectors are slot indices.
#[derive(Debug, Clone, Copy)]
enum Next {
    Goto(u32),
    Branch {
        cond: u32,
        then_state: u32,
        else_state: u32,
    },
    /// The `len` arms listed from `arms[arms]`, first match wins.
    Switch {
        selector: u32,
        arms: u32,
        len: u32,
        default: u32,
    },
    Restart,
}

/// A lowered state: its ops are `ops[start..end]`.
#[derive(Debug, Clone, Copy)]
struct State {
    start: u32,
    end: u32,
    next: Next,
}

/// Executes one thread FSM cycle by cycle.
#[derive(Debug, Clone)]
pub struct ThreadExec {
    /// The synthesized FSM, kept for names; the interpreter runs the
    /// lowered form below.
    fsm: Fsm,
    ops: Vec<Op>,
    states: Vec<State>,
    /// Argument slots of every call, each call's run contiguous.
    call_args: Vec<u32>,
    /// `(match, target state)` arms of every switch, each switch's run
    /// contiguous.
    arms: Vec<(i64, u32)>,
    /// Variables, temps and constants.
    slots: Vec<i64>,
    /// Per memory site, its port and, when its index is a constant, its
    /// address.
    sites: Vec<(PortClass, Option<u32>)>,
    /// Call argument values, gathered for the call network (sized at
    /// construction for the widest call).
    call_buf: Vec<i64>,
    state: usize,
    /// Index into `ops` of the next op to execute.
    pc: usize,
    waiting: Waiting,
    /// Completed run-to-completion iterations.
    pub iterations: u64,
    /// Cycles ticked. The engine adds the cycles it parks the thread
    /// instead of ticking it (see [`crate::engine`]).
    pub(crate) cycles: u64,
    /// Cycles that ended with the thread blocked on memory or I/O — the
    /// per-thread stall attribution the trace layer reports. Like
    /// `cycles`, this includes every cycle the engine parks the thread.
    pub(crate) blocked_cycles: u64,
    /// Messages sent on the tx interface.
    pub sent: Vec<i64>,
}

/// Builds the slot file while the ops are lowered.
struct Slots {
    /// Slot of temp 0; variables take the slots below it.
    temp_base: u32,
    /// Slot of the first constant.
    const_base: u32,
    values: Vec<i64>,
    consts: HashMap<i64, u32>,
}

impl Slots {
    /// The slot holding `v`. A constant is widened as the datapath reads
    /// it, and equal constants share a slot.
    fn of(&mut self, v: Value) -> u32 {
        match v {
            Value::Var(id) => id.0,
            Value::Temp(t) => self.temp_base + t.0,
            Value::Const(c) => {
                let value = i64::from(c as u32);
                *self.consts.entry(value).or_insert_with(|| {
                    self.values.push(value);
                    (self.values.len() - 1) as u32
                })
            }
        }
    }

    /// The constant in slot `slot`, if it holds one.
    fn constant(&self, slot: u32) -> Option<i64> {
        (slot >= self.const_base).then(|| self.values[slot as usize])
    }
}

impl ThreadExec {
    /// Creates an executor over a synthesized FSM, lowering it once (see
    /// the module docs).
    pub fn new(fsm: Fsm) -> Self {
        // Every temp any op or transition names gets a slot: one never
        // written reads 0.
        let mut n_temps = 0u32;
        let mut see = |v: &Value| {
            if let Value::Temp(t) = v {
                n_temps = n_temps.max(t.0 + 1);
            }
        };
        for st in &fsm.states {
            for op in &st.ops {
                op.args.iter().for_each(&mut see);
                if let Some(t) = op.result {
                    see(&Value::Temp(t));
                }
            }
            match &st.next {
                StateNext::Branch { cond: v, .. } | StateNext::Switch { selector: v, .. } => see(v),
                StateNext::Goto(_) | StateNext::Restart => {}
            }
        }
        let n_vars = fsm.vars.len() as u32;
        let mut slots = Slots {
            temp_base: n_vars,
            const_base: n_vars + n_temps,
            values: vec![0; (n_vars + n_temps) as usize],
            consts: HashMap::new(),
        };
        let residency: Vec<(PortClass, u32)> = fsm
            .vars
            .iter()
            .map(|v| match fsm.binding.residency_of(v) {
                Residency::Memory {
                    port, base_addr, ..
                } => (port, base_addr),
                Residency::Register => (PortClass::A, 0),
            })
            .collect();
        let mask = |var: u32| mask_to_width(-1, fsm.widths[var as usize].min(32));

        let mut ops = Vec::new();
        let mut states = Vec::with_capacity(fsm.states.len());
        let mut call_args = Vec::new();
        let mut arms = Vec::new();
        let mut sites = Vec::new();
        let mut widest_call = 0;
        for st in &fsm.states {
            let start = ops.len() as u32;
            for op in &st.ops {
                let dst = op.result.map(|t| slots.of(Value::Temp(t)));
                let lowered = match &op.kind {
                    OpKind::Copy => dst.map(|dst| Op::Copy {
                        dst,
                        a: slots.of(op.args[0]),
                    }),
                    OpKind::Unary(u) => dst.map(|dst| Op::Unary {
                        op: *u,
                        dst,
                        a: slots.of(op.args[0]),
                    }),
                    OpKind::Binary(b) => dst.map(|dst| Op::Binary {
                        op: *b,
                        dst,
                        a: slots.of(op.args[0]),
                        b: slots.of(op.args[1]),
                    }),
                    OpKind::Call(name) => dst.map(|dst| {
                        let first = call_args.len() as u32;
                        call_args.extend(op.args.iter().map(|a| slots.of(*a)));
                        widest_call = widest_call.max(op.args.len());
                        Op::Call {
                            seed: name_seed(name),
                            dst,
                            args: first,
                            len: op.args.len() as u32,
                        }
                    }),
                    OpKind::Select => dst.map(|dst| Op::Select {
                        dst,
                        cond: slots.of(op.args[0]),
                        a: slots.of(op.args[1]),
                        b: slots.of(op.args[2]),
                    }),
                    OpKind::StoreVar { var } => Some(Op::Store {
                        var: var.0,
                        src: slots.of(op.args[0]),
                        mask: mask(var.0),
                    }),
                    OpKind::MemRead { var, .. } | OpKind::MemWrite { var, .. } => {
                        let (port, base) = residency[var.0 as usize];
                        let idx = slots.of(op.args[0]);
                        let site = sites.len() as u32;
                        sites.push((
                            port,
                            slots.constant(idx).map(|i| base.wrapping_add(i as u32)),
                        ));
                        Some(match &op.kind {
                            OpKind::MemWrite { dep, .. } => Op::MemWrite {
                                site,
                                port,
                                dep_number: u8::from(dep.is_some()),
                                base,
                                idx,
                                data: slots.of(op.args[1]),
                            },
                            _ => Op::MemRead {
                                site,
                                port,
                                base,
                                idx,
                                dst,
                            },
                        })
                    }
                    OpKind::Recv { var } => Some(Op::Recv {
                        var: var.0,
                        mask: mask(var.0),
                    }),
                    OpKind::Send => Some(Op::Send {
                        src: slots.of(op.args[0]),
                    }),
                };
                // A pure op with no result changes nothing.
                ops.extend(lowered);
            }
            let next = match &st.next {
                StateNext::Goto(t) => Next::Goto(*t as u32),
                StateNext::Branch {
                    cond,
                    then_state,
                    else_state,
                } => Next::Branch {
                    cond: slots.of(*cond),
                    then_state: *then_state as u32,
                    else_state: *else_state as u32,
                },
                StateNext::Switch {
                    selector,
                    arms: cases,
                    default,
                } => {
                    let first = arms.len() as u32;
                    arms.extend(cases.iter().map(|&(k, t)| (k, t as u32)));
                    Next::Switch {
                        selector: slots.of(*selector),
                        arms: first,
                        len: cases.len() as u32,
                        default: *default as u32,
                    }
                }
                StateNext::Restart => Next::Restart,
            };
            states.push(State {
                start,
                end: ops.len() as u32,
                next,
            });
        }
        ThreadExec {
            fsm,
            ops,
            states,
            call_args,
            arms,
            slots: slots.values,
            sites,
            call_buf: Vec::with_capacity(widest_call),
            state: 0,
            pc: 0,
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
        self.fsm.var_id(name).map(|id| self.slots[id.0 as usize])
    }

    /// Per memory site (in [`MemRequest::site`] order), its port class and,
    /// when its element index is a constant, the address it always posts.
    pub(crate) fn mem_sites(&self) -> &[(PortClass, Option<u32>)] {
        &self.sites
    }

    /// Whether the thread is stalled on a memory request or I/O.
    pub fn is_blocked(&self) -> bool {
        !matches!(self.waiting, Waiting::None)
    }

    /// Whether a tick can change anything. A thread waiting on memory, or
    /// on `recv` while `rx_ready` is false, would only count the cycle as
    /// blocked: the engine parks it instead. (`send` never waits: the
    /// engine's tx side is always ready.)
    pub(crate) fn can_progress(&self, rx_ready: bool) -> bool {
        match self.waiting {
            Waiting::None | Waiting::Send { .. } => true,
            Waiting::Recv { .. } => rx_ready,
            Waiting::Mem { .. } => false,
        }
    }

    /// Advances one cycle. `rx` offers an incoming message (taken if the
    /// thread is at a `recv`); `tx_ready` gates `send`. Returns the memory
    /// request the thread is holding at the end of the cycle, if any.
    pub fn tick(&mut self, rx: &mut Option<i64>, tx_ready: bool) -> Option<MemRequest> {
        self.cycles += 1;
        // Resolve blocking I/O first.
        match self.waiting {
            Waiting::Recv { var, mask } => {
                if let Some(msg) = rx.take() {
                    self.slots[var as usize] = msg & mask;
                    self.waiting = Waiting::None;
                    self.pc += 1;
                    self.run_state();
                }
            }
            Waiting::Send { value } => {
                if tx_ready {
                    self.sent.push(value);
                    self.waiting = Waiting::None;
                    self.pc += 1;
                    self.run_state();
                }
            }
            // Still blocked; the request stays posted.
            Waiting::Mem { .. } => {}
            Waiting::None => self.run_state(),
        }
        if self.is_blocked() {
            self.blocked_cycles += 1;
        }
        self.held_request()
    }

    /// Feeds back a grant or read data for the held request. Returns
    /// whether the thread thereby stopped waiting (a write granted, or
    /// read data arrived); a response with no request held is ignored.
    pub fn deliver(&mut self, resp: MemResponse) -> bool {
        let Waiting::Mem { req, result, .. } = self.waiting else {
            return false;
        };
        match resp {
            MemResponse::Granted if req.write.is_none() => {
                // Read issued; data comes later.
                self.waiting = Waiting::Mem {
                    req,
                    result,
                    granted: true,
                };
                return false;
            }
            // Write complete.
            MemResponse::Granted => {}
            MemResponse::Data(d) => {
                if let Some(slot) = result {
                    self.slots[slot as usize] = i64::from(d);
                }
            }
        }
        self.waiting = Waiting::None;
        self.pc += 1;
        true
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
    /// This is the simulator's innermost loop: it runs the lowered ops,
    /// reading and writing the slot file by index, so a cycle with no
    /// `send` performs no heap allocation.
    fn run_state(&mut self) {
        let ThreadExec {
            ops,
            states,
            call_args,
            arms,
            slots,
            call_buf,
            state,
            pc,
            waiting,
            iterations,
            ..
        } = self;
        let Some(st) = states.get(*state) else {
            return;
        };
        while *pc < st.end as usize {
            match ops[*pc] {
                Op::Copy { dst, a } => slots[dst as usize] = slots[a as usize],
                Op::Unary { op, dst, a } => {
                    slots[dst as usize] = eval_unary_datapath(op, slots[a as usize]);
                }
                Op::Binary { op, dst, a, b } => {
                    slots[dst as usize] =
                        eval_binary_datapath(op, slots[a as usize], slots[b as usize]);
                }
                Op::Call {
                    seed,
                    dst,
                    args,
                    len,
                } => {
                    let args = &call_args[args as usize..(args + len) as usize];
                    call_buf.clear();
                    call_buf.extend(args.iter().map(|&a| slots[a as usize]));
                    slots[dst as usize] = call_function_seeded(seed, call_buf);
                }
                Op::Select { dst, cond, a, b } => {
                    let pick = if slots[cond as usize] != 0 { a } else { b };
                    slots[dst as usize] = slots[pick as usize];
                }
                Op::Store { var, src, mask } => slots[var as usize] = slots[src as usize] & mask,
                Op::MemRead {
                    site,
                    port,
                    base,
                    idx,
                    dst,
                } => {
                    *waiting = Waiting::Mem {
                        req: MemRequest {
                            port,
                            addr: base.wrapping_add(slots[idx as usize] as u32),
                            write: None,
                            dep_number: 0,
                            site,
                        },
                        result: dst,
                        granted: false,
                    };
                    return;
                }
                Op::MemWrite {
                    site,
                    port,
                    dep_number,
                    base,
                    idx,
                    data,
                } => {
                    *waiting = Waiting::Mem {
                        req: MemRequest {
                            port,
                            addr: base.wrapping_add(slots[idx as usize] as u32),
                            write: Some(slots[data as usize] as u32),
                            dep_number,
                            site,
                        },
                        result: None,
                        granted: false,
                    };
                    return;
                }
                Op::Recv { var, mask } => {
                    *waiting = Waiting::Recv { var, mask };
                    return;
                }
                Op::Send { src } => {
                    *waiting = Waiting::Send {
                        value: slots[src as usize],
                    };
                    return;
                }
            }
            *pc += 1;
        }
        // State complete: take the transition (consumes the cycle).
        let next = match st.next {
            Next::Goto(t) => t,
            Next::Branch {
                cond,
                then_state,
                else_state,
            } => {
                if slots[cond as usize] != 0 {
                    then_state
                } else {
                    else_state
                }
            }
            Next::Switch {
                selector,
                arms: first,
                len,
                default,
            } => {
                let sel = slots[selector as usize];
                arms[first as usize..(first + len) as usize]
                    .iter()
                    .find(|&&(k, _)| i64::from(k as u32) == sel || k == sel)
                    .map_or(default, |&(_, t)| t)
            }
            Next::Restart => {
                *iterations += 1;
                0
            }
        };
        *state = next as usize;
        *pc = states[*state].start as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_synth::eval::call_function;
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
