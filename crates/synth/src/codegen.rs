//! RTL code generation: FSM → `memsync-rtl` netlist.
//!
//! Produces a synthesizable thread module: a binary-encoded state register,
//! one datapath register per declared variable (a variable narrower than
//! 32 bits, such as a `char`, is truncated to its width on every write, as
//! the simulator's executor stores it), shared registers for
//! cross-state temporaries, spatially instantiated operators, and the memory
//! port interfaces that connect to the wrapper of `memsync-core`:
//!
//! * per used port class `x ∈ {a, b, c, d}`: outputs `px_addr`, `px_wdata`,
//!   `px_we`, `px_req`; inputs `px_rdata` and (except port A, which is the
//!   direct single-cycle port) `px_grant`;
//! * network interface: `rx_data`/`rx_valid`/`rx_ready` and
//!   `tx_data`/`tx_valid`/`tx_ready`.
//!
//! A state holding a guarded memory operation advances only when its port
//! grant is asserted — the blocking semantics of §3.1 in hardware.

use crate::binding::bind;
use crate::eval::{name_seed, DATAPATH_WIDTH};
use crate::fsm::{Fsm, StateNext};
use crate::ir::{OpKind, PortClass, Residency, Temp, Value, VarId};
use memsync_hic::ast::{BinaryOp, UnaryOp};
use memsync_rtl::builder::ModuleBuilder;
use memsync_rtl::netlist::{clog2, Module, NetId};
use std::collections::BTreeMap;
use std::fmt;

/// Address bus width of the wrapper ports (covers the 512×36 BRAM view).
pub const PORT_ADDR_WIDTH: u32 = 9;

/// Code generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    /// Description of the unsupported construct.
    pub message: String,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen failed: {}", self.message)
    }
}

impl std::error::Error for CodegenError {}

#[derive(Default)]
struct PortUse {
    /// (state, addr net, wdata net or None for reads, stall-on-grant)
    accesses: Vec<(usize, NetId, Option<NetId>, bool)>,
}

/// Generates the RTL module of one thread FSM.
///
/// # Errors
///
/// Returns [`CodegenError`] for constructs with no combinational hardware
/// mapping (`/` and `%`, which require an iterative divider core).
pub fn generate(fsm: &Fsm) -> Result<Module, CodegenError> {
    let w = DATAPATH_WIDTH;
    let n_states = fsm.states.len().max(1);
    let sw = clog2(n_states as u32).max(1);
    let mut b = ModuleBuilder::new(format!("thread_{}", fsm.thread));
    let binding = bind(fsm);

    // --- interface discovery ---
    let mut uses_recv = false;
    let mut uses_send = false;
    let mut used_ports: Vec<PortClass> = Vec::new();
    for s in &fsm.states {
        for op in &s.ops {
            match &op.kind {
                OpKind::Recv { .. } => uses_recv = true,
                OpKind::Send => uses_send = true,
                OpKind::MemRead { var, .. } | OpKind::MemWrite { var, .. } => {
                    let port = port_of(fsm, *var);
                    if !used_ports.contains(&port) {
                        used_ports.push(port);
                    }
                }
                _ => {}
            }
        }
    }
    used_ports.sort();

    // --- ports ---
    let mut rdata: BTreeMap<PortClass, NetId> = BTreeMap::new();
    let mut grant: BTreeMap<PortClass, Option<NetId>> = BTreeMap::new();
    for &p in &used_ports {
        let pl = port_label(p);
        rdata.insert(p, b.input(&format!("p{pl}_rdata"), w));
        let g = if p == PortClass::A {
            None
        } else {
            Some(b.input(&format!("p{pl}_grant"), 1))
        };
        grant.insert(p, g);
    }
    let rx = uses_recv.then(|| (b.input("rx_data", w), b.input("rx_valid", 1)));
    let tx_ready = uses_send.then(|| b.input("tx_ready", 1));

    // --- state register (feedback) ---
    let state_q = b.net("state_q", sw);

    // in_state decoders.
    let mut in_state: Vec<NetId> = Vec::with_capacity(n_states);
    for s in 0..n_states {
        let c = b.constant(s as u64, sw, &format!("s{s}"));
        in_state.push(b.eq(state_q, c, &format!("in_s{s}")));
    }

    // --- variable registers (feedback nets, written later) ---
    let var_q: Vec<NetId> = fsm
        .vars
        .iter()
        .map(|v| b.net(&format!("var_{v}"), w))
        .collect();

    // Cross-state temp registers.
    let mut temp_reg: BTreeMap<u32, NetId> = BTreeMap::new();
    for t in binding.assignment.keys() {
        temp_reg.insert(*t, b.net(&format!("treg_{t}"), w));
    }
    // Memory-read temps always need a register (data arrives next cycle).
    for s in &fsm.states {
        for op in &s.ops {
            if matches!(op.kind, OpKind::MemRead { .. }) {
                if let Some(t) = op.result {
                    temp_reg
                        .entry(t.0)
                        .or_insert_with(|| b.net(&format!("treg_{}", t.0), w));
                }
            }
        }
    }

    // --- per-state datapath ---
    let zero1 = b.constant(0, 1, "zero1");
    let one1 = b.constant(1, 1, "one1");
    let mut holds: Vec<NetId> = Vec::with_capacity(n_states);
    let mut port_use: BTreeMap<PortClass, PortUse> = BTreeMap::new();
    // Per-var writers: (state idx, value net, extra condition net).
    let mut var_writers: Vec<Vec<(usize, NetId, Option<NetId>)>> = vec![Vec::new(); fsm.vars.len()];
    // Temp register writers: temp -> (state, value net, extra condition).
    let mut temp_writers: BTreeMap<u32, (usize, NetId, Option<NetId>)> = BTreeMap::new();
    // Send data muxing: (state, value net).
    let mut send_states: Vec<(usize, NetId)> = Vec::new();
    let mut recv_states: Vec<usize> = Vec::new();
    // Wire values of temps in their defining state.
    let mut temp_wire: BTreeMap<u32, (usize, NetId)> = BTreeMap::new();
    // Same-state forwarding of variable stores: a read of `v` after a store
    // to `v` within one state sees the stored wire, matching the sequential
    // chaining semantics the FSM executor implements.
    let mut var_wire: BTreeMap<u32, (usize, NetId)> = BTreeMap::new();
    // Branch conditions resolved per state while wires are in scope.
    let mut next_targets: Vec<Option<NetId>> = vec![None; n_states];

    for (si, state) in fsm.states.iter().enumerate() {
        let mut stall_terms: Vec<NetId> = Vec::new();
        let resolve = |b: &mut ModuleBuilder,
                       temp_wire: &BTreeMap<u32, (usize, NetId)>,
                       var_wire: &BTreeMap<u32, (usize, NetId)>,
                       temp_reg: &BTreeMap<u32, NetId>,
                       v: Value|
         -> NetId {
            match v {
                Value::Const(c) => b.constant(c as u32 as u64, w, "k"),
                Value::Var(id) => {
                    if let Some((ds, wire)) = var_wire.get(&id.0) {
                        if *ds == si {
                            return *wire;
                        }
                    }
                    var_q[id.0 as usize]
                }
                Value::Temp(t) => {
                    if let Some((ds, wire)) = temp_wire.get(&t.0) {
                        if *ds == si {
                            return *wire;
                        }
                    }
                    *temp_reg
                        .get(&t.0)
                        .unwrap_or_else(|| panic!("temp %{} has no register", t.0))
                }
            }
        };

        for op in &state.ops {
            match &op.kind {
                OpKind::Copy => {
                    let a = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[0]);
                    if let Some(t) = op.result {
                        note_temp(
                            &mut b,
                            &binding,
                            &mut temp_wire,
                            &mut temp_writers,
                            si,
                            t,
                            a,
                        );
                    }
                }
                OpKind::Unary(u) => {
                    let a = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[0]);
                    let y = gen_unary(&mut b, *u, a, w);
                    if let Some(t) = op.result {
                        note_temp(
                            &mut b,
                            &binding,
                            &mut temp_wire,
                            &mut temp_writers,
                            si,
                            t,
                            y,
                        );
                    }
                }
                OpKind::Binary(op2) => {
                    let a = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[0]);
                    let c = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[1]);
                    let y = gen_binary(&mut b, *op2, a, c, w, op.args[1])?;
                    if let Some(t) = op.result {
                        note_temp(
                            &mut b,
                            &binding,
                            &mut temp_wire,
                            &mut temp_writers,
                            si,
                            t,
                            y,
                        );
                    }
                }
                OpKind::Call(name) => {
                    let args: Vec<NetId> = op
                        .args
                        .iter()
                        .map(|a| resolve(&mut b, &temp_wire, &var_wire, &temp_reg, *a))
                        .collect();
                    let y = gen_call(&mut b, name, &args, w);
                    if let Some(t) = op.result {
                        note_temp(
                            &mut b,
                            &binding,
                            &mut temp_wire,
                            &mut temp_writers,
                            si,
                            t,
                            y,
                        );
                    }
                }
                OpKind::Select => {
                    let c = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[0]);
                    let tv = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[1]);
                    let ev = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[2]);
                    let taken = bool_of(&mut b, c, w);
                    let y = b.mux(taken, &[ev, tv], "sel");
                    if let Some(t) = op.result {
                        note_temp(
                            &mut b,
                            &binding,
                            &mut temp_wire,
                            &mut temp_writers,
                            si,
                            t,
                            y,
                        );
                    }
                }
                OpKind::StoreVar { var } => {
                    let v = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[0]);
                    let v = to_var_width(&mut b, fsm, *var, v);
                    var_writers[var.0 as usize].push((si, v, None));
                    var_wire.insert(var.0, (si, v));
                }
                OpKind::MemRead { var, .. } => {
                    let port = port_of(fsm, *var);
                    let base = base_of(fsm, *var);
                    let addr = match op.args[0] {
                        Value::Const(c) => b.constant(
                            (u64::from(base) + (c as u32 as u64)) & ((1 << PORT_ADDR_WIDTH) - 1),
                            PORT_ADDR_WIDTH,
                            "addr_k",
                        ),
                        idx_val => {
                            let idx = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, idx_val);
                            let idx10 = b.slice(idx, PORT_ADDR_WIDTH - 1, 0, "idx10");
                            let basek = b.constant(u64::from(base), PORT_ADDR_WIDTH, "base");
                            b.add(basek, idx10, "addr")
                        }
                    };
                    port_use.entry(port).or_default().accesses.push((
                        si,
                        addr,
                        None,
                        port != PortClass::A,
                    ));
                    if let Some(g) = grant[&port] {
                        let ng = b.not(g, "ngrant");
                        stall_terms.push(ng);
                    }
                    if let Some(t) = op.result {
                        // Latch rdata at the end of the issue state (when
                        // granted); available from the next state on.
                        let fire = match grant[&port] {
                            Some(g) => b.and(&[in_state[si], g], "rd_fire"),
                            None => in_state[si],
                        };
                        // Delay one cycle: the BRAM presents data in the
                        // cycle after the address; latch it then.
                        let fire_d = b.register(fire, 0, "rd_fire_d");
                        temp_writers.insert(t.0, (usize::MAX, rdata[&port], Some(fire_d)));
                        temp_reg
                            .entry(t.0)
                            .or_insert_with(|| b.net(&format!("treg_{}", t.0), w));
                    }
                }
                OpKind::MemWrite { var, .. } => {
                    let port = port_of(fsm, *var);
                    let base = base_of(fsm, *var);
                    let idx = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[0]);
                    let data = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[1]);
                    let idx10 = b.slice(idx, PORT_ADDR_WIDTH - 1, 0, "idx10");
                    let basek = b.constant(u64::from(base), PORT_ADDR_WIDTH, "base");
                    let addr = b.add(basek, idx10, "addr");
                    port_use.entry(port).or_default().accesses.push((
                        si,
                        addr,
                        Some(data),
                        port != PortClass::A,
                    ));
                    if let Some(g) = grant[&port] {
                        let ng = b.not(g, "ngrant");
                        stall_terms.push(ng);
                    }
                }
                OpKind::Recv { var } => {
                    let (rx_data, rx_valid) = rx.expect("recv implies rx ports");
                    let v = to_var_width(&mut b, fsm, *var, rx_data);
                    var_writers[var.0 as usize].push((si, v, Some(rx_valid)));
                    // Later ops in this state see the arriving message
                    // combinationally (their commits are gated by the same
                    // state advance, so stalled cycles are harmless).
                    var_wire.insert(var.0, (si, v));
                    recv_states.push(si);
                    let nv = b.not(rx_valid, "no_rx");
                    stall_terms.push(nv);
                }
                OpKind::Send => {
                    let v = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, op.args[0]);
                    send_states.push((si, v));
                    let tr = tx_ready.expect("send implies tx ports");
                    let ntr = b.not(tr, "no_tx");
                    stall_terms.push(ntr);
                }
            }
        }

        // hold = in_state & (any stall term)
        let hold = if stall_terms.is_empty() {
            zero1
        } else {
            let any = if stall_terms.len() == 1 {
                stall_terms[0]
            } else {
                b.or(&stall_terms, "stalls")
            };
            b.and(&[in_state[si], any], "hold")
        };
        holds.push(hold);

        // Next-state target value.
        let target = match &state.next {
            StateNext::Goto(t) => b.constant(*t as u64, sw, "tgt"),
            StateNext::Restart => b.constant(0, sw, "tgt"),
            StateNext::Branch {
                cond,
                then_state,
                else_state,
            } => {
                let c = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, *cond);
                let zero = b.constant(0, w, "z");
                let taken = b.ne(c, zero, "taken");
                let t1 = b.constant(*then_state as u64, sw, "t_then");
                let t0 = b.constant(*else_state as u64, sw, "t_else");
                b.mux(taken, &[t0, t1], "tgt")
            }
            StateNext::Switch {
                selector,
                arms,
                default,
            } => {
                let sel = resolve(&mut b, &temp_wire, &var_wire, &temp_reg, *selector);
                let mut acc = b.constant(*default as u64, sw, "t_def");
                for (k, t) in arms {
                    let kk = b.constant(*k as u32 as u64, w, "k");
                    let hit = b.eq(sel, kk, "hit");
                    let tt = b.constant(*t as u64, sw, "t_arm");
                    acc = b.mux(hit, &[acc, tt], "tgt");
                }
                acc
            }
        };
        next_targets[si] = Some(target);
    }

    // advance_s = in_state & !hold; global next-state mux chain.
    let mut next = state_q;
    for si in 0..n_states {
        let nh = b.not(holds[si], "nhold");
        let adv = b.and(&[in_state[si], nh], "adv");
        let target = next_targets[si].expect("every state has a target");
        next = b.mux(adv, &[next, target], "next_acc");
    }
    b.register_into(next, state_q, 0);

    // Variable registers.
    for (vi, writers) in var_writers.iter().enumerate() {
        let q = var_q[vi];
        if writers.is_empty() {
            // Constant-zero initialized, never written.
            let z = b.constant(0, w, "vz");
            b.register_into(z, q, 0);
            continue;
        }
        let mut d = q;
        let mut en_terms: Vec<NetId> = Vec::new();
        for (si, value, extra) in writers {
            let cond = match extra {
                Some(x) => b.and(&[in_state[*si], *x], "wr_cond"),
                None => in_state[*si],
            };
            d = b.mux(cond, &[d, *value], "var_d");
            en_terms.push(cond);
        }
        let en = if en_terms.len() == 1 {
            en_terms[0]
        } else {
            b.or(&en_terms, "var_en")
        };
        b.register_en_into(d, en, q, 0);
    }

    // Temp registers.
    for (t, q) in &temp_reg {
        match temp_writers.get(t) {
            Some((si, value, extra)) => {
                let cond = match (*si, extra) {
                    (usize::MAX, Some(x)) => *x,
                    (si, Some(x)) => b.and(&[in_state[si], *x], "t_cond"),
                    (si, None) => in_state[si],
                };
                b.register_en_into(*value, cond, *q, 0);
            }
            None => {
                // Defined but value recorded as wire-only (shouldn't happen
                // for registered temps); tie off.
                let z = b.constant(0, w, "tz");
                b.register_into(z, *q, 0);
            }
        }
    }

    // Port output buses.
    for (&port, pu) in &port_use {
        let pl = port_label(port);
        let mut addr = b.constant(0, PORT_ADDR_WIDTH, "a0");
        let mut wdata = b.constant(0, w, "d0");
        let mut req_terms: Vec<NetId> = Vec::new();
        let mut we_terms: Vec<NetId> = Vec::new();
        for (si, a, d, _) in &pu.accesses {
            addr = b.mux(in_state[*si], &[addr, *a], "p_addr");
            if let Some(d) = d {
                wdata = b.mux(in_state[*si], &[wdata, *d], "p_wdata");
                we_terms.push(in_state[*si]);
            }
            req_terms.push(in_state[*si]);
        }
        let req = or_any(&mut b, &req_terms, zero1, "p_req");
        let we = or_any(&mut b, &we_terms, zero1, "p_we");
        b.output(&format!("p{pl}_addr"), addr);
        b.output(&format!("p{pl}_wdata"), wdata);
        b.output(&format!("p{pl}_we"), we);
        b.output(&format!("p{pl}_req"), req);
    }

    // Network interface outputs.
    if uses_recv {
        let terms: Vec<NetId> = recv_states.iter().map(|&s| in_state[s]).collect();
        let rdy = or_any(&mut b, &terms, zero1, "rx_rdy");
        b.output("rx_ready", rdy);
    }
    if uses_send {
        let mut data = b.constant(0, w, "tx0");
        let mut valid_terms = Vec::new();
        for (si, v) in &send_states {
            data = b.mux(in_state[*si], &[data, *v], "tx_data_m");
            valid_terms.push(in_state[*si]);
        }
        let valid = or_any(&mut b, &valid_terms, zero1, "tx_valid_w");
        b.output("tx_data", data);
        b.output("tx_valid", valid);
    }
    // Debug/observability outputs keep the datapath live.
    b.output("state", state_q);
    let _ = one1;

    Ok(b.finish())
}

fn or_any(b: &mut ModuleBuilder, terms: &[NetId], zero: NetId, name: &str) -> NetId {
    match terms.len() {
        0 => zero,
        1 => terms[0],
        _ => b.or(terms, name),
    }
}

fn port_of(fsm: &Fsm, var: VarId) -> PortClass {
    match fsm.binding.residency_of(&fsm.vars[var.0 as usize]) {
        Residency::Memory { port, .. } => port,
        Residency::Register => PortClass::A,
    }
}

fn base_of(fsm: &Fsm, var: VarId) -> u32 {
    match fsm.binding.residency_of(&fsm.vars[var.0 as usize]) {
        Residency::Memory { base_addr, .. } => base_addr,
        Residency::Register => 0,
    }
}

fn port_label(p: PortClass) -> char {
    match p {
        PortClass::A => 'a',
        PortClass::B => 'b',
        PortClass::C => 'c',
        PortClass::D => 'd',
    }
}

fn extend_bit(b: &mut ModuleBuilder, bit: NetId, w: u32, name: &str) -> NetId {
    let zeros = b.constant(0, w - 1, "zext");
    b.concat(&[zeros, bit], name)
}

fn bool_of(b: &mut ModuleBuilder, v: NetId, w: u32) -> NetId {
    let zero = b.constant(0, w, "z");
    b.ne(v, zero, "nz")
}

/// `value` as variable `var` holds it: truncated to the variable's declared
/// width, zero-extended in the datapath.
fn to_var_width(b: &mut ModuleBuilder, fsm: &Fsm, var: VarId, value: NetId) -> NetId {
    let width = fsm.widths[var.0 as usize];
    if width >= DATAPATH_WIDTH {
        return value;
    }
    let mask = b.constant((1u64 << width) - 1, DATAPATH_WIDTH, "var_mask");
    b.and(&[value, mask], "var_trunc")
}

fn gen_unary(b: &mut ModuleBuilder, op: UnaryOp, a: NetId, w: u32) -> NetId {
    match op {
        UnaryOp::Neg => {
            let zero = b.constant(0, w, "z");
            b.sub(zero, a, "neg")
        }
        UnaryOp::Not => {
            let zero = b.constant(0, w, "z");
            let isz = b.eq(a, zero, "isz");
            extend_bit(b, isz, w, "lnot")
        }
        UnaryOp::BitNot => b.not(a, "bnot"),
    }
}

fn gen_binary(
    b: &mut ModuleBuilder,
    op: BinaryOp,
    x: NetId,
    y: NetId,
    w: u32,
    y_value: Value,
) -> Result<NetId, CodegenError> {
    Ok(match op {
        BinaryOp::Add => b.add(x, y, "sum"),
        BinaryOp::Sub => b.sub(x, y, "dif"),
        BinaryOp::Mul => b.mul(x, y, "prd"),
        BinaryOp::BitAnd => b.and(&[x, y], "ba"),
        BinaryOp::BitOr => b.or(&[x, y], "bo"),
        BinaryOp::BitXor => b.xor(&[x, y], "bx"),
        BinaryOp::Eq => {
            let e = b.eq(x, y, "ceq");
            extend_bit(b, e, w, "eqx")
        }
        BinaryOp::Ne => {
            let e = b.ne(x, y, "cne");
            extend_bit(b, e, w, "nex")
        }
        BinaryOp::Lt => {
            let e = b.lt(x, y, "clt");
            extend_bit(b, e, w, "ltx")
        }
        BinaryOp::Gt => {
            let e = b.lt(y, x, "cgt");
            extend_bit(b, e, w, "gtx")
        }
        BinaryOp::Le => {
            let g = b.lt(y, x, "cgt");
            let e = b.not(g, "cle");
            extend_bit(b, e, w, "lex")
        }
        BinaryOp::Ge => {
            let l = b.lt(x, y, "clt");
            let e = b.not(l, "cge");
            extend_bit(b, e, w, "gex")
        }
        BinaryOp::And => {
            let xa = bool_of(b, x, w);
            let ya = bool_of(b, y, w);
            let e = b.and(&[xa, ya], "land");
            extend_bit(b, e, w, "landx")
        }
        BinaryOp::Or => {
            let xa = bool_of(b, x, w);
            let ya = bool_of(b, y, w);
            let e = b.or(&[xa, ya], "lor");
            extend_bit(b, e, w, "lorx")
        }
        BinaryOp::Shl => gen_shift(b, x, y, y_value, w, true),
        BinaryOp::Shr => gen_shift(b, x, y, y_value, w, false),
        BinaryOp::Div | BinaryOp::Rem => {
            return Err(CodegenError {
                message: "`/` and `%` need an iterative divider core and are not \
                          synthesizable combinationally; restructure the hic source"
                    .into(),
            })
        }
    })
}

/// Constant shifts use the wired primitive; variable shifts build a barrel
/// shifter from log2(w) mux stages.
fn gen_shift(
    b: &mut ModuleBuilder,
    x: NetId,
    y: NetId,
    y_value: Value,
    w: u32,
    left: bool,
) -> NetId {
    if let Value::Const(c) = y_value {
        let amount = (c as u32) & (w - 1);
        return if left {
            b.shl(x, amount, "shlk")
        } else {
            b.shr(x, amount, "shrk")
        };
    }
    let stages = clog2(w);
    let mut cur = x;
    for s in 0..stages {
        let amount = 1u32 << s;
        let shifted = if left {
            b.shl(cur, amount, "bshl")
        } else {
            b.shr(cur, amount, "bshr")
        };
        let bit = b.slice(y, s, s, "shbit");
        cur = b.mux(bit, &[cur, shifted], "bstage");
    }
    cur
}

/// The call-network stand-in: per argument,
/// `acc = rotl(acc, 5) ^ a; acc = acc + rotl(a, 13)`, seeded by the name.
fn gen_call(b: &mut ModuleBuilder, name: &str, args: &[NetId], w: u32) -> NetId {
    let rotl = |b: &mut ModuleBuilder, v: NetId, n: u32| -> NetId {
        let n = n % w;
        if n == 0 {
            return v;
        }
        let hi = b.shl(v, n, "rl_hi");
        let lo = b.shr(v, w - n, "rl_lo");
        b.or(&[hi, lo], "rl")
    };
    let mut acc = b.constant(u64::from(name_seed(name) as u32), w, "seed");
    for &a in args {
        let r5 = rotl(b, acc, 5);
        acc = b.xor(&[r5, a], "mix");
        let a13 = rotl(b, a, 13);
        acc = b.add(acc, a13, "mixa");
    }
    acc
}

/// Records a temp's wire value; registers it too when the binding says it
/// crosses states.
fn note_temp(
    b: &mut ModuleBuilder,
    binding: &crate::binding::BindingReport,
    temp_wire: &mut BTreeMap<u32, (usize, NetId)>,
    temp_writers: &mut BTreeMap<u32, (usize, NetId, Option<NetId>)>,
    state: usize,
    t: Temp,
    value: NetId,
) {
    temp_wire.insert(t.0, (state, value));
    if binding.assignment.contains_key(&t.0) {
        temp_writers.insert(t.0, (state, value, None));
    }
    let _ = b;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::MemBinding;
    use memsync_hic::parser::parse;
    use memsync_rtl::validate::validate;

    fn gen(src: &str, binding: MemBinding) -> Module {
        let program = parse(src).unwrap();
        let fsm = crate::synthesis::Synthesis::of(&program)
            .binding(binding)
            .run()
            .unwrap()
            .fsm;
        generate(&fsm).expect("codegen")
    }

    #[test]
    fn straight_line_thread_validates() {
        let m = gen(
            "thread t() { int a, b; a = 1; b = a + 2; }",
            MemBinding::new(),
        );
        validate(&m).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(m.is_sequential());
        assert!(m.port("state").is_some());
    }

    #[test]
    fn guarded_consumer_exposes_port_c() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::C, 3, Some("m".into()), None);
        let m = gen("thread c() { int w, v; w = v + 1; }", binding);
        validate(&m).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(m.port("pc_addr").is_some());
        assert!(m.port("pc_req").is_some());
        assert!(m.port("pc_grant").is_some());
        assert!(m.port("pc_rdata").is_some());
    }

    #[test]
    fn producer_exposes_port_d() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::D, 0, None, Some("m".into()));
        let m = gen("thread p() { int v; v = 9; }", binding);
        validate(&m).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(m.port("pd_addr").is_some());
        assert!(m.port("pd_we").is_some());
        assert!(m.port("pd_grant").is_some());
    }

    #[test]
    fn recv_send_interface_generated() {
        let m = gen(
            "thread io() { message msg; recv msg; send msg; }",
            MemBinding::new(),
        );
        validate(&m).unwrap_or_else(|e| panic!("{e:?}"));
        for p in [
            "rx_data", "rx_valid", "rx_ready", "tx_data", "tx_valid", "tx_ready",
        ] {
            assert!(m.port(p).is_some(), "missing {p}");
        }
    }

    #[test]
    fn control_flow_thread_validates() {
        let m = gen(
            "thread t() { int a, b; a = 4; while (a) { a = a - 1; } if (a == 0) { b = 1; } else { b = 2; } }",
            MemBinding::new(),
        );
        validate(&m).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn division_is_rejected() {
        let program = parse("thread t() { int a, b; a = 8; b = a / 2; }").unwrap();
        let fsm = crate::synthesis::Synthesis::of(&program).run().unwrap().fsm;
        let err = generate(&fsm).unwrap_err();
        assert!(err.message.contains("divider"));
    }

    #[test]
    fn call_network_generated() {
        let m = gen(
            "thread t() { int a, b, c; a = 1; b = 2; c = f(a, b); }",
            MemBinding::new(),
        );
        validate(&m).unwrap_or_else(|e| panic!("{e:?}"));
        // The mix network uses xor instances.
        assert!(m.instances.iter().any(|i| i.op.mnemonic() == "xor"));
    }

    #[test]
    fn array_thread_uses_port_a() {
        let m = gen(
            "thread t() { int tbl[16], i, v; i = 2; v = tbl[i]; tbl[0] = v + 1; }",
            MemBinding::new(),
        );
        validate(&m).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(m.port("pa_addr").is_some());
        assert!(m.port("pa_grant").is_none(), "port A is ungated");
    }

    #[test]
    fn timing_and_area_analyzable() {
        let m = gen(
            "thread t() { int a, b; a = 1; while (a < 100) { a = a + b; b = b + 1; } }",
            MemBinding::new(),
        );
        let report = memsync_fpga::report::implement(&m).expect("no loops");
        assert!(report.ffs > 0);
        assert!(report.luts > 0);
        assert!(report.timing.fmax_mhz > 20.0);
    }
}
