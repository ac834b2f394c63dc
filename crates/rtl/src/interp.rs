//! Cycle-accurate netlist interpreter.
//!
//! Executes a [`Module`] directly: combinational primitives are evaluated
//! in topological order each cycle, registers/BRAMs/CAMs update on the
//! clock edge. This is the oracle that lets the test suite check generated
//! RTL against the behavioral models *bit for bit* (the equivalent of
//! running the HDL through a simulator).
//!
//! Values are carried as `u64` masked to their net width; nets wider than
//! 64 bits are rejected at construction.

use crate::netlist::{addr_width, Module, NetId, PortDir, PrimOp};
use std::collections::BTreeMap;
use std::fmt;

/// Interpreter construction/execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist interpreter: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

#[derive(Debug, Clone)]
struct MemState {
    words: Vec<u64>,
    dout: [u64; 2],
}

#[derive(Debug, Clone)]
struct CamState {
    keys: Vec<u64>,
    datas: Vec<u64>,
    valid: Vec<bool>,
}

/// A stepping interpreter over one module.
#[derive(Debug, Clone)]
pub struct Interp {
    module: Module,
    values: Vec<u64>,
    regs: BTreeMap<usize, u64>,
    mems: BTreeMap<usize, MemState>,
    cams: BTreeMap<usize, CamState>,
    order: Vec<usize>,
    inputs: BTreeMap<String, u64>,
}

impl Interp {
    /// Builds an interpreter.
    ///
    /// # Errors
    ///
    /// Rejects nets wider than 64 bits and combinational loops.
    pub fn new(module: &Module) -> Result<Self, InterpError> {
        for net in &module.nets {
            if net.width > 64 {
                return Err(InterpError {
                    message: format!("net `{}` wider than 64 bits", net.name),
                });
            }
        }
        let order = module.comb_order().ok_or_else(|| InterpError {
            message: "combinational loop".into(),
        })?;
        let mut regs = BTreeMap::new();
        let mut mems = BTreeMap::new();
        let mut cams = BTreeMap::new();
        for (idx, inst) in module.instances.iter().enumerate() {
            match &inst.op {
                PrimOp::Register { init, .. } => {
                    regs.insert(idx, *init);
                }
                PrimOp::Bram { depth, .. } => {
                    mems.insert(
                        idx,
                        MemState {
                            words: vec![0; *depth as usize],
                            dout: [0, 0],
                        },
                    );
                }
                PrimOp::Cam { entries, .. } => {
                    cams.insert(
                        idx,
                        CamState {
                            keys: vec![0; *entries as usize],
                            datas: vec![0; *entries as usize],
                            valid: vec![false; *entries as usize],
                        },
                    );
                }
                _ => {}
            }
        }
        Ok(Interp {
            module: module.clone(),
            values: vec![0; module.nets.len()],
            regs,
            mems,
            cams,
            order,
            inputs: BTreeMap::new(),
        })
    }

    /// Sets an input port for subsequent cycles.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or is not an input.
    pub fn set(&mut self, port: &str, value: u64) {
        let p = self
            .module
            .port(port)
            .unwrap_or_else(|| panic!("no port `{port}`"));
        assert_eq!(p.dir, PortDir::Input, "`{port}` is not an input");
        self.inputs.insert(port.to_owned(), value);
    }

    /// Reads an output (or any) port's current settled value.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn get(&self, port: &str) -> u64 {
        let p = self
            .module
            .port(port)
            .unwrap_or_else(|| panic!("no port `{port}`"));
        self.values[p.net.0]
    }

    /// Settles combinational logic for the current inputs and state,
    /// without advancing the clock (inspect Mealy outputs).
    pub fn settle(&mut self) {
        // Input ports and sequential outputs first.
        for p in self.module.ports.clone() {
            if p.dir == PortDir::Input {
                let v = self.inputs.get(&p.name).copied().unwrap_or(0);
                self.values[p.net.0] = mask(v, self.module.width(p.net));
            }
        }
        for (&idx, reg) in &self.regs {
            let out = self.module.instances[idx].outputs[0];
            self.values[out.0] = mask(*reg, self.module.width(out));
        }
        for (&idx, mem) in &self.mems {
            let outs = &self.module.instances[idx].outputs;
            self.values[outs[0].0] = mem.dout[0];
            self.values[outs[1].0] = mem.dout[1];
        }
        for &idx in &self.order.clone() {
            self.eval_comb(idx);
        }
    }

    /// Settles and advances one clock edge.
    pub fn step(&mut self) {
        self.settle();
        // Clock edge: compute next state from settled values.
        let mut next_regs = self.regs.clone();
        for &idx in self.regs.keys() {
            let inst = &self.module.instances[idx];
            if let PrimOp::Register {
                init,
                has_enable,
                has_reset,
            } = inst.op
            {
                let d = self.values[inst.inputs[0].0];
                let en = if has_enable {
                    self.values[inst.inputs[1].0] != 0
                } else {
                    true
                };
                let rst = if has_reset {
                    self.values[inst.inputs[inst.inputs.len() - 1].0] != 0
                } else {
                    false
                };
                let cur = self.regs[&idx];
                let next = if rst {
                    init
                } else if en {
                    d
                } else {
                    cur
                };
                next_regs.insert(idx, next);
            }
        }
        let mut next_mems = self.mems.clone();
        for (&idx, mem) in &self.mems {
            let inst = &self.module.instances[idx];
            if let PrimOp::Bram { depth, width } = inst.op {
                let mut m = mem.clone();
                for (port, base) in [(0usize, 0usize), (1usize, 4usize)] {
                    let addr = (self.values[inst.inputs[base].0] as usize) % depth as usize;
                    let din = self.values[inst.inputs[base + 1].0];
                    let we = self.values[inst.inputs[base + 2].0] != 0;
                    let en = self.values[inst.inputs[base + 3].0] != 0;
                    if en {
                        // Read-first.
                        m.dout[port] = mask(m.words[addr], width);
                        if we {
                            m.words[addr] = mask(din, width);
                        }
                    }
                }
                next_mems.insert(idx, m);
            }
        }
        let mut next_cams = self.cams.clone();
        for (&idx, cam) in &self.cams {
            let inst = &self.module.instances[idx];
            if let PrimOp::Cam {
                entries,
                key_width,
                data_width,
            } = inst.op
            {
                let we = self.values[inst.inputs[4].0] != 0;
                if we {
                    let mut c = cam.clone();
                    let widx = (self.values[inst.inputs[3].0] as usize) % entries as usize;
                    c.keys[widx] = mask(self.values[inst.inputs[1].0], key_width);
                    c.datas[widx] = mask(self.values[inst.inputs[2].0], data_width);
                    c.valid[widx] = true;
                    next_cams.insert(idx, c);
                }
            }
        }
        self.regs = next_regs;
        self.mems = next_mems;
        self.cams = next_cams;
    }

    fn eval_comb(&mut self, idx: usize) {
        let inst = self.module.instances[idx].clone();
        let v = |net: NetId| self.values[net.0];
        let w_out = inst
            .outputs
            .first()
            .map(|&o| self.module.width(o))
            .unwrap_or(1);
        let result: Option<u64> = match &inst.op {
            PrimOp::Const { value } => Some(*value),
            PrimOp::Not => Some(!v(inst.inputs[0])),
            PrimOp::And => Some(
                inst.inputs
                    .iter()
                    .map(|&i| v(i))
                    .fold(u64::MAX, |a, b| a & b),
            ),
            PrimOp::Or => Some(inst.inputs.iter().map(|&i| v(i)).fold(0, |a, b| a | b)),
            PrimOp::Xor => Some(inst.inputs.iter().map(|&i| v(i)).fold(0, |a, b| a ^ b)),
            PrimOp::Mux => {
                let sel = v(inst.inputs[0]) as usize;
                let data = &inst.inputs[1..];
                let pick = data.get(sel).or_else(|| data.last()).expect("mux has data");
                Some(v(*pick))
            }
            PrimOp::Add => Some(v(inst.inputs[0]).wrapping_add(v(inst.inputs[1]))),
            PrimOp::Sub => Some(v(inst.inputs[0]).wrapping_sub(v(inst.inputs[1]))),
            PrimOp::Mul => Some(v(inst.inputs[0]).wrapping_mul(v(inst.inputs[1]))),
            PrimOp::Eq => Some(u64::from(v(inst.inputs[0]) == v(inst.inputs[1]))),
            PrimOp::Ne => Some(u64::from(v(inst.inputs[0]) != v(inst.inputs[1]))),
            PrimOp::Lt => Some(u64::from(v(inst.inputs[0]) < v(inst.inputs[1]))),
            PrimOp::Shl { amount } => Some(v(inst.inputs[0]) << (amount % 64)),
            PrimOp::Shr { amount } => Some(v(inst.inputs[0]) >> (amount % 64)),
            PrimOp::ReduceOr => Some(u64::from(v(inst.inputs[0]) != 0)),
            PrimOp::ReduceAnd => {
                let w = self.module.width(inst.inputs[0]);
                Some(u64::from(v(inst.inputs[0]) == mask(u64::MAX, w)))
            }
            PrimOp::Concat => {
                let mut acc = 0u64;
                for &i in &inst.inputs {
                    let w = self.module.width(i);
                    acc = (acc << w) | mask(v(i), w);
                }
                Some(acc)
            }
            PrimOp::Slice { hi, lo } => Some(mask(v(inst.inputs[0]) >> lo, hi - lo + 1)),
            PrimOp::Register { .. } | PrimOp::Bram { .. } => None,
            PrimOp::Cam {
                entries,
                key_width,
                data_width,
            } => {
                // Combinational search (write handled at the edge).
                let cam = &self.cams[&idx];
                let key = mask(v(inst.inputs[0]), *key_width);
                let mut hit = 0u64;
                let mut index = 0u64;
                let mut data = 0u64;
                for e in 0..*entries as usize {
                    if cam.valid[e] && cam.keys[e] == key {
                        hit = 1;
                        index = e as u64;
                        data = cam.datas[e];
                    }
                }
                self.values[inst.outputs[0].0] = hit;
                self.values[inst.outputs[1].0] = mask(index, addr_width(*entries));
                self.values[inst.outputs[2].0] = mask(data, *data_width);
                let _ = w_out;
                None
            }
        };
        if let Some(r) = result {
            let out = inst.outputs[0];
            self.values[out.0] = mask(r, self.module.width(out));
        }
    }
}

fn mask(v: u64, width: u32) -> u64 {
    if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn counter_counts() {
        let mut b = ModuleBuilder::new("ctr");
        let q = b.net("q", 8);
        let one = b.constant(1, 8, "one");
        let next = b.add(q, one, "next");
        b.register_into(next, q, 0);
        b.output("count", q);
        let mut sim = Interp::new(&b.finish()).unwrap();
        for expected in 0..300u64 {
            sim.settle();
            assert_eq!(sim.get("count"), expected & 0xff);
            sim.step();
        }
    }

    #[test]
    fn mux_and_compare() {
        let mut b = ModuleBuilder::new("m");
        let sel = b.input("sel", 2);
        let d: Vec<_> = (0..3).map(|i| b.constant(10 + i, 8, "d")).collect();
        let y = b.mux(sel, &d, "y");
        b.output("y", y);
        let mut sim = Interp::new(&b.finish()).unwrap();
        for (s, want) in [(0u64, 10u64), (1, 11), (2, 12), (3, 12)] {
            sim.set("sel", s);
            sim.settle();
            assert_eq!(sim.get("y"), want, "sel={s}");
        }
    }

    #[test]
    fn bram_read_after_write() {
        let mut b = ModuleBuilder::new("m");
        let addr = b.input("addr", 9);
        let din = b.input("din", 36);
        let we = b.input("we", 1);
        let en = b.input("en", 1);
        let zero9 = b.constant(0, 9, "z9");
        let zero36 = b.constant(0, 36, "z36");
        let zero1 = b.constant(0, 1, "z1");
        let one1 = b.constant(1, 1, "o1");
        let (_, db) = b.bram(
            512, 36, addr, din, we, en, zero9, zero36, zero1, one1, "ram",
        );
        let _ = db;
        let (da, _) = {
            // reuse port A dout via output
            (b.net("unused", 1), ())
        };
        let _ = da;
        let m = b.finish();
        // port A dout is net named ram_dout_a; find via instance outputs.
        let ram = m
            .instances
            .iter()
            .find(|i| matches!(i.op, PrimOp::Bram { .. }))
            .unwrap();
        let dout_a = ram.outputs[0];
        let mut m2 = m.clone();
        m2.ports.push(crate::netlist::Port {
            name: "douta".into(),
            dir: PortDir::Output,
            net: dout_a,
        });
        let mut sim = Interp::new(&m2).unwrap();
        sim.set("addr", 7);
        sim.set("din", 0xabcd);
        sim.set("we", 1);
        sim.set("en", 1);
        sim.step(); // write at 7
        sim.set("we", 0);
        sim.step(); // read at 7 (data appears after the edge)
        sim.settle();
        assert_eq!(sim.get("douta"), 0xabcd);
    }

    #[test]
    fn concat_slice_round_trip() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 4);
        let c = b.input("b", 4);
        let cat = b.concat(&[a, c], "cat");
        let hi = b.slice(cat, 7, 4, "hi");
        let lo = b.slice(cat, 3, 0, "lo");
        b.output("hi", hi);
        b.output("lo", lo);
        let mut sim = Interp::new(&b.finish()).unwrap();
        sim.set("a", 0x9);
        sim.set("b", 0x6);
        sim.settle();
        assert_eq!(sim.get("hi"), 0x9, "input 0 is the most significant field");
        assert_eq!(sim.get("lo"), 0x6);
    }

    #[test]
    fn register_enable_holds() {
        let mut b = ModuleBuilder::new("m");
        let d = b.input("d", 8);
        let en = b.input("en", 1);
        let q = b.register_en(d, en, 5, "q");
        b.output("q", q);
        let mut sim = Interp::new(&b.finish()).unwrap();
        sim.settle();
        assert_eq!(sim.get("q"), 5, "init value");
        sim.set("d", 42);
        sim.set("en", 0);
        sim.step();
        sim.settle();
        assert_eq!(sim.get("q"), 5, "held");
        sim.set("en", 1);
        sim.step();
        sim.settle();
        assert_eq!(sim.get("q"), 42, "loaded");
    }

    #[test]
    fn rejects_combinational_loop() {
        use crate::netlist::{Instance, Module, Net};
        let m = Module {
            name: "loopy".into(),
            ports: vec![],
            nets: vec![
                Net {
                    name: "a".into(),
                    width: 1,
                },
                Net {
                    name: "b".into(),
                    width: 1,
                },
            ],
            instances: vec![
                Instance {
                    name: "g1".into(),
                    op: PrimOp::Not,
                    inputs: vec![NetId(1)],
                    outputs: vec![NetId(0)],
                },
                Instance {
                    name: "g2".into(),
                    op: PrimOp::Not,
                    inputs: vec![NetId(0)],
                    outputs: vec![NetId(1)],
                },
            ],
        };
        assert!(Interp::new(&m).is_err());
    }
}
