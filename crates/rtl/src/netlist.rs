//! Word-level RTL netlist intermediate representation.
//!
//! A [`Module`] is a flat graph of typed nets and primitive instances: gates,
//! word operators, multiplexers, registers, and the two Virtex-II Pro macro
//! blocks the paper's organizations are built from (true-dual-port BRAM and
//! a CAM for the dependency list). The downstream `memsync-fpga` crate maps
//! this IR onto 4-input LUTs, flip-flops, slices, and block RAMs; the
//! emitter in [`crate::verilog`] prints it as HDL.

use std::collections::VecDeque;
use std::fmt;

/// Index of a net within its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub usize);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Driven by module logic.
    Output,
}

/// A named module port bound to a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name as emitted in HDL.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Net carrying the port value.
    pub net: NetId,
}

/// A wire bundle of a fixed bit width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Debug/HDL name (uniquified by the builder).
    pub name: String,
    /// Width in bits, ≥ 1.
    pub width: u32,
}

/// Primitive operations of the IR.
///
/// Width rules are documented per variant and enforced by
/// [`crate::validate::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimOp {
    /// Constant: no inputs; output takes `value` truncated to the net width.
    Const {
        /// The literal value.
        value: u64,
    },
    /// Bitwise NOT: 1 input, same width out.
    Not,
    /// Bitwise AND: ≥2 inputs, all same width, same width out.
    And,
    /// Bitwise OR: ≥2 inputs, all same width, same width out.
    Or,
    /// Bitwise XOR: ≥2 inputs, all same width, same width out.
    Xor,
    /// N-way multiplexer: input 0 is the select (width ≥ ceil(log2(n)));
    /// inputs 1..=n are the data, all the output width. Select values beyond
    /// the data count hold the last input.
    Mux,
    /// Addition, wrapping: 2 inputs, same width, same width out.
    Add,
    /// Subtraction, wrapping: 2 inputs, same width, same width out.
    Sub,
    /// Multiplication, wrapping: 2 inputs, same width, same width out.
    /// Maps onto the embedded 18×18 multipliers plus glue.
    Mul,
    /// Equality: 2 inputs same width; 1-bit out.
    Eq,
    /// Inequality: 2 inputs same width; 1-bit out.
    Ne,
    /// Unsigned less-than: 2 inputs same width; 1-bit out.
    Lt,
    /// Logical shift left by a constant: 1 input, same width out.
    Shl {
        /// Shift amount.
        amount: u32,
    },
    /// Logical shift right by a constant: 1 input, same width out.
    Shr {
        /// Shift amount.
        amount: u32,
    },
    /// OR-reduce to 1 bit: 1 input.
    ReduceOr,
    /// AND-reduce to 1 bit: 1 input.
    ReduceAnd,
    /// Bit concatenation: output width = sum of input widths; input 0 is the
    /// most significant field.
    Concat,
    /// Bit slice `[hi:lo]` of the single input; output width = hi-lo+1.
    Slice {
        /// Most significant bit of the slice (inclusive).
        hi: u32,
        /// Least significant bit of the slice (inclusive).
        lo: u32,
    },
    /// D flip-flop bank with optional clock enable and synchronous reset.
    ///
    /// Inputs: `[d]`, `[d, en]` (when `has_enable`), or `[d, en, rst]`
    /// (when `has_enable` and `has_reset`). Output width = `d` width.
    Register {
        /// Power-on / reset value.
        init: u64,
        /// Whether input 1 is a clock-enable.
        has_enable: bool,
        /// Whether the last input is a synchronous reset to `init`.
        has_reset: bool,
    },
    /// True-dual-port block RAM macro (Virtex-II Pro 18 Kb BRAM shape).
    ///
    /// Inputs: `[addr_a, din_a, we_a, en_a, addr_b, din_b, we_b, en_b]`;
    /// outputs: `[dout_a, dout_b]`. Address widths must be
    /// `ceil(log2(depth))`, data widths `width`. Read-first behaviour.
    Bram {
        /// Number of words.
        depth: u32,
        /// Word width in bits.
        width: u32,
    },
    /// Content-addressable memory macro used for the §3.1 dependency list.
    ///
    /// Inputs: `[search_key, write_key, write_data, write_index, write_en]`;
    /// outputs: `[match (1 bit), match_index (ceil(log2(entries))),
    /// match_data (data_width)]`. All entries are compared in one cycle.
    Cam {
        /// Number of entries.
        entries: u32,
        /// Key width in bits.
        key_width: u32,
        /// Payload width in bits.
        data_width: u32,
    },
}

impl PrimOp {
    /// Whether this primitive holds state (registers, memories).
    pub fn is_sequential(&self) -> bool {
        matches!(
            self,
            PrimOp::Register { .. } | PrimOp::Bram { .. } | PrimOp::Cam { .. }
        )
    }

    /// Short mnemonic for debug output and stats.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            PrimOp::Const { .. } => "const",
            PrimOp::Not => "not",
            PrimOp::And => "and",
            PrimOp::Or => "or",
            PrimOp::Xor => "xor",
            PrimOp::Mux => "mux",
            PrimOp::Add => "add",
            PrimOp::Sub => "sub",
            PrimOp::Mul => "mul",
            PrimOp::Eq => "eq",
            PrimOp::Ne => "ne",
            PrimOp::Lt => "lt",
            PrimOp::Shl { .. } => "shl",
            PrimOp::Shr { .. } => "shr",
            PrimOp::ReduceOr => "reduce_or",
            PrimOp::ReduceAnd => "reduce_and",
            PrimOp::Concat => "concat",
            PrimOp::Slice { .. } => "slice",
            PrimOp::Register { .. } => "register",
            PrimOp::Bram { .. } => "bram",
            PrimOp::Cam { .. } => "cam",
        }
    }
}

/// One primitive instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Instance name (uniquified by the builder).
    pub name: String,
    /// The operation.
    pub op: PrimOp,
    /// Input nets, in the order required by the op.
    pub inputs: Vec<NetId>,
    /// Output nets, in the order defined by the op.
    pub outputs: Vec<NetId>,
}

/// A flat RTL module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Module name as emitted in HDL.
    pub name: String,
    /// Ports in declaration order.
    pub ports: Vec<Port>,
    /// All nets.
    pub nets: Vec<Net>,
    /// All instances.
    pub instances: Vec<Instance>,
}

impl Module {
    /// Net lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (an IR construction bug).
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0]
    }

    /// Width of a net.
    pub fn width(&self, id: NetId) -> u32 {
        self.net(id).width
    }

    /// Whether the module contains any sequential primitive (and therefore
    /// needs `clk` in HDL).
    pub fn is_sequential(&self) -> bool {
        self.instances.iter().any(|i| i.op.is_sequential())
    }

    /// Iterates over ports of one direction.
    pub fn ports_in(&self, dir: PortDir) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(move |p| p.dir == dir)
    }

    /// Finds a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// The instance driving each net, indexed by [`NetId`]; `None` for a net
    /// driven by an input port (or by nothing).
    pub fn drivers(&self) -> Vec<Option<usize>> {
        let mut driver = vec![None; self.nets.len()];
        for (idx, inst) in self.instances.iter().enumerate() {
            for &o in &inst.outputs {
                driver[o.0] = Some(idx);
            }
        }
        driver
    }

    /// Readers of each net, indexed by [`NetId`]: instance inputs plus
    /// output ports.
    pub fn fanout(&self) -> Vec<u32> {
        let mut fanout = vec![0u32; self.nets.len()];
        for inst in &self.instances {
            for &i in &inst.inputs {
                fanout[i.0] += 1;
            }
        }
        for p in self.ports_in(PortDir::Output) {
            fanout[p.net.0] += 1;
        }
        fanout
    }

    /// Instance indices in combinational evaluation order: every instance
    /// comes after the instances whose outputs it reads combinationally.
    /// Registers and BRAMs cut paths (their inputs are clocked and their
    /// outputs launch fresh ones); a CAM passes only its search key
    /// through, since its writes are clocked.
    ///
    /// Returns `None` when combinational logic forms a loop.
    pub fn comb_order(&self) -> Option<Vec<usize>> {
        let cuts = |op: &PrimOp| matches!(op, PrimOp::Register { .. } | PrimOp::Bram { .. });
        let driver = self.drivers();
        let n = self.instances.len();
        let mut indegree = vec![0u32; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (idx, inst) in self.instances.iter().enumerate() {
            let through: &[NetId] = match inst.op {
                PrimOp::Register { .. } | PrimOp::Bram { .. } => &[],
                PrimOp::Cam { .. } => &inst.inputs[..1],
                _ => &inst.inputs,
            };
            for net in through {
                if let Some(d) = driver[net.0].filter(|&d| !cuts(&self.instances[d].op)) {
                    indegree[idx] += 1;
                    dependents[d].push(idx);
                }
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

/// Ceiling of log2, with `clog2(0) == 0` and `clog2(1) == 0`.
pub fn clog2(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - (n - 1).leading_zeros()
    }
}

/// Address width needed to index `depth` words (at least 1 bit).
pub fn addr_width(depth: u32) -> u32 {
    clog2(depth).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clog2_values() {
        assert_eq!(clog2(0), 0);
        assert_eq!(clog2(1), 0);
        assert_eq!(clog2(2), 1);
        assert_eq!(clog2(3), 2);
        assert_eq!(clog2(4), 2);
        assert_eq!(clog2(5), 3);
        assert_eq!(clog2(1024), 10);
    }

    #[test]
    fn addr_width_is_at_least_one() {
        assert_eq!(addr_width(1), 1);
        assert_eq!(addr_width(2), 1);
        assert_eq!(addr_width(512), 9);
    }

    #[test]
    fn sequential_classification() {
        assert!(PrimOp::Register {
            init: 0,
            has_enable: false,
            has_reset: false
        }
        .is_sequential());
        assert!(PrimOp::Bram {
            depth: 512,
            width: 36
        }
        .is_sequential());
        assert!(!PrimOp::Add.is_sequential());
    }

    #[test]
    fn comb_order_passes_only_a_cams_search_key() {
        // A loop from the CAM's match data back to its key is combinational;
        // one back to its write data closes through a clocked write.
        let build = |through_key: bool| {
            let mut b = crate::builder::ModuleBuilder::new("m");
            let fed = b.net("fed", 4);
            let other = b.input("other", 4);
            let (key, wdata) = if through_key {
                (fed, other)
            } else {
                (other, fed)
            };
            let widx = b.input("widx", 2);
            let we = b.input("we", 1);
            let (_, _, data) = b.cam(4, 4, 4, key, key, wdata, widx, we, "cam");
            b.slice_into(data, 3, 0, fed);
            b.finish()
        };
        assert_eq!(build(true).comb_order(), None);
        let m = build(false);
        let order = m.comb_order().expect("no combinational loop");
        let at = |op: &str| {
            let at = order
                .iter()
                .position(|&i| m.instances[i].op.mnemonic() == op);
            at.expect("instance in the order")
        };
        assert!(at("cam") < at("slice"), "{order:?}");
    }

    #[test]
    fn mnemonics_are_distinct_for_common_ops() {
        let ops = [
            PrimOp::And,
            PrimOp::Or,
            PrimOp::Xor,
            PrimOp::Mux,
            PrimOp::Add,
            PrimOp::Eq,
        ];
        let names: std::collections::BTreeSet<_> = ops.iter().map(|o| o.mnemonic()).collect();
        assert_eq!(names.len(), ops.len());
    }
}
