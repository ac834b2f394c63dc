//! Three-address dataflow IR used between the hic AST and the FSM.
//!
//! Each hic statement is flattened into [`DfOp`]s over [`Value`]s; basic
//! blocks carry a terminator describing control flow. Memory residency of
//! variables is decided by the caller (the allocation step of
//! `memsync-core`) and passed in as a [`MemBinding`].

use memsync_hic::ast::{BinaryOp, UnaryOp};
use std::collections::BTreeMap;
use std::fmt;

/// A virtual register holding an intermediate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Temp(pub u32);

impl fmt::Display for Temp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Index of a declared thread variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// An operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// An intermediate.
    Temp(Temp),
    /// A declared variable (register- or memory-resident).
    Var(VarId),
    /// An integer literal.
    Const(i64),
}

/// Operation kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Copy of a single operand.
    Copy,
    /// Unary operator.
    Unary(UnaryOp),
    /// Binary operator.
    Binary(BinaryOp),
    /// Call of a user combinational function (stand-in network; see
    /// [`crate::eval::call_function`]).
    Call(String),
    /// Conditional select (a datapath mux): args are `[cond, then_value,
    /// else_value]`; yields `then_value` when `cond` is non-zero. Produced
    /// by the optimizer's if-conversion — no hic construct lowers to it
    /// directly.
    Select,
    /// Read of a memory-resident variable; arg 0 is the element index
    /// (Const 0 for scalars). Carries the dependency id when guarded.
    MemRead {
        /// Variable being read.
        var: VarId,
        /// Guarding dependency, if this is a consumer read.
        dep: Option<String>,
    },
    /// Write of a memory-resident variable; arg 0 is the element index,
    /// arg 1 the value. Carries the dependency id when this is the
    /// producer write.
    MemWrite {
        /// Variable being written.
        var: VarId,
        /// Guarding dependency, if this is a producer write.
        dep: Option<String>,
    },
    /// Store to a register-resident variable; arg 0 is the value.
    StoreVar {
        /// Destination variable.
        var: VarId,
    },
    /// Receive one message from the network interface into a variable.
    Recv {
        /// Destination variable.
        var: VarId,
    },
    /// Transmit one message; arg 0 is the value.
    Send,
}

impl OpKind {
    /// Whether the op accesses the shared memory subsystem.
    pub fn is_memory(&self) -> bool {
        matches!(self, OpKind::MemRead { .. } | OpKind::MemWrite { .. })
    }

    /// Dependency id guarding the op, if any.
    pub fn dep(&self) -> Option<&str> {
        match self {
            OpKind::MemRead { dep, .. } | OpKind::MemWrite { dep, .. } => dep.as_deref(),
            _ => None,
        }
    }
}

/// One three-address operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfOp {
    /// The operation.
    pub kind: OpKind,
    /// Operands.
    pub args: Vec<Value>,
    /// Result temp, for value-producing ops.
    pub result: Option<Temp>,
}

/// Basic-block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(usize),
    /// Two-way branch on a value (non-zero = then).
    Branch {
        /// Condition value.
        cond: Value,
        /// Block when non-zero.
        then_block: usize,
        /// Block when zero.
        else_block: usize,
    },
    /// Multi-way dispatch (the `case` construct).
    Switch {
        /// Selector value.
        selector: Value,
        /// `(match value, target block)` arms.
        arms: Vec<(i64, usize)>,
        /// Default target.
        default: usize,
    },
    /// Thread iteration complete; restart at the entry block
    /// (run-to-completion per message).
    Restart,
}

impl Terminator {
    /// Successor block indices.
    pub fn successors(&self) -> Vec<usize> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                then_block,
                else_block,
                ..
            } => vec![*then_block, *else_block],
            Terminator::Switch { arms, default, .. } => {
                let mut s: Vec<usize> = arms.iter().map(|(_, t)| *t).collect();
                s.push(*default);
                s
            }
            Terminator::Restart => vec![],
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Straight-line operations.
    pub ops: Vec<DfOp>,
    /// Control transfer at the end.
    pub term: Terminator,
}

/// Where a variable lives, and through which wrapper port its accesses go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Residency {
    /// Fabric register (flip-flops inside the thread).
    Register,
    /// BRAM-resident, accessed through a wrapper port.
    Memory {
        /// Port class used for the access (see
        /// [`PortClass`]).
        port: PortClass,
        /// Base address within the allocated BRAM.
        base_addr: u32,
        /// Dependency guarding reads of this variable (consumer side).
        read_dep: Option<String>,
        /// Dependency guarding writes of this variable (producer side).
        write_dep: Option<String>,
    },
}

/// The four wrapper port classes of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortClass {
    /// Port A: single-cycle non-dependent accesses, direct to the BRAM.
    A,
    /// Port B: background accesses, lowest priority.
    B,
    /// Port C: guarded consumer reads (arbitrated).
    C,
    /// Port D: producer writes (highest priority).
    D,
}

impl fmt::Display for PortClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            PortClass::A => 'A',
            PortClass::B => 'B',
            PortClass::C => 'C',
            PortClass::D => 'D',
        };
        write!(f, "{c}")
    }
}

/// Memory residency decisions for one thread, keyed by variable name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemBinding {
    /// Residency per variable; unlisted variables default to registers.
    pub residency: BTreeMap<String, Residency>,
}

impl MemBinding {
    /// Creates an empty (all-register) binding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a variable memory-resident with no guarding dependency.
    pub fn place_in_memory(&mut self, var: impl Into<String>, port: PortClass, base_addr: u32) {
        self.residency.insert(
            var.into(),
            Residency::Memory {
                port,
                base_addr,
                read_dep: None,
                write_dep: None,
            },
        );
    }

    /// Marks a variable memory-resident with guarded access.
    pub fn place_guarded(
        &mut self,
        var: impl Into<String>,
        port: PortClass,
        base_addr: u32,
        read_dep: Option<String>,
        write_dep: Option<String>,
    ) {
        self.residency.insert(
            var.into(),
            Residency::Memory {
                port,
                base_addr,
                read_dep,
                write_dep,
            },
        );
    }

    /// Residency of a variable (register if unlisted).
    pub fn residency_of(&self, var: &str) -> Residency {
        self.residency
            .get(var)
            .cloned()
            .unwrap_or(Residency::Register)
    }
}

/// The dataflow function of one thread: declared variables plus blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfThread {
    /// Thread name.
    pub name: String,
    /// Variable names by [`VarId`] index.
    pub vars: Vec<String>,
    /// Variable widths by [`VarId`] index.
    pub widths: Vec<u32>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Memory residency used during lowering.
    pub binding: MemBinding,
}

impl DfThread {
    /// Looks up a variable id by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v == name)
            .map(|i| VarId(i as u32))
    }

    /// Total number of ops across all blocks.
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ops.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(3).successors(), vec![3]);
        assert_eq!(
            Terminator::Branch {
                cond: Value::Const(1),
                then_block: 1,
                else_block: 2
            }
            .successors(),
            vec![1, 2]
        );
        let sw = Terminator::Switch {
            selector: Value::Const(0),
            arms: vec![(1, 4), (2, 5)],
            default: 6,
        };
        assert_eq!(sw.successors(), vec![4, 5, 6]);
        assert!(Terminator::Restart.successors().is_empty());
    }

    #[test]
    fn binding_defaults_to_register() {
        let mut b = MemBinding::new();
        assert_eq!(b.residency_of("x"), Residency::Register);
        b.place_in_memory("x", PortClass::C, 16);
        assert_eq!(
            b.residency_of("x"),
            Residency::Memory {
                port: PortClass::C,
                base_addr: 16,
                read_dep: None,
                write_dep: None
            }
        );
    }

    #[test]
    fn memory_op_classification() {
        let read = OpKind::MemRead {
            var: VarId(0),
            dep: Some("mt1".into()),
        };
        assert!(read.is_memory());
        assert_eq!(read.dep(), Some("mt1"));
        assert!(!OpKind::Copy.is_memory());
    }
}
