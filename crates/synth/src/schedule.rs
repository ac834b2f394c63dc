//! Operation scheduling: three-address blocks → cycle-assigned blocks.
//!
//! [`list_schedule`] is the one scheduler: resource-constrained list
//! scheduling in program order, the step the paper leaves to standard
//! behavioral synthesis. Memory operations occupy a port for their cycle
//! and deliver read data one cycle later; ALU operations may chain up to a
//! configurable depth within one cycle. Memory operations keep program
//! order, which is where §3's partial order of memory accesses lives.

use crate::ir::{Block, DfOp, OpKind, Temp, Value};
use std::collections::BTreeMap;

/// Resource constraints for list scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constraints {
    /// Simultaneous ALU (logic/arith/call) operations per cycle.
    pub alu_per_cycle: u32,
    /// Simultaneous memory operations per cycle (the paper assumes memory
    /// accesses are single-cycle and one per state).
    pub mem_per_cycle: u32,
    /// Maximum dependent ALU operations chained combinationally in one
    /// cycle.
    pub max_chain: u32,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            alu_per_cycle: 4,
            mem_per_cycle: 1,
            max_chain: 2,
        }
    }
}

/// A scheduled block: every op paired with its issue cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledBlock {
    /// `(cycle, op)` pairs in issue order (cycles are non-decreasing).
    pub ops: Vec<(u32, DfOp)>,
    /// Number of cycles the block occupies (≥ 1).
    pub cycles: u32,
    /// Cycle in which the terminator's condition value is available.
    pub cond_ready: u32,
}

impl ScheduledBlock {
    /// Ops issued in a given cycle.
    pub fn ops_in_cycle(&self, cycle: u32) -> impl Iterator<Item = &DfOp> {
        self.ops
            .iter()
            .filter(move |(c, _)| *c == cycle)
            .map(|(_, o)| o)
    }
}

fn is_alu(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Unary(_) | OpKind::Binary(_) | OpKind::Call(_) | OpKind::Copy | OpKind::Select
    )
}

/// Resource-constrained list scheduling.
///
/// Ops are visited in program order (a legal topological order of the data
/// dependencies); each is placed at the earliest cycle satisfying data
/// readiness, chain depth, and resource limits. Ordering between memory
/// operations is preserved (program order), keeping the §3 partial order of
/// memory accesses intact.
pub fn list_schedule(block: &Block, constraints: Constraints) -> ScheduledBlock {
    let mut avail: BTreeMap<Temp, u32> = BTreeMap::new();
    let mut chain_depth: BTreeMap<Temp, u32> = BTreeMap::new();
    let mut alu_used: BTreeMap<u32, u32> = BTreeMap::new();
    let mut mem_used: BTreeMap<u32, u32> = BTreeMap::new();
    let mut last_mem_cycle: Option<u32> = None;
    // Variable dependences: reads must not land before the cycle of the
    // last program-order write (same cycle is fine — ops keep their order
    // within a state and the datapath forwards same-state stores), and
    // writes must not land before earlier reads/writes of the variable.
    let mut var_last_write: BTreeMap<u32, u32> = BTreeMap::new();
    let mut var_last_access: BTreeMap<u32, u32> = BTreeMap::new();
    let mut scheduled = Vec::with_capacity(block.ops.len());
    let mut span = 1u32;

    for op in &block.ops {
        let var_reads: Vec<u32> = op
            .args
            .iter()
            .filter_map(|a| match a {
                Value::Var(v) => Some(v.0),
                _ => None,
            })
            .collect();
        let var_write: Option<u32> = match &op.kind {
            OpKind::StoreVar { var } | OpKind::Recv { var } => Some(var.0),
            _ => None,
        };
        let data_ready = op
            .args
            .iter()
            .filter_map(|a| match a {
                Value::Temp(t) => avail.get(t).copied(),
                _ => Some(0),
            })
            .chain(
                var_reads
                    .iter()
                    .map(|v| var_last_write.get(v).copied().unwrap_or(0)),
            )
            .chain(var_write.iter().map(|v| {
                var_last_access
                    .get(v)
                    .copied()
                    .unwrap_or(0)
                    .max(var_last_write.get(v).copied().unwrap_or(0))
            }))
            .max()
            .unwrap_or(0);
        // Memory program order: a memory op may not issue before the cycle
        // of the previous memory op.
        let order_ready = if op.kind.is_memory() {
            last_mem_cycle.map(|c| c + 1).unwrap_or(0).max(data_ready)
        } else {
            data_ready
        };
        let mut cycle = order_ready;
        loop {
            let fits_resources = if op.kind.is_memory() {
                mem_used.get(&cycle).copied().unwrap_or(0) < constraints.mem_per_cycle
            } else if is_alu(&op.kind) {
                alu_used.get(&cycle).copied().unwrap_or(0) < constraints.alu_per_cycle
            } else {
                true
            };
            let depth = if is_alu(&op.kind) {
                1 + op
                    .args
                    .iter()
                    .filter_map(|a| match a {
                        Value::Temp(t) if avail.get(t) == Some(&cycle) => {
                            chain_depth.get(t).copied()
                        }
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0)
            } else {
                1
            };
            if fits_resources && depth <= constraints.max_chain {
                if op.kind.is_memory() {
                    *mem_used.entry(cycle).or_insert(0) += 1;
                    last_mem_cycle = Some(cycle);
                } else if is_alu(&op.kind) {
                    *alu_used.entry(cycle).or_insert(0) += 1;
                }
                if let Some(t) = op.result {
                    let latency = u32::from(matches!(op.kind, OpKind::MemRead { .. }));
                    avail.insert(t, cycle + latency);
                    chain_depth.insert(t, if latency > 0 { 0 } else { depth });
                }
                for v in &var_reads {
                    var_last_access
                        .entry(*v)
                        .and_modify(|c| *c = (*c).max(cycle))
                        .or_insert(cycle);
                }
                if let Some(v) = var_write {
                    var_last_write
                        .entry(v)
                        .and_modify(|c| *c = (*c).max(cycle))
                        .or_insert(cycle);
                    var_last_access
                        .entry(v)
                        .and_modify(|c| *c = (*c).max(cycle))
                        .or_insert(cycle);
                }
                scheduled.push((cycle, op.clone()));
                span = span.max(cycle + 1);
                if let Some(t) = op.result {
                    span = span.max(avail[&t] + 1);
                }
                break;
            }
            cycle += 1;
        }
    }

    // The terminator's condition must be available by the end.
    let cond_value = match &block.term {
        crate::ir::Terminator::Branch { cond, .. } => Some(*cond),
        crate::ir::Terminator::Switch { selector, .. } => Some(*selector),
        _ => None,
    };
    let cond_ready = match cond_value {
        Some(Value::Temp(t)) => avail.get(&t).copied().unwrap_or(0),
        _ => 0,
    };
    span = span.max(cond_ready + 1);

    ScheduledBlock {
        ops: scheduled,
        cycles: span,
        cond_ready,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdfg::lower_thread;
    use crate::ir::MemBinding;
    use memsync_hic::parser::parse;

    fn block_of(src: &str) -> Block {
        let program = parse(src).unwrap();
        let t = lower_thread(&program, &program.threads[0], &MemBinding::new()).unwrap();
        t.blocks[0].clone()
    }

    #[test]
    fn dependent_ops_issue_once_their_operands_are_ready() {
        let b = block_of("thread t() { int tbl[8], a, b; a = 1; b = ((tbl[a] + 1) * 2) + a; }");
        let s = list_schedule(&b, Constraints::default());
        // An operand is ready in its producer's cycle, or one later when
        // the producer is a memory read.
        for (cycle, op) in &s.ops {
            for a in &op.args {
                if let Value::Temp(t) = a {
                    let (def_cycle, def) = s
                        .ops
                        .iter()
                        .find(|(_, o)| o.result == Some(*t))
                        .expect("def exists");
                    let latency = u32::from(matches!(def.kind, OpKind::MemRead { .. }));
                    assert!(def_cycle + latency <= *cycle, "{op:?} before {def:?}");
                }
            }
        }
    }

    #[test]
    fn chaining_limits_ops_per_cycle() {
        let b = block_of("thread t() { int a, b; a = 1; b = a + 1 + 2 + 3 + 4 + 5; }");
        let tight = list_schedule(
            &b,
            Constraints {
                alu_per_cycle: 8,
                mem_per_cycle: 1,
                max_chain: 1,
            },
        );
        let loose = list_schedule(
            &b,
            Constraints {
                alu_per_cycle: 8,
                mem_per_cycle: 1,
                max_chain: 8,
            },
        );
        assert!(tight.cycles > loose.cycles);
    }

    #[test]
    fn alu_limit_serializes_independent_ops() {
        let b = block_of(
            "thread t() { int a, b, c, d, e; a = 1; b = a + 1; c = a + 2; d = a + 3; e = a + 4; }",
        );
        let one = list_schedule(
            &b,
            Constraints {
                alu_per_cycle: 1,
                mem_per_cycle: 1,
                max_chain: 1,
            },
        );
        let four = list_schedule(
            &b,
            Constraints {
                alu_per_cycle: 4,
                mem_per_cycle: 1,
                max_chain: 1,
            },
        );
        assert!(
            one.cycles > four.cycles,
            "{} vs {}",
            one.cycles,
            four.cycles
        );
    }

    #[test]
    fn memory_reads_add_latency() {
        let b = block_of("thread t() { int tbl[8], x; x = tbl[0] + 1; }");
        let s = list_schedule(&b, Constraints::default());
        // Read in cycle 0, data in cycle 1, add no earlier than cycle 1.
        let read_cycle = s
            .ops
            .iter()
            .find(|(_, o)| matches!(o.kind, OpKind::MemRead { .. }))
            .map(|(c, _)| *c)
            .unwrap();
        let add_cycle = s
            .ops
            .iter()
            .find(|(_, o)| matches!(o.kind, OpKind::Binary(_)))
            .map(|(c, _)| *c)
            .unwrap();
        assert!(add_cycle > read_cycle);
    }

    #[test]
    fn memory_ops_keep_program_order() {
        let b = block_of("thread t() { int tbl[8]; tbl[0] = 1; tbl[1] = 2; tbl[2] = 3; }");
        let s = list_schedule(&b, Constraints::default());
        let mem_cycles: Vec<u32> = s
            .ops
            .iter()
            .filter(|(_, o)| o.kind.is_memory())
            .map(|(c, _)| *c)
            .collect();
        let mut sorted = mem_cycles.clone();
        sorted.sort_unstable();
        assert_eq!(mem_cycles, sorted);
        // With one port, each write is a distinct cycle.
        assert_eq!(mem_cycles.len(), 3);
        assert!(mem_cycles[0] < mem_cycles[1] && mem_cycles[1] < mem_cycles[2]);
    }

    #[test]
    fn empty_block_is_one_cycle() {
        let b = Block {
            ops: vec![],
            term: crate::ir::Terminator::Restart,
        };
        let s = list_schedule(&b, Constraints::default());
        assert_eq!(s.cycles, 1);
    }
}
