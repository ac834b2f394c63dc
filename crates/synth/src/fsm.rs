//! Cycle-accurate finite state machines.
//!
//! The end product of the §3 front-end synthesis: each thread becomes an
//! FSM in which "we have knowledge of the particular state where memory
//! accesses happen". States issue their operations in order; a state whose
//! memory operation is guarded blocks until the memory organization grants
//! it (the multi-cycle behaviour the organizations of §3.1/§3.2 introduce).

use crate::ir::{DfOp, DfThread, MemBinding, OpKind, Terminator, Value};
use crate::schedule::{list_schedule, Constraints};

/// Control transfer out of a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateNext {
    /// Unconditional transition.
    Goto(usize),
    /// Two-way branch (non-zero = then).
    Branch {
        /// Condition value.
        cond: Value,
        /// Target when non-zero.
        then_state: usize,
        /// Target when zero.
        else_state: usize,
    },
    /// Multi-way dispatch.
    Switch {
        /// Selector value.
        selector: Value,
        /// `(match, target)` arms.
        arms: Vec<(i64, usize)>,
        /// Default target.
        default: usize,
    },
    /// End of one run-to-completion iteration; control returns to the entry
    /// state and iteration counters advance.
    Restart,
}

/// One FSM state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsmState {
    /// Operations issued in this state, in chaining order.
    pub ops: Vec<DfOp>,
    /// Transition taken when the state completes (a state with a guarded
    /// memory op completes only when granted).
    pub next: StateNext,
    /// Originating basic block (for reports).
    pub block: usize,
    /// Cycle within the block schedule.
    pub cycle: u32,
}

impl FsmState {
    /// Whether this state issues any memory operation.
    pub fn has_memory_op(&self) -> bool {
        self.ops.iter().any(|o| o.kind.is_memory())
    }

    /// Whether any memory op in this state is guarded by a dependency.
    pub fn has_guarded_op(&self) -> bool {
        self.ops.iter().any(|o| o.kind.dep().is_some())
    }
}

/// A synthesized thread FSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fsm {
    /// Thread name.
    pub thread: String,
    /// Variable names.
    pub vars: Vec<String>,
    /// Variable widths (bits).
    pub widths: Vec<u32>,
    /// States; index 0 is the entry state.
    pub states: Vec<FsmState>,
    /// Memory residency used during synthesis.
    pub binding: MemBinding,
}

impl Fsm {
    /// Builds the FSM from an already lowered thread.
    pub fn from_dfthread(df: &DfThread, constraints: Constraints) -> Fsm {
        let schedules: Vec<_> = df
            .blocks
            .iter()
            .map(|b| list_schedule(b, constraints))
            .collect();
        // State index of the first cycle of each block.
        let mut block_start = Vec::with_capacity(df.blocks.len());
        let mut total = 0usize;
        for s in &schedules {
            block_start.push(total);
            total += s.cycles as usize;
        }
        let mut states = Vec::with_capacity(total);
        for (bi, (block, sched)) in df.blocks.iter().zip(schedules.iter()).enumerate() {
            for cycle in 0..sched.cycles {
                let ops: Vec<DfOp> = sched.ops_in_cycle(cycle).cloned().collect();
                let is_last = cycle + 1 == sched.cycles;
                let next = if !is_last {
                    StateNext::Goto(block_start[bi] + cycle as usize + 1)
                } else {
                    match &block.term {
                        Terminator::Jump(t) => StateNext::Goto(block_start[*t]),
                        Terminator::Branch {
                            cond,
                            then_block,
                            else_block,
                        } => StateNext::Branch {
                            cond: *cond,
                            then_state: block_start[*then_block],
                            else_state: block_start[*else_block],
                        },
                        Terminator::Switch {
                            selector,
                            arms,
                            default,
                        } => StateNext::Switch {
                            selector: *selector,
                            arms: arms.iter().map(|(v, t)| (*v, block_start[*t])).collect(),
                            default: block_start[*default],
                        },
                        Terminator::Restart => StateNext::Restart,
                    }
                };
                states.push(FsmState {
                    ops,
                    next,
                    block: bi,
                    cycle,
                });
            }
        }
        Fsm {
            thread: df.name.clone(),
            vars: df.vars.clone(),
            widths: df.widths.clone(),
            states,
            binding: df.binding.clone(),
        }
    }

    /// Number of states issuing memory operations.
    pub fn memory_state_count(&self) -> usize {
        self.states.iter().filter(|s| s.has_memory_op()).count()
    }

    /// Number of states issuing guarded (dependency-carrying) operations.
    pub fn guarded_state_count(&self) -> usize {
        self.states.iter().filter(|s| s.has_guarded_op()).count()
    }

    /// All distinct dependency ids this FSM touches, with direction:
    /// `(dep, is_write)`.
    pub fn dependencies(&self) -> Vec<(String, bool)> {
        let mut deps = Vec::new();
        for s in &self.states {
            for o in &s.ops {
                match &o.kind {
                    OpKind::MemRead { dep: Some(d), .. } if !deps.contains(&(d.clone(), false)) => {
                        deps.push((d.clone(), false));
                    }
                    OpKind::MemWrite { dep: Some(d), .. } if !deps.contains(&(d.clone(), true)) => {
                        deps.push((d.clone(), true));
                    }
                    _ => {}
                }
            }
        }
        deps
    }

    /// Looks up a variable id by name.
    pub fn var_id(&self, name: &str) -> Option<crate::ir::VarId> {
        self.vars
            .iter()
            .position(|v| v == name)
            .map(|i| crate::ir::VarId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PortClass;
    use memsync_hic::parser::parse;

    fn synth(src: &str, binding: MemBinding) -> Fsm {
        let program = parse(src).unwrap();
        crate::synthesis::Synthesis::of(&program)
            .binding(binding)
            .run()
            .unwrap()
            .fsm
    }

    #[test]
    fn straight_line_states_chain() {
        let fsm = synth(
            "thread t() { int a, b; a = 1; b = a + 2; }",
            MemBinding::new(),
        );
        assert!(!fsm.states.is_empty());
        // Terminal state restarts.
        let last = fsm.states.iter().find(|s| s.next == StateNext::Restart);
        assert!(last.is_some(), "restart state exists");
    }

    #[test]
    fn guarded_states_are_identified() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::C, 0, Some("m".into()), None);
        let fsm = synth("thread c() { int w, v; w = v + 1; }", binding);
        assert_eq!(fsm.guarded_state_count(), 1);
        assert_eq!(fsm.dependencies(), vec![("m".to_owned(), false)]);
    }

    #[test]
    fn branch_targets_resolve_to_states() {
        let fsm = synth(
            "thread t() { int a, b; a = 1; if (a) { b = 1; } else { b = 2; } b = 3; }",
            MemBinding::new(),
        );
        for s in &fsm.states {
            match &s.next {
                StateNext::Goto(t) => assert!(*t < fsm.states.len()),
                StateNext::Branch {
                    then_state,
                    else_state,
                    ..
                } => {
                    assert!(*then_state < fsm.states.len());
                    assert!(*else_state < fsm.states.len());
                }
                StateNext::Switch { arms, default, .. } => {
                    for (_, t) in arms {
                        assert!(*t < fsm.states.len());
                    }
                    assert!(*default < fsm.states.len());
                }
                StateNext::Restart => {}
            }
        }
    }

    #[test]
    fn memory_states_counted() {
        let fsm = synth(
            "thread t() { int tbl[8]; tbl[0] = 1; tbl[1] = 2; }",
            MemBinding::new(),
        );
        assert_eq!(fsm.memory_state_count(), 2);
        assert_eq!(fsm.guarded_state_count(), 0);
    }

    #[test]
    fn loop_fsm_has_cycle() {
        let fsm = synth(
            "thread t() { int a; a = 4; while (a) { a = a - 1; } }",
            MemBinding::new(),
        );
        // Some state must transition backwards (to a lower index).
        let back = fsm.states.iter().enumerate().any(|(i, s)| match &s.next {
            StateNext::Goto(t) => *t <= i,
            StateNext::Branch {
                then_state,
                else_state,
                ..
            } => *then_state <= i || *else_state <= i,
            _ => false,
        });
        assert!(back, "loop must produce a backward transition");
    }

    #[test]
    fn producer_write_dependency_recorded() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::D, 4, None, Some("mt1".into()));
        let fsm = synth("thread p() { int v; v = 9; }", binding);
        assert_eq!(fsm.dependencies(), vec![("mt1".to_owned(), true)]);
    }
}
