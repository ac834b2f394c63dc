//! Optimizing middle-end between [`crate::cdfg`] lowering and
//! [`crate::schedule`].
//!
//! The passes run over the three-address [`DfThread`] form, before any
//! cycle assignment, so every op they delete is a state (or part of one)
//! the FSM never has to visit. The memory-centric payoff is
//! **guarded-read forwarding**: a consumed guarded value re-read in the
//! same pacing window reuses the held register instead of re-arbitrating,
//! deleting a synchronization event from the FSM outright. Around it sit
//! the classic behavioral-synthesis cleanups — constant folding,
//! copy/constant propagation, common-subexpression elimination, dead-op
//! elimination, and CFG simplification (branch folding, if-conversion to
//! [`crate::ir::OpKind::Select`], unreachable-block removal).
//!
//! Passes preserve the thread's observable semantics: messages sent,
//! guarded dependency footprint ([`crate::fsm::Fsm::dependencies`]), and
//! the per-pacing-window values of every surviving memory operation. They
//! never remove a guarded read's *first* occurrence, any memory write, or
//! any `recv`/`send`.

mod cfg;
mod dce;
mod local;

use crate::ir::DfThread;
use memsync_trace::Json;
use std::fmt;
use std::str::FromStr;

/// How hard the middle-end works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No optimization: the lowered CDFG goes straight to scheduling.
    #[default]
    O0,
    /// The full fixpoint pipeline (folding, propagation, CSE, DCE,
    /// guarded-read forwarding, CFG simplification).
    O1,
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
        })
    }
}

impl FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<OptLevel, String> {
        match s {
            "0" | "O0" | "o0" => Ok(OptLevel::O0),
            "1" | "O1" | "o1" => Ok(OptLevel::O1),
            other => Err(format!("unknown opt level {other:?} (expected 0 or 1)")),
        }
    }
}

/// What one pass did, accumulated over every fixpoint iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name (`fold_prop_cse`, `forward`, `dce`, `cfg`).
    pub name: &'static str,
    /// Rewrites applied (folds, propagations, forwards, conversions).
    pub applications: usize,
    /// Ops deleted outright by this pass.
    pub ops_removed: usize,
}

/// Per-thread optimization report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassReport {
    /// Thread the report describes.
    pub thread: String,
    /// Level the pipeline ran at.
    pub level: OptLevel,
    /// Fixpoint iterations until quiescence.
    pub iterations: u32,
    /// Ops in the thread before any pass ran.
    pub ops_before: usize,
    /// Ops after the pipeline.
    pub ops_after: usize,
    /// Guarded memory ops (sync events) before.
    pub guarded_ops_before: usize,
    /// Guarded memory ops after.
    pub guarded_ops_after: usize,
    /// Memory reads replaced by register reuse (guarded + port-A).
    pub reads_forwarded: usize,
    /// Guarded reads among [`PassReport::reads_forwarded`] — each one is a
    /// deleted arbitration event.
    pub guarded_reads_forwarded: usize,
    /// FSM states the unoptimized schedule would have used.
    pub states_before: usize,
    /// FSM states the optimized schedule uses.
    pub states_after: usize,
    /// Whether the cost model rejected the optimized lowering and the
    /// unoptimized thread was emitted instead (see
    /// [`crate::synthesis::Synthesis`]): the pipeline never pessimizes a
    /// schedule.
    pub gated: bool,
    /// Per-pass breakdown.
    pub passes: Vec<PassStats>,
}

impl PassReport {
    /// FSM states the pipeline saved (0 at `O0`).
    pub fn states_saved(&self) -> usize {
        self.states_before.saturating_sub(self.states_after)
    }

    /// Ops the pipeline removed.
    pub fn ops_removed(&self) -> usize {
        self.ops_before.saturating_sub(self.ops_after)
    }

    /// Renders the report as a dependency-free JSON document.
    pub fn to_json(&self) -> Json {
        let passes: Vec<Json> = self
            .passes
            .iter()
            .map(|p| {
                Json::obj()
                    .with("name", Json::Str(p.name.to_owned()))
                    .with("applications", p.applications.into())
                    .with("ops_removed", p.ops_removed.into())
            })
            .collect();
        Json::obj()
            .with("thread", Json::Str(self.thread.clone()))
            .with("level", Json::Str(self.level.to_string()))
            .with("iterations", u64::from(self.iterations).into())
            .with("ops_before", self.ops_before.into())
            .with("ops_after", self.ops_after.into())
            .with("ops_removed", self.ops_removed().into())
            .with("guarded_ops_before", self.guarded_ops_before.into())
            .with("guarded_ops_after", self.guarded_ops_after.into())
            .with("reads_forwarded", self.reads_forwarded.into())
            .with(
                "guarded_reads_forwarded",
                self.guarded_reads_forwarded.into(),
            )
            .with("states_before", self.states_before.into())
            .with("states_after", self.states_after.into())
            .with("states_saved", self.states_saved().into())
            .with("gated", u64::from(self.gated).into())
            .with("passes", Json::Arr(passes))
    }
}

/// Upper bound on fixpoint iterations; each pass is monotone (only ever
/// removes or simplifies), so this is a safety net, not a tuning knob.
const MAX_ITERATIONS: u32 = 8;

/// Counts guarded (dependency-carrying) memory ops in a thread.
fn guarded_op_count(df: &DfThread) -> usize {
    df.blocks
        .iter()
        .flat_map(|b| b.ops.iter())
        .filter(|o| o.kind.dep().is_some())
        .count()
}

/// Runs the pipeline over one lowered thread, in place.
///
/// At [`OptLevel::O0`] the thread is untouched and the report carries only
/// the before-counters. At [`OptLevel::O1`] the passes run in order —
/// local simplification (fold/propagate/CSE/forward), dead-op
/// elimination, CFG simplification — until a full sweep changes nothing.
/// The caller fills in `states_before`/`states_after` (the pass manager
/// does not schedule).
pub fn optimize(df: &mut DfThread, level: OptLevel) -> PassReport {
    let mut report = PassReport {
        thread: df.name.clone(),
        level,
        ops_before: df.op_count(),
        guarded_ops_before: guarded_op_count(df),
        ..PassReport::default()
    };
    let mut local_stats = PassStats {
        name: "fold_prop_cse",
        ..PassStats::default()
    };
    let mut forward_stats = PassStats {
        name: "forward",
        ..PassStats::default()
    };
    let mut dce_stats = PassStats {
        name: "dce",
        ..PassStats::default()
    };
    let mut cfg_stats = PassStats {
        name: "cfg",
        ..PassStats::default()
    };

    if level == OptLevel::O1 {
        // Fresh-temp counter for ops the optimizer materializes
        // (if-conversion selects); starts past every temp in the thread.
        let mut next_temp = next_free_temp(df);
        let mut guarded_forwards = 0usize;
        for _ in 0..MAX_ITERATIONS {
            report.iterations += 1;
            let (l, g) = local::run(df, &mut local_stats, &mut forward_stats);
            guarded_forwards += g;
            let d = dce::run(df, &mut dce_stats);
            let c = cfg::run(df, &mut next_temp, &mut cfg_stats);
            if !(l | d | c) {
                break;
            }
        }
        report.reads_forwarded = forward_stats.applications;
        report.guarded_reads_forwarded = guarded_forwards;
    }

    report.ops_after = df.op_count();
    report.guarded_ops_after = guarded_op_count(df);
    report.passes = vec![local_stats, forward_stats, dce_stats, cfg_stats];
    report
}

/// First temp id not used anywhere in the thread.
fn next_free_temp(df: &DfThread) -> u32 {
    let mut next = 0u32;
    for b in &df.blocks {
        for op in &b.ops {
            if let Some(t) = op.result {
                next = next.max(t.0 + 1);
            }
            for a in &op.args {
                if let crate::ir::Value::Temp(t) = a {
                    next = next.max(t.0 + 1);
                }
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdfg::lower_thread;
    use crate::ir::{MemBinding, OpKind, PortClass};
    use memsync_hic::parser::parse;

    fn lowered(src: &str, binding: MemBinding) -> DfThread {
        let program = parse(src).unwrap();
        lower_thread(&program, &program.threads[0], &binding).unwrap()
    }

    #[test]
    fn opt_level_parses_and_prints() {
        assert_eq!("0".parse::<OptLevel>(), Ok(OptLevel::O0));
        assert_eq!("1".parse::<OptLevel>(), Ok(OptLevel::O1));
        assert_eq!("O1".parse::<OptLevel>(), Ok(OptLevel::O1));
        assert!("2".parse::<OptLevel>().is_err());
        assert_eq!(OptLevel::O1.to_string(), "O1");
    }

    #[test]
    fn o0_is_identity() {
        let mut df = lowered(
            "thread t() { int a, b; a = 1 + 2; b = a + a; }",
            MemBinding::new(),
        );
        let before = df.clone();
        let report = optimize(&mut df, OptLevel::O0);
        assert_eq!(df, before);
        assert_eq!(report.ops_removed(), 0);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn constant_expressions_fold_away() {
        let mut df = lowered(
            "thread t() { int a; a = (1 + 2) * 4 - 3; send a; }",
            MemBinding::new(),
        );
        let report = optimize(&mut df, OptLevel::O1);
        // Everything collapses (the dead store included) into sending the
        // constant 9.
        assert_eq!(df.op_count(), 1, "{:?}", df.blocks);
        let op = &df.blocks[0].ops[0];
        assert!(matches!(op.kind, OpKind::Send));
        assert_eq!(op.args, vec![crate::ir::Value::Const(9)]);
        assert!(report.ops_removed() >= 3);
    }

    #[test]
    fn folding_uses_datapath_semantics() {
        // 0 - 1 in the 32-bit unsigned datapath is 0xffff_ffff, not -1.
        let mut df = lowered(
            "thread t() { int a; a = 0 - 1; send a; }",
            MemBinding::new(),
        );
        optimize(&mut df, OptLevel::O1);
        let op = df.blocks[0].ops.last().unwrap();
        assert_eq!(op.args, vec![crate::ir::Value::Const(0xffff_ffff)]);
    }

    #[test]
    fn division_is_never_folded() {
        // Codegen rejects `/` at every level; folding it away would make
        // O1 accept what O0 rejects.
        let mut df = lowered("thread t() { int a; a = 8 / 2; }", MemBinding::new());
        optimize(&mut df, OptLevel::O1);
        let has_div = df.blocks.iter().flat_map(|b| &b.ops).any(|o| {
            matches!(
                o.kind,
                OpKind::Binary(memsync_hic::ast::BinaryOp::Div | memsync_hic::ast::BinaryOp::Rem)
            )
        });
        assert!(has_div, "division must survive to be rejected by codegen");
    }

    #[test]
    fn common_subexpressions_are_eliminated() {
        let mut df = lowered(
            "thread t() { int a, b, c; a = 7; b = (a + 1) * 2; c = (a + 1) * 2; }",
            MemBinding::new(),
        );
        let before = df.op_count();
        let report = optimize(&mut df, OptLevel::O1);
        assert!(
            df.op_count() < before,
            "CSE failed: {} -> {}",
            before,
            df.op_count()
        );
        assert!(report.passes.iter().any(|p| p.applications > 0));
    }

    #[test]
    fn dead_stores_and_their_feeders_die() {
        // `b` is computed and stored but never read anywhere.
        let mut df = lowered(
            "thread t() { int a, b; a = 1; b = (a + 2) * 3; send a; }",
            MemBinding::new(),
        );
        optimize(&mut df, OptLevel::O1);
        let b_id = df.var_id("b").unwrap();
        let stores_b = df
            .blocks
            .iter()
            .flat_map(|bl| &bl.ops)
            .any(|o| matches!(o.kind, OpKind::StoreVar { var } if var == b_id));
        assert!(!stores_b, "dead store to b survived");
    }

    #[test]
    fn guarded_reads_are_never_removed_by_dce() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::C, 0, Some("m".into()), None);
        // The read's result is dead, but the consume is a sync event.
        let mut df = lowered("thread c() { int w, v; w = v; }", binding);
        optimize(&mut df, OptLevel::O1);
        let guarded_reads = df
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| matches!(&o.kind, OpKind::MemRead { dep: Some(_), .. }))
            .count();
        assert_eq!(guarded_reads, 1, "the consume must survive");
    }

    #[test]
    fn guarded_reread_is_forwarded() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::C, 0, Some("m".into()), None);
        let mut df = lowered(
            "thread c() { int a, b, v; a = v; b = v; send (a + b); }",
            binding,
        );
        let report = optimize(&mut df, OptLevel::O1);
        let guarded_reads = df
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| matches!(&o.kind, OpKind::MemRead { dep: Some(_), .. }))
            .count();
        assert_eq!(guarded_reads, 1, "second consume forwarded from the first");
        assert_eq!(report.guarded_reads_forwarded, 1);
        assert!(report.reads_forwarded >= 1);
        assert_eq!(report.guarded_ops_before, 2);
        assert_eq!(report.guarded_ops_after, 1);
    }

    #[test]
    fn recv_fences_guarded_forwarding() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::C, 0, Some("m".into()), None);
        // A recv is a pacing-window boundary: the re-read must re-arbitrate.
        let mut df = lowered(
            "thread c() { int a, b, v; message msg; a = v; recv msg; b = v; send (a + b); }",
            binding,
        );
        optimize(&mut df, OptLevel::O1);
        let guarded_reads = df
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| matches!(&o.kind, OpKind::MemRead { dep: Some(_), .. }))
            .count();
        assert_eq!(guarded_reads, 2, "forwarding must not cross a recv");
    }

    #[test]
    fn constant_branch_folds_and_unreachable_code_dies() {
        let mut df = lowered(
            "thread t() { int a; if (1) { a = 5; } else { a = 9; } send a; }",
            MemBinding::new(),
        );
        optimize(&mut df, OptLevel::O1);
        // Only the then-side store survives; the 9 is unreachable.
        let consts: Vec<i64> = df
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .flat_map(|o| o.args.iter())
            .filter_map(|a| match a {
                crate::ir::Value::Const(c) => Some(*c),
                _ => None,
            })
            .collect();
        assert!(consts.contains(&5));
        assert!(
            !consts.contains(&9),
            "unreachable else survived: {consts:?}"
        );
        let has_branch = df
            .blocks
            .iter()
            .any(|b| matches!(b.term, crate::ir::Terminator::Branch { .. }));
        assert!(!has_branch, "constant branch survived");
    }

    #[test]
    fn diamond_if_converts_to_select() {
        let mut binding = MemBinding::new();
        binding.place_guarded("d", PortClass::D, 0, None, Some("m".into()));
        let mut df = lowered(
            "thread p() { int x, d; message msg; recv msg; x = msg; \
             if (x > 1) { d = x * 2; } else { d = 0; } }",
            binding,
        );
        let report = optimize(&mut df, OptLevel::O1);
        let writes = df
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| matches!(&o.kind, OpKind::MemWrite { dep: Some(_), .. }))
            .count();
        assert_eq!(writes, 1, "paired guarded writes merged through a select");
        assert!(
            df.blocks
                .iter()
                .flat_map(|b| &b.ops)
                .any(|o| matches!(o.kind, OpKind::Select)),
            "select materialized"
        );
        assert_eq!(report.guarded_ops_before, 2);
        assert_eq!(report.guarded_ops_after, 1);
    }

    #[test]
    fn report_json_round_trips() {
        let mut df = lowered(
            "thread t() { int a; a = 1 + 2; send a; }",
            MemBinding::new(),
        );
        let mut report = optimize(&mut df, OptLevel::O1);
        report.states_before = 4;
        report.states_after = 2;
        let doc = Json::parse(&report.to_json().render()).expect("valid JSON");
        assert_eq!(
            doc.get("thread").and_then(Json::as_str),
            Some("t"),
            "{doc:?}"
        );
        assert_eq!(doc.get("level").and_then(Json::as_str), Some("O1"));
        assert_eq!(doc.get("states_saved").and_then(Json::as_u64), Some(2));
        assert!(doc.get("passes").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn narrow_store_propagation_respects_width() {
        // `c` is 8 bits: the stored 300 reads back as 44, and constant
        // propagation must agree with the masked register.
        let mut df = lowered(
            "thread t() { char c; int d; c = 300; d = c + 1; send d; }",
            MemBinding::new(),
        );
        optimize(&mut df, OptLevel::O1);
        let consts: Vec<i64> = df
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .flat_map(|o| o.args.iter())
            .filter_map(|a| match a {
                crate::ir::Value::Const(c) => Some(*c),
                _ => None,
            })
            .collect();
        assert!(
            consts.contains(&45) || consts.contains(&44),
            "masked fold expected, got {consts:?}"
        );
        assert!(!consts.contains(&301), "unmasked propagation: {consts:?}");
    }
}
