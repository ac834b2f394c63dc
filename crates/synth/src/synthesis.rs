//! The pipeline-builder synthesis API.
//!
//! [`Synthesis`] is the one front door to thread synthesis: it owns the
//! whole lowering → optimize → schedule → FSM pipeline and returns both
//! the [`Fsm`] and the middle-end's [`PassReport`].
//!
//! ```
//! use memsync_synth::{OptLevel, Synthesis};
//!
//! let program = memsync_hic::parser::parse(
//!     "thread t() { int a; a = (1 + 2) * 4; send a; }",
//! )
//! .unwrap();
//! let result = Synthesis::of(&program).opt(OptLevel::O1).run().unwrap();
//! assert!(result.pass_report.ops_removed() > 0);
//! assert!(!result.fsm.states.is_empty());
//! ```

use crate::cdfg::lower_thread;
use crate::fsm::Fsm;
use crate::ir::MemBinding;
use crate::opt::{optimize, OptLevel, PassReport};
use crate::schedule::Constraints;
use memsync_hic::ast::Program;
use memsync_hic::error::{CompileError, Result, Span};

/// Builder for one thread-synthesis run.
///
/// Construct with [`Synthesis::of`], refine with the chainable setters,
/// finish with [`Synthesis::run`]. Every setting has a sensible default:
/// default [`Constraints`], an all-register [`MemBinding`], [`OptLevel::O0`],
/// and — for single-thread programs — the program's only thread.
#[derive(Debug, Clone)]
pub struct Synthesis<'a> {
    program: &'a Program,
    constraints: Constraints,
    binding: MemBinding,
    opt: OptLevel,
    thread: Option<String>,
}

/// What a synthesis run produces.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The cycle-accurate state machine.
    pub fsm: Fsm,
    /// What the middle-end did (all zeros except the state counts at
    /// [`OptLevel::O0`]).
    pub pass_report: PassReport,
}

impl<'a> Synthesis<'a> {
    /// Starts a synthesis run over `program`.
    pub fn of(program: &'a Program) -> Self {
        Synthesis {
            program,
            constraints: Constraints::default(),
            binding: MemBinding::new(),
            opt: OptLevel::default(),
            thread: None,
        }
    }

    /// Sets the scheduling resource constraints.
    pub fn constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the memory residency binding.
    pub fn binding(mut self, binding: MemBinding) -> Self {
        self.binding = binding;
        self
    }

    /// Sets the middle-end optimization level.
    pub fn opt(mut self, level: OptLevel) -> Self {
        self.opt = level;
        self
    }

    /// Selects the thread to synthesize (required when the program has
    /// more than one).
    pub fn thread(mut self, name: impl Into<String>) -> Self {
        self.thread = Some(name.into());
        self
    }

    /// Runs the pipeline: lower, optimize, schedule, build the FSM.
    ///
    /// At [`OptLevel::O1`] both the optimized and the unoptimized
    /// lowerings are scheduled and the optimized one is kept only when
    /// its FSM is no larger — the middle-end never pessimizes. A
    /// rejected run is reported with [`PassReport::gated`] set.
    ///
    /// # Errors
    ///
    /// Fails when the named thread does not exist (or no name was given
    /// and the program is not single-threaded), and propagates lowering
    /// errors (see [`lower_thread`]).
    pub fn run(self) -> Result<SynthesisResult> {
        let thread = match &self.thread {
            Some(name) => self
                .program
                .threads
                .iter()
                .find(|t| t.name == *name)
                .ok_or_else(|| {
                    CompileError::single(format!("no thread named `{name}`"), Span::dummy())
                })?,
            None => match self.program.threads.as_slice() {
                [only] => only,
                [] => {
                    return Err(CompileError::single(
                        "program has no threads".to_owned(),
                        Span::dummy(),
                    ))
                }
                _ => {
                    return Err(CompileError::single(
                        "program has multiple threads; name one with .thread(..)".to_owned(),
                        Span::dummy(),
                    ))
                }
            },
        };
        let mut df = lower_thread(self.program, thread, &self.binding)?;
        match self.opt {
            OptLevel::O0 => {
                let mut pass_report = optimize(&mut df, OptLevel::O0);
                let fsm = Fsm::from_dfthread(&df, self.constraints);
                pass_report.states_before = fsm.states.len();
                pass_report.states_after = fsm.states.len();
                Ok(SynthesisResult { fsm, pass_report })
            }
            OptLevel::O1 => {
                // Cost-model gate: schedule both lowerings and keep the
                // optimized one only when it is no worse. Propagation can
                // lengthen combinational chains past `max_chain` (register
                // reads are chain-free; the temps replacing them are not),
                // so a thread that scheduled densely through its registers
                // may serialize after optimization.
                let baseline = Fsm::from_dfthread(&df, self.constraints);
                let mut opt_df = df.clone();
                let mut pass_report = optimize(&mut opt_df, OptLevel::O1);
                let opt_fsm = Fsm::from_dfthread(&opt_df, self.constraints);
                if opt_fsm.states.len() <= baseline.states.len() {
                    pass_report.states_before = baseline.states.len();
                    pass_report.states_after = opt_fsm.states.len();
                    Ok(SynthesisResult {
                        fsm: opt_fsm,
                        pass_report,
                    })
                } else {
                    let gated = PassReport {
                        thread: pass_report.thread,
                        level: OptLevel::O1,
                        iterations: pass_report.iterations,
                        ops_before: pass_report.ops_before,
                        ops_after: pass_report.ops_before,
                        guarded_ops_before: pass_report.guarded_ops_before,
                        guarded_ops_after: pass_report.guarded_ops_before,
                        states_before: baseline.states.len(),
                        states_after: baseline.states.len(),
                        gated: true,
                        ..PassReport::default()
                    };
                    Ok(SynthesisResult {
                        fsm: baseline,
                        pass_report: gated,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PortClass;
    use memsync_hic::parser::parse;

    #[test]
    fn defaults_pick_the_only_thread() {
        let program = parse("thread t() { int a; a = 1; send a; }").unwrap();
        let r = Synthesis::of(&program).run().unwrap();
        assert_eq!(r.fsm.thread, "t");
        assert_eq!(r.pass_report.level, OptLevel::O0);
        assert_eq!(r.pass_report.states_before, r.pass_report.states_after);
    }

    #[test]
    fn multi_thread_requires_a_name() {
        let program = parse("thread a() { int x; x = 1; } thread b() { int y; y = 2; }").unwrap();
        assert!(Synthesis::of(&program).run().is_err());
        let r = Synthesis::of(&program).thread("b").run().unwrap();
        assert_eq!(r.fsm.thread, "b");
        assert!(Synthesis::of(&program).thread("zzz").run().is_err());
    }

    #[test]
    fn o1_reduces_states_on_foldable_code() {
        let program =
            parse("thread t() { int a, b; a = (1 + 2) * 4; b = a + a; send b; }").unwrap();
        // One ALU per cycle, no chaining: every surviving op is a state.
        let tight = Constraints {
            alu_per_cycle: 1,
            mem_per_cycle: 1,
            max_chain: 1,
        };
        let o0 = Synthesis::of(&program).constraints(tight).run().unwrap();
        let o1 = Synthesis::of(&program)
            .constraints(tight)
            .opt(OptLevel::O1)
            .run()
            .unwrap();
        assert!(
            o1.fsm.states.len() < o0.fsm.states.len(),
            "O1 {} !< O0 {}",
            o1.fsm.states.len(),
            o0.fsm.states.len()
        );
        assert_eq!(o1.pass_report.states_before, o0.fsm.states.len());
        assert_eq!(o1.pass_report.states_after, o1.fsm.states.len());
        assert!(o1.pass_report.states_saved() > 0);
    }

    #[test]
    fn builder_threads_binding_through() {
        let mut binding = MemBinding::new();
        binding.place_guarded("v", PortClass::C, 0, Some("m".into()), None);
        let program = parse("thread c() { int w, v; w = v; send w; }").unwrap();
        let r = Synthesis::of(&program).binding(binding).run().unwrap();
        assert_eq!(r.fsm.dependencies(), vec![("m".to_owned(), false)]);
    }
}
