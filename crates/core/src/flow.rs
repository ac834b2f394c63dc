//! End-to-end compilation flow: hic source → implemented system.
//!
//! Mirrors the design flow of §3: "describing an application in hic, from
//! which a RTL HDL description is generated. This RTL code is then fed into
//! standard synthesis, place, and route tools" — here, the `memsync-fpga`
//! implementation model.

use crate::alloc::{allocate, AllocationPlan};
use crate::report::SystemReport;
use crate::spec::OrganizationKind;
use memsync_fpga::report::implement;
use memsync_hic::sema::Analysis;
use memsync_hic::Program;
use memsync_rtl::netlist::Module;
use memsync_synth::fsm::Fsm;
use memsync_synth::opt::{OptLevel, PassReport};
use memsync_synth::synthesis::Synthesis;
use std::fmt;

/// Any failure along the flow.
#[derive(Debug)]
pub enum FlowError {
    /// Front-end (lex/parse/sema) failure.
    Frontend(memsync_hic::CompileError),
    /// Allocation failure.
    Allocation(String),
    /// Organization generation failure.
    Generation(String),
    /// RTL code generation failure.
    Codegen(memsync_synth::codegen::CodegenError),
    /// Netlist validation failure.
    Validation(String),
    /// Timing analysis failure.
    Timing(memsync_fpga::timing::TimingError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Frontend(e) => write!(f, "front-end: {e}"),
            FlowError::Allocation(e) => write!(f, "allocation: {e}"),
            FlowError::Generation(e) => write!(f, "generation: {e}"),
            FlowError::Codegen(e) => write!(f, "codegen: {e}"),
            FlowError::Validation(e) => write!(f, "validation: {e}"),
            FlowError::Timing(e) => write!(f, "timing: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<memsync_hic::CompileError> for FlowError {
    fn from(e: memsync_hic::CompileError) -> Self {
        FlowError::Frontend(e)
    }
}

impl From<memsync_synth::codegen::CodegenError> for FlowError {
    fn from(e: memsync_synth::codegen::CodegenError) -> Self {
        FlowError::Codegen(e)
    }
}

impl From<memsync_fpga::timing::TimingError> for FlowError {
    fn from(e: memsync_fpga::timing::TimingError) -> Self {
        FlowError::Timing(e)
    }
}

/// The flow entry point (non-consuming builder).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), memsync_core::flow::FlowError> {
/// use memsync_core::{Compiler, OrganizationKind};
///
/// let system = Compiler::new(
///     "thread p() { int v; #consumer{m,[c,w]} v = 1; }
///      thread c() { int w; #producer{m,[p,v]} w = v; }",
/// )
/// .organization(OrganizationKind::Arbitrated)
/// .compile()?;
/// assert_eq!(system.fsms.len(), 2);
/// assert_eq!(system.wrapper_modules.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    source: String,
    organization: OrganizationKind,
    opt: OptLevel,
    validate_netlists: bool,
}

impl Compiler {
    /// Starts a compilation from hic source text.
    pub fn new(source: impl Into<String>) -> Self {
        Compiler {
            source: source.into(),
            organization: OrganizationKind::Arbitrated,
            opt: OptLevel::O0,
            validate_netlists: true,
        }
    }

    /// Selects the memory organization ("the user can select different
    /// implementations based on constraints s/he sets").
    pub fn organization(&mut self, kind: OrganizationKind) -> &mut Self {
        self.organization = kind;
        self
    }

    /// Selects the middle-end optimization level (default
    /// [`OptLevel::O0`]).
    pub fn opt(&mut self, level: OptLevel) -> &mut Self {
        self.opt = level;
        self
    }

    /// Disables structural netlist validation.
    pub fn skip_validation(&mut self) -> &mut Self {
        self.validate_netlists = false;
        self
    }

    /// Runs the full flow.
    ///
    /// # Errors
    ///
    /// Returns the first [`FlowError`] along front-end → allocation →
    /// synthesis → generation → validation.
    pub fn compile(&self) -> Result<CompiledSystem, FlowError> {
        let (program, analysis) = memsync_hic::compile(&self.source)?;
        let plan = allocate(&program, &analysis).map_err(FlowError::Allocation)?;

        let mut fsms = Vec::new();
        let mut thread_modules = Vec::new();
        let mut pass_reports = Vec::new();
        for thread in &program.threads {
            let binding = plan.binding_for(&thread.name);
            let result = Synthesis::of(&program)
                .binding(binding)
                .opt(self.opt)
                .thread(thread.name.as_str())
                .run()?;
            let fsm = result.fsm;
            pass_reports.push(result.pass_report);
            let module = memsync_synth::codegen::generate(&fsm)?;
            if self.validate_netlists {
                memsync_rtl::validate::validate(&module).map_err(|errs| {
                    FlowError::Validation(format!(
                        "thread `{}`: {}",
                        thread.name,
                        errs.iter()
                            .map(|e| e.to_string())
                            .collect::<Vec<_>>()
                            .join("; ")
                    ))
                })?;
            }
            fsms.push(fsm);
            thread_modules.push(module);
        }

        let mut wrapper_modules = Vec::new();
        for bank in &plan.sync_banks {
            let spec = bank.wrapper_spec();
            let module = match self.organization {
                OrganizationKind::Arbitrated => crate::arbitrated::generate(&spec),
                OrganizationKind::EventDriven => crate::event_driven::generate(&spec),
            }
            .map_err(FlowError::Generation)?;
            if self.validate_netlists {
                memsync_rtl::validate::validate(&module).map_err(|errs| {
                    FlowError::Validation(format!(
                        "wrapper `{}`: {}",
                        module.name,
                        errs.iter()
                            .map(|e| e.to_string())
                            .collect::<Vec<_>>()
                            .join("; ")
                    ))
                })?;
            }
            wrapper_modules.push(module);
        }

        Ok(CompiledSystem {
            program,
            analysis,
            plan,
            organization: self.organization,
            fsms,
            pass_reports,
            thread_modules,
            wrapper_modules,
        })
    }
}

/// Everything the flow produces for one application.
#[derive(Debug, Clone)]
pub struct CompiledSystem {
    /// The parsed program.
    pub program: Program,
    /// Semantic analysis results.
    pub analysis: Analysis,
    /// Memory allocation.
    pub plan: AllocationPlan,
    /// Organization used for the sync banks.
    pub organization: OrganizationKind,
    /// Synthesized thread FSMs (executed by `memsync-sim`).
    pub fsms: Vec<Fsm>,
    /// Middle-end pass reports, parallel to [`CompiledSystem::fsms`].
    pub pass_reports: Vec<PassReport>,
    /// Thread RTL modules.
    pub thread_modules: Vec<Module>,
    /// Wrapper RTL modules (one per sync bank).
    pub wrapper_modules: Vec<Module>,
}

impl CompiledSystem {
    /// FSM of a thread by name.
    pub fn fsm(&self, thread: &str) -> Option<&Fsm> {
        self.fsms.iter().find(|f| f.thread == thread)
    }

    /// Middle-end report of a thread by name.
    pub fn pass_report(&self, thread: &str) -> Option<&PassReport> {
        self.pass_reports.iter().find(|r| r.thread == thread)
    }

    /// Emits the whole system as Verilog (one module per thread + wrapper).
    pub fn verilog(&self) -> String {
        self.thread_modules
            .iter()
            .chain(self.wrapper_modules.iter())
            .map(memsync_rtl::verilog::emit)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Implements every module (area + timing) and assembles the system
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates timing analysis failures.
    pub fn implement(&self) -> Result<SystemReport, FlowError> {
        let mut threads = Vec::new();
        for m in &self.thread_modules {
            threads.push(implement(m)?);
        }
        let mut wrappers = Vec::new();
        for m in &self.wrapper_modules {
            wrappers.push(implement(m)?);
        }
        Ok(SystemReport { threads, wrappers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = r#"
        thread t1 () {
            int x1, xtmp, x2;
            #consumer{mt1,[t2,y1],[t3,z1]}
            x1 = f(xtmp, x2);
        }
        thread t2 () {
            int y1, y2;
            #producer{mt1,[t1,x1]}
            y1 = g(x1, y2);
        }
        thread t3 () {
            int z1, z2;
            #producer{mt1,[t1,x1]}
            z1 = h(x1, z2);
        }
    "#;

    #[test]
    fn figure1_compiles_under_both_organizations() {
        for kind in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
            let system = Compiler::new(FIGURE1).organization(kind).compile().unwrap();
            assert_eq!(system.fsms.len(), 3);
            assert_eq!(system.wrapper_modules.len(), 1);
            let report = system.implement().unwrap();
            assert!(report.total_slices() > 0);
            assert!(report.fmax_mhz() > 50.0);
        }
    }

    #[test]
    fn verilog_contains_all_modules() {
        let system = Compiler::new(FIGURE1).compile().unwrap();
        let v = system.verilog();
        assert!(v.contains("module thread_t1"));
        assert!(v.contains("module thread_t2"));
        assert!(v.contains("module thread_t3"));
        assert!(v.contains("module memsync_arb_p1c2"));
    }

    #[test]
    fn opt_level_reports_and_preserves_dependencies() {
        let o0 = Compiler::new(FIGURE1).compile().unwrap();
        let o1 = Compiler::new(FIGURE1).opt(OptLevel::O1).compile().unwrap();
        assert_eq!(o0.fsms.len(), o1.fsms.len());
        for (a, b) in o0.fsms.iter().zip(o1.fsms.iter()) {
            assert_eq!(a.dependencies(), b.dependencies(), "thread {}", a.thread);
            assert!(
                b.states.len() <= a.states.len(),
                "thread {}: O1 grew the FSM",
                a.thread
            );
        }
        let report = o1.pass_report("t1").expect("report for t1");
        assert_eq!(report.level, OptLevel::O1);
        assert!(report.states_before >= report.states_after);
        assert!(o0.pass_report("t1").unwrap().ops_removed() == 0);
    }

    #[test]
    fn frontend_errors_propagate() {
        let err = Compiler::new("thread t() {").compile().unwrap_err();
        assert!(matches!(err, FlowError::Frontend(_)));
    }

    #[test]
    fn program_without_dependencies_has_no_wrappers() {
        let system = Compiler::new("thread t() { int a; a = 1; }")
            .compile()
            .unwrap();
        assert!(system.wrapper_modules.is_empty());
        assert!(system.plan.sync_banks.is_empty());
    }
}
