//! # memsync-synth — behavioral synthesis of hic threads
//!
//! Transforms hic threads into cycle-accurate finite state machines, per §3
//! of the paper: "a series of synthesis steps are applied that transform the
//! hic threads into state machines … cycle accurate and we have knowledge of
//! the particular state where memory accesses happen".
//!
//! * [`ir`] — three-address dataflow form and the [`ir::MemBinding`] that
//!   records which variables live in BRAM behind which wrapper port;
//! * [`cdfg`] — AST lowering;
//! * [`opt`] — the optimizing middle-end (folding, propagation, CSE, DCE,
//!   guarded-read forwarding, CFG simplification) behind [`opt::OptLevel`];
//! * [`schedule`] — resource-constrained list scheduling, which keeps
//!   memory operations in program order (§3's partial order of memory
//!   accesses);
//! * [`binding`] — left-edge register allocation and FU counting;
//! * [`fsm`] — the executable FSM the simulator runs;
//! * [`codegen`] — FSM → RTL netlist with wrapper-port interfaces;
//! * [`eval`] — the one operator semantics (the 32-bit datapath's),
//!   shared with the simulator, constant folding and the RTL;
//! * [`synthesis`] — the [`Synthesis`] builder tying the pipeline together.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use memsync_synth::{OptLevel, Synthesis};
//!
//! let (program, _analysis) = memsync_hic::compile(
//!     "thread t() { int a, b; a = 1; b = a + 2; send b; }",
//! )?;
//! let result = Synthesis::of(&program).opt(OptLevel::O1).run()?;
//! let module = memsync_synth::codegen::generate(&result.fsm)?;
//! assert!(module.is_sequential());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binding;
pub mod cdfg;
pub mod codegen;
pub mod eval;
pub mod fsm;
pub mod ir;
pub mod opt;
pub mod schedule;
pub mod synthesis;

pub use fsm::{Fsm, FsmState, StateNext};
pub use ir::{MemBinding, PortClass, Residency};
pub use opt::{OptLevel, PassReport, PassStats};
pub use schedule::Constraints;
pub use synthesis::{Synthesis, SynthesisResult};
