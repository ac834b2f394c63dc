//! # memsync-rtl — word-level netlist IR and HDL emission
//!
//! The RTL substrate of the memsync reproduction: generators in
//! `memsync-core` and `memsync-synth` build [`netlist::Module`]s through
//! [`builder::ModuleBuilder`]; [`validate::validate`] checks structural
//! well-formedness; [`verilog::emit`] prints synthesizable Verilog;
//! [`interp::Interp`] runs a module cycle by cycle. [`netlist::Module`]
//! owns the graph passes its readers share: its drivers, its fanout and
//! its combinational order, which the interpreter evaluates in and
//! `memsync-fpga` clusters and times with.
//!
//! # Examples
//!
//! ```
//! use memsync_rtl::builder::ModuleBuilder;
//! use memsync_rtl::{validate, verilog};
//!
//! let mut b = ModuleBuilder::new("majority");
//! let a = b.input("a", 1);
//! let x = b.input("b", 1);
//! let c = b.input("c", 1);
//! let ab = b.and(&[a, x], "ab");
//! let ac = b.and(&[a, c], "ac");
//! let bc = b.and(&[x, c], "bc");
//! let y = b.or(&[ab, ac, bc], "y");
//! b.output("y", y);
//! let module = b.finish();
//! validate::validate(&module).expect("well-formed");
//! let text = verilog::emit(&module);
//! assert!(text.contains("module majority"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod interp;
pub mod netlist;
pub mod validate;
pub mod verilog;

pub use builder::ModuleBuilder;
pub use netlist::{Instance, Module, Net, NetId, Port, PortDir, PrimOp};
