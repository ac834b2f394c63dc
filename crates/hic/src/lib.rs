//! # memsync-hic — the hic language front-end
//!
//! `hic` is the concurrent asynchronous language of Kulkarni & Brebner,
//! *Memory centric thread synchronization on platform FPGAs* (DATE 2006),
//! for describing networking applications as hardware threads cooperating
//! through a logical global shared memory ("a tub of packets").
//!
//! This crate provides the complete front-end:
//!
//! * [`lexer`] / [`parser`] — source text to [`ast::Program`];
//! * [`sema`] — name/type checking, producer/consumer pragma resolution into
//!   [`sema::Dependency`] records, and static deadlock detection;
//! * [`usedef`] — the statement-level CFG the hazard pass walks, and
//!   pragma-free dependency *inference* from the reads and writes on it;
//! * [`hazards`] — static hazard analysis over the compiled program: the
//!   lost-update bug class (a producer re-firing before every consumer has
//!   read, silently overwritten under the paper's sampling semantics),
//!   consume-before-produce, deadlock cycles, and dead/undeclared
//!   dependencies. Driven by the `memsync-lint` binary.
//!
//! # Examples
//!
//! Compiling the paper's Figure 1 and recovering the `mt1` dependency:
//!
//! ```
//! # fn main() -> Result<(), memsync_hic::error::CompileError> {
//! use memsync_hic::{parser, sema};
//!
//! let program = parser::parse(
//!     "thread t1 () { int x1, xtmp, x2; #consumer{mt1,[t2,y1],[t3,z1]} x1 = f(xtmp, x2); }
//!      thread t2 () { int y1, y2; #producer{mt1,[t1,x1]} y1 = g(x1, y2); }
//!      thread t3 () { int z1, z2; #producer{mt1,[t1,x1]} z1 = h(x1, z2); }",
//! )?;
//! let analysis = sema::analyze(&program)?;
//! let dep = analysis.dependency("mt1").expect("mt1 resolved");
//! assert_eq!(dep.producer.to_string(), "t1.x1");
//! assert_eq!(dep.dep_number(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod hazards;
pub mod lexer;
pub mod parser;
pub mod sema;
pub mod token;
pub mod usedef;

pub use ast::Program;
pub use error::{CompileError, Diagnostic, Severity, Span};
pub use hazards::{Hazard, HazardCode, HazardReport, PacingAssumption};
pub use sema::{Analysis, Dependency, Endpoint};

/// Parses and analyzes a hic source string in one step.
///
/// # Errors
///
/// Propagates lexical, syntactic, and semantic diagnostics.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), memsync_hic::CompileError> {
/// let (program, analysis) = memsync_hic::compile(
///     "thread p() { int v; #consumer{m,[c,w]} v = 1; }
///      thread c() { int w; #producer{m,[p,v]} w = v; }",
/// )?;
/// assert_eq!(program.threads.len(), 2);
/// assert_eq!(analysis.dependencies.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn compile(source: &str) -> error::Result<(Program, Analysis)> {
    let program = parser::parse(source)?;
    let analysis = sema::analyze(&program)?;
    Ok((program, analysis))
}

#[cfg(test)]
mod tests {
    #[test]
    fn compile_rejects_bad_source() {
        assert!(super::compile("thread t() {").is_err());
    }

    #[test]
    fn compile_accepts_minimal_program() {
        let (p, a) = super::compile("thread t() { int x; x = 1; }").unwrap();
        assert_eq!(p.threads.len(), 1);
        assert!(a.dependencies.is_empty());
    }
}
