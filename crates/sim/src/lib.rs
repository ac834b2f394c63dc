//! # memsync-sim — cycle-accurate simulation substrate
//!
//! Substitute for the physical FPGA running the generated designs (see
//! DESIGN.md §3): behavioral models of both memory organizations that
//! mirror the generated RTL cycle for cycle, an executor for synthesized
//! thread FSMs, stochastic packet traffic, and produce-to-consume latency
//! metrics — the apparatus behind the paper's determinism comparison.
//!
//! * [`bram_model`] — the 18 Kb BRAM with synchronous read latency;
//! * [`arb_model`] — §3.1 arbitrated wrapper (pipelined decision/issue,
//!   producer pre-emption, round-robin, dependency counters);
//! * [`event_model`] — §3.2 event-driven wrapper (modulo-scheduled windows,
//!   static consumer order, exact post-write latency);
//! * [`thread_model`] — runs [`memsync_synth::fsm::Fsm`]s against the
//!   wrappers with blocking semantics;
//! * [`engine`] — wires a [`memsync_core::CompiledSystem`] into a steppable
//!   [`engine::System`];
//! * [`traffic`] — Bernoulli/periodic arrival processes.
//!
//! Cycle-level observability: both wrapper models expose `step_traced`,
//! and [`engine::System::set_sink`] routes every grant, stall, and
//! delivery into a [`memsync_trace::TraceSink`] while the
//! [`memsync_trace::MetricsRegistry`] counts them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arb_model;
pub mod bram_model;
pub mod engine;
pub mod event_model;
pub mod intern;
pub mod thread_model;
pub mod traffic;

pub use engine::{System, WorkCounts};
pub use intern::{Interner, ThreadId};
pub use thread_model::{MemRequest, MemResponse, ThreadExec};
