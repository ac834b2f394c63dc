//! # memsync-trace — cycle-level observability for the simulator
//!
//! The paper's central claim (§3.1 vs §3.2) is that the event-driven
//! statically scheduled organization delivers *deterministic*
//! produce-to-consume latency while the arbitrated organization jitters
//! under contention. Defending that claim needs per-cycle visibility into
//! grants, stalls, dependency-list hits, and queue depths — this crate is
//! that apparatus.
//!
//! * [`event`] — typed cycle events (`ReadIssue`, `Grant`, `ArbStall`,
//!   `DepListHit`/`Miss`, `Deliver`, `QueuePush`/`Pop`, …) with
//!   `(cycle, bank, port, addr)` attribution;
//! * [`sink`] — the near-zero-cost [`TraceSink`] trait with [`NullSink`],
//!   [`VecSink`], [`JsonlSink`], and [`SharedSink`];
//! * [`registry`] — the counter/histogram registry that folds the
//!   simulator's cycle events: arbitration stalls per consumer,
//!   grant-wait histograms with percentile summaries, dependency-list
//!   occupancy high-water marks, rx-queue depths, per-bank utilization;
//! * [`latency`] — the produce-to-consume [`LatencyRecorder`] (folded into
//!   the registry);
//! * [`bucket`] — fixed-footprint log2 [`BucketHistogram`]s for long-lived
//!   processes (the histograms of the serve crate's typed stats);
//! * [`span`] — request-scoped [`SpanRecord`]s: per-stage timings of one
//!   submit batch through the serving stack, JSONL-exportable;
//! * [`json`] — a dependency-free JSON value builder used by the JSONL
//!   sink and the metrics exporters;
//! * [`prng`] — a small deterministic PCG generator so traces are
//!   reproducible without a crates.io `rand` dependency.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bucket;
pub mod event;
pub mod json;
pub mod latency;
pub mod prng;
pub mod registry;
pub mod sink;
pub mod span;

pub use bucket::{BucketHistogram, BucketSummary};
pub use event::{EventKind, Port, Role, TraceEvent};
pub use json::Json;
pub use latency::{LatencyRecorder, LatencyStats};
pub use prng::Pcg32;
pub use registry::{HistSummary, Histogram, MetricsRegistry, RecordingSink};
pub use sink::{JsonlSink, NullSink, SharedSink, TraceSink, VecSink};
pub use span::SpanRecord;
