//! # memsync-serve — a sharded, batching packet-forwarding service
//!
//! The paper's evaluation vehicle is a two-port IP packet-forwarding
//! application fed by probabilistic traffic; everything in this repository
//! so far runs that application against pre-generated in-memory traces.
//! This crate is the front end that turns it into a network service: a
//! multi-threaded TCP server that runs compiled hic forwarding systems as
//! N sharded [`memsync_sim::System`] instances and forwards real packets
//! through them — the same "many independent requesters multiplexed onto
//! a fixed set of ports with bounded latency" problem the memory
//! organizations solve on-chip, lifted to the process boundary.
//!
//! Architecture (std-only — no async runtime, the workspace builds
//! offline):
//!
//! * [`frame`] — the length-prefixed binary frame protocol (`Hello`
//!   version negotiation / submit packet batch / query stats / drain /
//!   shutdown / fault-inject kill, plus the protocol-v3 control frames:
//!   route add / route withdraw / default swap);
//! * [`tables`] — the generation-swapped (RCU-style) route tables behind
//!   the v3 control plane: a single writer compiles and publishes whole
//!   fresh tables, shard readers follow one atomic generation counter
//!   lock-free, and an old generation is retired, and freed, only after
//!   every shard acknowledges a drain barrier;
//! * [`backend`] — the pluggable [`backend::ForwardingBackend`] trait and
//!   its three engines: cycle-accurate [`backend::SimBackend`] (the
//!   reference), functional [`backend::FastBackend`] (the compiled fast
//!   path), and [`backend::DifferentialBackend`] (both, cross-checked
//!   frame by frame);
//! * [`pipeline`] — the software model of the compiled forwarding
//!   pipeline (expected egress frames per descriptor) and the
//!   [`memsync_netapp::Workload::reference_forward`]-style FIB oracle
//!   behind the per-packet `verify` mode;
//! * [`queue`] — bounded per-shard job queues with explicit backpressure:
//!   a full queue defers the submit, never buffers without bound;
//! * [`router`] — dst-prefix flow hashing and all-or-nothing multi-shard
//!   batch submission;
//! * [`shard`] — shard threads batching up to K packets per simulator
//!   activation to amortize per-`step()` overhead; a shard that panics
//!   restarts in place on its surviving queue and stats, and counts
//!   `shard_restarts`;
//! * [`server`] — the service instance: the shard fleet, the control
//!   worker, graceful drain (in-flight packets complete, new submits
//!   refused) and shutdown, joining every thread it spawned;
//! * `session` — one connection's protocol with no transport attached:
//!   every request is dispatched there;
//! * [`reactor`] — the transport: epoll event loops doing the socket
//!   I/O, backpressure and deadlines around each connection's session;
//! * [`snapshot`] — [`snapshot::StatsSnapshot`], the stats frame's one
//!   schema: each section type carries the one `to_json`/`from_json`
//!   pair (over the dependency-free [`memsync_trace::Json`]) that the
//!   server renders with and the client decodes with;
//! * [`stats`] — the live sources that fill the snapshot: per-shard
//!   [`memsync_trace::MetricsRegistry`] instances with bucketed
//!   histograms (O(1) memory), merged into the totals next to each
//!   shard's own section, plus the server and connection-plane counters;
//! * [`tracing`] — request-scoped spans: per-stage timings from decode to
//!   socket write, live stage histograms, and JSONL span export
//!   (`serve --trace-spans`); zero-cost when disabled;
//! * [`client`] — a blocking client used by the `loadgen` bin, the
//!   loopback tests, and `memsync-benchmark`; built via
//!   [`Client::builder`], it negotiates the protocol version and backend
//!   capabilities at connect time.
//!
//! The crate is Linux-only: the reactor calls epoll directly.
//!
//! The wire protocol and backpressure semantics are documented in
//! `EXPERIMENTS.md` ("Serving traffic"); the per-request work counts
//! that `tests/request_counts.rs` pins, in its "Work counts" section.

#![warn(missing_docs)]
// `deny` (not `forbid`): the reactor's syscall shim is the one audited
// `#![allow(unsafe_code)]` island — everything else stays safe Rust.
#![deny(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("memsync-serve is Linux-only: its reactor is built on epoll");

pub mod backend;
pub mod client;
pub mod frame;
pub mod pipeline;
pub mod queue;
pub mod reactor;
pub mod router;
pub mod server;
mod session;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod tables;
pub mod tracing;

pub use backend::{BackendKind, ForwardingBackend};
pub use client::{Client, ClientError, RouteUpdate};
pub use frame::{Request, Response, ServerHello, SubmitOptions, PROTOCOL_VERSION};
pub use server::Server;
pub use snapshot::StatsSnapshot;
pub use tables::EpochTables;
pub use tracing::{ServeTracer, TracingConfig};

use memsync_core::{OptLevel, OrganizationKind};
use std::time::Duration;

/// Raises the process's soft open-file limit to the hard limit and
/// returns the resulting soft limit (0 when the limit could not even be
/// read). High-fan-in runs (`serve`, `loadgen --conns`) call this so
/// 5k+ sockets don't trip the default 1024-fd soft limit.
pub fn raise_fd_limit() -> u64 {
    reactor::sys::raise_nofile_limit()
}

/// Service configuration. `Default` matches the acceptance setup:
/// 4 shards of the egress-4 forwarding application under the arbitrated
/// organization, 64-route synthetic FIB.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shard simulator instances (each its own thread).
    pub shards: usize,
    /// Egress consumer count of the compiled forwarding application.
    pub egress: usize,
    /// Memory organization the shards simulate (relevant to the `sim`
    /// and `differential` backends; the fast path is organization-free).
    pub organization: OrganizationKind,
    /// Which forwarding backend each shard runs.
    pub backend: BackendKind,
    /// Middle-end optimization level the `sim` and `differential`
    /// backends compile the application at (the fast path has no FSMs).
    pub opt: OptLevel,
    /// Route count of the synthetic FIB (must match the loadgen's).
    pub routes: usize,
    /// Bounded shard queue capacity, in jobs. A full queue defers the
    /// whole submit; one deferred past `job_timeout` is answered `Busy`.
    pub queue_cap: usize,
    /// Maximum packets coalesced into one simulator activation.
    pub batch_max: usize,
    /// Per-connection idle deadline; a connection with nothing in flight
    /// that stays silent this long is closed.
    pub read_timeout: Duration,
    /// Per-connection write deadline: a connection whose pending
    /// responses make no progress this long is closed.
    pub write_timeout: Duration,
    /// How long a request waits for shard or control-worker outcomes
    /// (or a deferred submit for queue room) before it fails.
    pub job_timeout: Duration,
    /// Test hook: artificial per-activation delay, to make backpressure
    /// observable deterministically in the loopback tests.
    pub shard_throttle: Option<Duration>,
    /// Request tracing (spans, stage histograms, JSONL export). Disabled
    /// by default; disabled means zero instrumentation cost.
    pub tracing: TracingConfig,
    /// Reactor event-loop thread count; 0 means one per available CPU.
    pub reactor_threads: usize,
    /// Maximum concurrently open client connections.
    /// Connections over the cap receive a protocol `Error` frame and are
    /// closed, keeping fd headroom for the ones already being served.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            egress: 4,
            organization: OrganizationKind::Arbitrated,
            backend: BackendKind::Sim,
            opt: OptLevel::O0,
            routes: 64,
            queue_cap: 64,
            batch_max: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            job_timeout: Duration::from_secs(60),
            shard_throttle: None,
            tracing: TracingConfig::default(),
            reactor_threads: 0,
            max_conns: 10_000,
        }
    }
}
