//! The service instance: the shards and the control worker (the
//! `Shared` plane every connection sees), served over TCP by the
//! [`crate::reactor`] event loops.
//!
//! Its threads are the reactors, the accept loop and the control worker;
//! the reactors run the shards' activations ([`crate::shard`]).
//!
//! Every connection opens with a [`crate::frame::Request::Hello`]; the
//! protocol from there on lives in the `session` module. Drain flips a
//! flag (new submits refused), waits for every shard to go quiescent,
//! and answers `Drained`; shutdown drains, stops the control worker and
//! the event loops, and unblocks [`Server::wait`] so the `serve` bin can
//! exit 0. The server joins every thread it spawned in [`Server::wait`]
//! and on drop.

use crate::router::Router;
use crate::shard::{Shard, ShardTables};
use crate::stats::{FrontendStats, ServerCounters};
use crate::tables::{spawn_control_worker, ControlHandle, EpochTables};
use crate::tracing::ServeTracer;
use crate::ServeConfig;
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// State every connection shares: the router onto the shard queues,
/// the shards themselves, the counters, the flags and the control plane.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) router: Router,
    pub(crate) shards: Vec<Arc<Shard>>,
    pub(crate) counters: ServerCounters,
    pub(crate) config: ServeConfig,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) draining: AtomicBool,
    pub(crate) started: Instant,
    pub(crate) tracer: ServeTracer,
    pub(crate) frontend: FrontendStats,
    pub(crate) control: ControlHandle,
}

impl Shared {
    /// Builds the shards (each builds its engine on its first job) and
    /// spawns the control worker; returns the plane and the worker's
    /// join handle. The worker stops once `stop` is raised.
    ///
    /// # Errors
    ///
    /// Span-export file creation failures.
    pub(crate) fn start(config: ServeConfig) -> io::Result<(Arc<Shared>, JoinHandle<()>)> {
        assert!(config.shards > 0, "at least one shard");
        let tracer = ServeTracer::new(&config.tracing)?;
        let stop = Arc::new(AtomicBool::new(false));
        let tables = Arc::new(EpochTables::new(ShardTables::build(config.routes)));
        let shards: Vec<Arc<Shard>> = (0..config.shards)
            .map(|id| Arc::new(Shard::new(id, config.queue_cap)))
            .collect();
        let router = Router::new(shards.iter().map(|s| Arc::clone(&s.queue)).collect());
        let (control, control_thread) =
            spawn_control_worker(tables, shards.clone(), Arc::clone(&stop));
        let shared = Arc::new(Shared {
            router,
            shards,
            counters: ServerCounters::default(),
            config,
            stop,
            draining: AtomicBool::new(false),
            started: Instant::now(),
            tracer,
            frontend: FrontendStats::default(),
            control,
        });
        Ok((shared, control_thread))
    }

    /// Total shard restarts so far.
    pub(crate) fn shard_restarts(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.restarts.load(Ordering::Acquire))
            .sum()
    }
}

/// A running service instance.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), builds the
    /// shards, and spawns the control worker and the reactor.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, span-export file creation failures and
    /// reactor poller, wake-pipe and thread-spawn failures.
    pub fn start(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (shared, control) = Shared::start(config)?;
        // Built before the reactor spawns, which hands the server each
        // reactor thread as it starts: a failed spawn drops the server,
        // which stops and joins every thread already running.
        let mut server = Server {
            shared,
            local_addr,
            threads: vec![control],
        };
        crate::reactor::spawn(listener, &server.shared, &mut server.threads)?;
        Ok(server)
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Total shard restarts so far.
    pub fn shard_restarts(&self) -> u64 {
        self.shared.shard_restarts()
    }

    /// Whether a shutdown has been requested (frame or [`Server::stop`]).
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Blocks until the service shuts down (via a shutdown frame or
    /// [`Server::stop`]), then joins every thread.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Requests shutdown from the host process (equivalent to a shutdown
    /// frame, minus the drain).
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.tracer.flush();
    }

    /// The request tracer (span counts, live stage histograms, span
    /// export). Always present; disabled unless
    /// [`crate::TracingConfig::enabled`] was set.
    pub fn tracer(&self) -> &ServeTracer {
        &self.shared.tracer
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
