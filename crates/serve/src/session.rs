//! One connection's protocol, with no transport attached.
//!
//! A [`Session`] makes every decision the frame protocol asks for: the
//! `Hello` version settlement and the settled-version gate on control
//! frames, submit routing (all-or-nothing enqueue, deferral on a full
//! shard queue), drain and shutdown parked until the shard fleet is
//! quiescent, route mutations parked on the control worker, kill, stats
//! and the stats stream, and the `busy`/`errors` bookkeeping. `Request`
//! is dispatched here and nowhere else.
//!
//! Inputs are a decoded frame ([`Session::on_frame`]), a completion poll
//! ([`Session::poll`]: shard outcomes, control-worker outcomes, drain
//! quiescence, deferred-submit retries, deadlines) and a clock tick
//! ([`Session::tick`]: stats-stream pushes). Outputs are the responses
//! handed to an [`Egress`], plus what the transport may do next:
//! [`Session::may_read`] and [`Session::closing`]. Time is an input too,
//! so a test can drive a session with in-memory frames and a chosen
//! clock.
//!
//! One request is in flight per session at a time, which bounds
//! server-side memory per connection. A submit that meets a full shard
//! queue is deferred (its packets stay in the session's scratch) and
//! retried on every poll; only a deferral that outlives `job_timeout`
//! becomes a `Busy` response. Fan-in thus meets flow control instead of
//! a Busy storm, with the router's all-or-nothing semantics unchanged.

use crate::backend;
use crate::frame::{
    decode_submit_into, is_submit, settle_version, Request, Response, ServerHello, SubmitOptions,
    CAP_CONTROL, CAP_TRACING, PROTOCOL_MIN_SUPPORTED, PROTOCOL_VERSION,
};
use crate::queue::{JobOutcome, Reply, ReplyWaker};
use crate::router::ShardSplitter;
use crate::server::Shared;
use crate::tables::{ControlOp, ControlOutcome};
use crate::tracing::PendingSpan;
use memsync_netapp::Ipv4Packet;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a session's responses go.
pub(crate) trait Egress {
    /// Takes one encoded response payload (without its length prefix).
    fn send(&mut self, payload: &[u8]);
}

/// Outstanding submit: outcomes still being collected from the shards.
#[derive(Debug)]
struct PendingSubmit {
    rx: Receiver<JobOutcome>,
    jobs_left: usize,
    forwarded: u32,
    dropped: u32,
    mismatches: u32,
    span: Option<PendingSpan>,
    deadline: Instant,
}

/// What a session is waiting on.
#[derive(Debug, Default)]
enum Work {
    #[default]
    Idle,
    Submit(PendingSubmit),
    /// A submit parked on a full shard queue; the packets stay in the
    /// session scratch.
    Deferred {
        options: SubmitOptions,
        decode_ns: u64,
        blocked_shard: u16,
        deadline: Instant,
    },
    /// A drain or shutdown waiting for the shard fleet to go quiescent.
    Drain {
        shutdown: bool,
        deadline: Instant,
    },
    /// A route mutation waiting for the control worker to publish the
    /// new generation and run the shard drain barrier (or refuse it).
    Route {
        rx: Receiver<Result<ControlOutcome, String>>,
        deadline: Instant,
    },
}

/// The protocol state of one connection.
#[derive(Debug)]
pub(crate) struct Session {
    shared: Arc<Shared>,
    /// Wakes the transport when a shard or the control worker delivers
    /// an outcome.
    waker: Arc<dyn ReplyWaker>,
    /// Protocol version the `Hello` handshake settled; `None` until then.
    settled: Option<u16>,
    /// Decoded submit scratch, reused across submits.
    packets: Vec<Ipv4Packet>,
    splitter: ShardSplitter,
    encoded: Vec<u8>,
    work: Work,
    stream_every: Option<Duration>,
    last_push: Instant,
    closing: bool,
    /// Raise the service stop flag when the session ends (set once the
    /// shutdown requester has its `Ok`).
    stops_server: bool,
}

impl Session {
    pub(crate) fn new(shared: Arc<Shared>, waker: Arc<dyn ReplyWaker>, now: Instant) -> Session {
        let splitter = ShardSplitter::new(shared.router.shards());
        Session {
            shared,
            waker,
            settled: None,
            packets: Vec::new(),
            splitter,
            encoded: Vec::new(),
            work: Work::Idle,
            stream_every: None,
            last_push: now,
            closing: false,
            stops_server: false,
        }
    }

    /// Whether the transport may hand this session another frame.
    pub(crate) fn may_read(&self) -> bool {
        !self.closing && !self.busy()
    }

    /// Whether a request is in flight (the transport keeps polling).
    pub(crate) fn busy(&self) -> bool {
        !matches!(self.work, Work::Idle)
    }

    /// Whether the transport closes the connection once its egress
    /// drains. Closing a session that answered a shutdown stops the
    /// server.
    pub(crate) fn closing(&self) -> bool {
        self.closing
    }

    /// Whether the peer subscribed to the stats stream. Such a peer is
    /// deliberately quiet: the pushes are its liveness signal.
    pub(crate) fn streaming(&self) -> bool {
        self.stream_every.is_some()
    }

    /// Serves one complete client frame.
    pub(crate) fn on_frame(&mut self, payload: &[u8], now: Instant, out: &mut impl Egress) {
        let decode_started = self.shared.tracer.enabled().then(Instant::now);
        let decode_ns = || decode_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // Any complete client frame ends an active stats stream.
        self.stream_every = None;
        // Submit fast path: decode straight into the packet scratch;
        // `Request::decode` would allocate a fresh Vec per batch.
        if self.settled.is_some() && is_submit(payload) {
            match decode_submit_into(payload, &mut self.packets) {
                Ok(options) => self.start_submit(options, decode_ns(), now, out),
                Err(e) => self.send(&Response::Error(e.to_string()), out),
            }
            return;
        }
        let req = match Request::decode(payload) {
            Ok(req) => req,
            Err(e) => return self.send(&Response::Error(e.to_string()), out),
        };
        let version = self.settled.unwrap_or(PROTOCOL_MIN_SUPPORTED);
        let rsp = match req {
            // Idempotent: a repeated Hello re-settles and re-states the
            // capability block.
            Request::Hello {
                min_version,
                max_version,
            } => match settle_version(min_version, max_version) {
                Some(version) => {
                    self.settled = Some(version);
                    Response::Hello(server_hello(&self.shared, version))
                }
                None => {
                    self.closing = true;
                    Response::Error(format!(
                        "no common protocol version: client speaks \
                         {min_version}..={max_version}, server speaks \
                         {PROTOCOL_MIN_SUPPORTED}..={PROTOCOL_VERSION}"
                    ))
                }
            },
            // A pre-handshake request means the peer does not speak
            // protocol v2+. RSP_ERROR has existed since v1, so even an
            // old client decodes this; closing keeps the stream at a
            // frame boundary.
            req if self.settled.is_none() => {
                self.closing = true;
                Response::Error(format!(
                    "expected hello before {}: this server speaks protocol \
                     v{PROTOCOL_VERSION}, which negotiates at connect time",
                    req.name()
                ))
            }
            // The capability is advertised, but the settled version gates
            // it: a connection negotiated down to v2 must not send v3
            // frames.
            req if req.is_control() && version < 3 => Response::Error(format!(
                "{} is a protocol-v3 control frame; this connection settled v{version}",
                req.name()
            )),
            req if req.is_control() && self.shared.draining.load(Ordering::Acquire) => {
                Response::Error("draining: control plane refused".into())
            }
            Request::RouteAdd(routes) => return self.start_route(ControlOp::Add(routes), now, out),
            Request::RouteWithdraw(prefixes) => {
                return self.start_route(ControlOp::Withdraw(prefixes), now, out)
            }
            Request::SwapDefault { next_hop } => {
                return self.start_route(ControlOp::SwapDefault(next_hop), now, out)
            }
            Request::Submit { packets, options } => {
                self.packets = packets;
                return self.start_submit(options, decode_ns(), now, out);
            }
            Request::Stats => Response::Stats(render_stats(&self.shared)),
            Request::StatsStream { interval_ms: 0 } => {
                Response::Error("stats-stream interval must be nonzero".into())
            }
            Request::StatsStream { interval_ms } => {
                // The first push is the response; `tick` keeps the cadence.
                self.stream_every = Some(Duration::from_millis(u64::from(interval_ms)));
                self.last_push = now;
                Response::StatsPush(render_stats(&self.shared))
            }
            Request::Drain | Request::Shutdown => {
                let shutdown = matches!(req, Request::Shutdown);
                self.shared.draining.store(true, Ordering::Release);
                self.shared.tracer.flush();
                self.work = Work::Drain {
                    shutdown,
                    deadline: now + self.shared.config.job_timeout,
                };
                return self.poll(now, out);
            }
            Request::Kill(shard) => match self.shared.shards.get(shard as usize) {
                Some(s) => {
                    s.die.store(true, Ordering::Release);
                    Response::Ok
                }
                None => Response::Error(format!("no shard {shard}")),
            },
        };
        self.send(&rsp, out);
    }

    /// Collects whatever the parked request was waiting for and answers
    /// it once complete, failed or past its deadline.
    pub(crate) fn poll(&mut self, now: Instant, out: &mut impl Egress) {
        let rsp = match &mut self.work {
            Work::Idle => return,
            Work::Submit(p) => {
                let failed = loop {
                    if p.jobs_left == 0 {
                        break None;
                    }
                    match p.rx.try_recv() {
                        Ok(o) => {
                            p.jobs_left -= 1;
                            p.forwarded += o.forwarded;
                            p.dropped += o.dropped;
                            p.mismatches += o.mismatches;
                            if let (Some(span), Some(t)) = (p.span.as_mut(), o.timings) {
                                span.timings.push(t);
                            }
                        }
                        Err(TryRecvError::Empty) if now < p.deadline => return,
                        Err(e) => break Some(e),
                    }
                };
                if let Some(e) = failed {
                    // A shard that dies mid-batch drops its jobs: the
                    // submit fails, the client retries, and nothing is
                    // lost or processed twice.
                    self.shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error(match e {
                        TryRecvError::Empty => "job timed out".into(),
                        TryRecvError::Disconnected => "shard failed mid-batch; resubmit".into(),
                    })
                } else {
                    let Work::Submit(p) = std::mem::take(&mut self.work) else {
                        unreachable!("matched above")
                    };
                    let rsp = Response::Batch {
                        forwarded: p.forwarded,
                        dropped: p.dropped,
                        mismatches: p.mismatches,
                    };
                    let write_started = p.span.as_ref().map(|_| Instant::now());
                    self.send(&rsp, out);
                    if let (Some(span), Some(t)) = (p.span, write_started) {
                        self.shared
                            .tracer
                            .finish(&span, t.elapsed().as_nanos() as u64);
                    }
                    return;
                }
            }
            Work::Deferred {
                options,
                decode_ns,
                blocked_shard,
                deadline,
            } => {
                let (options, decode_ns) = (*options, *decode_ns);
                if now >= *deadline {
                    self.shared.counters.busy.fetch_add(1, Ordering::Relaxed);
                    Response::Busy(*blocked_shard)
                } else {
                    match self.try_submit(options, decode_ns, now) {
                        Ok(()) => {
                            self.shared
                                .frontend
                                .deferred_now
                                .fetch_sub(1, Ordering::Relaxed);
                            return self.poll(now, out);
                        }
                        Err(shard) => {
                            if let Work::Deferred { blocked_shard, .. } = &mut self.work {
                                *blocked_shard = shard;
                            }
                            return;
                        }
                    }
                }
            }
            Work::Drain { shutdown, deadline } => {
                let quiesced = self.shared.shards.iter().all(|s| s.quiescent())
                    && self.shared.frontend.deferred_now.load(Ordering::Relaxed) == 0;
                if !quiesced && now < *deadline {
                    return;
                }
                if *shutdown {
                    // Shutdown answers Ok even past the drain deadline;
                    // the stop flag goes up when the session ends, after
                    // the Ok has left its egress.
                    self.shared.tracer.flush();
                    self.closing = true;
                    self.stops_server = true;
                    Response::Ok
                } else if quiesced {
                    Response::Drained
                } else {
                    Response::Error("drain timed out".into())
                }
            }
            Work::Route { rx, deadline } => match rx.try_recv() {
                Ok(Ok(o)) => Response::RouteUpdated {
                    generation: o.generation,
                    routes: o.routes,
                    applied: o.applied,
                },
                Ok(Err(refusal)) => Response::Error(refusal),
                Err(TryRecvError::Empty) if now < *deadline => return,
                Err(e) => {
                    self.shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error(match e {
                        TryRecvError::Empty => "control op timed out".into(),
                        TryRecvError::Disconnected => "control worker died; retry".into(),
                    })
                }
            },
        };
        if matches!(self.work, Work::Deferred { .. }) {
            self.shared
                .frontend
                .deferred_now
                .fetch_sub(1, Ordering::Relaxed);
        }
        self.work = Work::Idle;
        self.send(&rsp, out);
    }

    /// Pushes a stats document to a stream subscriber whose interval is
    /// due. `doc` is rendered at most once per tick across sessions.
    pub(crate) fn tick(&mut self, now: Instant, doc: &mut Option<String>, out: &mut impl Egress) {
        let Some(every) = self.stream_every else {
            return;
        };
        if self.may_read() && now.duration_since(self.last_push) >= every {
            self.last_push = now;
            let doc = doc.get_or_insert_with(|| render_stats(&self.shared));
            self.send(&Response::StatsPush(doc.clone()), out);
        }
    }

    fn send(&mut self, rsp: &Response, out: &mut impl Egress) {
        rsp.encode_into(&mut self.encoded);
        out.send(&self.encoded);
    }

    /// Routes the decoded submit in the packet scratch, deferring it when
    /// a target shard queue is full.
    fn start_submit(
        &mut self,
        options: SubmitOptions,
        decode_ns: u64,
        now: Instant,
        out: &mut impl Egress,
    ) {
        if self.shared.draining.load(Ordering::Acquire) {
            return self.send(
                &Response::Error("draining: new submits refused".into()),
                out,
            );
        }
        if self.packets.is_empty() {
            let empty = Response::Batch {
                forwarded: 0,
                dropped: 0,
                mismatches: 0,
            };
            return self.send(&empty, out);
        }
        match self.try_submit(options, decode_ns, now) {
            // An empty split (jobs == 0) resolves on the spot.
            Ok(()) => self.poll(now, out),
            Err(shard) => {
                self.work = Work::Deferred {
                    options,
                    decode_ns,
                    blocked_shard: shard,
                    deadline: now + self.shared.config.job_timeout,
                };
                let fe = &self.shared.frontend;
                fe.deferred_submits.fetch_add(1, Ordering::Relaxed);
                fe.deferred_now.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One router submit of the packet scratch: `Ok` parks the session
    /// on the shard outcomes, `Err(shard)` names a full shard queue.
    fn try_submit(
        &mut self,
        options: SubmitOptions,
        decode_ns: u64,
        now: Instant,
    ) -> Result<(), u16> {
        let shared = &self.shared;
        let (tx, rx) = channel();
        let reply = Reply::with_waker(tx, Arc::clone(&self.waker));
        let submitted = shared
            .router
            .submit(&mut self.splitter, &self.packets, options, &reply);
        reply.drop_quietly();
        let jobs = submitted?;
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        // With tracing off a client-tagged span id is ignored: the shards
        // recorded no timings, so there is nothing to build.
        let span = shared.tracer.enabled().then(|| {
            let (span_id, client_assigned) = shared.tracer.assign(options.span_id);
            PendingSpan {
                span_id,
                client_assigned,
                decode_ns,
                timings: Vec::new(),
            }
        });
        self.work = Work::Submit(PendingSubmit {
            rx,
            jobs_left: jobs,
            forwarded: 0,
            dropped: 0,
            mismatches: 0,
            span,
            deadline: now + shared.config.job_timeout,
        });
        Ok(())
    }

    /// Hands a route mutation to the control worker and parks the
    /// session until its outcome; the worker's rebuild never runs on the
    /// transport's thread.
    fn start_route(&mut self, op: ControlOp, now: Instant, out: &mut impl Egress) {
        let (tx, rx) = channel();
        let reply = Reply::with_waker(tx, Arc::clone(&self.waker));
        if !self.shared.control.submit(op, reply) {
            return self.send(&Response::Error("control plane stopped".into()), out);
        }
        self.work = Work::Route {
            rx,
            deadline: now + self.shared.config.job_timeout,
        };
        self.poll(now, out);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if matches!(self.work, Work::Deferred { .. }) {
            self.shared
                .frontend
                .deferred_now
                .fetch_sub(1, Ordering::Relaxed);
        }
        if self.stops_server {
            self.shared.stop.store(true, Ordering::Release);
            self.shared.tracer.flush();
        }
    }
}

/// The capability block a `Hello` settling `version` answers with.
fn server_hello(shared: &Shared, version: u16) -> ServerHello {
    ServerHello {
        // The settled version for *this* connection: a v2 client reads
        // back v2 and never sends control frames.
        version,
        capabilities: backend::capability_bits() | CAP_TRACING | CAP_CONTROL,
        backend: shared.config.backend,
        shards: shared.config.shards as u16,
        egress: shared.config.egress as u16,
        routes: shared.config.routes as u32,
    }
}

/// The stats document (the Stats response and every StatsPush).
fn render_stats(shared: &Shared) -> String {
    crate::stats::snapshot(shared).to_json().render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, ServeConfig};
    use memsync_netapp::fib::Route;
    use memsync_netapp::Workload;

    #[derive(Debug)]
    struct NoWake;

    impl ReplyWaker for NoWake {
        fn wake(&self) {}
    }

    impl Egress for Vec<Response> {
        fn send(&mut self, payload: &[u8]) {
            self.push(Response::decode(payload).expect("session encodes valid responses"));
        }
    }

    /// Feeds `req` and polls until the session answers it.
    fn serve(session: &mut Session, req: &Request) -> Response {
        let mut out = Vec::new();
        session.on_frame(&req.encode(), Instant::now(), &mut out);
        while out.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
            session.poll(Instant::now(), &mut out);
        }
        assert!(!session.busy());
        assert_eq!(out.len(), 1, "one response per request: {out:?}");
        out.remove(0)
    }

    #[test]
    fn session_serves_hello_submit_route_add_and_drain_without_a_socket() {
        let config = ServeConfig {
            shards: 2,
            egress: 2,
            routes: 16,
            backend: BackendKind::Fast,
            ..ServeConfig::default()
        };
        let (shared, threads) = Shared::start(config).expect("start the service plane");
        let mut session = Session::new(Arc::clone(&shared), Arc::new(NoWake), Instant::now());

        let early = serve(&mut session, &Request::Stats);
        assert!(matches!(early, Response::Error(ref m) if m.contains("expected hello")));
        assert!(session.closing(), "a pre-handshake frame closes");
        let mut session = Session::new(Arc::clone(&shared), Arc::new(NoWake), Instant::now());
        let hello = Request::Hello {
            min_version: PROTOCOL_MIN_SUPPORTED,
            max_version: PROTOCOL_VERSION,
        };
        match serve(&mut session, &hello) {
            Response::Hello(h) => assert_eq!((h.version, h.shards), (PROTOCOL_VERSION, 2)),
            other => panic!("expected Hello, got {other:?}"),
        }

        let w = Workload::generate(4, 64, 16);
        let (fwd, dropped_ref) = w.reference_forward();
        let submit = Request::Submit {
            packets: w.packets.clone(),
            options: SubmitOptions::new().verify(true),
        };
        match serve(&mut session, &submit) {
            Response::Batch {
                forwarded,
                dropped,
                mismatches,
            } => assert_eq!(
                (forwarded as usize, dropped as usize, mismatches),
                (fwd, dropped_ref, 0)
            ),
            other => panic!("expected Batch, got {other:?}"),
        }

        let before = shared.control.tables.routes();
        let add = Request::RouteAdd(vec![Route {
            prefix: 0xC612_0000,
            len: 24,
            next_hop: 9_000,
        }]);
        match serve(&mut session, &add) {
            Response::RouteUpdated {
                generation,
                routes,
                applied,
            } => assert_eq!((generation, u64::from(routes), applied), (2, before + 1, 1)),
            other => panic!("expected RouteUpdated, got {other:?}"),
        }

        assert_eq!(serve(&mut session, &Request::Drain), Response::Drained);
        let refused = serve(&mut session, &submit);
        assert!(matches!(refused, Response::Error(ref m) if m.contains("draining")));
        assert!(session.may_read(), "a refusal keeps the connection");
        assert_eq!(shared.counters.accepted.load(Ordering::Relaxed), 1);

        assert_eq!(serve(&mut session, &Request::Shutdown), Response::Ok);
        assert!(session.closing() && !shared.stop.load(Ordering::Acquire));
        drop(session);
        assert!(
            shared.stop.load(Ordering::Acquire),
            "the ended session stops the server"
        );
        for t in threads {
            t.join().expect("shard and control threads exit");
        }
    }
}
