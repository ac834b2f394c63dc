//! The transport: a few reactor threads multiplex every connection
//! through an epoll event loop around each connection's `Session`.
//!
//! The reactor does I/O and nothing else: it accepts and deals
//! connections across `config.reactor_threads` event loops, reads and
//! frames requests, queues and flushes responses, and enforces the idle
//! and write deadlines. Every protocol decision is the session's. It is
//! the process-level analogue of the paper's multi-port memory
//! controller: many requesters multiplexed onto a fixed set of service
//! ports, held back by flow control instead of unbounded buffering.
//!
//! Per connection:
//!
//! * **reads** fill one small read-ahead buffer per reactor thread with
//!   a single `read(2)` and frame requests out of it through the
//!   resumable [`FrameReader`]; a large payload remainder is read
//!   straight into the frame buffer instead. Bytes the session cannot
//!   take yet (it has a request in flight) wait in a per-connection
//!   backlog that exists only while it holds bytes, and are framed as
//!   soon as the session is idle again;
//! * **writes** go through the [`FrameWriter`] egress queue, resuming
//!   partial writes on writable events;
//! * **backpressure** is by interest, not by buffering: a connection
//!   whose session is busy, or whose unread responses pass
//!   [`EGRESS_HIGH_WATER`], is not read. Read interest is dropped only
//!   when such a connection reports readable (a closed-loop peer never
//!   does, so it costs no poller syscalls); the bytes then back up into
//!   the peer's socket and server-side memory stays bounded. Reads
//!   resume once the session is idle and egress is under
//!   [`EGRESS_LOW_WATER`] (hysteresis, so interest doesn't flap).
//!
//! Shard threads and the control worker wake the loop through the
//! [`crate::queue::Reply`] waker (a self-pipe registered at token 0); a
//! periodic sweep covers what wakes cannot (work deadlines, idle and
//! write deadlines, stats-stream pushes).

use crate::frame::{write_frame, FrameReader, FrameWriter, Response};
use crate::queue::ReplyWaker;
use crate::server::Shared;
use crate::session::{Egress, Session};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod poller;
pub(crate) mod sys;

use poller::{Event, Interest, WakeReceiver, Waker};

/// Egress bytes at which a connection stops being read: the peer is not
/// consuming responses, so the server stops consuming its requests
/// rather than buffering without bound.
pub const EGRESS_HIGH_WATER: usize = 256 * 1024;

/// Egress bytes under which reads resume after a high-water pause (well
/// under [`EGRESS_HIGH_WATER`] so interest doesn't flap around a single
/// threshold).
pub const EGRESS_LOW_WATER: usize = EGRESS_HIGH_WATER / 4;

/// Size of a reactor thread's read-ahead buffer: one `read(2)` takes a
/// small request whole, prefix and payload.
const READ_AHEAD: usize = 8 * 1024;

/// Sweep cadence for everything wakes can't deliver: work deadlines,
/// idle and write deadlines, and stats-stream pushes.
const TICK: Duration = Duration::from_millis(25);

/// Longest poller park with no work outstanding: stop flags are
/// observed at least this often.
const POLL: Duration = Duration::from_millis(50);

/// First pause after an fd-exhaustion accept failure; doubles up to
/// [`ACCEPT_BACKOFF_MAX`] while the condition persists.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Longest fd-exhaustion accept pause.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Poller token of the wake pipe; connection tokens are `slot + 1`.
const WAKE_TOKEN: u64 = 0;

/// Whether an accept failure means the process (`EMFILE`) or system
/// (`ENFILE`) is out of file descriptors. Retrying immediately cannot
/// succeed: the accept loop must pause and let connections close.
fn is_fd_exhaustion(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24)) // ENFILE | EMFILE
}

/// Tells an over-cap client why it is being dropped: a best-effort
/// blocking write of the `Error` response frame (decodable by every
/// protocol version: the error frame has existed since v1) before close,
/// so the peer sees a reason instead of a bare RST.
fn reject_over_capacity(mut stream: TcpStream, shared: &Shared) {
    shared.frontend.conn_rejects.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut payload = Vec::new();
    Response::Error(format!(
        "connection limit reached ({} open); retry later",
        shared.config.max_conns
    ))
    .encode_into(&mut payload);
    let _ = write_frame(&mut stream, &payload);
}

/// Spawns the reactor: `config.reactor_threads` event loops (0 = one
/// per available CPU) plus the sharding accept thread. Every poller and
/// wake pipe is built before the first thread starts, and each handle
/// goes onto `threads` as its thread starts, so on a failed spawn
/// `threads` still holds everything running. They all exit once
/// `shared.stop` is raised.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: &Arc<Shared>,
    threads: &mut Vec<JoinHandle<()>>,
) -> io::Result<()> {
    let count = match shared.config.reactor_threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    };
    let mut reactors = Vec::with_capacity(count);
    let mut inboxes = Vec::with_capacity(count);
    for _ in 0..count {
        let (tx, rx) = channel::<TcpStream>();
        let (waker, wake_rx) = poller::waker_pair()?;
        let waker = Arc::new(waker);
        reactors.push(Reactor::new(
            Arc::clone(shared),
            rx,
            Arc::clone(&waker),
            wake_rx,
        )?);
        inboxes.push((tx, waker));
    }
    // The listener gets its own poller so accept wakes on demand but
    // still observes the stop flag every POLL.
    let mut accept_poller = poller::Poller::new()?;
    accept_poller.register(
        listener.as_raw_fd(),
        0,
        Interest {
            readable: true,
            writable: false,
        },
    )?;
    for (i, mut reactor) in reactors.into_iter().enumerate() {
        threads.push(
            std::thread::Builder::new()
                .name(format!("memsync-reactor-{i}"))
                .spawn(move || reactor.run())
                .map_err(|e| io::Error::new(e.kind(), "reactor thread spawn failed"))?,
        );
    }
    let shared = Arc::clone(shared);
    threads.push(
        std::thread::Builder::new()
            .name("memsync-accept".into())
            .spawn(move || accept_loop(&listener, accept_poller, &shared, &inboxes))
            .map_err(|e| io::Error::new(e.kind(), "accept thread spawn failed"))?,
    );
    Ok(())
}

/// Accepts connections and deals them round-robin across the reactor
/// threads, enforcing the connection cap and pausing (with backoff)
/// under fd exhaustion instead of hot-spinning.
fn accept_loop(
    listener: &TcpListener,
    mut poller: poller::Poller,
    shared: &Shared,
    inboxes: &[(Sender<TcpStream>, Arc<Waker>)],
) {
    let mut events = Vec::new();
    let mut next = 0usize;
    let mut backoff = ACCEPT_BACKOFF_MIN;
    while !shared.stop.load(Ordering::Acquire) {
        events.clear();
        let _ = poller.wait(&mut events, POLL);
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    backoff = ACCEPT_BACKOFF_MIN;
                    if shared.frontend.conns_open.load(Ordering::Relaxed)
                        >= shared.config.max_conns as u64
                    {
                        reject_over_capacity(stream, shared);
                        continue;
                    }
                    // Accepted sockets do not inherit the listener's
                    // nonblocking flag; set it before the reactor ever
                    // touches the stream.
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Request/response over small frames: Nagle only
                    // adds latency here (the client disables it too).
                    let _ = stream.set_nodelay(true);
                    shared.frontend.conn_opened();
                    let (tx, waker) = &inboxes[next % inboxes.len()];
                    next = next.wrapping_add(1);
                    if tx.send(stream).is_ok() {
                        waker.wake();
                    } else {
                        shared.frontend.conn_closed();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if is_fd_exhaustion(&e) => {
                    shared
                        .frontend
                        .accept_pauses
                        .fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    break;
                }
                Err(_) => {
                    std::thread::sleep(POLL);
                    break;
                }
            }
        }
    }
}

/// A connection's socket and egress queue: the [`Egress`] its session
/// answers into. Each response is queued and flushed as far as the
/// socket takes it.
#[derive(Debug)]
struct Link {
    stream: TcpStream,
    out: FrameWriter,
    /// When egress last made progress or became non-empty: the write
    /// deadline's clock.
    wrote: Instant,
    /// A write failed hard; the connection is dead.
    failed: bool,
}

impl Link {
    fn flush(&mut self) {
        if self.failed {
            return;
        }
        let before = self.out.pending();
        match self.out.write(&mut &self.stream) {
            Ok(_) if self.out.pending() < before => self.wrote = Instant::now(),
            Ok(_) => {}
            Err(_) => self.failed = true,
        }
    }
}

impl Egress for Link {
    fn send(&mut self, payload: &[u8]) {
        if self.out.is_empty() {
            self.wrote = Instant::now();
        }
        self.out.enqueue(payload);
        self.flush();
    }
}

/// What the frame decoder reads from: read-ahead bytes, then, for a
/// payload remainder of at least [`READ_AHEAD`] bytes, the socket
/// itself, so a large frame is not copied through the small buffer.
struct Feed<'a> {
    bytes: &'a [u8],
    stream: &'a TcpStream,
}

impl Read for Feed<'_> {
    fn read(&mut self, dst: &mut [u8]) -> io::Result<usize> {
        if !self.bytes.is_empty() {
            self.bytes.read(dst)
        } else if dst.len() >= READ_AHEAD {
            self.stream.read(dst)
        } else {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }
}

/// Per-connection I/O state around the connection's [`Session`].
#[derive(Debug)]
struct Conn {
    link: Link,
    frames: FrameReader,
    /// Read-ahead bytes not framed yet: non-empty only while the session
    /// cannot take the requests they hold (a pipelining peer).
    backlog: Vec<u8>,
    session: Session,
    /// In the reactor's work list (dedup flag).
    queued: bool,
    /// Registered poller interest (skips no-op poller syscalls).
    read_on: bool,
    write_on: bool,
    /// Reads paused at the egress high-water mark until egress falls
    /// under the low-water mark.
    paused_hw: bool,
    /// Last time the connection was anything but idle: the idle
    /// deadline's clock.
    active: Instant,
}

impl Conn {
    fn wants_read(&self) -> bool {
        self.session.may_read() && !self.paused_hw && self.link.out.pending() < EGRESS_HIGH_WATER
    }

    /// Reads and serves requests until the socket has nothing more for
    /// now or the session stops taking requests. `Err` means the
    /// connection is finished: the peer closed, I/O failed, or a frame
    /// broke the protocol.
    fn pump(&mut self, rbuf: &mut [u8], now: Instant) -> io::Result<()> {
        if !self.backlog.is_empty() {
            let mut backlog = std::mem::take(&mut self.backlog);
            let used = self.serve(&backlog, now)?;
            if used < backlog.len() {
                backlog.drain(..used);
                self.backlog = backlog;
                return Ok(());
            }
        }
        while self.wants_read() {
            let n = match (&self.link.stream).read(rbuf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            };
            self.active = now;
            let used = self.serve(&rbuf[..n], now)?;
            if used < n {
                self.backlog.extend_from_slice(&rbuf[used..n]);
                return Ok(());
            }
            if n < rbuf.len() {
                // The socket is drained; the poller reports what comes
                // next.
                return Ok(());
            }
        }
        Ok(())
    }

    /// Frames and serves requests from `bytes` while the session takes
    /// them; returns how many bytes were consumed.
    fn serve(&mut self, bytes: &[u8], now: Instant) -> io::Result<usize> {
        let mut used = 0;
        while self.wants_read() {
            let mut feed = Feed {
                bytes: &bytes[used..],
                stream: &self.link.stream,
            };
            let frame = self.frames.read(&mut feed);
            used = bytes.len() - feed.bytes.len();
            match frame {
                Ok(Some(payload)) => self.session.on_frame(payload, now, &mut self.link),
                // The feed only reports end of stream mid-payload, which
                // the decoder turns into an error; treat any other as one.
                Ok(None) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
            if self.link.failed {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
        }
        Ok(used)
    }
}

/// One event-loop thread: owns a poller, its deal of the connections,
/// and the wake pipe shard threads signal through.
struct Reactor {
    shared: Arc<Shared>,
    poller: poller::Poller,
    waker: Arc<Waker>,
    wake_rx: WakeReceiver,
    inbox: Receiver<TcpStream>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots with a request in flight, deduplicated via `Conn::queued`.
    work: Vec<usize>,
    /// The list `process_work` swaps in for `work` while it walks the
    /// old one, so re-queueing a busy session reuses capacity instead
    /// of allocating.
    spare_work: Vec<usize>,
    /// The read-ahead buffer, shared by this thread's connections: an
    /// idle connection holds no read buffer.
    rbuf: Box<[u8]>,
    last_sweep: Instant,
}

impl Reactor {
    fn new(
        shared: Arc<Shared>,
        inbox: Receiver<TcpStream>,
        waker: Arc<Waker>,
        wake_rx: WakeReceiver,
    ) -> io::Result<Reactor> {
        let mut poller = poller::Poller::new()?;
        poller.register(
            wake_rx.raw_fd(),
            WAKE_TOKEN,
            Interest {
                readable: true,
                writable: false,
            },
        )?;
        Ok(Reactor {
            shared,
            poller,
            waker,
            wake_rx,
            inbox,
            conns: Vec::new(),
            free: Vec::new(),
            work: Vec::new(),
            spare_work: Vec::new(),
            rbuf: vec![0; READ_AHEAD].into_boxed_slice(),
            last_sweep: Instant::now(),
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.shared.stop.load(Ordering::Acquire) {
            // With work outstanding, cap the park so deadlines and
            // missed wakes are still observed promptly.
            let timeout = if self.work.is_empty() { POLL } else { TICK };
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller is unrecoverable for this thread; back
                // off so a persistent failure doesn't spin.
                std::thread::sleep(POLL);
            }
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    self.wake_rx.drain();
                    continue;
                }
                let idx = (ev.token - 1) as usize;
                if ev.hangup {
                    self.close_conn(idx);
                    continue;
                }
                if ev.writable {
                    self.drive_write(idx);
                }
                if ev.readable {
                    self.drive_read(idx);
                }
            }
            self.adopt_new_conns();
            self.process_work();
            self.sweep();
        }
        self.shutdown_all();
    }

    /// Moves accepted connections from the inbox into poller slots.
    fn adopt_new_conns(&mut self) {
        while let Ok(stream) = self.inbox.try_recv() {
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let registered = self.poller.register(
                stream.as_raw_fd(),
                idx as u64 + 1,
                Interest {
                    readable: true,
                    writable: false,
                },
            );
            if registered.is_err() {
                self.free.push(idx);
                self.shared.frontend.conn_closed();
                continue;
            }
            let now = Instant::now();
            let waker = Arc::clone(&self.waker) as Arc<dyn ReplyWaker>;
            self.conns[idx] = Some(Conn {
                link: Link {
                    stream,
                    out: FrameWriter::new(),
                    wrote: now,
                    failed: false,
                },
                frames: FrameReader::new(),
                backlog: Vec::new(),
                session: Session::new(Arc::clone(&self.shared), waker, now),
                queued: false,
                read_on: true,
                write_on: false,
                paused_hw: false,
                active: now,
            });
        }
    }

    /// Serves a readable connection, or, when it cannot take requests
    /// now, stops hearing about it until it can.
    fn drive_read(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if conn.wants_read() {
            if conn.pump(&mut self.rbuf, Instant::now()).is_err() {
                return self.close_conn(idx);
            }
        } else if conn.read_on {
            // The peer keeps sending while a request is in flight (or
            // egress is backed up): the bytes wait in its socket.
            if !conn.session.closing() {
                self.shared
                    .frontend
                    .read_pauses
                    .fetch_add(1, Ordering::Relaxed);
            }
            let write_on = conn.write_on;
            return self.set_interest(idx, false, write_on);
        }
        self.after_io(idx);
    }

    /// Flushes pending egress on a writable event.
    fn drive_write(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            conn.link.flush();
            self.after_io(idx);
        }
    }

    /// Polls every session with a request in flight.
    fn process_work(&mut self) {
        if self.work.is_empty() {
            return;
        }
        let now = Instant::now();
        let spare = std::mem::take(&mut self.spare_work);
        let mut list = std::mem::replace(&mut self.work, spare);
        for &idx in &list {
            if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                conn.queued = false;
                conn.session.poll(now, &mut conn.link);
                self.after_io(idx);
            }
        }
        list.clear();
        self.spare_work = list;
    }

    /// Settles a connection after any I/O or session step: closes it if
    /// it is finished, frames backlog the session can take again (no
    /// readiness event announces bytes already read), queues a busy
    /// session for polling, and re-arms interest.
    fn after_io(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let pending = conn.link.out.pending();
        if pending >= EGRESS_HIGH_WATER {
            conn.paused_hw = true;
        } else if pending < EGRESS_LOW_WATER {
            conn.paused_hw = false;
        }
        if conn.wants_read()
            && !conn.backlog.is_empty()
            && conn.pump(&mut self.rbuf, Instant::now()).is_err()
        {
            return self.close_conn(idx);
        }
        if conn.link.failed || (conn.session.closing() && conn.link.out.is_empty()) {
            return self.close_conn(idx);
        }
        let high_water = conn.link.out.high_water() as u64;
        let fe = &self.shared.frontend;
        fe.egress_highwater.fetch_max(high_water, Ordering::Relaxed);
        if conn.session.busy() && !conn.queued {
            conn.queued = true;
            self.work.push(idx);
        }
        // Read interest is only ever re-armed here; `drive_read` drops it.
        let read = conn.read_on || conn.wants_read();
        let write = !conn.link.out.is_empty();
        if (read, write) != (conn.read_on, conn.write_on) {
            self.set_interest(idx, read, write);
        }
    }

    fn set_interest(&mut self, idx: usize, readable: bool, writable: bool) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let fd = conn.link.stream.as_raw_fd();
        let interest = Interest { readable, writable };
        if self.poller.modify(fd, idx as u64 + 1, interest).is_err() {
            return self.close_conn(idx);
        }
        conn.read_on = readable;
        conn.write_on = writable;
    }

    /// Time-driven duties wakes can't cover: idle and write deadlines
    /// and stats-stream pushes (work deadlines ride `process_work`).
    fn sweep(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < TICK {
            return;
        }
        self.last_sweep = now;
        let read_timeout = self.shared.config.read_timeout;
        let write_timeout = self.shared.config.write_timeout;
        let mut doc = None;
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            let pending = conn.link.out.pending();
            // Idle means nothing in flight, nothing to write, and no
            // stats stream (a subscriber is deliberately quiet; the
            // pushes are its liveness signal).
            if pending > 0 || conn.session.busy() || conn.session.streaming() {
                conn.active = now;
            }
            let expired = if pending > 0 {
                // Egress made no progress: the peer stopped reading.
                now.duration_since(conn.link.wrote) >= write_timeout
            } else {
                now.duration_since(conn.active) >= read_timeout
            };
            if expired {
                self.close_conn(idx);
            } else if conn.session.streaming() && pending < EGRESS_HIGH_WATER {
                conn.session.tick(now, &mut doc, &mut conn.link);
                self.after_io(idx);
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.link.stream.as_raw_fd());
        self.shared.frontend.conn_closed();
        self.free.push(idx);
        // Dropping the session settles its protocol state: a parked
        // deferral leaves the gauge, an answered shutdown stops the
        // server.
    }

    fn shutdown_all(&mut self) {
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_exhaustion_codes_classify_and_others_do_not() {
        assert!(
            is_fd_exhaustion(&io::Error::from_raw_os_error(24)),
            "EMFILE"
        );
        assert!(
            is_fd_exhaustion(&io::Error::from_raw_os_error(23)),
            "ENFILE"
        );
        for kind in [
            io::ErrorKind::WouldBlock,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::PermissionDenied,
        ] {
            assert!(!is_fd_exhaustion(&io::Error::from(kind)), "{kind:?}");
        }
    }

    #[test]
    fn water_marks_leave_hysteresis_room() {
        const { assert!(EGRESS_LOW_WATER * 2 <= EGRESS_HIGH_WATER) };
        const { assert!(EGRESS_LOW_WATER > 0) };
    }
}
