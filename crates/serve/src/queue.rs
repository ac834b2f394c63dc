//! Bounded per-shard job queues with explicit backpressure.
//!
//! Each shard owns one [`ShardQueue`]: sessions push whole jobs
//! (`try`-only — a full queue defers the submit, never buffers without
//! bound), and the reactor holding the shard's engine pops them
//! ([`crate::shard::Shard::step`]). Nothing waits on the queue: a
//! pusher's reactor runs the shard itself or leaves the job to the
//! engine's holder, which steps again or wakes the job's reactor. When an
//! activation panics, queued jobs survive for the rebuilt engine.

use crate::frame::SubmitOptions;
use memsync_netapp::Ipv4Packet;
use memsync_trace::SpanRecord;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{SendError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The result a shard reports for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobOutcome {
    /// Packets the oracle classified as forwarded.
    pub forwarded: u32,
    /// Packets dropped (TTL expiry or no route).
    pub dropped: u32,
    /// Verify-mode mismatches between simulator egress and the model.
    pub mismatches: u32,
    /// The job's span record with its shard-side fields filled in (shard,
    /// packets, the four shard stages, sim cycles and frames), present
    /// only when request tracing is enabled; the session's tracer stamps
    /// the rest.
    pub timings: Option<SpanRecord>,
}

/// Wakes the transport when a job outcome is observable or its job wants a step.
///
/// The reactor multiplexes thousands of connections on one thread that
/// parks in the poller, and an mpsc send cannot interrupt that park.
/// An activation calls [`Reply::send`], and the reply wakes whatever
/// registered interest. The trait lives here (not in the reactor) so
/// the queue layer carries no dependency on the poller type.
pub trait ReplyWaker: Send + Sync + fmt::Debug {
    /// Signal the owning transport that an outcome (or a channel close)
    /// is ready to collect, or a queued job wants a step. Must be
    /// nonblocking and safe to call from any thread; spurious calls are
    /// allowed.
    fn wake(&self);
}

/// The outcome path of one job or control op: the mpsc sender a shard
/// activation or the control worker reports on, plus an optional waker
/// for the reactor.
///
/// The data path keeps the channel although the submitting reactor often
/// runs the activation itself: an activation answers every job it
/// coalesced, other reactors' included, and those must be woken. The
/// channel (rather than the waker alone) carries a signal a bare callback
/// cannot: an activation that panics *drops* its jobs, and the session
/// observes the hung-up channel as a failed submit — never a silent
/// loss. The waker fires on delivery, on drop and when a queued job is
/// handed back to its owner; the transport also polls outstanding
/// submits on a periodic tick.
#[derive(Clone)]
pub struct Reply<T> {
    tx: Sender<T>,
    waker: Option<Arc<dyn ReplyWaker>>,
}

impl<T> Reply<T> {
    /// A reply with no waker — for callers that block on the receiver.
    pub fn new(tx: Sender<T>) -> Reply<T> {
        Reply { tx, waker: None }
    }

    /// A reply that calls `waker` after every outcome delivery (and when
    /// the last clone drops, covering an activation or control worker
    /// that dies holding it).
    pub fn with_waker(tx: Sender<T>, waker: Arc<dyn ReplyWaker>) -> Reply<T> {
        Reply {
            tx,
            waker: Some(waker),
        }
    }

    /// Delivers one outcome, then wakes the transport (if any waker is
    /// attached). The send error is the receiver having hung up — the
    /// session gave up on the request — which callers may ignore.
    ///
    /// # Errors
    ///
    /// `SendError` when the receiving session already dropped the
    /// channel (e.g. the job outlived its connection).
    pub fn send(&self, outcome: T) -> Result<(), SendError<T>> {
        let sent = self.tx.send(outcome);
        if let Some(w) = &self.waker {
            w.wake();
        }
        sent
    }

    /// Drops this handle without the wake: for the submitter's own copy,
    /// which never holds the channel open once the queued jobs hold
    /// theirs.
    pub fn drop_quietly(mut self) {
        self.waker = None;
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        // A dropped clone may be the channel's last sender (a panicked
        // activation dropping its jobs): wake so the session promptly sees
        // the disconnect instead of waiting for its sweep tick. Spurious
        // wakes from ordinary drops are harmless.
        if let Some(w) = &self.waker {
            w.wake();
        }
    }
}

impl<T> fmt::Debug for Reply<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reply")
            .field("waker", &self.waker.is_some())
            .finish_non_exhaustive()
    }
}

/// One unit of shard work: a sub-batch of packets that all hash to the
/// same shard, plus the channel the outcome goes back on.
#[derive(Debug)]
pub struct Job {
    /// Packets to forward, in submission order.
    pub packets: Vec<Ipv4Packet>,
    /// Typed submit options (verify mode, future flags).
    pub options: SubmitOptions,
    /// Outcome path back to the submitting session. Dropping the job
    /// (e.g. a panic mid-batch) drops the reply, which the session
    /// observes as a failed submit — never a silent loss.
    pub reply: Reply<JobOutcome>,
    /// When the job entered the queue (service-latency attribution).
    pub enqueued: Instant,
}

/// A bounded job queue behind one mutex. Both sides are `try`-only:
/// producers never block on a full queue, and nobody waits on an empty
/// one.
#[derive(Debug)]
pub struct ShardQueue {
    inner: Mutex<VecDeque<Job>>,
    cap: usize,
    /// Highest depth ever observed at push time (stats frame).
    high_water: AtomicUsize,
}

/// Recovers the guard of a lock a panicking thread held. Every lock it
/// is used on guards state that stays valid across a panic: queue
/// contents, shard stats, and the control plane's trie and published
/// slot (ops commit whole, a publish is one whole-pair store).
pub(crate) fn unpoison<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl ShardQueue {
    /// Creates a queue holding at most `cap` jobs.
    pub fn new(cap: usize) -> Self {
        ShardQueue {
            inner: Mutex::new(VecDeque::with_capacity(cap)),
            cap,
            high_water: AtomicUsize::new(0),
        }
    }

    /// Capacity in jobs.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        unpoison(self.inner.lock()).len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest depth ever observed at push time.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Locks the queue for a multi-queue atomic submit (see
    /// [`crate::router::Router::submit`]). The guard exposes capacity
    /// checking and pushing while held.
    pub(crate) fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        unpoison(self.inner.lock())
    }

    /// Pushes under an already-held guard, updating the high-water mark.
    pub(crate) fn push_locked(&self, guard: &mut MutexGuard<'_, VecDeque<Job>>, job: Job) {
        guard.push_back(job);
        let depth = guard.len();
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Tries to push one job; `Err(job)` hands it back when the queue is
    /// full (the caller answers `Busy`).
    pub fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut g = self.lock();
        if g.len() >= self.cap {
            return Err(job);
        }
        self.push_locked(&mut g, job);
        Ok(())
    }

    /// Pops one job; only the holder of the shard's engine pops.
    pub fn try_pop(&self) -> Option<Job> {
        unpoison(self.inner.lock()).pop_front()
    }

    /// Wakes the owner of the front job, if any, after the queue lock is
    /// released: for a thread that let go of the engine without stepping.
    pub(crate) fn wake_front(&self) {
        let waker = self.lock().front().and_then(|j| j.reply.waker.clone());
        if let Some(w) = waker {
            w.wake();
        }
    }
}

#[cfg(test)]
/// A waker that counts its calls (for tests that check who was woken).
#[derive(Debug, Default)]
pub(crate) struct CountWaker(pub(crate) AtomicUsize);

#[cfg(test)]
impl ReplyWaker for CountWaker {
    fn wake(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn job(n: usize) -> (Job, std::sync::mpsc::Receiver<JobOutcome>) {
        let (tx, rx) = channel();
        (
            Job {
                packets: vec![Ipv4Packet::new(1, 2, 10, 6, 40); n],
                options: SubmitOptions::new(),
                reply: Reply::new(tx),
                enqueued: Instant::now(),
            },
            rx,
        )
    }

    #[test]
    fn bounded_push_reports_full() {
        let q = ShardQueue::new(2);
        let (a, _ra) = job(1);
        let (b, _rb) = job(1);
        let (c, _rc) = job(1);
        assert!(q.try_push(a).is_ok());
        assert!(q.try_push(b).is_ok());
        let rejected = q.try_push(c).unwrap_err();
        assert_eq!(rejected.packets.len(), 1, "job handed back intact");
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
        // Draining one slot reopens the queue.
        assert!(q.try_pop().is_some());
        assert!(q.try_push(rejected).is_ok());
    }

    #[test]
    fn reply_wakes_on_send_and_on_drop() {
        let waker = Arc::new(CountWaker::default());
        let (tx, rx) = channel();
        let reply = Reply::with_waker(tx, Arc::clone(&waker) as Arc<dyn ReplyWaker>);
        assert!(reply.send(JobOutcome::default()).is_ok());
        assert_eq!(waker.0.load(Ordering::Relaxed), 1, "send wakes");
        assert!(rx.try_recv().is_ok());
        // A dropped clone wakes too — that is how a session learns about
        // a panicked activation (the job's reply drops without sending).
        drop(reply.clone());
        assert_eq!(waker.0.load(Ordering::Relaxed), 2, "drop wakes");
        drop(reply);
        assert!(rx.recv().is_err(), "channel disconnects after last drop");
    }
}
