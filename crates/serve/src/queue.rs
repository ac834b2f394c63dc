//! Bounded per-shard job queues with explicit backpressure.
//!
//! Each shard owns one [`ShardQueue`]: sessions push whole jobs
//! (`try`-only — a full queue defers the submit, never buffers without
//! bound), the shard thread pops them with a timeout so it can notice
//! drain/stop flags. The queue outlives the shard thread: when the
//! supervisor restarts a panicked shard, queued jobs survive and are
//! processed by the replacement.

use crate::frame::SubmitOptions;
use crate::tracing::StageTimings;
use memsync_netapp::Ipv4Packet;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{SendError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The result a shard reports for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobOutcome {
    /// Packets the oracle classified as forwarded.
    pub forwarded: u32,
    /// Packets dropped (TTL expiry or no route).
    pub dropped: u32,
    /// Verify-mode mismatches between simulator egress and the model.
    pub mismatches: u32,
    /// Shard-side stage timings, present only when request tracing is
    /// enabled (the session folds these into the batch's span).
    pub timings: Option<StageTimings>,
}

/// Wakes the transport when a job outcome becomes observable.
///
/// The reactor multiplexes thousands of connections on one thread that
/// parks in the poller, and an mpsc send cannot interrupt that park.
/// Shards call [`Reply::send`], and the reply wakes whatever registered
/// interest. The trait lives here (not in the reactor) so the queue
/// layer carries no dependency on the poller type.
pub trait ReplyWaker: Send + Sync + fmt::Debug {
    /// Signal the owning transport that an outcome (or a channel close)
    /// is ready to collect. Must be nonblocking and safe to call from a
    /// shard thread; spurious calls are allowed.
    fn wake(&self);
}

/// The outcome path of one job: the mpsc sender the shard reports on,
/// plus an optional waker for the reactor.
///
/// The channel is kept (rather than replaced by the waker) because its
/// disconnect semantics carry a signal a bare callback cannot: a shard
/// that panics mid-batch *drops* its jobs, and the session observes the
/// hung-up channel as a failed submit — never a silent loss. The waker
/// only fires on delivery and on drop, so the transport also polls
/// outstanding submits on a periodic tick.
#[derive(Clone)]
pub struct Reply {
    tx: Sender<JobOutcome>,
    waker: Option<Arc<dyn ReplyWaker>>,
}

impl Reply {
    /// A reply with no waker — for callers that block on the receiver.
    pub fn new(tx: Sender<JobOutcome>) -> Reply {
        Reply { tx, waker: None }
    }

    /// A reply that calls `waker` after every outcome delivery (and when
    /// the last clone drops, covering shard-death mid-batch).
    pub fn with_waker(tx: Sender<JobOutcome>, waker: Arc<dyn ReplyWaker>) -> Reply {
        Reply {
            tx,
            waker: Some(waker),
        }
    }

    /// Delivers one outcome, then wakes the transport (if any waker is
    /// attached). The send error is the receiver having hung up — the
    /// session gave up on the batch — which callers may ignore.
    ///
    /// # Errors
    ///
    /// `SendError` when the receiving session already dropped the
    /// channel (e.g. the job outlived its connection).
    pub fn send(&self, outcome: JobOutcome) -> Result<(), SendError<JobOutcome>> {
        let sent = self.tx.send(outcome);
        if let Some(w) = &self.waker {
            w.wake();
        }
        sent
    }

    /// Drops this handle without the wake: for the submitter's own copy,
    /// which never holds the channel open once the shards hold theirs.
    pub fn drop_quietly(mut self) {
        self.waker = None;
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        // A dropped clone may be the channel's last sender (shard panic
        // unwinding its queued jobs): wake so the session promptly sees
        // the disconnect instead of waiting for its sweep tick. Spurious
        // wakes from ordinary drops are harmless.
        if let Some(w) = &self.waker {
            w.wake();
        }
    }
}

impl fmt::Debug for Reply {
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
    /// (e.g. a shard panic mid-batch) drops the reply, which the
    /// session observes as a failed submit — never a silent loss.
    pub reply: Reply,
    /// When the job entered the queue (service-latency attribution).
    pub enqueued: Instant,
}

/// A bounded MPSC job queue (mutex + condvar; the push side is `try`-only
/// so producers never block on a full queue).
#[derive(Debug)]
pub struct ShardQueue {
    inner: Mutex<VecDeque<Job>>,
    available: Condvar,
    cap: usize,
    /// Highest depth ever observed at push time (stats frame).
    high_water: AtomicUsize,
}

fn unpoison<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A shard panicking while a session holds no job invariant worth
    // protecting: the queue content stays valid, so recover the guard.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl ShardQueue {
    /// Creates a queue holding at most `cap` jobs.
    pub fn new(cap: usize) -> Self {
        ShardQueue {
            inner: Mutex::new(VecDeque::with_capacity(cap)),
            available: Condvar::new(),
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

    /// Pushes under an already-held guard, updating the high-water mark
    /// and waking the shard.
    pub(crate) fn push_locked(&self, guard: &mut MutexGuard<'_, VecDeque<Job>>, job: Job) {
        guard.push_back(job);
        let depth = guard.len();
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        self.available.notify_one();
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

    /// Pops one job, waiting up to `timeout` — shards poll this so stop
    /// and kill flags are observed between activations.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<Job> {
        self.pop_timeout_inner(timeout, None)
    }

    /// Like [`ShardQueue::pop_timeout`], but clears `idle` **before the
    /// queue lock is released** whenever a job comes out. Drain checks
    /// `queue.is_empty() && idle` (in that order, and `is_empty` takes
    /// this same lock), so it can never observe the window where the pop
    /// emptied the queue but the shard has not yet marked itself busy.
    pub fn pop_timeout_busy(&self, timeout: Duration, idle: &AtomicBool) -> Option<Job> {
        self.pop_timeout_inner(timeout, Some(idle))
    }

    fn pop_timeout_inner(&self, timeout: Duration, idle: Option<&AtomicBool>) -> Option<Job> {
        let take = |g: &mut VecDeque<Job>| {
            let job = g.pop_front();
            if job.is_some() {
                if let Some(idle) = idle {
                    idle.store(false, Ordering::Release);
                }
            }
            job
        };
        let mut g = unpoison(self.inner.lock());
        if let Some(job) = take(&mut g) {
            return Some(job);
        }
        // One lock held into the wait: a push between the check and the
        // wait cannot slip its notification past us.
        let (mut g, _) = self
            .available
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        take(&mut g)
    }

    /// Pops without waiting (batch coalescing inside one activation).
    pub fn try_pop(&self) -> Option<Job> {
        unpoison(self.inner.lock()).pop_front()
    }

    /// Wakes the shard even though no job was pushed. The control plane
    /// uses this after publishing a new table generation: a shard parked
    /// in [`ShardQueue::pop_timeout`] wakes, finds the queue empty, and
    /// falls through to its per-iteration generation check — so the
    /// drain-barrier acknowledgement arrives in microseconds instead of
    /// waiting out the poll timeout. (`pop_timeout_inner` waits on the
    /// condvar at most once, so a wake with an empty queue returns `None`
    /// promptly rather than re-parking.)
    pub fn notify(&self) {
        self.available.notify_all();
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
    fn busy_pop_clears_idle_with_the_job_never_without() {
        let q = ShardQueue::new(4);
        let idle = AtomicBool::new(true);
        // Timing out empty must leave the idle flag alone.
        assert!(q
            .pop_timeout_busy(Duration::from_millis(5), &idle)
            .is_none());
        assert!(idle.load(Ordering::Acquire));
        let (a, _ra) = job(1);
        q.try_push(a).unwrap();
        // Popping a job marks the shard busy before the caller even sees
        // it — so an observer that finds the queue empty afterwards is
        // guaranteed to also find idle == false.
        assert!(q
            .pop_timeout_busy(Duration::from_millis(100), &idle)
            .is_some());
        assert!(q.is_empty());
        assert!(!idle.load(Ordering::Acquire));
    }

    #[test]
    fn reply_wakes_on_send_and_on_drop() {
        #[derive(Debug, Default)]
        struct CountWaker(std::sync::atomic::AtomicUsize);
        impl ReplyWaker for CountWaker {
            fn wake(&self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let waker = Arc::new(CountWaker::default());
        let (tx, rx) = channel();
        let reply = Reply::with_waker(tx, Arc::clone(&waker) as Arc<dyn ReplyWaker>);
        assert!(reply.send(JobOutcome::default()).is_ok());
        assert_eq!(waker.0.load(Ordering::Relaxed), 1, "send wakes");
        assert!(rx.try_recv().is_ok());
        // A dropped clone wakes too — that is how a session learns about
        // shard death (the job's reply drops without ever sending).
        drop(reply.clone());
        assert_eq!(waker.0.load(Ordering::Relaxed), 2, "drop wakes");
        drop(reply);
        assert!(rx.recv().is_err(), "channel disconnects after last drop");
    }

    #[test]
    fn pop_timeout_sees_pushes_and_times_out_empty() {
        let q = ShardQueue::new(4);
        assert!(q.pop_timeout(Duration::from_millis(5)).is_none());
        let (a, _ra) = job(3);
        q.try_push(a).unwrap();
        let got = q.pop_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(got.packets.len(), 3);
        assert!(q.is_empty());
    }
}
