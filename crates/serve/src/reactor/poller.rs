//! Safe readiness polling over epoll, plus the self-pipe [`Waker`] that
//! lets other threads interrupt a parked reactor.

use crate::queue::ReplyWaker;
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::sys::{self, epoll};

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Readable readiness (or peer close / error).
    pub(crate) readable: bool,
    /// Writable readiness.
    pub(crate) writable: bool,
}

/// One readiness event, keyed by the registration's token.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token passed at registration time.
    pub(crate) token: u64,
    /// The fd is readable, or the peer closed its sending half.
    pub(crate) readable: bool,
    /// The fd is writable.
    pub(crate) writable: bool,
    /// The fd errored or both directions hung up: the connection is
    /// dead. Reported whatever the registered interest.
    pub(crate) hangup: bool,
}

fn timeout_ms(timeout: Duration) -> i32 {
    // Round up so sub-millisecond timeouts don't become busy-spins; only
    // zero polls without waiting.
    i32::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
}

/// Epoll-backed poller (level-triggered).
#[derive(Debug)]
pub(crate) struct Poller {
    epfd: RawFd,
    buf: Vec<epoll::EpollEvent>,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: epoll::create()?,
            buf: vec![epoll::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        // Peer half-close only with read interest: level-triggered, it
        // would otherwise report on every wait while a request is in
        // flight.
        if interest.readable {
            m |= epoll::EPOLLIN | epoll::EPOLLRDHUP;
        }
        if interest.writable {
            m |= epoll::EPOLLOUT;
        }
        m
    }

    pub(crate) fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        epoll::ctl(
            self.epfd,
            epoll::EPOLL_CTL_ADD,
            fd,
            Self::mask(interest),
            token,
        )
    }

    pub(crate) fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        epoll::ctl(
            self.epfd,
            epoll::EPOLL_CTL_MOD,
            fd,
            Self::mask(interest),
            token,
        )
    }

    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        epoll::ctl(self.epfd, epoll::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout`, appending readiness to `events`.
    pub(crate) fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        let n = epoll::wait(self.epfd, &mut self.buf, timeout_ms(timeout))?;
        for ev in &self.buf[..n] {
            // Copy fields out of the (packed) event before use.
            let bits = { ev.events };
            let token = { ev.data };
            events.push(Event {
                token,
                readable: bits & (epoll::EPOLLIN | epoll::EPOLLRDHUP) != 0,
                writable: bits & epoll::EPOLLOUT != 0,
                hangup: bits & (epoll::EPOLLERR | epoll::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// Self-pipe waker: writing one byte to the send half makes the read
/// half (registered in the poller at [`super::WAKE_TOKEN`]) readable,
/// un-parking the reactor. Activations on other threads and the control
/// worker hold this through [`Reply`](crate::queue::Reply), so outcome
/// delivery interrupts the poller park instead of waiting out the
/// timeout.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
    /// A wake byte is in the pipe and not yet drained.
    pending: Arc<AtomicBool>,
}

impl Waker {
    /// Signals the reactor. Wakes coalesce: while one is pending, more
    /// skip the syscall.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

impl ReplyWaker for Waker {
    fn wake(&self) {
        Waker::wake(self);
    }
}

/// The poller-side read half of a waker pipe.
#[derive(Debug)]
pub(crate) struct WakeReceiver {
    rx: UnixStream,
    pending: Arc<AtomicBool>,
}

impl WakeReceiver {
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes the pending wake. The byte is read before the gate
    /// reopens, so a wake racing the drain either writes a fresh byte or
    /// is observed by the work the drain precedes; none is lost.
    pub(crate) fn drain(&self) {
        let _ = (&self.rx).read(&mut [0u8; 64]);
        self.pending.swap(false, Ordering::AcqRel);
    }
}

/// A connected waker pair: the `Waker` is shared through replies and
/// with the accept loop; the receiver is registered in the owning
/// poller.
pub(crate) fn waker_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let pending = Arc::new(AtomicBool::new(false));
    let rx = WakeReceiver {
        rx,
        pending: Arc::clone(&pending),
    };
    Ok((Waker { tx, pending }, rx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_unparks_a_waiting_poller_and_drains() {
        let (waker, rx) = waker_pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(
                rx.raw_fd(),
                7,
                Interest {
                    readable: true,
                    writable: false,
                },
            )
            .unwrap();
        // Many wakes coalesce into at least one readable event.
        for _ in 0..10 {
            waker.wake();
        }
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "wake pipe reports readable"
        );
        rx.drain();
        // Drained: a short wait now times out with no events.
        events.clear();
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(events.iter().all(|e| e.token != 7), "drain clears the pipe");
    }

    #[test]
    fn poller_tracks_interest_changes_on_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        // Write interest on an idle socket: immediately writable.
        poller
            .register(
                server.as_raw_fd(),
                3,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        // Drop write interest: an empty socket stops reporting.
        poller
            .modify(
                server.as_raw_fd(),
                3,
                Interest {
                    readable: true,
                    writable: false,
                },
            )
            .unwrap();
        events.clear();
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(events.is_empty(), "no readiness without data or interest");
        // Peer data arrives: readable fires.
        (&client).write_all(b"x").unwrap();
        events.clear();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
        poller.deregister(server.as_raw_fd()).unwrap();
    }
}
