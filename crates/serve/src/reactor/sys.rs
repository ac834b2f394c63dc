//! Raw syscall shim for the reactor: epoll, plus `RLIMIT_NOFILE` raising.
//!
//! This module is the crate's single `unsafe` island (the crate root is
//! `#![deny(unsafe_code)]`; this file opts back in). It declares the
//! handful of libc symbols the reactor needs directly — the workspace
//! builds offline with no `libc` crate — and wraps each call in a safe
//! function that owns the error handling, so nothing outside this file
//! touches a raw return code.
#![allow(unsafe_code)]

/// Closes a raw file descriptor (poller fds are not owned by any Rust
/// I/O object, so `Drop` impls call this directly).
pub(crate) fn close_fd(fd: i32) {
    extern "C" {
        fn close(fd: i32) -> i32;
    }
    // Best-effort: on close failure the fd is gone (or never was) either
    // way, and the poller is being dropped.
    let _ = unsafe { close(fd) };
}

pub(crate) mod epoll {
    //! Minimal epoll bindings (level-triggered; the reactor re-computes
    //! interest after every I/O step, so edge-triggering buys nothing).

    use std::io;

    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLERR: u32 = 0x008;
    pub(crate) const EPOLLHUP: u32 = 0x010;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;
    pub(crate) const EPOLL_CTL_ADD: i32 = 1;
    pub(crate) const EPOLL_CTL_DEL: i32 = 2;
    pub(crate) const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// `struct epoll_event`. The kernel ABI packs this on x86-64 (the
    /// 12-byte layout is part of the syscall contract); other targets
    /// use natural alignment, matching their libc headers.
    #[derive(Clone, Copy, Debug)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub(crate) struct EpollEvent {
        pub(crate) events: u32,
        pub(crate) data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    }

    pub(crate) fn create() -> io::Result<i32> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(fd)
        }
    }

    pub(crate) fn ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // DEL ignores the event argument (passing one keeps pre-2.6.9
        // kernel semantics happy and costs nothing).
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Waits for events into `buf`; `Ok(0)` on timeout or `EINTR`.
    pub(crate) fn wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let rc = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(e)
            }
        } else {
            Ok(rc as usize)
        }
    }
}

/// `struct rlimit`: `rlim_t` is 64-bit on Linux.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

/// Raises the soft `RLIMIT_NOFILE` to the hard limit; returns the
/// resulting soft limit (0 if the limit could not be read at all).
pub(crate) fn raise_nofile_limit() -> u64 {
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur < lim.max {
        let want = RLimit {
            cur: lim.max,
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
            return lim.max;
        }
    }
    lim.cur
}

#[cfg(test)]
mod tests {
    #[test]
    fn nofile_limit_is_readable_and_monotone() {
        let got = super::raise_nofile_limit();
        assert!(got > 0, "soft nofile limit reads back non-zero");
        // Raising twice is idempotent.
        assert_eq!(super::raise_nofile_limit(), got);
    }
}
