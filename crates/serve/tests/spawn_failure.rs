//! A server whose reactor cannot be built leaves no thread running: the
//! start fails before any reactor thread starts, and dropping the
//! half-built server joins the control thread.
//!
//! Alone in its own test binary: it lowers the process's open-file limit
//! and lists the process's threads, which parallel tests in the same
//! binary would disturb.

use memsync_serve::{BackendKind, ServeConfig, Server};

/// `struct rlimit`.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

fn nofile_limit() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit` for the call.
    assert_eq!(
        unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) },
        0,
        "getrlimit"
    );
    lim
}

fn set_nofile_limit(lim: &RLimit) {
    // SAFETY: `lim` is a live `struct rlimit`, which the call only reads.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, lim) }, 0, "setrlimit");
}

/// Names of this process's threads that the server spawned (each is
/// named `memsync-…`).
fn server_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with("memsync-"))
        .collect()
}

#[test]
fn a_reactor_that_cannot_be_built_leaves_no_thread_running() {
    let config = ServeConfig {
        shards: 2,
        egress: 2,
        routes: 16,
        backend: BackendKind::Fast,
        reactor_threads: 8,
        ..ServeConfig::default()
    };
    let open = std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count() as u64;
    // Room for the listener and the first reactors' pollers and wake
    // pipes (three descriptors each), not for all eight.
    let saved = nofile_limit();
    set_nofile_limit(&RLimit {
        cur: open + 10,
        max: saved.max,
    });
    let started = Server::start("127.0.0.1:0", config);
    set_nofile_limit(&saved);
    let left = server_threads();
    let err = started.expect_err("eight reactors need more descriptors than the limit allows");
    assert_eq!(
        left,
        Vec::<String>::new(),
        "threads outlived the failed start ({err})"
    );
}
