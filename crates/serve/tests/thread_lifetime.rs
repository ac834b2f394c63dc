//! Dropping a server joins every thread it spawned, even while a reactor
//! thread is running a shard's activation.
//!
//! Alone in its own test binary: it lists the whole process's threads,
//! which parallel tests in the same binary would add to.

use memsync_netapp::Workload;
use memsync_serve::{BackendKind, Client, ServeConfig, Server, SubmitOptions};
use std::time::{Duration, Instant};

/// Names of this process's threads that the server spawned (each is
/// named `memsync-…`; the kernel truncates names to 15 bytes).
fn server_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with("memsync-"))
        .collect()
}

#[test]
fn dropping_the_server_joins_every_thread_it_spawned() {
    let config = ServeConfig {
        shards: 2,
        egress: 2,
        routes: 16,
        backend: BackendKind::Fast,
        shard_throttle: Some(Duration::from_millis(300)),
        reactor_threads: 2,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    // A spawned thread names itself only once it first runs, so the
    // names can lag `Server::start`: wait for every thread's name (the
    // kernel cuts `memsync-reactor-N` to 15 bytes).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut threads = server_threads();
        threads.sort();
        if threads
            == [
                "memsync-accept",
                "memsync-control",
                "memsync-reactor",
                "memsync-reactor",
            ]
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the server's threads are running: {threads:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The submitter's reactor runs its activations; the observer lands
    // on the other reactor, which stays free to answer stats.
    let mut submitter = Client::connect(addr).expect("connect");
    let mut observer = Client::connect(addr).expect("connect");
    let w = Workload::generate(8, 64, 16);
    submitter
        .submit_send(&w.packets, SubmitOptions::new())
        .expect("submit");
    // Once the batch is accepted and every queue is empty again, its
    // last job has been popped and sits in a throttled activation.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = observer.stats().expect("stats");
        if snap.accepted == 1 && snap.per_shard.iter().all(|s| s.queue_depth == 0) {
            break;
        }
        assert!(Instant::now() < deadline, "the submit never got picked up");
        std::thread::sleep(Duration::from_millis(1));
    }

    drop(server);
    assert_eq!(
        server_threads(),
        Vec::<String>::new(),
        "threads outlived the server"
    );
}
