//! The `loadgen` bin end to end, against an in-process fast-backend
//! server: its exit status and the `SUMMARY` fields the CI serve steps
//! grep for. Also `memsync-top`'s live modes, and the strict flags
//! `serve`, `loadgen` and `memsync-top` share.

use memsync_serve::{BackendKind, ServeConfig, Server};
use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn fast_server() -> Server {
    let config = ServeConfig {
        shards: 2,
        backend: BackendKind::Fast,
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", config).expect("bind")
}

/// Runs `loadgen` with the whitespace-separated `args` against `server`;
/// returns its exit status and its `SUMMARY` line (empty when it printed
/// none).
fn loadgen(server: &Server, args: &str) -> (ExitStatus, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .arg("--addr")
        .arg(server.local_addr().to_string())
        .args(args.split_whitespace())
        .output()
        .expect("run loadgen");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("SUMMARY "))
        .unwrap_or_default()
        .to_owned();
    if !out.status.success() {
        eprintln!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status, summary)
}

/// Asserts that each of `fields` appears in `summary` as whole words.
fn assert_summary(summary: &str, fields: &[&str]) {
    for field in fields {
        assert!(
            format!("{summary} ").contains(&format!(" {field} ")),
            "`{field}` not in {summary:?}"
        );
    }
}

#[test]
fn one_connection_per_worker_verifies_every_packet() {
    let server = fast_server();
    let (status, summary) = loadgen(
        &server,
        "--conns 3 --jobs 4 --batch 50 --verify --backend fast --stats-interval 20",
    );
    assert!(status.success(), "{status}");
    assert_summary(
        &summary,
        &["submitted=600", "conns=3 open_failures=0", "mismatches=0"],
    );
}

#[test]
fn ramped_fan_in_opens_every_connection() {
    let server = fast_server();
    let (status, summary) = loadgen(
        &server,
        "--conns 40 --ramp 100 --jobs 2 --batch 20 --verify --spans",
    );
    assert!(status.success(), "{status}");
    assert_summary(
        &summary,
        &["submitted=1600", "conns=40 open_failures=0", "mismatches=0"],
    );
}

#[test]
fn route_churn_beside_submits_loses_no_update() {
    let server = fast_server();
    let (status, summary) = loadgen(
        &server,
        "--conns 2 --jobs 1000 --batch 50 --verify --churn 200",
    );
    // A run of about 0.25 s in a debug build: long enough that the churn
    // worker sends frames before the submits finish.
    assert!(status.success(), "{status}");
    assert_summary(
        &summary,
        &[
            "submitted=100000",
            "conns=2 open_failures=0",
            "mismatches=0",
            "churn_lost=0",
        ],
    );
    assert!(
        !summary.contains(" churn_frames=0 "),
        "churn sent no frame: {summary}"
    );
}

#[test]
fn a_server_mismatch_fails_the_run() {
    let server = fast_server();
    // The route count is checked once, before any worker starts: a
    // worker that failed the check would leave the others waiting at
    // the start barrier for good.
    for args in [
        "--conns 1 --jobs 1 --backend sim",
        "--conns 4 --ramp 10 --jobs 1 --routes 32",
    ] {
        let (status, _) = loadgen(&server, args);
        assert!(
            !status.success(),
            "loadgen {args} passed against a fast 64-route server"
        );
    }
}

#[test]
fn memsync_top_polls_the_stats_frame_rendered_and_raw() {
    let server = fast_server();
    for (args, per_poll) in [
        ("--interval-ms 20 --frames 2", "fast backend, 2 shards"),
        ("--interval-ms 20 --frames 2 --raw", "\"per_shard\""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_memsync-top"))
            .arg("--addr")
            .arg(server.local_addr().to_string())
            .args(args.split_whitespace())
            .output()
            .expect("run memsync-top");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args}: {stdout}{stderr}");
        assert_eq!(stdout.matches(per_poll).count(), 2, "{args}: {stdout}");
    }
}

#[test]
fn every_bin_refuses_a_flag_it_does_not_know_with_exit_2() {
    // Unreachable or ephemeral addresses: a bin that ignored the bad flag
    // would serve forever or fail to connect, never exit 2.
    let serve = env!("CARGO_BIN_EXE_serve");
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    let top = env!("CARGO_BIN_EXE_memsync-top");
    for (bin, args) in [
        (serve, "--addr 127.0.0.1:0 --shard 8"),
        (serve, "--addr 127.0.0.1:0 --shards"),
        (serve, "--addr 127.0.0.1:0 --shards eight"),
        // Values that parse but leave a server that cannot serve.
        (serve, "--addr 127.0.0.1:0 --shards 0"),
        (serve, "--addr 127.0.0.1:0 --queue-cap 0"),
        (serve, "--addr 127.0.0.1:0 --max-conns 0"),
        (serve, "--addr 127.0.0.1:0 --egress 0 --backend sim"),
        // Modes that are gone: one simulator build, two backends.
        (serve, "--addr 127.0.0.1:0 --opt 1"),
        (serve, "--addr 127.0.0.1:0 --backend differential"),
        (loadgen, "--addr 127.0.0.1:1 --conn 100"),
        (loadgen, "--addr 127.0.0.1:1 --conns 8 --jobs"),
        (loadgen, "--addr 127.0.0.1:1 --batch 0"),
        (loadgen, "--addr 127.0.0.1:1 --backend differential"),
        // No FIB prefix to aim the generated traffic at.
        (loadgen, "--addr 127.0.0.1:1 --routes 0"),
        // A poll interval past the server's idle deadline.
        (loadgen, "--addr 127.0.0.1:1 --stats-interval 25000"),
        (top, "--addr 127.0.0.1:1 --frame 1"),
        (top, "--addr 127.0.0.1:1 --frames -1"),
        (top, "--addr 127.0.0.1:1 --interval-ms 25000"),
    ] {
        let mut child = Command::new(bin)
            .args(args.split_whitespace())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the bin");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll the child") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{bin} {args} still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert_eq!(status.code(), Some(2), "{bin} {args}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args}: {stderr}");
    }
}
