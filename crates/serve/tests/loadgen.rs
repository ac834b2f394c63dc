//! The `loadgen` bin end to end, against an in-process fast-backend
//! server: its exit status and the `SUMMARY` fields the CI serve steps
//! grep for.

use memsync_serve::{BackendKind, ServeConfig, Server};
use std::process::{Command, ExitStatus};

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
        "--conns 3 --jobs 4 --batch 50 --verify --backend fast",
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
