//! `report` refuses what it does not understand instead of running
//! without it: an unknown flag (such as the retired `--jobs`) or a flag
//! missing its value prints the usage line on stderr and exits 2, before
//! any experiment runs.

use std::process::Command;

fn refused(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report runs");
    assert_eq!(out.status.code(), Some(2), "report {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: report"),
        "report {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "report {args:?} ran anyway");
}

#[test]
fn unknown_flag_exits_2() {
    refused(&["--jobs", "4"]);
}

#[test]
fn trailing_flag_without_its_value_exits_2() {
    refused(&["--json", "--trace"]);
}
