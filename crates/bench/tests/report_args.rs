//! `report` and `calib` refuse what they do not understand instead of
//! running without it: an unknown flag (such as the retired `--jobs`) or
//! a flag missing its value prints the usage line on stderr and exits 2,
//! before any experiment or fit runs.

use std::path::Path;
use std::process::Command;

fn refused(exe: &str, args: &[&str]) {
    let name = Path::new(exe).file_stem().unwrap().to_string_lossy();
    let out = Command::new(exe).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?} ran anyway");
}

#[test]
fn unknown_flag_exits_2() {
    refused(env!("CARGO_BIN_EXE_report"), &["--jobs", "4"]);
}

#[test]
fn trailing_flag_without_its_value_exits_2() {
    refused(env!("CARGO_BIN_EXE_report"), &["--json", "--trace"]);
}

#[test]
fn calib_unknown_flag_exits_2() {
    refused(env!("CARGO_BIN_EXE_calib"), &["--jobs", "4"]);
}
