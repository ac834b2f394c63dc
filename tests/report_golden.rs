//! The paper's tables, pinned: every number `report --json` prints at
//! middle-end level O0 — Tables 1 and 2 with their Fmax (E1–E4), the
//! overhead builds (E5), the latency sweep (E6), the middle-end
//! comparison (E10) and the scalability ablation (E9) — must equal
//! `tests/golden/report.json`, recorded from the `report` binary.
//!
//! A change that moves a figure on purpose re-records the file with
//! `cargo run --release -p memsync-bench --bin report -- --json >
//! tests/golden/report.json` and says why in CHANGES.md.

use memsync::core::OptLevel;
use memsync::trace::JsonlSink;
use memsync_bench::{latency_metrics_json, latency_sweep, Report};

#[test]
fn o0_report_json_matches_the_golden() {
    let report = Report::measure(OptLevel::O0, None::<&mut JsonlSink<Vec<u8>>>);
    let got = format!("{}\n", report.json(false).pretty());
    let want = include_str!("golden/report.json");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "report JSON differs from the golden at line {}",
            i + 1
        );
    }
    assert_eq!(got, want, "report JSON and the golden differ in length");
}

#[test]
fn traced_latency_sweep_repeats_byte_for_byte() {
    let run = || {
        let mut sink = JsonlSink::new(Vec::new());
        let runs = latency_sweep(Some(&mut sink));
        let trace = sink.into_inner().expect("writing to a Vec cannot fail");
        (trace, latency_metrics_json(&runs).pretty())
    };
    let (trace, metrics) = run();
    let (trace_again, metrics_again) = run();
    let headers = trace
        .split(|&b| b == b'\n')
        .filter(|line| line.starts_with(br#"{"meta":"run""#))
        .count();
    assert_eq!(
        headers, 6,
        "one run header per (organization, consumers) cell"
    );
    assert!(trace == trace_again, "trace bytes differ between two runs");
    assert_eq!(metrics, metrics_again, "metrics differ between two runs");
}
