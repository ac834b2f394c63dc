//! Self-test of the benchmark: a `--quick` run (one round of 0.5 s per
//! workload) emits every metric `BENCHMARK.json` names, for every
//! workload, with its unit, in a last line that parses, and passes every
//! oracle. The traced run also times the layers and writes spans.

use memsync_trace::Json;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("list present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs the benchmark with `args` and returns its last stdout line.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_memsync-benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).expect("last line is one JSON object")
}

/// Every `section` metric of every workload is present with the unit
/// `BENCHMARK.json` gives it, and nothing else is.
fn assert_complete(result: &Json, section: &str) {
    let spec = benchmark_json();
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object missing");
    };
    let workloads = names(&spec, "workloads");
    let wanted = spec.get(section).and_then(Json::as_arr).expect(section);
    assert_eq!(
        metrics.len(),
        workloads.len() * wanted.len(),
        "no extra metrics"
    );
    for w in &workloads {
        for m in wanted {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let key = format!("{w}.{name}");
            let got = result
                .get("metrics")
                .and_then(|ms| ms.get(&key))
                .unwrap_or_else(|| panic!("{key} missing"));
            assert_eq!(
                got.get("unit").and_then(Json::as_str),
                m.get("unit").and_then(Json::as_str),
                "{key} unit"
            );
            let value = got.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{key} = {value:?}");
        }
    }
}

#[test]
fn quick_run_reports_every_end_to_end_metric() {
    let result = run(&["--quick", "--seed", "7"]);
    assert_complete(&result, "end_to_end");
}

#[test]
fn quick_traced_run_reports_every_per_layer_metric_and_writes_spans() {
    let spans = format!("{}/quick-spans.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let result = run(&["--quick", "--seed", "7", "--trace", "1", "--spans", &spans]);
    assert_complete(&result, "per_layer");
    let text = std::fs::read_to_string(&spans).expect("spans written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "spans file is empty");
    for name in [
        "round",
        "submit",
        "connect",
        "route_add",
        "layers",
        "fib.lookup",
    ] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("\"name\":\"{name}\""))),
            "no {name} span"
        );
    }
    for line in lines {
        let span = Json::parse(line).expect("span line parses");
        let start = span.get("start_ns").and_then(Json::as_u64).expect("start");
        let end = span.get("end_ns").and_then(Json::as_u64).expect("end");
        assert!(start <= end, "{line}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_memsync-benchmark"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
