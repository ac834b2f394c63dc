//! Runs every experiment and emits the measured section of EXPERIMENTS.md
//! (markdown on stdout; `--json` for machine-readable output).
//!
//! `--trace <path>` streams the latency experiment's cycle events as
//! JSONL (one `{"meta":"run",...}` header per run); `--metrics <path>`
//! writes its per-run counter/histogram registries.
//!
//! `--opt {0,1}` sets the middle-end level the overhead builds compile
//! at (default 0; the middle-end comparison section always reports both
//! levels). `--dump-passes` additionally prints every per-thread pass
//! report of the middle-end comparison builds.
//!
//! An unknown argument, a flag without its value or an unknown level
//! prints the usage line on stderr and exits with status 2.

use memsync_bench::{latency_metrics_json, Report};
use memsync_core::OptLevel;
use memsync_trace::JsonlSink;
use std::fs::File;
use std::io::BufWriter;

const USAGE: &str =
    "usage: report [--json] [--opt {0,1}] [--dump-passes] [--trace PATH] [--metrics PATH]";

fn usage(problem: &str) -> ! {
    eprintln!("report: {problem}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut json = false;
    let mut dump_passes = false;
    let mut opt = OptLevel::O0;
    let mut trace_path = None;
    let mut metrics_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || match args.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => usage(&format!("{arg} needs a value")),
        };
        match arg.as_str() {
            "--json" => json = true,
            "--dump-passes" => dump_passes = true,
            "--opt" => {
                opt = value()
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("--opt: {e}")))
            }
            "--trace" => trace_path = Some(value()),
            "--metrics" => metrics_path = Some(value()),
            _ => usage(&format!("unknown argument {arg:?}")),
        }
    }

    let mut trace = trace_path
        .map(|p| JsonlSink::new(BufWriter::new(File::create(p).expect("create trace file"))));
    let report = Report::measure(opt, trace.as_mut());
    if let Some(sink) = trace {
        sink.into_inner().expect("write trace file");
    }
    if let Some(p) = &metrics_path {
        std::fs::write(p, latency_metrics_json(&report.latency).pretty())
            .expect("write metrics file");
    }
    if json {
        println!("{}", report.json(dump_passes).pretty());
    } else {
        print!("{}", report.markdown(dump_passes));
    }
}
