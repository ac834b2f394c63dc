//! The `serve` bin: run a memsync-serve instance until a shutdown frame.
//!
//! ```text
//! serve [--addr 127.0.0.1:7171] [--shards 4] [--egress 4] [--routes 64]
//!       [--queue-cap 64] [--batch-max 64] [--org arbitrated|event-driven]
//!       [--backend sim|fast|differential] [--opt 0|1]
//!       [--reactor-threads N] [--max-conns N]
//!       [--tracing] [--trace-spans FILE]
//! ```
//!
//! `--backend` picks the forwarding engine each shard runs: `sim` (the
//! cycle-accurate reference), `fast` (the compiled functional fast path),
//! or `differential` (both, cross-checked frame by frame — a divergence
//! crashes the shard loudly). `--opt` sets the middle-end optimization
//! level the `sim` and `differential` backends compile the application
//! FSMs at (default 0). Prints `listening on <addr>` once the
//! socket is bound (the loopback CI job waits for that line), then blocks
//! until a client sends a shutdown frame and exits 0.
//!
//! Connections are served by a few epoll event loops, thousands of
//! connections per thread; `serve` is Linux-only. `--reactor-threads N`
//! sets the event-loop thread count (0 = one per CPU); `--max-conns`
//! caps open connections (default 10000). The soft fd limit is raised
//! to the hard limit at startup.
//!
//! Tracing is off by default (the hot path stays allocation-free).
//! `--tracing` turns on per-request stage timing; `--trace-spans FILE`
//! additionally exports every span as JSONL to `FILE` (and implies
//! `--tracing`).

use memsync_core::{OptLevel, OrganizationKind};
use memsync_serve::{BackendKind, ServeConfig, Server, TracingConfig};

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usize_arg(args: &[String], key: &str, default: usize) -> usize {
    arg_value(args, key)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{key} wants a number, got {v}"))
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let defaults = ServeConfig::default();
    let spans_path = arg_value(&args, "--trace-spans");
    let tracing = TracingConfig {
        enabled: args.iter().any(|a| a == "--tracing") || spans_path.is_some(),
        spans_path,
    };
    let config = ServeConfig {
        tracing,
        shards: usize_arg(&args, "--shards", defaults.shards),
        egress: usize_arg(&args, "--egress", defaults.egress),
        routes: usize_arg(&args, "--routes", defaults.routes),
        queue_cap: usize_arg(&args, "--queue-cap", defaults.queue_cap),
        batch_max: usize_arg(&args, "--batch-max", defaults.batch_max),
        organization: match arg_value(&args, "--org").as_deref() {
            None | Some("arbitrated") => OrganizationKind::Arbitrated,
            Some("event-driven") => OrganizationKind::EventDriven,
            Some(other) => panic!("unknown organization {other}"),
        },
        backend: match arg_value(&args, "--backend") {
            None => defaults.backend,
            Some(v) => v
                .parse::<BackendKind>()
                .unwrap_or_else(|e| panic!("--backend: {e}")),
        },
        opt: match arg_value(&args, "--opt") {
            None => defaults.opt,
            Some(v) => v
                .parse::<OptLevel>()
                .unwrap_or_else(|e| panic!("--opt: {e}")),
        },
        reactor_threads: usize_arg(&args, "--reactor-threads", defaults.reactor_threads),
        max_conns: usize_arg(&args, "--max-conns", defaults.max_conns),
        ..defaults
    };
    memsync_serve::raise_fd_limit();
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".into());
    let shards = config.shards;
    let backend = config.backend;
    let trace_note = if config.tracing.enabled {
        match &config.tracing.spans_path {
            Some(p) => format!("tracing on, spans -> {p}"),
            None => "tracing on".into(),
        }
    } else {
        String::new()
    };
    let server = Server::start(addr.as_str(), config).expect("bind serve address");
    println!(
        "listening on {} ({} shards, {backend} backend)",
        server.local_addr(),
        shards
    );
    if !trace_note.is_empty() {
        println!("{trace_note}");
    }
    server.wait();
    println!("shutdown complete");
}
