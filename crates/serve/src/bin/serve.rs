//! The `serve` bin: run a memsync-serve instance until a shutdown frame.
//!
//! Its flags, with their defaults, are the `USAGE` line below. An unknown
//! flag, a missing value, one that does not parse, or a zero `--shards`,
//! `--egress`, `--queue-cap` or `--max-conns` prints it and exits 2
//! before anything binds.
//!
//! `--backend` picks the forwarding engine each shard runs: `sim` (the
//! cycle-accurate reference, under the `--org` memory organization) or
//! `fast` (the compiled functional fast path). A client's verify mode
//! checks either against the software pipeline model. Prints `listening
//! on <addr>` once the socket is bound (the loopback CI job waits for
//! that line), then blocks until a client sends a shutdown frame and
//! exits 0.
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

use memsync_core::OrganizationKind;
use memsync_serve::flags::Flags;
use memsync_serve::{ServeConfig, Server, TracingConfig};

const USAGE: &str = "\
usage: serve [--addr 127.0.0.1:7171] [--shards 4] [--egress 4] [--routes 64]
             [--queue-cap 64] [--batch-max 64] [--org arbitrated|event-driven]
             [--backend sim|fast] [--reactor-threads N] [--max-conns N]
             [--tracing] [--trace-spans FILE]";

fn main() {
    let flags = Flags::parse(USAGE);
    let defaults = ServeConfig::default();
    // No shard, egress lane, queue slot or connection slot leaves a
    // server that binds but cannot serve.
    let at_least_one = |flag: &str, default: usize| match flags.or(flag, default) {
        0 => flags.fail(&format!("{flag} must be at least 1")),
        n => n,
    };
    let spans_path = flags.value("--trace-spans").map(String::from);
    let tracing = TracingConfig {
        enabled: flags.has("--tracing") || spans_path.is_some(),
        spans_path,
    };
    let config = ServeConfig {
        tracing,
        shards: at_least_one("--shards", defaults.shards),
        egress: at_least_one("--egress", defaults.egress),
        routes: flags.or("--routes", defaults.routes),
        queue_cap: at_least_one("--queue-cap", defaults.queue_cap),
        batch_max: flags.or("--batch-max", defaults.batch_max),
        organization: match flags.value("--org") {
            None | Some("arbitrated") => OrganizationKind::Arbitrated,
            Some("event-driven") => OrganizationKind::EventDriven,
            Some(other) => flags.fail(&format!("--org: unknown organization {other:?}")),
        },
        backend: flags.or("--backend", defaults.backend),
        reactor_threads: flags.or("--reactor-threads", defaults.reactor_threads),
        max_conns: at_least_one("--max-conns", defaults.max_conns),
        ..defaults
    };
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:7171");
    memsync_serve::raise_fd_limit();
    let shape = format!("({} shards, {} backend)", config.shards, config.backend);
    let trace_note = match (&config.tracing.spans_path, config.tracing.enabled) {
        (Some(p), _) => format!("tracing on, spans -> {p}\n"),
        (None, true) => "tracing on\n".into(),
        (None, false) => String::new(),
    };
    let server = Server::start(addr, config).expect("bind serve address");
    println!("listening on {} {shape}", server.local_addr());
    print!("{trace_note}");
    server.wait();
    println!("shutdown complete");
}
