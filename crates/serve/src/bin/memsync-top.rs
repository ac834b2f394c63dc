//! The `memsync-top` bin: live per-shard telemetry, plus offline span
//! waterfalls.
//!
//! Its flags, with their defaults, are the `USAGE` lines below. An
//! unknown flag, a missing value or one that does not parse prints them
//! and exits 2 before anything connects or reads.
//!
//! Live mode polls the server's stats frame once per `--interval-ms` and
//! renders per-shard throughput, queue depth, stage p50–p99, lost-update
//! and restart counters. On a terminal each frame redraws in place; piped
//! output prints one block per poll. `--frames N` stops after N polls (0 =
//! run until killed); `--raw` prints each decoded stats snapshot as its
//! JSON document instead of rendering. The interval must stay under 25 s:
//! the server closes a connection that stays quiet for 30 s.
//!
//! Replay mode reads a `serve --trace-spans` JSONL file and reconstructs
//! the run offline: per-stage percentiles over every span plus a
//! waterfall of the `--slowest N` (default 5) spans. Exits non-zero when
//! the file is unreadable or contains no spans.

use memsync_serve::flags::Flags;
use memsync_serve::snapshot::{StageSummarySnapshot, StatsSnapshot};
use memsync_serve::Client;
use memsync_trace::registry::percentile;
use memsync_trace::SpanRecord;
use std::io::IsTerminal;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: memsync-top [--addr 127.0.0.1:7171] [--interval-ms 1000] [--frames N] [--raw]
       memsync-top [--replay SPANS.jsonl] [--slowest 5]
--interval-ms is under 25000: the server closes a connection quiet for 30 s";

/// Nanoseconds, human-scaled.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------- replay

/// Offline waterfall from a `--trace-spans` JSONL file.
fn replay(path: &str, slowest: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spans = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match SpanRecord::parse(line) {
            Some(s) => spans.push(s),
            None => skipped += 1,
        }
    }
    if spans.is_empty() {
        return Err(format!(
            "{path}: no span records ({skipped} non-span lines)"
        ));
    }
    let shard_count = spans.iter().map(|s| s.shard).max().unwrap_or(0) as usize + 1;
    let packets: u64 = spans.iter().map(|s| s.packets).sum();
    println!(
        "{path}: {} spans over {shard_count} shards, {packets} packets \
         ({skipped} non-span lines skipped)",
        spans.len()
    );

    // Per-stage percentiles over every span — the same numbers the live
    // stats frame reports as bucketized summaries.
    println!();
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p90", "p99", "max"
    );
    for stage_idx in 0..6 {
        let name = spans[0].stages()[stage_idx].0;
        let mut vals: Vec<u64> = spans.iter().map(|s| s.stages()[stage_idx].1).collect();
        vals.sort_unstable();
        let pct = |q| fmt_ns(percentile(&vals, q).expect("one value per span"));
        println!(
            "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            name,
            vals.len(),
            pct(0.50),
            pct(0.90),
            pct(0.99),
            fmt_ns(*vals.last().unwrap()),
        );
    }

    // Waterfall of the slowest spans: one proportional bar per span,
    // stages marked by their initial (d/q/c/x/e/w).
    let mut by_total = spans.clone();
    by_total.sort_unstable_by_key(|s| std::cmp::Reverse(s.total_ns()));
    by_total.truncate(slowest);
    println!();
    println!(
        "slowest {} spans (d=decode q=queue c=coalesce x=execute e=egress w=write):",
        by_total.len()
    );
    const BAR: usize = 48;
    for s in &by_total {
        let total = s.total_ns().max(1);
        let mut bar = String::new();
        for (i, (_, ns)) in s.stages().iter().enumerate() {
            let cells = (*ns as f64 / total as f64 * BAR as f64).round() as usize;
            let mark = ['d', 'q', 'c', 'x', 'e', 'w'][i];
            bar.extend(std::iter::repeat_n(mark, cells));
        }
        println!(
            "  span {:>18} shard {:>2} {:>5} pkts {:>9} |{bar:<BAR$}|",
            format_span_id(s),
            s.shard,
            s.packets,
            fmt_ns(s.total_ns()),
        );
    }
    Ok(())
}

/// Span id for display: client ids verbatim, server ids with an `s` tag.
fn format_span_id(s: &SpanRecord) -> String {
    if s.client_assigned {
        format!("{:#x}", s.span)
    } else {
        format!("s{:#x}", s.span & !(1 << 63))
    }
}

// ------------------------------------------------------------------ live

/// One rendered frame of the live dashboard.
fn render(snap: &StatsSnapshot, prev: Option<&(StatsSnapshot, Instant)>, clear: bool) {
    if clear {
        // Redraw in place on a terminal.
        print!("\x1b[2J\x1b[H");
    }
    let inst_pps = prev.map(|(p, at)| {
        let dt = at.elapsed().as_secs_f64().max(1e-9);
        (snap.packets.saturating_sub(p.packets)) as f64 / dt
    });
    let backend = snap.backend.map_or_else(|| "?".into(), |b| b.to_string());
    println!(
        "memsync-top — {backend} backend, {} shards, up {:.0}s{}",
        snap.shards,
        snap.uptime_secs,
        if snap.draining { ", DRAINING" } else { "" }
    );
    println!(
        "packets {} (avg {:.0} pkts/s{}) busy {} errors {} lost_updates {} \
         restarts {} carryover {}",
        snap.packets,
        snap.packets_per_sec,
        inst_pps.map_or_else(String::new, |p| format!(", now {p:.0}")),
        snap.busy,
        snap.errors,
        snap.lost_updates,
        snap.shard_restarts,
        snap.restart_carryover,
    );
    if let Some(spans) = &snap.spans {
        println!(
            "tracing {} — {} spans seen, {} exported",
            if spans.enabled { "on" } else { "off" },
            spans.seen,
            spans.exported,
        );
    }
    if !snap.stages.is_empty() {
        println!();
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "p50", "p90", "p99"
        );
        for StageSummarySnapshot {
            stage,
            count,
            p50,
            p90,
            p99,
            ..
        } in &snap.stages
        {
            let name = stage.trim_end_matches("_ns");
            println!(
                "{name:<12} {count:>10} {:>10} {:>10} {:>10}",
                fmt_ns(*p50),
                fmt_ns(*p90),
                fmt_ns(*p99)
            );
        }
    }
    println!();
    println!(
        "{:<6} {:>10} {:>9} {:>7} {:>9} {:>6} {:>6} {:>10}",
        "shard", "packets", "pkts/s", "queue", "highwater", "lost", "drops", "carryover"
    );
    for s in &snap.per_shard {
        let shard_pps = prev
            .and_then(|(p, at)| {
                p.per_shard
                    .iter()
                    .find(|q| q.shard == s.shard)
                    .map(|q| (s.packets.saturating_sub(q.packets), at))
            })
            .map(|(d, at)| d as f64 / at.elapsed().as_secs_f64().max(1e-9));
        println!(
            "{:<6} {:>10} {:>9} {:>7} {:>9} {:>6} {:>6} {:>10}",
            s.shard,
            s.packets,
            shard_pps.map_or_else(|| "-".into(), |p| format!("{p:.0}")),
            s.queue_depth,
            s.queue_depth_highwater,
            s.lost_updates,
            s.dropped,
            s.restart_carryover,
        );
    }
}

/// Live dashboard: polls the stats frame once per `interval` and renders
/// each snapshot, or with `raw` prints its document, no rendering — good
/// for log pipelines, where a closed pipe (e.g. `| head`) ends the loop
/// instead of panicking. Returns after `frames` polls (0 = never).
fn live(addr: &str, interval: Duration, frames: u64, raw: bool) {
    use std::io::Write;
    let mut client = Client::connect(addr).expect("connect to serve");
    let clear = !raw && std::io::stdout().is_terminal();
    let mut prev: Option<(StatsSnapshot, Instant)> = None;
    for n in 1.. {
        let snap = client.stats().expect("stats frame");
        if !raw {
            render(&snap, prev.as_ref(), clear);
            prev = Some((snap, Instant::now()));
        } else if writeln!(std::io::stdout().lock(), "{}", snap.to_json().render()).is_err() {
            return;
        }
        if n == frames {
            return;
        }
        std::thread::sleep(interval);
    }
}

fn main() {
    let flags = Flags::parse(USAGE);
    if let Some(path) = flags.value("--replay") {
        if let Err(e) = replay(path, flags.or("--slowest", 5)) {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
        return;
    }
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:7171");
    let interval = Duration::from_millis(flags.poll_ms("--interval-ms").unwrap_or(1000));
    live(addr, interval, flags.or("--frames", 0), flags.has("--raw"));
}
