//! End-to-end request tracing: a real server with tracing on, span JSONL
//! export, and the restart-carryover pin.
//!
//! The load-bearing assertion here is the acceptance criterion of the
//! tracing plane: per-stage percentiles recomputed offline from the
//! exported span lines must agree with the live stats frame's bucket
//! summaries to within one log2 bucket. Both sides see the exact same
//! stage samples (the shard records each job's stages into its bucket
//! histograms at the same instant it stamps the job's span timings), so
//! at matching rank definitions the agreement is exact — the one-bucket
//! tolerance only absorbs the bucket-upper-bound representation.

use memsync_netapp::Workload;
use memsync_serve::{BackendKind, Client, ServeConfig, Server, SubmitOptions, TracingConfig};
use memsync_trace::bucket::bucket_index;
use memsync_trace::registry::percentile;
use memsync_trace::SpanRecord;
use std::path::PathBuf;
use std::time::Duration;

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::builder()
        .retries(10_000)
        .connect(addr)
        .expect("connect")
}

fn traced_config(spans_path: Option<String>) -> ServeConfig {
    ServeConfig {
        shards: 2,
        egress: 2,
        routes: 16,
        job_timeout: Duration::from_secs(30),
        backend: BackendKind::Fast,
        tracing: TracingConfig {
            enabled: true,
            spans_path,
        },
        ..ServeConfig::default()
    }
}

fn temp_spans_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("memsync-spans-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn exported_spans_recompute_the_live_stage_percentiles() {
    let path = temp_spans_path("percentiles");
    let server = Server::start(
        "127.0.0.1:0",
        traced_config(Some(path.display().to_string())),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Enough traffic for stable percentiles (hundreds of spans/stage).
    let mut client = connect(addr);
    let w = Workload::generate(11, 20_000, 16);
    for (i, chunk) in w.packets.chunks(64).enumerate() {
        client
            .submit(chunk, SubmitOptions::new().span(i as u64))
            .expect("submit");
    }
    // Drain flushes the span sink before quiescing.
    client.drain().expect("drain");
    let snap = client.stats().expect("stats");
    assert_eq!(snap.packets, 20_000);

    // Offline: parse every exported span line back.
    let text = std::fs::read_to_string(&path).expect("span file");
    let spans: Vec<SpanRecord> = text.lines().filter_map(SpanRecord::parse).collect();
    assert!(!spans.is_empty(), "span export produced records");
    assert_eq!(
        spans.len() as u64,
        snap.spans.expect("spans section").exported,
        "every exported line parses back"
    );
    assert_eq!(
        spans.iter().map(|s| s.packets).sum::<u64>(),
        20_000,
        "spans cover every packet"
    );
    assert!(
        spans.iter().all(|s| s.client_assigned),
        "loadgen-style client-assigned ids survive the wire"
    );

    // The acceptance pin: recomputed per-stage p50/p99 from the raw span
    // lines land within one log2 bucket of the live summaries for every
    // shard-side stage (queue-wait, coalesce, backend-execute, egress).
    // Decode/write are excluded: their live histograms count one sample
    // per request while span lines repeat them per (request, shard).
    for stage in ["queue_ns", "coalesce_ns", "execute_ns", "egress_ns"] {
        let mut raw: Vec<u64> = spans
            .iter()
            .map(|s| match stage {
                "queue_ns" => s.queue_ns,
                "coalesce_ns" => s.coalesce_ns,
                "execute_ns" => s.execute_ns,
                _ => s.egress_ns,
            })
            .collect();
        raw.sort_unstable();
        let live = snap
            .stages
            .iter()
            .find(|s| s.stage == stage)
            .unwrap_or_else(|| panic!("live summary for {stage}"));
        assert_eq!(live.count, raw.len() as u64, "{stage} sample counts");
        assert_eq!(live.min, raw[0], "{stage} exact min");
        assert_eq!(live.max, *raw.last().unwrap(), "{stage} exact max");
        for (q, live_p) in [(0.50, live.p50), (0.99, live.p99)] {
            // The raw-sample rank the bucket histogram resolves.
            let raw_p = percentile(&raw, q).expect("spans recorded");
            let (ri, li) = (bucket_index(raw_p), bucket_index(live_p));
            assert!(
                ri.abs_diff(li) <= 1,
                "{stage} p{}: raw {raw_p} (bucket {ri}) vs live {live_p} \
                 (bucket {li}) disagree by more than one bucket",
                (q * 100.0) as u32
            );
        }
    }

    let mut client = connect(addr);
    client.shutdown().expect("shutdown");
    server.wait();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restarted_shard_carries_its_pre_restart_totals() {
    // A shard restarted in place keeps counting on the same registry,
    // and the latched carryover proves how much of its total predates
    // the restart.
    let server = Server::start("127.0.0.1:0", traced_config(None)).expect("bind");
    let addr = server.local_addr();
    let mut client = connect(addr);

    // Warm both shards so shard 0 has pre-restart traffic to carry.
    let w = Workload::generate(3, 400, 16);
    client
        .submit(&w.packets[..200], SubmitOptions::new())
        .expect("warm");
    let pre = client.stats().expect("pre-kill stats");
    let pre_shard0 = pre.per_shard[0].packets;
    assert!(pre_shard0 > 0, "shard 0 saw warmup traffic");
    assert_eq!(pre.restart_carryover, 0, "no restart, no carryover");

    client.kill_shard(0).expect("kill accepted");
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "the shard never restarted"
        );
        match client.submit(&w.packets[200..], SubmitOptions::new()) {
            Ok(_) if server.shard_restarts() >= 1 => break,
            Ok(_) => {}
            Err(_) => {} // the kill raced this submit; retry
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let snap = client.stats().expect("post-restart stats");
    assert_eq!(snap.shard_restarts, 1);
    let carry = snap.per_shard[0].restart_carryover;
    assert!(
        carry >= pre_shard0,
        "carryover {carry} latched at least the warmup traffic {pre_shard0}"
    );
    assert_eq!(
        snap.restart_carryover, carry,
        "top-level carryover sums the per-shard latches"
    );
    assert!(
        snap.per_shard[0].packets >= carry,
        "the restarted shard's total includes its pre-restart packets"
    );

    // And the restarted shard still serves traced traffic correctly.
    let r = client
        .submit(&w.packets, SubmitOptions::new().verify(true).span(7))
        .expect("post-restart traced submit");
    assert_eq!(r.mismatches, 0);
    client.shutdown().expect("shutdown");
    server.wait();
}
