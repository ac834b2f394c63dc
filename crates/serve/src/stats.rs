//! The stats frame: per-shard registries merged into one JSON document.
//!
//! Each shard records into its own [`MetricsRegistry`] (no cross-shard
//! lock traffic on the hot path); a stats request snapshots every shard,
//! merges them with [`MetricsRegistry::merge`], and renders one document:
//! service totals, throughput, backpressure counters, queue-depth
//! high-water marks, the batch-size histogram, and p50/p99 service
//! latency.

use crate::backend::BackendKind;
use crate::supervisor::PublicShard;
use crate::tables::EpochTables;
use crate::tracing::ServeTracer;
use memsync_trace::{Json, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

/// The traced stages rendered into a registry's `stages` object, in
/// pipeline order. The four shard stages live in the shard registries;
/// decode/write come from the tracer's frontend registry.
pub const STAGE_METRICS: [(&str, &str); 6] = [
    ("decode_ns", "serve.stage.decode_ns"),
    ("queue_ns", "serve.stage.queue_ns"),
    ("coalesce_ns", "serve.stage.coalesce_ns"),
    ("execute_ns", "serve.stage.execute_ns"),
    ("egress_ns", "serve.stage.egress_ns"),
    ("write_ns", "serve.stage.write_ns"),
];

/// Renders the non-empty stage histograms of `reg` as a `stages` object
/// (stage name → bucket summary), or `None` when nothing was traced.
fn stages_json(reg: &MetricsRegistry) -> Option<Json> {
    let mut obj = Json::obj();
    let mut any = false;
    for (stage, metric) in STAGE_METRICS {
        if let Some(s) = reg.bucket_histogram(metric).and_then(|h| h.summary()) {
            obj.set(stage, s.to_json());
            any = true;
        }
    }
    any.then_some(obj)
}

/// Server-global counters the sessions maintain (everything per-shard
/// lives in the shard registries).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Submit batches accepted (enqueued on every target shard).
    pub accepted: AtomicU64,
    /// Submit batches answered `Busy` (deferred on a full shard queue
    /// past `job_timeout`).
    pub busy: AtomicU64,
    /// Requests that failed after acceptance (a shard died mid-batch, a
    /// job or control op timed out, the control worker died).
    pub errors: AtomicU64,
}

/// Connection-plane counters, maintained by the reactor and the
/// sessions; rendered as the stats document's `frontend` object.
#[derive(Debug, Default)]
pub struct FrontendStats {
    /// Connections currently open (post-cap-check).
    pub conns_open: AtomicU64,
    /// Highest concurrently-open connection count ever observed.
    pub conns_peak: AtomicU64,
    /// Connections refused over [`crate::ServeConfig::max_conns`].
    pub conn_rejects: AtomicU64,
    /// Accept-loop pauses forced by fd exhaustion.
    pub accept_pauses: AtomicU64,
    /// Times the reactor stopped reading a connection for backpressure:
    /// its peer kept sending past the egress high-water mark, or while a
    /// request (an in-flight or deferred submit) was outstanding.
    pub read_pauses: AtomicU64,
    /// Submits deferred because a target shard queue was full.
    pub deferred_submits: AtomicU64,
    /// Deferred submits currently parked (gauge; drain waits on it).
    pub deferred_now: AtomicU64,
    /// Largest per-connection egress queue ever observed, in bytes —
    /// the server-side memory bound the backpressure tests pin.
    pub egress_highwater: AtomicU64,
}

impl FrontendStats {
    /// Counts a connection in, updating the peak gauge.
    pub fn conn_opened(&self) {
        let now = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Counts a connection out.
    pub fn conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("conns_open", self.conns_open.load(Ordering::Relaxed).into())
            .with("conns_peak", self.conns_peak.load(Ordering::Relaxed).into())
            .with(
                "conn_rejects",
                self.conn_rejects.load(Ordering::Relaxed).into(),
            )
            .with(
                "accept_pauses",
                self.accept_pauses.load(Ordering::Relaxed).into(),
            )
            .with(
                "read_pauses",
                self.read_pauses.load(Ordering::Relaxed).into(),
            )
            .with(
                "deferred_submits",
                self.deferred_submits.load(Ordering::Relaxed).into(),
            )
            .with(
                "deferred_now",
                self.deferred_now.load(Ordering::Relaxed).into(),
            )
            .with(
                "egress_highwater_bytes",
                self.egress_highwater.load(Ordering::Relaxed).into(),
            )
    }
}

/// Renders the merged stats frame.
///
/// `draining` and `restarts` come from the server; `started` anchors the
/// throughput computation (forwarded+dropped packets over uptime).
/// `tracer` (when the caller has one — the server always does) adds the
/// `spans` section and folds the connection-side decode/write stage
/// histograms into the merged `stages` object. `frontend` (likewise
/// always present on a live server) adds the connection-plane `frontend`
/// object. `fib` adds the control plane's route-table section
/// (generation, route count, swap/retirement counters, swap-latency
/// percentiles) so the RCU retirement property is externally auditable.
#[allow(clippy::too_many_arguments)]
pub fn stats_json(
    shards: &[PublicShard],
    counters: &ServerCounters,
    backend: BackendKind,
    restarts: u64,
    draining: bool,
    started: Instant,
    tracer: Option<&ServeTracer>,
    frontend: Option<&FrontendStats>,
    fib: Option<&EpochTables>,
) -> String {
    let mut merged = MetricsRegistry::new();
    let mut per_shard = Vec::with_capacity(shards.len());
    let mut carryover_total = 0u64;
    for (i, s) in shards.iter().enumerate() {
        let reg = s.stats.lock().unwrap_or_else(PoisonError::into_inner);
        let snapshot = reg.clone();
        drop(reg);
        merged.merge(&snapshot);
        let carryover = s.carryover.load(Ordering::Relaxed);
        carryover_total += carryover;
        let mut obj = Json::obj()
            .with("shard", i.into())
            .with("packets", snapshot.counter("serve.packets").into())
            .with("forwarded", snapshot.counter("serve.forwarded").into())
            .with("dropped", snapshot.counter("serve.dropped").into())
            .with("mismatches", snapshot.counter("serve.mismatches").into())
            .with(
                "lost_updates",
                snapshot.counter("serve.lost_updates").into(),
            )
            .with("batches", snapshot.counter("serve.batches").into())
            .with("sim_cycles", snapshot.counter("serve.sim_cycles").into())
            .with("queue_depth_highwater", s.queue.high_water().into())
            .with("queue_depth", s.queue.len().into())
            .with("restart_carryover", carryover.into());
        if let Some(h) = snapshot
            .histogram("serve.batch_size")
            .and_then(|h| h.summary())
        {
            obj.set("batch_size", h.to_json());
        }
        if let Some(h) = snapshot
            .histogram("serve.service_latency_us")
            .and_then(|h| h.summary())
        {
            obj.set("service_latency_us", h.to_json());
        }
        if let Some(stages) = stages_json(&snapshot) {
            obj.set("stages", stages);
        }
        per_shard.push(obj);
    }
    if let Some(t) = tracer {
        t.merge_frontend_into(&mut merged);
    }

    let uptime = started.elapsed().as_secs_f64().max(1e-9);
    let packets = merged.counter("serve.packets");
    let mut doc = Json::obj()
        .with("shards", shards.len().into())
        .with("backend", Json::Str(backend.to_string()))
        .with("uptime_secs", uptime.into())
        .with("draining", draining.into())
        .with("shard_restarts", restarts.into())
        .with("restart_carryover", carryover_total.into())
        .with("accepted", counters.accepted.load(Ordering::Relaxed).into())
        .with("busy", counters.busy.load(Ordering::Relaxed).into())
        .with("errors", counters.errors.load(Ordering::Relaxed).into())
        .with("packets", packets.into())
        .with("forwarded", merged.counter("serve.forwarded").into())
        .with("dropped", merged.counter("serve.dropped").into())
        .with("mismatches", merged.counter("serve.mismatches").into())
        .with("lost_updates", merged.counter("serve.lost_updates").into())
        .with("batches", merged.counter("serve.batches").into())
        .with("sim_cycles", merged.counter("serve.sim_cycles").into())
        .with("packets_per_sec", (packets as f64 / uptime).into());
    if let Some(h) = merged
        .histogram("serve.batch_size")
        .and_then(|h| h.summary())
    {
        doc.set("batch_size", h.to_json());
    }
    if let Some(h) = merged
        .histogram("serve.service_latency_us")
        .and_then(|h| h.summary())
    {
        doc.set("service_latency_us", h.to_json());
    }
    if let Some(stages) = stages_json(&merged) {
        doc.set("stages", stages);
    }
    if let Some(t) = tracer {
        doc.set("spans", t.to_json());
    }
    if let Some(tables) = fib {
        let mut obj = Json::obj()
            .with("generation", tables.generation().into())
            .with("routes", tables.routes().into())
            .with("swaps", tables.swaps().into())
            .with("retired", tables.retired().into());
        if let Some(s) = tables.swap_latency_summary() {
            obj.set(
                "swap_latency_us",
                Json::obj()
                    .with("count", s.count.into())
                    .with("p50", s.p50.into())
                    .with("p99", s.p99.into())
                    .with("max", s.max.into()),
            );
        }
        doc.set("fib", obj);
    }
    if let Some(f) = frontend {
        doc.set("frontend", f.to_json());
    }
    doc.set("per_shard", Json::Arr(per_shard));
    doc.render()
}

/// Pulls an unsigned integer field out of a flat stats JSON document —
/// good enough for the loadgen/tests to read totals without a parser.
pub fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShardQueue;
    use crate::tracing::{PendingSpan, StageTimings, TracingConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    fn mk_shard(forwarded: u64, dropped: u64, carryover: u64) -> PublicShard {
        let mut r = MetricsRegistry::new();
        r.add("serve.packets", forwarded + dropped);
        r.add("serve.forwarded", forwarded);
        r.add("serve.dropped", dropped);
        r.add("serve.batches", 1);
        r.record("serve.batch_size", forwarded + dropped);
        r.record("serve.service_latency_us", 100);
        PublicShard {
            queue: Arc::new(ShardQueue::new(4)),
            stats: Arc::new(Mutex::new(r)),
            die: Arc::new(AtomicBool::new(false)),
            idle: Arc::new(AtomicBool::new(true)),
            carryover: Arc::new(AtomicU64::new(carryover)),
            gen_seen: Arc::new(AtomicU64::new(1)),
        }
    }

    #[test]
    fn stats_json_merges_shards_and_is_parseable() {
        let shards = vec![mk_shard(10, 2, 4), mk_shard(5, 3, 0)];
        let counters = ServerCounters::default();
        counters.accepted.store(2, Ordering::Relaxed);
        counters.busy.store(1, Ordering::Relaxed);
        let frontend = FrontendStats::default();
        frontend.conn_opened();
        let doc = stats_json(
            &shards,
            &counters,
            BackendKind::Sim,
            1,
            false,
            Instant::now(),
            None,
            Some(&frontend),
            None,
        );
        assert!(doc.contains("\"backend\":\"sim\""), "{doc}");
        assert!(
            doc.contains("\"frontend\":{\"conns_open\":1"),
            "frontend object present: {doc}"
        );
        assert_eq!(json_u64(&doc, "conns_open"), Some(1));
        assert_eq!(json_u64(&doc, "conns_peak"), Some(1));
        assert_eq!(json_u64(&doc, "forwarded"), Some(15));
        assert_eq!(json_u64(&doc, "dropped"), Some(5));
        assert_eq!(json_u64(&doc, "packets"), Some(20));
        assert_eq!(json_u64(&doc, "lost_updates"), Some(0));
        assert_eq!(json_u64(&doc, "busy"), Some(1));
        assert_eq!(json_u64(&doc, "shard_restarts"), Some(1));
        assert_eq!(
            json_u64(&doc, "restart_carryover"),
            Some(4),
            "per-shard carryover sums to the top level"
        );
        assert!(doc.contains("\"per_shard\""));
        assert!(doc.contains("\"p99\""), "latency percentiles present");
        assert!(doc.contains("\"queue_depth_highwater\""));
        assert!(
            !doc.contains("\"stages\""),
            "no tracing, no stage section: {doc}"
        );
    }

    #[test]
    fn traced_stats_carry_stage_summaries_and_the_spans_section() {
        let shards = vec![mk_shard(10, 2, 0)];
        {
            let mut reg = shards[0].stats.lock().unwrap();
            for (_, metric) in STAGE_METRICS.iter().skip(1).take(4) {
                reg.record_bucket(metric, 1500);
            }
        }
        let tracer = ServeTracer::new(
            TracingConfig {
                enabled: true,
                ..TracingConfig::default()
            },
            1,
        )
        .unwrap();
        tracer.finish(
            &PendingSpan {
                span_id: 7,
                client_assigned: true,
                decode_ns: 800,
                timings: vec![StageTimings {
                    shard: 0,
                    packets: 12,
                    queue_ns: 1500,
                    coalesce_ns: 1500,
                    execute_ns: 1500,
                    egress_ns: 1500,
                    sim_cycles: 0,
                    frames: 24,
                }],
            },
            300,
        );
        let doc = stats_json(
            &shards,
            &ServerCounters::default(),
            BackendKind::Fast,
            0,
            false,
            Instant::now(),
            Some(&tracer),
            Some(&FrontendStats::default()),
            None,
        );
        for key in ["\"stages\"", "\"decode_ns\"", "\"execute_ns\"", "\"spans\""] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert_eq!(json_u64(&doc, "seen"), Some(1));
        // The merged stage summary reflects the recorded sample.
        let snap = crate::snapshot::StatsSnapshot::decode(&doc).expect("decodes");
        let stages = snap.stages;
        assert!(
            stages
                .iter()
                .any(|s| s.stage == "execute_ns" && s.count == 1),
            "{stages:?}"
        );
    }
}
