//! Typed decode of the stats frame.
//!
//! The server renders its merged stats as one JSON document
//! ([`crate::stats::stats_json`]); clients used to get that back as a raw
//! `String` and grep it. [`StatsSnapshot`] decodes the document into a
//! struct (via the dependency-free [`memsync_trace::Json`] parser) so
//! callers — `loadgen --verify`, the loopback tests, operators' tooling —
//! read `snapshot.lost_updates`, not string matches. The raw document
//! stays reachable through [`crate::Client::stats_raw`] for humans and
//! log pipelines.

use crate::backend::BackendKind;
use memsync_trace::Json;

/// Decoded per-shard counters from the `per_shard` array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: u64,
    /// Packets this shard executed.
    pub packets: u64,
    /// Packets the oracle classified as forwarded.
    pub forwarded: u64,
    /// Packets dropped (TTL expiry or no route).
    pub dropped: u64,
    /// Verify-mode mismatches.
    pub mismatches: u64,
    /// Guarded-location overwrites observed by this shard's backend.
    pub lost_updates: u64,
    /// Batch activations.
    pub batches: u64,
    /// Simulator cycles consumed (0 under the fast backend).
    pub sim_cycles: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Highest queue depth ever observed at push time.
    pub queue_depth_highwater: u64,
    /// Packet total latched at this shard's most recent supervisor
    /// restart (0 while the original incarnation lives). Nonzero proves
    /// pre-restart traffic still counts in the totals above.
    pub restart_carryover: u64,
}

impl ShardSnapshot {
    /// Every key a per-shard stats object can carry, required first.
    /// `batch_size`, `service_latency_us`, and `stages` appear once the
    /// shard has traffic (respectively traced traffic). The completeness
    /// test in this module pins the document against this list.
    pub const DOCUMENT_FIELDS: &'static [&'static str] = &[
        "shard",
        "packets",
        "forwarded",
        "dropped",
        "mismatches",
        "lost_updates",
        "batches",
        "sim_cycles",
        "queue_depth_highwater",
        "queue_depth",
        "restart_carryover",
        "batch_size",
        "service_latency_us",
        "stages",
    ];
}

/// One traced stage's latency summary from the `stages` object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageSummarySnapshot {
    /// Stage name (`decode_ns`, `queue_ns`, `coalesce_ns`, `execute_ns`,
    /// `egress_ns`, `write_ns`).
    pub stage: String,
    /// Samples recorded.
    pub count: u64,
    /// Smallest observed value (nanoseconds).
    pub min: u64,
    /// Largest observed value (nanoseconds).
    pub max: u64,
    /// Mean (nanoseconds).
    pub mean: f64,
    /// Median, as a bucket upper bound clamped to the observed range.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// The `spans` section: request-tracing status and ring totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpansSnapshot {
    /// Whether request tracing is on.
    pub enabled: bool,
    /// Recent-ring sampling stride.
    pub sample_every: u64,
    /// Slow-span threshold in nanoseconds.
    pub slow_ns: u64,
    /// Spans finished so far, summed over shards.
    pub seen: u64,
    /// JSONL span lines exported so far.
    pub exported: u64,
}

/// The `fib.swap_latency_us` object: publish-to-barrier latency of
/// recent table swaps, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapLatencySnapshot {
    /// Swaps measured since the server started.
    pub count: u64,
    /// Median over the recent-swap ring.
    pub p50: u64,
    /// 99th percentile over the recent-swap ring.
    pub p99: u64,
    /// Maximum over the recent-swap ring.
    pub max: u64,
}

/// The `fib` section: the control plane's generation-swapped route
/// table. `generation`/`retired` together audit the RCU retirement
/// property — in steady state `retired == generation - 1`, proving no
/// shard still references a pre-swap table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FibSnapshot {
    /// Current table generation (starts at 1).
    pub generation: u64,
    /// Routes in the current table.
    pub routes: u64,
    /// Table swaps published so far.
    pub swaps: u64,
    /// Highest generation every shard has provably moved past.
    pub retired: u64,
    /// Swap-latency percentiles; absent before the first swap.
    pub swap_latency_us: Option<SwapLatencySnapshot>,
}

/// The `frontend` section: the reactor's connection-plane counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrontendSnapshot {
    /// Connections currently open.
    pub conns_open: u64,
    /// Highest concurrently-open connection count ever observed.
    pub conns_peak: u64,
    /// Connections refused over the connection cap.
    pub conn_rejects: u64,
    /// Accept-loop pauses forced by fd exhaustion.
    pub accept_pauses: u64,
    /// Times the reactor stopped reading a connection for backpressure.
    pub read_pauses: u64,
    /// Submits deferred on a full shard queue.
    pub deferred_submits: u64,
    /// Deferred submits currently parked.
    pub deferred_now: u64,
    /// Largest per-connection egress queue ever observed, in bytes.
    pub egress_highwater_bytes: u64,
}

/// The merged stats frame, decoded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Shard count.
    pub shards: u64,
    /// The forwarding backend serving this instance.
    pub backend: Option<BackendKind>,
    /// Server uptime in seconds.
    pub uptime_secs: f64,
    /// Whether a drain is in progress (new submits refused).
    pub draining: bool,
    /// Shards restarted by the supervisor so far.
    pub shard_restarts: u64,
    /// Submit batches accepted.
    pub accepted: u64,
    /// Submit batches refused with `Busy`.
    pub busy: u64,
    /// Submits that failed after acceptance.
    pub errors: u64,
    /// Total packets executed.
    pub packets: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Verify-mode mismatches.
    pub mismatches: u64,
    /// Guarded-location overwrites across every shard (must be 0).
    pub lost_updates: u64,
    /// Batch activations across every shard.
    pub batches: u64,
    /// Simulator cycles across every shard.
    pub sim_cycles: u64,
    /// Sustained packets/sec since the server started.
    pub packets_per_sec: f64,
    /// Summed per-shard restart carryover (see
    /// [`ShardSnapshot::restart_carryover`]).
    pub restart_carryover: u64,
    /// Traced stage latency summaries, in the document's pipeline order.
    /// Empty when tracing is off (the `stages` object is absent).
    pub stages: Vec<StageSummarySnapshot>,
    /// Request-tracing status (absent from documents rendered without a
    /// tracer — pre-tracing servers and bare test fixtures).
    pub spans: Option<SpansSnapshot>,
    /// Route-table control-plane section (absent from documents rendered
    /// by pre-control-plane servers and bare test fixtures).
    pub fib: Option<FibSnapshot>,
    /// Connection-plane counters (absent from documents rendered by
    /// pre-frontend servers and bare test fixtures).
    pub frontend: Option<FrontendSnapshot>,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardSnapshot>,
}

impl StatsSnapshot {
    /// Every key a top-level stats document can carry, required first.
    /// `batch_size` and `service_latency_us` appear once the server has
    /// traffic; `stages` once tracing recorded samples; `spans` whenever
    /// the document was rendered by a tracing-aware server. The
    /// completeness test in this module pins the document against this
    /// list.
    pub const DOCUMENT_FIELDS: &'static [&'static str] = &[
        "shards",
        "backend",
        "uptime_secs",
        "draining",
        "shard_restarts",
        "restart_carryover",
        "accepted",
        "busy",
        "errors",
        "packets",
        "forwarded",
        "dropped",
        "mismatches",
        "lost_updates",
        "batches",
        "sim_cycles",
        "packets_per_sec",
        "batch_size",
        "service_latency_us",
        "stages",
        "spans",
        "fib",
        "frontend",
        "per_shard",
    ];
}

/// Decode failures: the document did not parse, or a required field was
/// missing or mistyped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeStatsError(pub String);

impl std::fmt::Display for DecodeStatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad stats frame: {}", self.0)
    }
}

impl std::error::Error for DecodeStatsError {}

fn req_u64(doc: &Json, key: &str) -> Result<u64, DecodeStatsError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| DecodeStatsError(format!("missing or non-integer field {key:?}")))
}

fn req_f64(doc: &Json, key: &str) -> Result<f64, DecodeStatsError> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| DecodeStatsError(format!("missing or non-numeric field {key:?}")))
}

impl StatsSnapshot {
    /// Decodes a stats JSON document.
    ///
    /// # Errors
    ///
    /// Fails on JSON syntax errors and on missing/mistyped required
    /// fields. Unknown fields are ignored (new servers may add them).
    pub fn decode(doc: &str) -> Result<StatsSnapshot, DecodeStatsError> {
        let j = Json::parse(doc).map_err(|e| DecodeStatsError(e.to_string()))?;
        let backend = match j.get("backend").and_then(Json::as_str) {
            // An unknown backend name means a newer server; the typed
            // counters below still decode, so don't refuse the frame.
            Some(name) => name.parse::<BackendKind>().ok(),
            None => None,
        };
        let mut per_shard = Vec::new();
        if let Some(items) = j.get("per_shard").and_then(Json::as_arr) {
            for item in items {
                per_shard.push(ShardSnapshot {
                    shard: req_u64(item, "shard")?,
                    packets: req_u64(item, "packets")?,
                    forwarded: req_u64(item, "forwarded")?,
                    dropped: req_u64(item, "dropped")?,
                    mismatches: req_u64(item, "mismatches")?,
                    lost_updates: req_u64(item, "lost_updates")?,
                    batches: req_u64(item, "batches")?,
                    sim_cycles: req_u64(item, "sim_cycles")?,
                    queue_depth: req_u64(item, "queue_depth")?,
                    queue_depth_highwater: req_u64(item, "queue_depth_highwater")?,
                    restart_carryover: req_u64(item, "restart_carryover").unwrap_or(0),
                });
            }
        }
        let mut stages = Vec::new();
        if let Some(Json::Obj(fields)) = j.get("stages") {
            for (stage, v) in fields {
                stages.push(StageSummarySnapshot {
                    stage: stage.clone(),
                    count: req_u64(v, "count")?,
                    min: req_u64(v, "min")?,
                    max: req_u64(v, "max")?,
                    mean: req_f64(v, "mean")?,
                    p50: req_u64(v, "p50")?,
                    p90: req_u64(v, "p90")?,
                    p99: req_u64(v, "p99")?,
                });
            }
        }
        let spans = match j.get("spans") {
            Some(s) => Some(SpansSnapshot {
                enabled: s
                    .get("enabled")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| DecodeStatsError("missing field \"spans.enabled\"".into()))?,
                sample_every: req_u64(s, "sample_every")?,
                slow_ns: req_u64(s, "slow_ns")?,
                seen: req_u64(s, "seen")?,
                exported: req_u64(s, "exported")?,
            }),
            None => None,
        };
        let fib = match j.get("fib") {
            Some(f) => Some(FibSnapshot {
                generation: req_u64(f, "generation")?,
                routes: req_u64(f, "routes")?,
                swaps: req_u64(f, "swaps")?,
                retired: req_u64(f, "retired")?,
                swap_latency_us: match f.get("swap_latency_us") {
                    Some(l) => Some(SwapLatencySnapshot {
                        count: req_u64(l, "count")?,
                        p50: req_u64(l, "p50")?,
                        p99: req_u64(l, "p99")?,
                        max: req_u64(l, "max")?,
                    }),
                    None => None,
                },
            }),
            None => None,
        };
        let frontend = match j.get("frontend") {
            Some(f) => Some(FrontendSnapshot {
                conns_open: req_u64(f, "conns_open")?,
                conns_peak: req_u64(f, "conns_peak")?,
                conn_rejects: req_u64(f, "conn_rejects")?,
                accept_pauses: req_u64(f, "accept_pauses")?,
                read_pauses: req_u64(f, "read_pauses")?,
                deferred_submits: req_u64(f, "deferred_submits")?,
                deferred_now: req_u64(f, "deferred_now")?,
                egress_highwater_bytes: req_u64(f, "egress_highwater_bytes")?,
            }),
            None => None,
        };
        Ok(StatsSnapshot {
            shards: req_u64(&j, "shards")?,
            backend,
            uptime_secs: req_f64(&j, "uptime_secs")?,
            draining: j
                .get("draining")
                .and_then(Json::as_bool)
                .ok_or_else(|| DecodeStatsError("missing field \"draining\"".into()))?,
            shard_restarts: req_u64(&j, "shard_restarts")?,
            accepted: req_u64(&j, "accepted")?,
            busy: req_u64(&j, "busy")?,
            errors: req_u64(&j, "errors")?,
            packets: req_u64(&j, "packets")?,
            forwarded: req_u64(&j, "forwarded")?,
            dropped: req_u64(&j, "dropped")?,
            mismatches: req_u64(&j, "mismatches")?,
            lost_updates: req_u64(&j, "lost_updates")?,
            batches: req_u64(&j, "batches")?,
            sim_cycles: req_u64(&j, "sim_cycles")?,
            packets_per_sec: req_f64(&j, "packets_per_sec")?,
            // Absent on documents from pre-tracing servers: default 0.
            restart_carryover: req_u64(&j, "restart_carryover").unwrap_or(0),
            stages,
            spans,
            fib,
            frontend,
            per_shard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShardQueue;
    use crate::shard::ShardTables;
    use crate::stats::{stats_json, FrontendStats, ServerCounters, STAGE_METRICS};
    use crate::supervisor::PublicShard;
    use crate::tables::{ControlOp, EpochTables};
    use crate::tracing::{PendingSpan, ServeTracer, StageTimings, TracingConfig};
    use memsync_netapp::fib::Route;
    use memsync_trace::MetricsRegistry;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    fn mk(forwarded: u64, dropped: u64, carryover: u64) -> PublicShard {
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
    fn snapshot_decodes_a_real_stats_document() {
        let shards = vec![mk(10, 2, 7), mk(5, 3, 0)];
        let counters = ServerCounters::default();
        counters.accepted.store(2, Ordering::Relaxed);
        counters.busy.store(1, Ordering::Relaxed);
        let doc = stats_json(
            &shards,
            &counters,
            BackendKind::Fast,
            3,
            true,
            Instant::now(),
            None,
            None,
            None,
        );
        let snap = StatsSnapshot::decode(&doc).expect("decodes");
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.backend, Some(BackendKind::Fast));
        assert!(snap.draining);
        assert_eq!(snap.shard_restarts, 3);
        assert_eq!(snap.restart_carryover, 7);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.busy, 1);
        assert_eq!(snap.packets, 20);
        assert_eq!(snap.forwarded, 15);
        assert_eq!(snap.dropped, 5);
        assert_eq!(snap.lost_updates, 0);
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!(snap.per_shard[0].forwarded, 10);
        assert_eq!(snap.per_shard[0].restart_carryover, 7);
        assert_eq!(snap.per_shard[1].dropped, 3);
        assert!(snap.uptime_secs >= 0.0);
        assert!(snap.stages.is_empty(), "no tracer, no stages");
        assert_eq!(snap.spans, None, "no tracer, no spans section");
        assert_eq!(snap.fib, None, "no tables, no fib section");
        assert_eq!(snap.frontend, None, "no frontend, no frontend section");
    }

    #[test]
    fn snapshot_rejects_malformed_and_incomplete_documents() {
        assert!(StatsSnapshot::decode("{not json").is_err());
        let e = StatsSnapshot::decode("{\"shards\": 2}").unwrap_err();
        assert!(e.to_string().contains("uptime_secs"), "{e}");
    }

    #[test]
    fn decode_skips_unknown_stats_sections_from_newer_servers() {
        // Forward compat: a newer server may add whole sections (scalar,
        // object, or array shaped) this decoder has never heard of; they
        // must be skipped, not refused, and the known fields still land.
        let doc = full_document();
        let patched = doc.replacen(
            "\"shards\":",
            "\"xyzzy_section\":{\"a\":1,\"b\":[2,{\"c\":3}]},\
             \"xyzzy_count\":9,\"xyzzy_list\":[1,2,3],\"shards\":",
            1,
        );
        assert_ne!(doc, patched, "patch applied");
        let snap = StatsSnapshot::decode(&patched).expect("unknown sections skipped");
        assert_eq!(snap, StatsSnapshot::decode(&doc).unwrap());
        // Unknown keys inside a known section are skipped too.
        let nested = doc.replacen("\"generation\":", "\"epoch_era\":4,\"generation\":", 1);
        let snap = StatsSnapshot::decode(&nested).expect("unknown nested field skipped");
        assert_eq!(snap.fib.unwrap().generation, 2);
    }

    #[test]
    fn decode_tolerates_documents_from_older_servers_missing_new_sections() {
        // Backward compat: a pre-control-plane server renders no fib
        // section (and a pre-tracing one no spans/frontend); the decode
        // must yield None, not an error.
        let doc = stats_json(
            &[mk(4, 1, 0)],
            &ServerCounters::default(),
            BackendKind::Sim,
            0,
            false,
            Instant::now(),
            None,
            None,
            None,
        );
        assert!(!doc.contains("\"fib\""), "fixture really lacks fib: {doc}");
        let snap = StatsSnapshot::decode(&doc).expect("old-server document decodes");
        assert_eq!(snap.fib, None);
        assert_eq!(snap.spans, None);
        assert_eq!(snap.frontend, None);
        assert_eq!(snap.forwarded, 4);
    }

    #[test]
    fn unknown_backend_names_do_not_refuse_the_frame() {
        // A newer server with a backend this client does not know about
        // still yields typed counters.
        let doc = stats_json(
            &[],
            &ServerCounters::default(),
            BackendKind::Sim,
            0,
            false,
            Instant::now(),
            None,
            None,
            None,
        )
        .replace("\"sim\"", "\"quantum\"");
        let snap = StatsSnapshot::decode(&doc).expect("decodes");
        assert_eq!(snap.backend, None);
    }

    /// Renders a fully-populated stats document: traffic on one shard,
    /// every stage histogram recorded, a live tracer with one finished
    /// span.
    fn full_document() -> String {
        let shards = vec![mk(10, 2, 3)];
        {
            let mut reg = shards[0].stats.lock().unwrap();
            for (_, metric) in STAGE_METRICS.iter().skip(1).take(4) {
                reg.record_bucket(metric, 900);
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
                span_id: 1,
                client_assigned: false,
                decode_ns: 100,
                timings: vec![StageTimings {
                    shard: 0,
                    packets: 12,
                    queue_ns: 900,
                    coalesce_ns: 900,
                    execute_ns: 900,
                    egress_ns: 900,
                    sim_cycles: 0,
                    frames: 24,
                }],
            },
            200,
        );
        let frontend = FrontendStats::default();
        frontend.conn_opened();
        // A control plane with one completed swap, so the fib section
        // carries the swap_latency_us object too.
        let tables = EpochTables::new(ShardTables::from_routes(&[Route {
            prefix: 0,
            len: 0,
            next_hop: 7,
        }]));
        tables.mutate(&[ControlOp::Add(vec![Route {
            prefix: 0x0a00_0000,
            len: 8,
            next_hop: 42,
        }])]);
        tables.retire_up_to(1);
        tables.record_swap_latency(350);
        stats_json(
            &shards,
            &ServerCounters::default(),
            BackendKind::Fast,
            1,
            false,
            Instant::now(),
            Some(&tracer),
            Some(&frontend),
            Some(&tables),
        )
    }

    fn object_keys(j: &Json) -> Vec<String> {
        match j {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    #[test]
    fn document_fields_cover_the_rendered_stats_document_exactly() {
        // Satellite completeness pin: a field added to the document but
        // not to DOCUMENT_FIELDS (or vice versa) fails here; a field
        // added to DOCUMENT_FIELDS but not the typed snapshot fails the
        // exhaustive destructure below.
        let doc = full_document();
        let j = Json::parse(&doc).unwrap();
        let keys = object_keys(&j);
        assert_eq!(
            keys,
            StatsSnapshot::DOCUMENT_FIELDS,
            "top-level stats document keys drifted from \
             StatsSnapshot::DOCUMENT_FIELDS"
        );
        let per_shard = j.get("per_shard").and_then(Json::as_arr).unwrap();
        assert_eq!(
            object_keys(&per_shard[0]),
            ShardSnapshot::DOCUMENT_FIELDS,
            "per-shard object keys drifted from ShardSnapshot::DOCUMENT_FIELDS"
        );

        // Exhaustive destructures: adding a struct field without updating
        // this test (and the decode) is a compile error here; adding a
        // document field without a typed counterpart trips the key
        // assertions above first.
        let snap = StatsSnapshot::decode(&doc).expect("full document decodes");
        let StatsSnapshot {
            shards: _,
            backend,
            uptime_secs: _,
            draining: _,
            shard_restarts,
            accepted: _,
            busy: _,
            errors: _,
            packets,
            forwarded: _,
            dropped: _,
            mismatches: _,
            lost_updates: _,
            batches: _,
            sim_cycles: _,
            packets_per_sec: _,
            restart_carryover,
            stages,
            spans,
            fib,
            frontend,
            per_shard,
        } = snap;
        assert_eq!(backend, Some(BackendKind::Fast));
        assert_eq!((packets, shard_restarts, restart_carryover), (12, 1, 3));
        // All six stages present: four shard-side plus decode/write.
        assert_eq!(stages.len(), STAGE_METRICS.len(), "{stages:?}");
        let spans = spans.expect("spans section present with a tracer");
        assert!(spans.enabled);
        assert_eq!(spans.seen, 1);
        let fib = fib.expect("fib section present with tables");
        let FibSnapshot {
            generation,
            routes,
            swaps,
            retired,
            swap_latency_us,
        } = fib;
        assert_eq!((generation, routes, swaps, retired), (2, 2, 1, 1));
        let lat = swap_latency_us.expect("one swap measured");
        assert_eq!((lat.count, lat.max), (1, 350));
        assert!(lat.p50 <= lat.p99 && lat.p99 <= lat.max);
        let frontend = frontend.expect("frontend section present");
        assert_eq!((frontend.conns_open, frontend.conns_peak), (1, 1));
        let ShardSnapshot {
            shard: _,
            packets: _,
            forwarded: _,
            dropped: _,
            mismatches: _,
            lost_updates: _,
            batches: _,
            sim_cycles: _,
            queue_depth: _,
            queue_depth_highwater: _,
            restart_carryover: shard_carry,
        } = per_shard[0];
        assert_eq!(shard_carry, 3);
    }
}
