//! The live side of the stats frame: every source fills its own section
//! of the [`StatsSnapshot`] schema.
//!
//! Each shard records into its own [`MetricsRegistry`] (no cross-shard
//! lock traffic on the hot path), histograms included as fixed-footprint
//! [`memsync_trace::BucketHistogram`]s, so a shard's stats stay O(1) in
//! memory however long the server runs. A stats request folds every
//! shard's registry into one for the top-level totals and histograms,
//! next to each shard's own section; the session renders the result.

use crate::server::Shared;
use crate::shard::Shard;
use crate::snapshot::{FrontendSnapshot, ShardSnapshot, StageSummarySnapshot, StatsSnapshot};
use crate::tracing::ServeTracer;
use memsync_trace::{BucketHistogram, BucketSummary, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

/// The traced stages of a `stages` section and the registry histograms
/// they summarize, in pipeline order. The four shard stages live in the
/// shard registries; decode/write come from the tracer's frontend
/// registry.
pub const STAGE_METRICS: [(&str, &str); 6] = [
    ("decode_ns", "serve.stage.decode_ns"),
    ("queue_ns", "serve.stage.queue_ns"),
    ("coalesce_ns", "serve.stage.coalesce_ns"),
    ("execute_ns", "serve.stage.execute_ns"),
    ("egress_ns", "serve.stage.egress_ns"),
    ("write_ns", "serve.stage.write_ns"),
];

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
/// sessions; they fill the snapshot's `frontend` section.
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

    /// The snapshot's `frontend` section.
    pub(crate) fn snapshot(&self) -> FrontendSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        FrontendSnapshot {
            conns_open: load(&self.conns_open),
            conns_peak: load(&self.conns_peak),
            conn_rejects: load(&self.conn_rejects),
            accept_pauses: load(&self.accept_pauses),
            read_pauses: load(&self.read_pauses),
            deferred_submits: load(&self.deferred_submits),
            deferred_now: load(&self.deferred_now),
            egress_highwater_bytes: load(&self.egress_highwater),
        }
    }
}

fn summary(reg: &MetricsRegistry, metric: &str) -> Option<BucketSummary> {
    reg.bucket_histogram(metric)
        .and_then(BucketHistogram::summary)
}

/// The registry-fed part of a shard section: traffic counters and
/// histograms. Applied to the merged registry, it gives the top-level
/// totals.
fn registry_section(reg: &MetricsRegistry) -> ShardSnapshot {
    ShardSnapshot {
        packets: reg.counter("serve.packets"),
        forwarded: reg.counter("serve.forwarded"),
        dropped: reg.counter("serve.dropped"),
        mismatches: reg.counter("serve.mismatches"),
        lost_updates: reg.counter("serve.lost_updates"),
        batches: reg.counter("serve.batches"),
        sim_cycles: reg.counter("serve.sim_cycles"),
        batch_size: summary(reg, "serve.batch_size"),
        service_latency_us: summary(reg, "serve.service_latency_us"),
        stages: STAGE_METRICS
            .iter()
            .filter_map(|(stage, metric)| {
                Some(StageSummarySnapshot::new(stage, summary(reg, metric)?))
            })
            .collect(),
        ..ShardSnapshot::default()
    }
}

/// The shard plane's part of a snapshot: one section per shard (its
/// registry, queue and restart carryover), and their sums and merged
/// histograms as the top-level totals, with the tracer's decode/write
/// stages folded into the top-level `stages`. The server-level fields
/// stay at their defaults for [`snapshot`] to fill.
pub(crate) fn collect_shards(shards: &[Arc<Shard>], tracer: &ServeTracer) -> StatsSnapshot {
    let mut merged = MetricsRegistry::new();
    let mut per_shard = Vec::with_capacity(shards.len());
    for s in shards {
        let section = {
            let reg = s.stats.lock().unwrap_or_else(PoisonError::into_inner);
            merged.merge(&reg);
            registry_section(&reg)
        };
        per_shard.push(ShardSnapshot {
            shard: s.id as u64,
            queue_depth_highwater: s.queue.high_water() as u64,
            queue_depth: s.queue.len() as u64,
            restart_carryover: s.carryover.load(Ordering::Relaxed),
            ..section
        });
    }
    tracer.merge_frontend_into(&mut merged);
    let totals = registry_section(&merged);
    StatsSnapshot {
        restart_carryover: per_shard.iter().map(|s| s.restart_carryover).sum(),
        packets: totals.packets,
        forwarded: totals.forwarded,
        dropped: totals.dropped,
        mismatches: totals.mismatches,
        lost_updates: totals.lost_updates,
        batches: totals.batches,
        sim_cycles: totals.sim_cycles,
        batch_size: totals.batch_size,
        service_latency_us: totals.service_latency_us,
        stages: totals.stages,
        per_shard,
        ..StatsSnapshot::default()
    }
}

/// The live stats snapshot: the shard plane, the server counters, and
/// the tracer's, control plane's and frontend's own sections.
pub(crate) fn snapshot(shared: &Shared) -> StatsSnapshot {
    let shards = collect_shards(&shared.shards, &shared.tracer);
    let uptime = shared.started.elapsed().as_secs_f64().max(1e-9);
    let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
    StatsSnapshot {
        shards: shards.per_shard.len() as u64,
        backend: Some(shared.config.backend),
        uptime_secs: uptime,
        draining: shared.draining.load(Ordering::Acquire),
        shard_restarts: shared.shard_restarts(),
        accepted: counter(&shared.counters.accepted),
        busy: counter(&shared.counters.busy),
        errors: counter(&shared.counters.errors),
        packets_per_sec: shards.packets as f64 / uptime,
        spans: Some(shared.tracer.snapshot()),
        fib: Some(shared.control.tables.snapshot()),
        frontend: Some(shared.frontend.snapshot()),
        ..shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracing::{PendingSpan, TracingConfig};
    use memsync_trace::SpanRecord;

    fn mk_shard(id: usize, forwarded: u64, dropped: u64, carryover: u64) -> Arc<Shard> {
        let shard = Shard::new(id, 4);
        {
            let mut r = shard.stats.lock().unwrap();
            r.add("serve.packets", forwarded + dropped);
            r.add("serve.forwarded", forwarded);
            r.add("serve.dropped", dropped);
            r.add("serve.batches", 1);
            r.record_bucket("serve.batch_size", forwarded + dropped);
            r.record_bucket("serve.service_latency_us", 100);
        }
        shard.carryover.store(carryover, Ordering::Relaxed);
        Arc::new(shard)
    }

    fn tracer(enabled: bool) -> ServeTracer {
        let config = TracingConfig {
            enabled,
            ..TracingConfig::default()
        };
        ServeTracer::new(&config).expect("no span file to open")
    }

    #[test]
    fn per_shard_sections_sum_to_the_top_level() {
        let shards = vec![mk_shard(0, 10, 2, 4), mk_shard(1, 5, 3, 0)];
        let snap = collect_shards(&shards, &tracer(false));
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!((snap.forwarded, snap.dropped, snap.packets), (15, 5, 20));
        assert_eq!(snap.batches, 2);
        assert_eq!(
            snap.restart_carryover, 4,
            "per-shard carryover sums to the top level"
        );
        assert_eq!(snap.per_shard[0].restart_carryover, 4);
        assert_eq!(snap.per_shard[1].dropped, 3);
        let sizes = snap.batch_size.expect("merged batch-size histogram");
        assert_eq!((sizes.count, sizes.min, sizes.max), (2, 8, 12));
        assert_eq!(snap.service_latency_us.map(|s| s.count), Some(2));
        assert!(snap.stages.is_empty(), "no tracing, no stages");
        assert!(snap.per_shard.iter().all(|s| s.stages.is_empty()));
    }

    #[test]
    fn traced_shard_and_frontend_stages_merge_into_the_top_level() {
        let shards = vec![mk_shard(0, 10, 2, 0), mk_shard(1, 1, 1, 0)];
        {
            let mut reg = shards[0].stats.lock().unwrap();
            for (_, metric) in &STAGE_METRICS[1..5] {
                reg.record_bucket(metric, 1500);
            }
        }
        let tracer = tracer(true);
        tracer.finish(
            &PendingSpan {
                span_id: 7,
                client_assigned: true,
                decode_ns: 800,
                timings: vec![SpanRecord {
                    shard: 0,
                    packets: 12,
                    queue_ns: 1500,
                    coalesce_ns: 1500,
                    execute_ns: 1500,
                    egress_ns: 1500,
                    frames: 24,
                    ..SpanRecord::default()
                }],
            },
            300,
        );
        let snap = collect_shards(&shards, &tracer);
        let names: Vec<&str> = snap.stages.iter().map(|s| s.stage.as_str()).collect();
        let all: Vec<&str> = STAGE_METRICS.iter().map(|(stage, _)| *stage).collect();
        assert_eq!(names, all, "shard stages plus decode/write, in order");
        let decode = &snap.stages[0];
        assert_eq!((decode.count, decode.min), (1, 800));
        assert_eq!(snap.stages[5].max, 300, "write stage from the tracer");
        let shard_stages: Vec<&str> = snap.per_shard[0]
            .stages
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(
            shard_stages,
            &all[1..5],
            "a shard holds only its own stages"
        );
        assert!(snap.per_shard[1].stages.is_empty());
    }
}
