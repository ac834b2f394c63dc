//! The live side of the stats frame: every source fills its own section
//! of the [`StatsSnapshot`] schema, and this module knows the metric set.
//!
//! Each shard records into its own `ShardStats` (no cross-shard lock
//! traffic on the hot path): seven counters and fixed-footprint
//! [`BucketHistogram`]s, so a shard's stats stay O(1) in memory however
//! long the server runs. The tracer keeps the session's two traced
//! stages in the same `StageHistograms`. A stats request sums every
//! shard's stats, field by field, into the top-level totals, next to each
//! shard's own section; the session renders the result.

use crate::queue::JobOutcome;
use crate::server::Shared;
use crate::shard::Shard;
use crate::snapshot::{FrontendSnapshot, ShardSnapshot, StageSummarySnapshot, StatsSnapshot};
use crate::tracing::ServeTracer;
use memsync_trace::{BucketHistogram, SpanRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

/// The traced stages' keys in a `stages` section, in pipeline order. The
/// session times the first and the last, a shard activation the four
/// between (the stage fields of [`SpanRecord`]); [`StageHistograms`]
/// keeps one histogram per key, at the key's index.
pub(crate) const STAGES: [&str; 6] = [
    "decode_ns",
    "queue_ns",
    "coalesce_ns",
    "execute_ns",
    "egress_ns",
    "write_ns",
];

/// One latency histogram per traced stage, in nanoseconds.
#[derive(Debug, Default)]
pub(crate) struct StageHistograms([BucketHistogram; STAGES.len()]);

impl StageHistograms {
    /// Records the two stages a session times.
    pub(crate) fn record_session(&mut self, decode_ns: u64, write_ns: u64) {
        self.0[0].record(decode_ns);
        self.0[5].record(write_ns);
    }

    /// Records the four stages a shard activation times, from a job's
    /// span record.
    fn record_shard(&mut self, t: &SpanRecord) {
        let stages = [t.queue_ns, t.coalesce_ns, t.execute_ns, t.egress_ns];
        for (h, ns) in self.0[1..5].iter_mut().zip(stages) {
            h.record(ns);
        }
    }

    /// Adds `other`'s samples, stage by stage.
    fn add(&mut self, other: &StageHistograms) {
        for (h, o) in self.0.iter_mut().zip(&other.0) {
            h.merge(o);
        }
    }

    /// A `stages` section: every stage with a sample, in pipeline order.
    pub(crate) fn section(&self) -> Vec<StageSummarySnapshot> {
        STAGES
            .iter()
            .zip(&self.0)
            .filter_map(|(stage, h)| Some(StageSummarySnapshot::new(stage, h.summary()?)))
            .collect()
    }
}

/// One shard's live stats, recorded by its activations: the traffic
/// counters, a histogram per activation and per job, and the shard's
/// traced stages.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    /// Packets executed.
    pub(crate) packets: u64,
    /// Packets the oracle classified as forwarded.
    pub(crate) forwarded: u64,
    /// Packets dropped (TTL expiry or no route).
    pub(crate) dropped: u64,
    /// Verify-mode mismatches.
    pub(crate) mismatches: u64,
    /// Guarded-location overwrites the backend reported.
    pub(crate) lost_updates: u64,
    /// Activations.
    pub(crate) batches: u64,
    /// Simulator cycles consumed (0 under the fast backend).
    pub(crate) sim_cycles: u64,
    /// Packets per activation.
    pub(crate) batch_size: BucketHistogram,
    /// Enqueue-to-reply latency per job, in microseconds.
    pub(crate) service_latency_us: BucketHistogram,
    /// The traced stages a shard times (queue, coalesce, execute,
    /// egress).
    pub(crate) stages: StageHistograms,
}

impl ShardStats {
    /// Records one activation of `packets` packets, with the lost
    /// updates and simulator cycles its backend reported.
    pub(crate) fn record_batch(&mut self, packets: u64, lost_updates: u64, sim_cycles: u64) {
        self.packets += packets;
        self.lost_updates += lost_updates;
        self.sim_cycles += sim_cycles;
        self.batches += 1;
        self.batch_size.record(packets);
    }

    /// Records one job of an activation: its outcome, its service
    /// latency and, when traced, the four stages its span record carries.
    pub(crate) fn record_job(&mut self, out: &JobOutcome, service_us: u64) {
        self.forwarded += u64::from(out.forwarded);
        self.dropped += u64::from(out.dropped);
        self.mismatches += u64::from(out.mismatches);
        self.service_latency_us.record(service_us);
        if let Some(t) = &out.timings {
            self.stages.record_shard(t);
        }
    }

    /// Adds `other`: counters sum, histograms merge.
    fn add(&mut self, other: &ShardStats) {
        self.packets += other.packets;
        self.forwarded += other.forwarded;
        self.dropped += other.dropped;
        self.mismatches += other.mismatches;
        self.lost_updates += other.lost_updates;
        self.batches += other.batches;
        self.sim_cycles += other.sim_cycles;
        self.batch_size.merge(&other.batch_size);
        self.service_latency_us.merge(&other.service_latency_us);
        self.stages.add(&other.stages);
    }

    /// The part of a shard section these stats fill. Applied to the sum
    /// over every shard, it gives the top-level totals.
    fn section(&self) -> ShardSnapshot {
        ShardSnapshot {
            packets: self.packets,
            forwarded: self.forwarded,
            dropped: self.dropped,
            mismatches: self.mismatches,
            lost_updates: self.lost_updates,
            batches: self.batches,
            sim_cycles: self.sim_cycles,
            batch_size: self.batch_size.summary(),
            service_latency_us: self.service_latency_us.summary(),
            stages: self.stages.section(),
            ..ShardSnapshot::default()
        }
    }
}

/// Server-global counters the sessions maintain (everything per-shard
/// lives in the shards' `ShardStats`).
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

/// The shard plane's part of a snapshot: one section per shard (its
/// stats, queue and restart carryover), and their sum, with the tracer's
/// decode and write stages added, as the top-level totals. The
/// server-level fields stay at their defaults for [`snapshot`] to fill.
pub(crate) fn collect_shards(shards: &[Arc<Shard>], tracer: &ServeTracer) -> StatsSnapshot {
    let mut sum = ShardStats::default();
    let mut per_shard = Vec::with_capacity(shards.len());
    for s in shards {
        let section = {
            let stats = s.stats.lock().unwrap_or_else(PoisonError::into_inner);
            sum.add(&stats);
            stats.section()
        };
        per_shard.push(ShardSnapshot {
            shard: s.id as u64,
            queue_depth_highwater: s.queue.high_water() as u64,
            queue_depth: s.queue.len() as u64,
            restart_carryover: s.carryover.load(Ordering::Relaxed),
            ..section
        });
    }
    sum.stages
        .add(&tracer.stages.lock().unwrap_or_else(PoisonError::into_inner));
    let totals = sum.section();
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
    use memsync_trace::Pcg32;

    fn mk_shard(id: usize, forwarded: u32, dropped: u32, carryover: u64) -> Arc<Shard> {
        let shard = Shard::new(id, 4);
        {
            let mut s = shard.stats.lock().unwrap();
            s.record_batch(u64::from(forwarded + dropped), 0, 0);
            let out = JobOutcome {
                forwarded,
                dropped,
                ..JobOutcome::default()
            };
            s.record_job(&out, 100);
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

    /// A span record carrying the four shard stages.
    fn shard_stages(
        queue_ns: u64,
        coalesce_ns: u64,
        execute_ns: u64,
        egress_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            queue_ns,
            coalesce_ns,
            execute_ns,
            egress_ns,
            ..SpanRecord::default()
        }
    }

    /// A stage duration from a nanosecond to about nine minutes.
    fn stage_ns(rng: &mut Pcg32) -> u64 {
        let bits = rng.gen_range(1..40);
        rng.gen_range(0..1 << bits)
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
        shards[0]
            .stats
            .lock()
            .unwrap()
            .stages
            .record_shard(&shard_stages(1500, 1500, 1500, 1500));
        let tracer = tracer(true);
        tracer.finish(
            &PendingSpan {
                span_id: 7,
                client_assigned: true,
                decode_ns: 800,
                timings: vec![SpanRecord {
                    shard: 0,
                    packets: 12,
                    frames: 24,
                    ..shard_stages(1500, 1500, 1500, 1500)
                }],
            },
            300,
        );
        let snap = collect_shards(&shards, &tracer);
        let names: Vec<&str> = snap.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, STAGES, "shard stages plus decode/write, in order");
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
            &STAGES[1..5],
            "a shard holds only its own stages"
        );
        assert!(snap.per_shard[1].stages.is_empty());
    }

    /// Seeded property: activations and traced jobs dealt across one to
    /// four shards, and the session stages of each traced job recorded by
    /// the tracer, sum in `collect_shards` to exactly what one
    /// `ShardStats` that recorded everything reports: every counter, and
    /// every histogram's summary.
    #[test]
    fn property_shard_totals_equal_one_shard_that_recorded_everything() {
        for case in 0..64u64 {
            let seed = 0x5_7A75_0000 ^ case;
            let mut rng = Pcg32::seed_from_u64(seed);
            let shards: Vec<Arc<Shard>> = (0..1 + rng.gen_range_usize(0..4))
                .map(|id| Arc::new(Shard::new(id, 4)))
                .collect();
            let tracer = tracer(true);
            let mut one = ShardStats::default();
            for _ in 0..rng.gen_range(0..120) {
                let jobs: Vec<(JobOutcome, u64)> = (0..1 + rng.gen_range(0..4))
                    .map(|_| {
                        let out = JobOutcome {
                            forwarded: rng.gen_range_u32(0..512),
                            dropped: rng.gen_range_u32(0..512),
                            mismatches: rng.gen_range_u32(0..3),
                            timings: rng.gen_bool(0.5).then(|| {
                                let mut ns = || stage_ns(&mut rng);
                                shard_stages(ns(), ns(), ns(), ns())
                            }),
                        };
                        (out, rng.gen_range(0..1 << 20))
                    })
                    .collect();
                let packets = jobs
                    .iter()
                    .map(|(out, _)| u64::from(out.forwarded + out.dropped))
                    .sum();
                let (lost, cycles) = (rng.gen_range(0..3), rng.gen_range(0..1 << 20));
                let shard = &shards[rng.gen_range_usize(0..shards.len())];
                for stats in [&mut *shard.stats.lock().unwrap(), &mut one] {
                    stats.record_batch(packets, lost, cycles);
                    for (out, service_us) in &jobs {
                        stats.record_job(out, *service_us);
                    }
                }
                for timings in jobs.iter().filter_map(|(out, _)| out.timings) {
                    let (decode_ns, write_ns) = (stage_ns(&mut rng), stage_ns(&mut rng));
                    let span = PendingSpan {
                        span_id: 1,
                        client_assigned: true,
                        decode_ns,
                        timings: vec![timings],
                    };
                    tracer.finish(&span, write_ns);
                    one.stages.record_session(decode_ns, write_ns);
                }
            }
            let got = collect_shards(&shards, &tracer);
            let want = one.section();
            let counters = |s: &ShardSnapshot| {
                [
                    s.packets,
                    s.forwarded,
                    s.dropped,
                    s.mismatches,
                    s.lost_updates,
                    s.batches,
                    s.sim_cycles,
                ]
            };
            let totals = [
                got.packets,
                got.forwarded,
                got.dropped,
                got.mismatches,
                got.lost_updates,
                got.batches,
                got.sim_cycles,
            ];
            assert_eq!(totals, counters(&want), "counters (seed {seed:#x})");
            let mut per_shard = [0; 7];
            for section in &got.per_shard {
                for (sum, c) in per_shard.iter_mut().zip(counters(section)) {
                    *sum += c;
                }
            }
            assert_eq!(per_shard, totals, "shard sections (seed {seed:#x})");
            assert_eq!(
                got.batch_size, want.batch_size,
                "batch_size (seed {seed:#x})"
            );
            assert_eq!(
                got.service_latency_us, want.service_latency_us,
                "service_latency_us (seed {seed:#x})"
            );
            assert_eq!(got.stages, want.stages, "stages (seed {seed:#x})");
        }
    }
}
