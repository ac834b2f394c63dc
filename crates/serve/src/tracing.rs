//! Request-scoped tracing: per-stage span records, sampled span rings,
//! and JSONL span export.
//!
//! A traced submit travels `decode → queue-wait → batch-coalesce →
//! backend-execute → egress encode → socket write`. The shard thread
//! measures the four middle stages and fills them, with its own fields,
//! into one [`SpanRecord`] per job, shipped back through
//! [`crate::queue::JobOutcome::timings`]; the connection's session
//! measures decode and write, and [`ServeTracer::finish`] stamps those and
//! the span id on each record after the response hits the socket.
//! Finished spans land three places:
//!
//! * per-shard stage [`BucketHistogram`]s (the shard records its four
//!   stages under its own stats registry; the tracer records the two
//!   connection-side stages in a server-global frontend registry) —
//!   merged into the stats frame for live p50/p99;
//! * a bounded per-shard ring of recent spans (every `sample_every`-th)
//!   plus an always-keep slow ring above [`TracingConfig::slow_ns`];
//! * the optional JSONL span sink (`serve --trace-spans FILE`), one line
//!   per span, reusing [`memsync_trace::JsonlSink`].
//!
//! **Cost when disabled** (the default): a single `bool` load gates every
//! instrumentation site — no `Instant::now`, no locks, no allocations.
//! Pinned by `tests/trace_zero_alloc.rs`.
//!
//! [`BucketHistogram`]: memsync_trace::BucketHistogram

use crate::snapshot::{RingSnapshot, SpansSnapshot};
use memsync_trace::{JsonlSink, MetricsRegistry, SpanRecord};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Spans kept in each shard's sampled recent ring.
const RECENT_CAP: usize = 256;
/// Spans kept in each shard's always-keep slow ring.
const SLOW_CAP: usize = 64;

/// Bit marking a server-assigned span id (the client did not tag the
/// batch).
pub const SERVER_SPAN_BIT: u64 = 1 << 63;

/// Request-tracing configuration (disabled by default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracingConfig {
    /// Master switch. Off means zero instrumentation cost.
    pub enabled: bool,
    /// Keep every N-th span in the recent ring (1 = all). Slow spans are
    /// always kept regardless.
    pub sample_every: u32,
    /// Spans whose stage total meets this threshold (nanoseconds) go to
    /// the always-keep slow ring.
    pub slow_ns: u64,
    /// JSONL span export path (`serve --trace-spans FILE`); every span
    /// is written, not just sampled ones.
    pub spans_path: Option<String>,
}

impl Default for TracingConfig {
    fn default() -> Self {
        TracingConfig {
            enabled: false,
            sample_every: 16,
            slow_ns: Duration::from_millis(5).as_nanos() as u64,
            spans_path: None,
        }
    }
}

/// A span accumulating across one submit: the resolved id plus the
/// shard-filled span records collected from job outcomes. Finalized by
/// [`ServeTracer::finish`] once the response is on the wire.
#[derive(Debug)]
pub struct PendingSpan {
    /// Resolved span id (client-assigned, or server-assigned with
    /// [`SERVER_SPAN_BIT`] set).
    pub span_id: u64,
    /// Whether the id came from the client.
    pub client_assigned: bool,
    /// Request frame decode duration (the session, on a reactor thread).
    pub decode_ns: u64,
    /// One shard-filled record per job the submit fanned out to.
    pub timings: Vec<SpanRecord>,
}

/// One shard's bounded span retention.
#[derive(Debug, Default)]
struct SpanRings {
    /// Every `sample_every`-th finished span, newest last.
    recent: VecDeque<SpanRecord>,
    /// Spans above the slow threshold, newest last, kept unconditionally.
    slow: VecDeque<SpanRecord>,
    /// Spans finished against this shard (sampled or not).
    seen: u64,
}

fn push_capped(ring: &mut VecDeque<SpanRecord>, cap: usize, rec: SpanRecord) {
    if ring.len() == cap {
        ring.pop_front();
    }
    ring.push_back(rec);
}

/// The server-global tracing state: span-id assignment, per-shard rings,
/// the frontend (connection-side) stage registry, and the JSONL sink.
#[derive(Debug)]
pub struct ServeTracer {
    config: TracingConfig,
    next_span: AtomicU64,
    rings: Vec<Mutex<SpanRings>>,
    /// Decode/write stage histograms (connection-thread stages; the four
    /// shard stages live in the per-shard stats registries).
    frontend: Mutex<MetricsRegistry>,
    sink: Option<Mutex<JsonlSink<BufWriter<File>>>>,
    exported: AtomicU64,
}

impl ServeTracer {
    /// Builds the tracer for `shards` shards, opening the span export
    /// file when configured.
    ///
    /// # Errors
    ///
    /// Propagates span-file creation failures.
    pub fn new(config: TracingConfig, shards: usize) -> io::Result<ServeTracer> {
        let sink = match (&config.spans_path, config.enabled) {
            (Some(path), true) => Some(Mutex::new(JsonlSink::new(BufWriter::new(File::create(
                path,
            )?)))),
            _ => None,
        };
        Ok(ServeTracer {
            config,
            next_span: AtomicU64::new(1),
            rings: (0..shards)
                .map(|_| Mutex::new(SpanRings::default()))
                .collect(),
            frontend: Mutex::new(MetricsRegistry::new()),
            sink,
            exported: AtomicU64::new(0),
        })
    }

    /// Whether tracing is on. Every instrumentation site gates on this
    /// single load; when it answers `false`, nothing else in this module
    /// runs.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Resolves a span id: the client's, or a fresh server-assigned id
    /// with [`SERVER_SPAN_BIT`] set. Returns `(id, client_assigned)`.
    pub fn assign(&self, client: Option<u64>) -> (u64, bool) {
        match client {
            Some(id) => (id, true),
            None => (
                self.next_span.fetch_add(1, Ordering::Relaxed) | SERVER_SPAN_BIT,
                false,
            ),
        }
    }

    /// Finalizes a span once the response left the socket: stamps the
    /// span id and the connection-side stages on each (job, shard)
    /// record, feeds the rings, records the connection-side stage
    /// histograms, and exports JSONL lines.
    pub fn finish(&self, pending: &PendingSpan, write_ns: u64) {
        if !self.enabled() || pending.timings.is_empty() {
            return;
        }
        {
            let mut reg = self.frontend.lock().unwrap_or_else(PoisonError::into_inner);
            reg.record_bucket("serve.stage.decode_ns", pending.decode_ns);
            reg.record_bucket("serve.stage.write_ns", write_ns);
        }
        for t in &pending.timings {
            let rec = SpanRecord {
                span: pending.span_id,
                client_assigned: pending.client_assigned,
                decode_ns: pending.decode_ns,
                write_ns,
                ..*t
            };
            if let Some(ring) = self.rings.get(t.shard as usize) {
                let mut r = ring.lock().unwrap_or_else(PoisonError::into_inner);
                r.seen += 1;
                if rec.total_ns() >= self.config.slow_ns {
                    push_capped(&mut r.slow, SLOW_CAP, rec);
                } else if self.config.sample_every <= 1
                    || r.seen % u64::from(self.config.sample_every) == 0
                {
                    push_capped(&mut r.recent, RECENT_CAP, rec);
                }
            }
            if let Some(sink) = &self.sink {
                sink.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .write_meta(&rec.to_jsonl());
                self.exported.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Flushes the span sink (drain/shutdown and test checkpoints), so
    /// readers of the JSONL file see every finished span.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            use memsync_trace::TraceSink as _;
            sink.lock().unwrap_or_else(PoisonError::into_inner).flush();
        }
    }

    /// Snapshot of one shard's sampled recent spans, oldest first.
    pub fn recent_spans(&self, shard: usize) -> Vec<SpanRecord> {
        self.rings.get(shard).map_or_else(Vec::new, |r| {
            r.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recent
                .iter()
                .copied()
                .collect()
        })
    }

    /// Snapshot of one shard's slow spans, oldest first.
    pub fn slow_spans(&self, shard: usize) -> Vec<SpanRecord> {
        self.rings.get(shard).map_or_else(Vec::new, |r| {
            r.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .slow
                .iter()
                .copied()
                .collect()
        })
    }

    /// Folds the connection-side stage histograms (decode/write) into a
    /// registry being assembled for a stats frame.
    pub fn merge_frontend_into(&self, reg: &mut MetricsRegistry) {
        reg.merge(&self.frontend.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// The snapshot's `spans` section: totals plus per-shard ring
    /// occupancy.
    pub fn snapshot(&self) -> SpansSnapshot {
        let rings: Vec<RingSnapshot> = self
            .rings
            .iter()
            .enumerate()
            .map(|(i, ring)| {
                let r = ring.lock().unwrap_or_else(PoisonError::into_inner);
                RingSnapshot {
                    shard: i as u64,
                    seen: r.seen,
                    recent: r.recent.len() as u64,
                    slow: r.slow.len() as u64,
                }
            })
            .collect();
        SpansSnapshot {
            enabled: self.config.enabled,
            sample_every: u64::from(self.config.sample_every),
            slow_ns: self.config.slow_ns,
            seen: rings.iter().map(|r| r.seen).sum(),
            exported: self.exported.load(Ordering::Relaxed),
            rings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(shard: u16, total_each: u64) -> SpanRecord {
        SpanRecord {
            shard,
            packets: 10,
            queue_ns: total_each,
            coalesce_ns: total_each,
            execute_ns: total_each,
            egress_ns: total_each,
            sim_cycles: 3,
            frames: 20,
            ..SpanRecord::default()
        }
    }

    fn enabled_config() -> TracingConfig {
        TracingConfig {
            enabled: true,
            sample_every: 2,
            slow_ns: 1_000_000,
            spans_path: None,
        }
    }

    #[test]
    fn assign_marks_server_ids_with_the_high_bit() {
        let t = ServeTracer::new(enabled_config(), 2).unwrap();
        assert_eq!(t.assign(Some(7)), (7, true));
        let (id, client) = t.assign(None);
        assert!(!client);
        assert_ne!(id & SERVER_SPAN_BIT, 0);
        let (id2, _) = t.assign(None);
        assert_ne!(id, id2, "fresh id per span");
    }

    #[test]
    fn finish_samples_recent_and_always_keeps_slow() {
        let t = ServeTracer::new(enabled_config(), 1).unwrap();
        // 4 fast spans at sample_every=2 -> 2 sampled.
        for i in 0..4 {
            t.finish(
                &PendingSpan {
                    span_id: i,
                    client_assigned: true,
                    decode_ns: 10,
                    timings: vec![timings(0, 100)],
                },
                5,
            );
        }
        // 1 slow span (stage total over the 1ms threshold).
        t.finish(
            &PendingSpan {
                span_id: 99,
                client_assigned: true,
                decode_ns: 10,
                timings: vec![timings(0, 300_000)],
            },
            5,
        );
        assert_eq!(t.snapshot().seen, 5);
        assert_eq!(t.recent_spans(0).len(), 2);
        let slow = t.slow_spans(0);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].span, 99);
        assert!(slow[0].total_ns() >= 1_000_000);
    }

    #[test]
    fn finish_records_frontend_stage_histograms() {
        let t = ServeTracer::new(enabled_config(), 1).unwrap();
        t.finish(
            &PendingSpan {
                span_id: 1,
                client_assigned: false,
                decode_ns: 1000,
                timings: vec![timings(0, 10)],
            },
            2000,
        );
        let mut reg = MetricsRegistry::new();
        t.merge_frontend_into(&mut reg);
        let d = reg.bucket_histogram("serve.stage.decode_ns").unwrap();
        assert_eq!((d.count(), d.min()), (1, Some(1000)));
        let w = reg.bucket_histogram("serve.stage.write_ns").unwrap();
        assert_eq!(w.max(), Some(2000));
    }

    #[test]
    fn disabled_tracer_ignores_everything() {
        let t = ServeTracer::new(TracingConfig::default(), 2).unwrap();
        assert!(!t.enabled());
        t.finish(
            &PendingSpan {
                span_id: 1,
                client_assigned: true,
                decode_ns: 10,
                timings: vec![timings(0, 10)],
            },
            5,
        );
        assert_eq!(t.snapshot().seen, 0);
        assert!(t.recent_spans(0).is_empty());
    }

    #[test]
    fn out_of_range_shard_is_dropped_not_panicking() {
        let t = ServeTracer::new(enabled_config(), 1).unwrap();
        t.finish(
            &PendingSpan {
                span_id: 1,
                client_assigned: true,
                decode_ns: 10,
                timings: vec![timings(9, 10)],
            },
            5,
        );
        assert_eq!(t.snapshot().seen, 0);
    }

    #[test]
    fn snapshot_reports_rings() {
        let t = ServeTracer::new(enabled_config(), 2).unwrap();
        for (id, total_each) in [(1, 100), (2, 100), (3, 300_000)] {
            t.finish(
                &PendingSpan {
                    span_id: id,
                    client_assigned: true,
                    decode_ns: 10,
                    timings: vec![timings(1, total_each)],
                },
                5,
            );
        }
        let s = t.snapshot();
        assert!(s.enabled);
        assert_eq!((s.sample_every, s.slow_ns, s.seen), (2, 1_000_000, 3));
        assert_eq!(
            s.rings,
            [
                RingSnapshot::default(),
                RingSnapshot {
                    shard: 1,
                    seen: 3,
                    recent: 1,
                    slow: 1
                }
            ]
        );
    }
}
