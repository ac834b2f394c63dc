//! Request-scoped tracing: per-stage span records, live stage
//! histograms, and JSONL span export.
//!
//! A traced submit travels `decode → queue-wait → batch-coalesce →
//! backend-execute → egress encode → socket write`. The shard activation,
//! on whichever thread runs it, measures the four middle stages and fills
//! them, with its own fields, into one [`SpanRecord`] per job, shipped
//! back through
//! [`crate::queue::JobOutcome::timings`]; the connection's session
//! measures decode and write, and [`ServeTracer::finish`] stamps those and
//! the span id on each record after the response hits the socket.
//! Finished spans land two places:
//!
//! * stage histograms (`stats::StageHistograms`): each shard records its
//!   four stages in its own `stats::ShardStats`, the tracer the session's
//!   two in its own, and a stats request sums them for live p50/p99;
//! * the optional JSONL span sink (`serve --trace-spans FILE`), one line
//!   per span, reusing [`memsync_trace::JsonlSink`].
//!
//! The tracer keeps no span itself: the stats frame reports how many
//! span records finished (`spans.seen`) and how many were exported.
//!
//! **Cost when disabled** (the default): a single `bool` load gates every
//! instrumentation site — no `Instant::now`, no locks, no allocations.
//! Pinned by `tests/trace_zero_alloc.rs`.

use crate::snapshot::SpansSnapshot;
use crate::stats::StageHistograms;
use memsync_trace::{JsonlSink, SpanRecord};
use std::fs::File;
use std::io::{self, BufWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Bit marking a server-assigned span id (the client did not tag the
/// batch).
pub const SERVER_SPAN_BIT: u64 = 1 << 63;

/// Request-tracing configuration (disabled by default).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TracingConfig {
    /// Master switch. Off means zero instrumentation cost.
    pub enabled: bool,
    /// JSONL span export path (`serve --trace-spans FILE`); every span
    /// is written.
    pub spans_path: Option<String>,
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

/// The server-global tracing state: span-id assignment, the finished
/// span count, the session's stage histograms, and the JSONL sink.
#[derive(Debug)]
pub struct ServeTracer {
    enabled: bool,
    next_span: AtomicU64,
    /// Span records finished so far, one per (request, shard).
    seen: AtomicU64,
    /// The decode and write stages, which the sessions time; the four
    /// shard stages live in each shard's stats.
    pub(crate) stages: Mutex<StageHistograms>,
    sink: Option<Mutex<JsonlSink<BufWriter<File>>>>,
    exported: AtomicU64,
}

impl ServeTracer {
    /// Builds the tracer, opening the span export file when configured.
    ///
    /// # Errors
    ///
    /// Propagates span-file creation failures.
    pub fn new(config: &TracingConfig) -> io::Result<ServeTracer> {
        let sink = match (&config.spans_path, config.enabled) {
            (Some(path), true) => Some(Mutex::new(JsonlSink::new(BufWriter::new(File::create(
                path,
            )?)))),
            _ => None,
        };
        Ok(ServeTracer {
            enabled: config.enabled,
            next_span: AtomicU64::new(1),
            seen: AtomicU64::new(0),
            stages: Mutex::default(),
            sink,
            exported: AtomicU64::new(0),
        })
    }

    /// Whether tracing is on. Every instrumentation site gates on this
    /// single load; when it answers `false`, nothing else in this module
    /// runs.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
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

    /// Finalizes a span once the response left the socket: records the
    /// connection-side stage histograms, counts the (job, shard) records,
    /// and exports each as a JSONL line stamped with the span id and the
    /// connection-side stages.
    pub fn finish(&self, pending: &PendingSpan, write_ns: u64) {
        if !self.enabled() || pending.timings.is_empty() {
            return;
        }
        self.stages
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_session(pending.decode_ns, write_ns);
        let records = pending.timings.len() as u64;
        self.seen.fetch_add(records, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
            for t in &pending.timings {
                let rec = SpanRecord {
                    span: pending.span_id,
                    client_assigned: pending.client_assigned,
                    decode_ns: pending.decode_ns,
                    write_ns,
                    ..*t
                };
                sink.write_meta(&rec.to_jsonl());
            }
            self.exported.fetch_add(records, Ordering::Relaxed);
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

    /// The snapshot's `spans` section.
    pub fn snapshot(&self) -> SpansSnapshot {
        SpansSnapshot {
            enabled: self.enabled,
            seen: self.seen.load(Ordering::Relaxed),
            exported: self.exported.load(Ordering::Relaxed),
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
            spans_path: None,
        }
    }

    #[test]
    fn assign_marks_server_ids_with_the_high_bit() {
        let t = ServeTracer::new(&enabled_config()).unwrap();
        assert_eq!(t.assign(Some(7)), (7, true));
        let (id, client) = t.assign(None);
        assert!(!client);
        assert_ne!(id & SERVER_SPAN_BIT, 0);
        let (id2, _) = t.assign(None);
        assert_ne!(id, id2, "fresh id per span");
    }

    #[test]
    fn finish_records_frontend_stage_histograms() {
        let t = ServeTracer::new(&enabled_config()).unwrap();
        t.finish(
            &PendingSpan {
                span_id: 1,
                client_assigned: false,
                decode_ns: 1000,
                timings: vec![timings(0, 10)],
            },
            2000,
        );
        let stages = t.stages.lock().unwrap().section();
        let got: Vec<_> = stages
            .iter()
            .map(|s| (s.stage.as_str(), s.count, s.min, s.max))
            .collect();
        assert_eq!(
            got,
            [("decode_ns", 1, 1000, 1000), ("write_ns", 1, 2000, 2000)]
        );
    }

    #[test]
    fn disabled_tracer_ignores_everything() {
        let t = ServeTracer::new(&TracingConfig::default()).unwrap();
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
    }

    #[test]
    fn snapshot_counts_every_finished_span_record() {
        let t = ServeTracer::new(&enabled_config()).unwrap();
        // One record per (request, shard): a submit spread over two
        // shards finishes two, on any shard, fast or slow.
        for (id, records) in [
            (1, vec![timings(0, 100)]),
            (2, vec![timings(0, 100), timings(1, 300_000)]),
            (3, vec![timings(9, 10)]),
        ] {
            t.finish(
                &PendingSpan {
                    span_id: id,
                    client_assigned: true,
                    decode_ns: 10,
                    timings: records,
                },
                5,
            );
        }
        assert_eq!(
            t.snapshot(),
            SpansSnapshot {
                enabled: true,
                seen: 4,
                exported: 0,
            }
        );
    }
}
