//! The stats document's one schema.
//!
//! [`StatsSnapshot`] is both ends of the stats frame. The server fills it
//! from its live sources, each filling its own section (the shard
//! registries and queues, [`crate::stats::ServerCounters`],
//! [`crate::stats::FrontendStats`], [`crate::ServeTracer`] and
//! [`crate::EpochTables`]), and sends `to_json().render()`;
//! [`crate::Client::stats`] and [`crate::Client::stats_stream`] read the
//! document back into the same type. Each section type is declared once,
//! through `section!` below, and that declaration gives it its one
//! `to_json`/`from_json` pair over [`memsync_trace::Json`]: a field's
//! document key is its name, its position is its place in the document,
//! and its type decides how it is written and read. Histograms are
//! [`BucketSummary`] objects.
//!
//! Decoding is compatible both ways. Unknown keys are skipped (a newer
//! server may add them); sections an older server did not render decode
//! to `None` or an empty list; an unknown backend name decodes to `None`.
//! Malformed JSON and missing or mistyped required fields are refused.

use crate::backend::BackendKind;
use memsync_trace::{BucketSummary, Json};

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

fn mistyped(key: &str) -> DecodeStatsError {
    DecodeStatsError(format!("missing or mistyped field {key:?}"))
}

/// How a field of this type is written into its section's object under
/// `key`, and read back from it.
trait Field: Sized {
    /// Writes the field; an absent optional writes nothing.
    fn put(&self, obj: &mut Json, key: &str);
    /// Reads the field; an absent optional reads as `None` or empty.
    fn take(obj: &Json, key: &str) -> Result<Self, DecodeStatsError>;
}

/// Required scalars: refused when missing or mistyped.
macro_rules! scalar_field {
    ($($ty:ty => $read:path),*) => {$(
        impl Field for $ty {
            fn put(&self, obj: &mut Json, key: &str) {
                obj.set(key, (*self).into());
            }

            fn take(obj: &Json, key: &str) -> Result<$ty, DecodeStatsError> {
                obj.get(key).and_then($read).ok_or_else(|| mistyped(key))
            }
        }
    )*};
}

scalar_field!(u64 => Json::as_u64, f64 => Json::as_f64, bool => Json::as_bool);

impl Field for Option<BackendKind> {
    fn put(&self, obj: &mut Json, key: &str) {
        if let Some(kind) = self {
            obj.set(key, kind.to_string().as_str().into());
        }
    }

    /// An unknown backend name means a newer server; the rest of the
    /// frame still decodes, so it reads as `None` rather than failing.
    fn take(obj: &Json, key: &str) -> Result<Self, DecodeStatsError> {
        Ok(obj
            .get(key)
            .and_then(Json::as_str)
            .and_then(|name| name.parse().ok()))
    }
}

impl Field for Option<BucketSummary> {
    fn put(&self, obj: &mut Json, key: &str) {
        if let Some(summary) = self {
            obj.set(key, summary.to_json());
        }
    }

    fn take(obj: &Json, key: &str) -> Result<Self, DecodeStatsError> {
        obj.get(key)
            .map(|j| BucketSummary::from_json(j).ok_or_else(|| mistyped(key)))
            .transpose()
    }
}

/// Declares one section of the stats document: the struct, and the one
/// `to_json`/`from_json` pair that carries it, both following the field
/// list in declaration order. A field written `name: u64 = 0` reads as
/// `0` from a document that lacks it (one rendered by an older server).
/// A section nests in another as an optional object or as an array.
macro_rules! section {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty $(= $absent:expr)?, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            /// Renders this section as its stats-document object.
            pub fn to_json(&self) -> Json {
                let mut obj = Json::obj();
                $( self.$field.put(&mut obj, stringify!($field)); )*
                obj
            }

            /// Reads this section back from its stats-document object;
            /// unknown keys are skipped.
            ///
            /// # Errors
            ///
            /// A required field is missing or mistyped.
            pub fn from_json(obj: &Json) -> Result<$name, DecodeStatsError> {
                Ok($name {
                    $( $field: {
                        let key = stringify!($field);
                        $( if obj.get(key).is_none() { $absent } else )?
                        { <$ty as Field>::take(obj, key)? }
                    }, )*
                })
            }
        }

        impl Field for Option<$name> {
            fn put(&self, obj: &mut Json, key: &str) {
                if let Some(section) = self {
                    obj.set(key, section.to_json());
                }
            }

            fn take(obj: &Json, key: &str) -> Result<Self, DecodeStatsError> {
                obj.get(key).map($name::from_json).transpose()
            }
        }

        impl Field for Vec<$name> {
            fn put(&self, obj: &mut Json, key: &str) {
                obj.set(key, Json::Arr(self.iter().map($name::to_json).collect()));
            }

            fn take(obj: &Json, key: &str) -> Result<Self, DecodeStatsError> {
                match obj.get(key) {
                    None => Ok(Vec::new()),
                    Some(Json::Arr(items)) => items.iter().map($name::from_json).collect(),
                    Some(_) => Err(mistyped(key)),
                }
            }
        }
    };
}

/// One traced stage's latency summary from a `stages` object, which maps
/// each stage name to its [`BucketSummary`].
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

impl StageSummarySnapshot {
    /// A stage's entry, from its histogram summary.
    pub fn new(stage: &str, s: BucketSummary) -> StageSummarySnapshot {
        StageSummarySnapshot {
            stage: stage.to_owned(),
            count: s.count,
            min: s.min,
            max: s.max,
            mean: s.mean,
            p50: s.p50,
            p90: s.p90,
            p99: s.p99,
        }
    }

    /// The stage's histogram summary.
    pub fn summary(&self) -> BucketSummary {
        BucketSummary {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: self.mean,
            p50: self.p50,
            p90: self.p90,
            p99: self.p99,
        }
    }
}

/// A `stages` object is written only when something was traced.
impl Field for Vec<StageSummarySnapshot> {
    fn put(&self, obj: &mut Json, key: &str) {
        if self.is_empty() {
            return;
        }
        let mut stages = Json::obj();
        for s in self {
            stages.set(&s.stage, s.summary().to_json());
        }
        obj.set(key, stages);
    }

    fn take(obj: &Json, key: &str) -> Result<Self, DecodeStatsError> {
        match obj.get(key) {
            None => Ok(Vec::new()),
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(stage, j)| {
                    BucketSummary::from_json(j)
                        .map(|s| StageSummarySnapshot::new(stage, s))
                        .ok_or_else(|| mistyped(stage))
                })
                .collect(),
            Some(_) => Err(mistyped(key)),
        }
    }
}

section! {
    /// One shard's section of the `per_shard` array.
    #[derive(Debug, Clone, Default, PartialEq)]
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
        /// Highest queue depth ever observed at push time.
        pub queue_depth_highwater: u64,
        /// Jobs currently queued.
        pub queue_depth: u64,
        /// Packet total latched at this shard's most recent restart (0
        /// while the original incarnation lives). Nonzero
        /// proves pre-restart traffic still counts in the totals above.
        pub restart_carryover: u64 = 0,
        /// Packets per activation; absent before the first batch.
        pub batch_size: Option<BucketSummary>,
        /// Enqueue-to-reply latency per job in microseconds; absent before
        /// the first batch.
        pub service_latency_us: Option<BucketSummary>,
        /// The shard-side traced stages (queue, coalesce, execute,
        /// egress); empty when tracing is off.
        pub stages: Vec<StageSummarySnapshot>,
    }
}

section! {
    /// One shard's span retention, from the `spans.rings` array.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RingSnapshot {
        /// Shard index.
        pub shard: u64,
        /// Spans finished against this shard.
        pub seen: u64,
        /// Spans held in the sampled recent ring.
        pub recent: u64,
        /// Spans held in the always-keep slow ring.
        pub slow: u64,
    }
}

section! {
    /// The `spans` section: request-tracing status and ring totals.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        /// Per-shard ring occupancy.
        pub rings: Vec<RingSnapshot>,
    }
}

section! {
    /// The `fib.swap_latency_us` object: dequeue-to-barrier latency of
    /// recent table swaps, in microseconds (from the control worker
    /// dequeuing a batch's first op to the drain barrier).
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
}

section! {
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
}

section! {
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
}

section! {
    /// The stats frame: server totals, the merged histograms, and one
    /// section per source.
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
        /// Shard restarts so far (each a panic of a shard's loop).
        pub shard_restarts: u64,
        /// Summed per-shard restart carryover (see
        /// [`ShardSnapshot::restart_carryover`]).
        pub restart_carryover: u64 = 0,
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
        /// Packets per activation over every shard; absent before the
        /// first batch.
        pub batch_size: Option<BucketSummary>,
        /// Per-job service latency over every shard, in microseconds;
        /// absent before the first batch.
        pub service_latency_us: Option<BucketSummary>,
        /// Traced stage latency summaries over every shard plus the
        /// connection-side decode/write stages, in pipeline order. Empty
        /// when tracing is off.
        pub stages: Vec<StageSummarySnapshot>,
        /// Request-tracing status (absent from documents rendered by
        /// pre-tracing servers).
        pub spans: Option<SpansSnapshot>,
        /// Route-table control-plane section (absent from documents
        /// rendered by pre-control-plane servers).
        pub fib: Option<FibSnapshot>,
        /// Connection-plane counters (absent from documents rendered by
        /// pre-frontend servers).
        pub frontend: Option<FrontendSnapshot>,
        /// Per-shard breakdown.
        pub per_shard: Vec<ShardSnapshot>,
    }
}

/// Parses and decodes a rendered stats document.
impl std::str::FromStr for StatsSnapshot {
    type Err = DecodeStatsError;

    fn from_str(doc: &str) -> Result<StatsSnapshot, DecodeStatsError> {
        let j = Json::parse(doc).map_err(|e| DecodeStatsError(e.to_string()))?;
        StatsSnapshot::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::STAGE_METRICS;
    use memsync_trace::Pcg32;

    /// A stats document as the server rendered it before
    /// `StatsSnapshot` became the schema, with every section present:
    /// two shards with traffic, traced stages at the top level and per
    /// shard, spans with rings, a fib with one swap, and the frontend
    /// counters. Decoding it and rendering it back must reproduce it
    /// byte for byte, so clients of either side see the same wire
    /// format.
    const GOLDEN: &str = include_str!("../tests/data/stats_document.json");

    fn decode(doc: &str) -> StatsSnapshot {
        doc.parse().unwrap_or_else(|e| panic!("{e} decoding {doc}"))
    }

    #[test]
    fn golden_document_round_trips_byte_for_byte() {
        let golden = GOLDEN.trim_end();
        let snap = decode(golden);
        assert_eq!(snap.to_json().render(), golden);
        // Every section landed in the typed snapshot.
        assert_eq!(snap.backend, Some(BackendKind::Fast));
        assert_eq!(snap.per_shard.len(), 2);
        assert!(snap.per_shard.iter().all(|s| s.batch_size.is_some()
            && s.service_latency_us.is_some()
            && s.stages.len() == 4));
        assert_eq!(snap.stages.len(), STAGE_METRICS.len());
        assert!(snap.batch_size.is_some() && snap.service_latency_us.is_some());
        assert_eq!(snap.spans.as_ref().map(|s| s.rings.len()), Some(2));
        let fib = snap.fib.expect("fib section");
        assert_eq!(fib.swap_latency_us.map(|l| l.count), Some(1));
        assert!(snap.frontend.is_some());
    }

    fn counter(rng: &mut Pcg32) -> u64 {
        match rng.gen_range(0..4) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.gen_range(0..10_000),
            _ => rng.next_u64(),
        }
    }

    /// A finite, non-negative float, usually with a fractional part.
    fn real(rng: &mut Pcg32) -> f64 {
        match rng.gen_range(0..3) {
            0 => 0.0,
            1 => rng.gen_range(0..1 << 20) as f64 / 1024.0,
            _ => (rng.next_u64() >> 11) as f64 / 3.0,
        }
    }

    fn summary(rng: &mut Pcg32) -> Option<BucketSummary> {
        rng.gen_bool(0.5).then(|| BucketSummary {
            count: counter(rng),
            min: counter(rng),
            max: counter(rng),
            mean: real(rng),
            p50: counter(rng),
            p90: counter(rng),
            p99: counter(rng),
        })
    }

    /// A random subset of the stage names, in pipeline order.
    fn stages(rng: &mut Pcg32) -> Vec<StageSummarySnapshot> {
        STAGE_METRICS
            .iter()
            .filter_map(|(stage, _)| {
                let s = summary(rng)?;
                Some(StageSummarySnapshot::new(stage, s))
            })
            .collect()
    }

    fn random_snapshot(rng: &mut Pcg32) -> StatsSnapshot {
        let per_shard = (0..rng.gen_range(0..3))
            .map(|_| ShardSnapshot {
                shard: counter(rng),
                packets: counter(rng),
                forwarded: counter(rng),
                dropped: counter(rng),
                mismatches: counter(rng),
                lost_updates: counter(rng),
                batches: counter(rng),
                sim_cycles: counter(rng),
                queue_depth_highwater: counter(rng),
                queue_depth: counter(rng),
                restart_carryover: counter(rng),
                batch_size: summary(rng),
                service_latency_us: summary(rng),
                stages: stages(rng),
            })
            .collect();
        let spans = rng.gen_bool(0.5).then(|| SpansSnapshot {
            enabled: rng.gen_bool(0.5),
            sample_every: counter(rng),
            slow_ns: counter(rng),
            seen: counter(rng),
            exported: counter(rng),
            rings: (0..rng.gen_range(0..3))
                .map(|_| RingSnapshot {
                    shard: counter(rng),
                    seen: counter(rng),
                    recent: counter(rng),
                    slow: counter(rng),
                })
                .collect(),
        });
        let fib = rng.gen_bool(0.5).then(|| FibSnapshot {
            generation: counter(rng),
            routes: counter(rng),
            swaps: counter(rng),
            retired: counter(rng),
            swap_latency_us: rng.gen_bool(0.5).then(|| SwapLatencySnapshot {
                count: counter(rng),
                p50: counter(rng),
                p99: counter(rng),
                max: counter(rng),
            }),
        });
        let frontend = rng.gen_bool(0.5).then(|| FrontendSnapshot {
            conns_open: counter(rng),
            conns_peak: counter(rng),
            conn_rejects: counter(rng),
            accept_pauses: counter(rng),
            read_pauses: counter(rng),
            deferred_submits: counter(rng),
            deferred_now: counter(rng),
            egress_highwater_bytes: counter(rng),
        });
        let backend = match rng.gen_range(0..4) {
            0 => None,
            1 => Some(BackendKind::Sim),
            2 => Some(BackendKind::Fast),
            _ => Some(BackendKind::Differential),
        };
        StatsSnapshot {
            shards: counter(rng),
            backend,
            uptime_secs: real(rng),
            draining: rng.gen_bool(0.5),
            shard_restarts: counter(rng),
            restart_carryover: counter(rng),
            accepted: counter(rng),
            busy: counter(rng),
            errors: counter(rng),
            packets: counter(rng),
            forwarded: counter(rng),
            dropped: counter(rng),
            mismatches: counter(rng),
            lost_updates: counter(rng),
            batches: counter(rng),
            sim_cycles: counter(rng),
            packets_per_sec: real(rng),
            batch_size: summary(rng),
            service_latency_us: summary(rng),
            stages: stages(rng),
            spans,
            fib,
            frontend,
            per_shard,
        }
    }

    #[test]
    fn seeded_snapshots_round_trip_through_the_document() {
        // Each optional section, and each list both empty and not, must
        // be present in some documents and absent from others.
        const EITHER_WAY: [&str; 12] = [
            "\"backend\":",
            "\"batch_size\":",
            "\"service_latency_us\":",
            "\"stages\":",
            "\"spans\":",
            "\"rings\":[]",
            "\"rings\":[{",
            "\"fib\":",
            "\"swap_latency_us\":",
            "\"frontend\":",
            "\"per_shard\":[]",
            "\"per_shard\":[{",
        ];
        // Extreme counters and fractional floats must occur somewhere.
        const SOMEWHERE: [&str; 3] = [":0,", ":18446744073709551615", "."];
        const CASES: u64 = 1_024;
        let mut either = [0u64; EITHER_WAY.len()];
        let mut somewhere = [0u64; SOMEWHERE.len()];
        for case in 0..CASES {
            let seed = 0x57A7_5000 + case;
            let snap = random_snapshot(&mut Pcg32::seed_from_u64(seed));
            let doc = snap.to_json().render();
            let back = doc
                .parse::<StatsSnapshot>()
                .unwrap_or_else(|e| panic!("seed {seed:#x}: {e} decoding {doc}"));
            assert_eq!(back, snap, "seed {seed:#x}: {doc}");
            assert_eq!(back.to_json().render(), doc, "seed {seed:#x}");
            for (n, marker) in either.iter_mut().zip(EITHER_WAY) {
                *n += u64::from(doc.contains(marker));
            }
            for (n, marker) in somewhere.iter_mut().zip(SOMEWHERE) {
                *n += u64::from(doc.contains(marker));
            }
        }
        for (n, marker) in either.iter().zip(EITHER_WAY) {
            assert!(0 < *n && *n < CASES, "{marker} in {n} of {CASES} documents");
        }
        for (n, marker) in somewhere.iter().zip(SOMEWHERE) {
            assert!(*n > 0, "{marker} in no document");
        }
    }

    #[test]
    fn decode_tolerates_documents_from_older_servers() {
        // No restart_carryover (top level or per shard), spans, fib,
        // frontend, histograms or stages: what a pre-tracing server sent.
        let doc = r#"{"shards":1,"backend":"sim","uptime_secs":2.5,"draining":false,
            "shard_restarts":0,"accepted":3,"busy":0,"errors":0,"packets":5,
            "forwarded":4,"dropped":1,"mismatches":0,"lost_updates":0,"batches":1,
            "sim_cycles":900,"packets_per_sec":2,
            "per_shard":[{"shard":0,"packets":5,"forwarded":4,"dropped":1,
            "mismatches":0,"lost_updates":0,"batches":1,"sim_cycles":900,
            "queue_depth_highwater":1,"queue_depth":0}]}"#;
        let snap = decode(doc);
        assert_eq!((snap.forwarded, snap.restart_carryover), (4, 0));
        assert_eq!(snap.spans, None);
        assert_eq!(snap.fib, None);
        assert_eq!(snap.frontend, None);
        assert!(snap.stages.is_empty() && snap.batch_size.is_none());
        assert_eq!(snap.per_shard.len(), 1);
        assert_eq!(snap.per_shard[0].restart_carryover, 0);
        assert_eq!(snap.per_shard[0].queue_depth_highwater, 1);
    }

    #[test]
    fn decode_skips_unknown_keys_from_newer_servers() {
        let golden = GOLDEN.trim_end();
        // Whole unknown sections (scalar, object and array shaped) at the
        // top level, and unknown keys inside known sections.
        let patched = golden
            .replacen(
                "\"shards\":",
                "\"xyzzy_section\":{\"a\":1,\"b\":[2,{\"c\":3}]},\
                 \"xyzzy_count\":9,\"xyzzy_list\":[1,2,3],\"shards\":",
                1,
            )
            .replacen("\"generation\":", "\"epoch_era\":4,\"generation\":", 1)
            .replacen("\"queue_ns\":{", "\"queue_ns\":{\"p999\":7,", 1)
            .replacen(
                "{\"shard\":0,\"packets\":",
                "{\"shard\":0,\"numa_node\":1,\"packets\":",
                1,
            );
        assert_eq!(patched.matches("xyzzy").count(), 3);
        for key in ["epoch_era", "p999", "numa_node"] {
            assert!(patched.contains(key), "patch {key} applied");
        }
        assert_eq!(decode(&patched), decode(golden));
    }

    #[test]
    fn unknown_backend_names_do_not_refuse_the_frame() {
        let doc = GOLDEN.trim_end().replace("\"fast\"", "\"quantum\"");
        let snap = decode(&doc);
        assert_eq!(snap.backend, None);
        assert_eq!(snap.per_shard.len(), 2, "the rest still decodes");
    }

    #[test]
    fn malformed_and_incomplete_documents_are_refused() {
        let refused = |doc: &str| doc.parse::<StatsSnapshot>().unwrap_err().to_string();
        assert!(refused("{not json").contains("bad stats frame"));
        assert!(refused("{\"shards\": 2}").contains("uptime_secs"));
        let golden = GOLDEN.trim_end();
        for (from, to, field) in [
            ("\"draining\":false", "\"draining\":0", "draining"),
            ("{\"shard\":0,\"packets\":330,", "{\"shard\":0,", "packets"),
            ("\"enabled\":true,", "", "enabled"),
            ("\"min\":40,", "", "batch_size"),
            ("\"per_shard\":[", "\"per_shard\":7,\"old\":[", "per_shard"),
        ] {
            let broken = golden.replacen(from, to, 1);
            assert_ne!(broken, golden, "patch for {field} applied");
            let e = refused(&broken);
            assert!(e.contains(field), "{field}: {e}");
        }
    }
}
