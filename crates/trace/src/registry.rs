//! The counter/histogram registry that folds the simulator's cycle events.
//!
//! Everything the simulator's trace events count lands here: arbitration
//! stalls per consumer, grant-wait histograms, dependency-list occupancy
//! high-water marks, rx-queue depths, per-bank utilization, and the
//! folded-in produce-to-consume [`LatencyRecorder`]. The registry
//! understands the event vocabulary directly
//! ([`MetricsRegistry::observe`]), so any instrumentation site that emits
//! [`TraceEvent`]s feeds the counters for free via [`RecordingSink`].
//! Each simulation owns one registry, and nothing merges two; the serve
//! crate's live stats are typed structs over
//! [`BucketHistogram`](crate::bucket::BucketHistogram)s instead.
//!
//! Counter naming scheme (stable, documented in EXPERIMENTS.md):
//!
//! * `bank{b}.arb_stall.c{i}` — eligible consumer lost arbitration;
//! * `bank{b}.dep_wait.c{i}` — consumer blocked on its dependency;
//! * `bank{b}.window_stall.p{i}` — producer waiting for its window;
//! * `bank{b}.grant.{c|p}{i}` — grants per pseudo-port;
//! * `bank{b}.deplist_hit` / `bank{b}.deplist_miss` — CAM outcomes;
//! * `bank{b}.writes` / `bank{b}.reads` / `bank{b}.deliveries.c{i}`;
//! * `queue{t}.push` / `queue{t}.pop` — rx-queue traffic;
//! * histograms `bank{b}.grant_wait.{c|p}{i}` and pooled
//!   `bank{b}.grant_wait.consumers`;
//! * high-water marks `bank{b}.deplist_occupancy` and `queue{t}.depth`.

use crate::event::{EventKind, Port, Role, TraceEvent};
use crate::json::Json;
use crate::latency::{LatencyRecorder, LatencyStats};
use crate::sink::TraceSink;
use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending sample slice: the sample at
/// rank `round(q * (n - 1))`, with no interpolation between neighbours.
/// This is the rank
/// [`BucketHistogram::percentile`](crate::bucket::BucketHistogram::percentile)
/// resolves to a bucket.
///
/// `q` is clamped to `[0, 1]`; returns `None` on an empty slice. Single
/// samples answer every percentile with themselves.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let last = sorted.len().checked_sub(1)?;
    Some(sorted[(q.clamp(0.0, 1.0) * last as f64).round() as usize])
}

/// A recorded sample distribution. It keeps every raw sample, so use it
/// only in bounded runs; a long-lived process records into a
/// [`BucketHistogram`](crate::bucket::BucketHistogram) instead.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
}

/// Percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Sample count.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
    }

    /// Raw samples in recording order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Percentile summary; `None` when empty.
    pub fn summary(&self) -> Option<HistSummary> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
        let pct = |q| percentile(&sorted, q).expect("non-empty");
        Some(HistSummary {
            count,
            min,
            max,
            mean: sum as f64 / count as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        })
    }
}

impl HistSummary {
    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", self.count.into())
            .with("min", self.min.into())
            .with("max", self.max.into())
            .with("mean", self.mean.into())
            .with("p50", self.p50.into())
            .with("p90", self.p90.into())
            .with("p99", self.p99.into())
    }
}

/// The value under `name`, inserted as its default first if absent. The
/// key `String` is allocated only on that first insert, so updating an
/// existing key allocates nothing.
fn slot<'a, V: Default>(map: &'a mut BTreeMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

/// The registry: counters, histograms, high-water marks, and the folded-in
/// latency recorder.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    highwater: BTreeMap<String, u64>,
    /// Produce-to-consume latency streams.
    pub latency: LatencyRecorder,
    /// Grant-wait tracking: first stalled cycle per (bank, role, index).
    wait_since: BTreeMap<(u16, char, usize), u64>,
    /// Highest cycle seen in any event (utilization denominator).
    last_cycle: u64,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, name: &str, n: u64) {
        *slot(&mut self.counters, name) += n;
    }

    /// Current counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a histogram sample.
    pub fn record(&mut self, name: &str, v: u64) {
        slot(&mut self.histograms, name).record(v);
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Raises a high-water mark (keeps the maximum ever observed).
    pub fn observe_gauge(&mut self, name: &str, v: u64) {
        let mark = slot(&mut self.highwater, name);
        *mark = (*mark).max(v);
    }

    /// A high-water mark by name.
    pub fn highwater(&self, name: &str) -> Option<u64> {
        self.highwater.get(name).copied()
    }

    // ---- latency fold: the LatencyRecorder API, delegated --------------

    /// Notes a producer write (see [`LatencyRecorder::record_write`]).
    pub fn record_write(&mut self, addr: u32, cycle: u64) {
        self.latency.record_write(addr, cycle);
    }

    /// Notes a delivery (see [`LatencyRecorder::record_delivery`]).
    pub fn record_delivery(&mut self, addr: u32, consumer: usize, cycle: u64) {
        self.latency.record_delivery(addr, consumer, cycle);
    }

    /// Latency summary for one stream.
    pub fn stats(&self, addr: u32, consumer: usize) -> Option<LatencyStats> {
        self.latency.stats(addr, consumer)
    }

    /// Latency summary pooled over every stream.
    pub fn pooled_stats(&self) -> Option<LatencyStats> {
        self.latency.pooled_stats()
    }

    /// Recorded latency streams.
    pub fn streams(&self) -> Vec<(u32, usize)> {
        self.latency.streams()
    }

    // ---- event vocabulary ----------------------------------------------

    /// Folds one trace event into the counters/histograms. All standard
    /// instrumentation flows through here (via [`RecordingSink`]), so the
    /// registry works identically whether events come from the full-system
    /// engine or from a directly driven wrapper model.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.last_cycle = self.last_cycle.max(ev.cycle);
        let b = ev.bank;
        match ev.kind {
            EventKind::ReadIssue { .. } => {
                self.inc(&format!("bank{b}.reads"));
            }
            EventKind::Grant { role, index } => {
                let p = role.prefix();
                self.inc(&format!("bank{b}.grant.{p}{index}"));
                if let Some(start) = self.wait_since.remove(&(b, p, index)) {
                    let waited = ev.cycle.saturating_sub(start);
                    self.record(&format!("bank{b}.grant_wait.{p}{index}"), waited);
                    if role == Role::Consumer {
                        self.record(&format!("bank{b}.grant_wait.consumers"), waited);
                    }
                }
            }
            EventKind::ArbStall { consumer } => {
                self.inc(&format!("bank{b}.arb_stall.c{consumer}"));
                self.wait_since
                    .entry((b, 'c', consumer))
                    .or_insert(ev.cycle);
            }
            EventKind::DepWait { consumer } => {
                self.inc(&format!("bank{b}.dep_wait.c{consumer}"));
                self.wait_since
                    .entry((b, 'c', consumer))
                    .or_insert(ev.cycle);
            }
            EventKind::WindowStall { producer } => {
                self.inc(&format!("bank{b}.window_stall.p{producer}"));
                self.wait_since
                    .entry((b, 'p', producer))
                    .or_insert(ev.cycle);
            }
            EventKind::DepListHit { .. } => {
                self.inc(&format!("bank{b}.deplist_hit"));
            }
            EventKind::DepListMiss { .. } => {
                self.inc(&format!("bank{b}.deplist_miss"));
            }
            EventKind::Write { .. } => {
                self.inc(&format!("bank{b}.writes"));
                // Port-A writes are private (never synchronized); only
                // sync-port writes open a produce-to-consume round.
                if ev.port != Port::A {
                    self.record_write(ev.addr, ev.cycle);
                }
            }
            EventKind::Deliver { consumer, .. } => {
                self.inc(&format!("bank{b}.deliveries.c{consumer}"));
                if ev.port != Port::A {
                    self.record_delivery(ev.addr, consumer, ev.cycle);
                }
            }
            EventKind::QueuePush { thread, depth } => {
                self.inc(&format!("queue{thread}.push"));
                self.observe_gauge(&format!("queue{thread}.depth"), depth as u64);
            }
            EventKind::QueuePop { thread, .. } => {
                self.inc(&format!("queue{thread}.pop"));
            }
        }
    }

    /// Per-bank utilization: BRAM-active cycles (reads + writes) over the
    /// observed cycle span, for every bank with any activity.
    pub fn utilization(&self) -> Vec<(String, f64)> {
        let span = (self.last_cycle + 1) as f64;
        self.counters
            .keys()
            .filter_map(|k| {
                let bank = k
                    .strip_suffix(".writes")
                    .or_else(|| k.strip_suffix(".reads"))?;
                Some(bank.to_owned())
            })
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|bank| {
                let busy = self.counter(&format!("{bank}.writes"))
                    + self.counter(&format!("{bank}.reads"));
                (bank, busy as f64 / span)
            })
            .collect()
    }

    /// Exports everything as one JSON object: counters, high-water marks,
    /// histogram percentile summaries, utilization, and latency streams.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters.set(k, (*v).into());
        }
        let mut hw = Json::obj();
        for (k, v) in &self.highwater {
            hw.set(k, (*v).into());
        }
        let mut hists = Json::obj();
        for (k, h) in &self.histograms {
            if let Some(s) = h.summary() {
                hists.set(k, s.to_json());
            }
        }
        let mut util = Json::obj();
        for (bank, u) in self.utilization() {
            util.set(&bank, u.into());
        }
        let mut streams = Json::Arr(Vec::new());
        if let Json::Arr(items) = &mut streams {
            for (addr, consumer) in self.latency.streams() {
                let s = self.latency.stats(addr, consumer).expect("stream exists");
                items.push(
                    Json::obj()
                        .with("addr", u64::from(addr).into())
                        .with("consumer", consumer.into())
                        .with("count", s.count.into())
                        .with("min", s.min.into())
                        .with("max", s.max.into())
                        .with("mean", s.mean.into())
                        .with("variance", s.variance.into())
                        .with("deterministic", s.is_deterministic().into()),
                );
            }
        }
        let pooled = match self.latency.pooled_stats() {
            Some(s) => Json::obj()
                .with("count", s.count.into())
                .with("min", s.min.into())
                .with("max", s.max.into())
                .with("mean", s.mean.into())
                .with("variance", s.variance.into())
                .with("deterministic", s.is_deterministic().into()),
            None => Json::Null,
        };
        Json::obj()
            .with("counters", counters)
            .with("highwater", hw)
            .with("histograms", hists)
            .with("utilization", util)
            .with(
                "latency",
                Json::obj().with("streams", streams).with("pooled", pooled),
            )
    }
}

/// Tees events into a user sink *and* a [`MetricsRegistry`]. The engine
/// threads one of these through the wrapper models so one emission updates
/// both the event stream and the counters.
#[derive(Debug)]
pub struct RecordingSink<'a> {
    /// Downstream event sink.
    pub sink: &'a mut dyn TraceSink,
    /// Registry fed by every event.
    pub registry: &'a mut MetricsRegistry,
}

impl TraceSink for RecordingSink<'_> {
    fn emit(&mut self, ev: &TraceEvent) {
        self.registry.observe(ev);
        self.sink.emit(ev);
    }

    fn enabled(&self) -> bool {
        true
    }

    fn flush(&mut self) {
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Port;
    use crate::sink::VecSink;

    fn ev(cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            bank: 0,
            port: Port::C,
            addr: 4,
            kind,
        }
    }

    #[test]
    fn percentile_takes_the_rounded_rank_and_handles_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.99), Some(7));
        // Every percentile of a single sample is that sample.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(percentile(&[5], q), Some(5));
        }
        let s = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&s, 1.0), Some(10));
        assert_eq!(percentile(&s, 0.5), Some(6));
    }

    #[test]
    fn observe_counts_stalls_and_grant_waits() {
        let mut r = MetricsRegistry::new();
        r.observe(&ev(10, EventKind::ArbStall { consumer: 1 }));
        r.observe(&ev(11, EventKind::ArbStall { consumer: 1 }));
        r.observe(&ev(
            12,
            EventKind::Grant {
                role: Role::Consumer,
                index: 1,
            },
        ));
        assert_eq!(r.counter("bank0.arb_stall.c1"), 2);
        let h = r.histogram("bank0.grant_wait.c1").expect("wait recorded");
        assert_eq!(h.samples(), &[2]);
        assert_eq!(
            r.histogram("bank0.grant_wait.consumers").unwrap().samples(),
            &[2]
        );
        // A grant with no preceding stall records no wait.
        r.observe(&ev(
            13,
            EventKind::Grant {
                role: Role::Consumer,
                index: 0,
            },
        ));
        assert!(r.histogram("bank0.grant_wait.c0").is_none());
    }

    #[test]
    fn observe_feeds_latency_recorder() {
        let mut r = MetricsRegistry::new();
        r.observe(&ev(
            5,
            EventKind::Write {
                producer: 0,
                data: 9,
            },
        ));
        r.observe(&ev(
            8,
            EventKind::Deliver {
                consumer: 0,
                data: 9,
            },
        ));
        let s = r.stats(4, 0).expect("the delivery closed a round");
        assert_eq!((s.count, s.min, s.max, s.mean), (1, 3, 3, 3.0));
        assert_eq!(r.counter("bank0.writes"), 1);
        assert_eq!(r.counter("bank0.deliveries.c0"), 1);
    }

    #[test]
    fn queue_events_track_highwater() {
        let mut r = MetricsRegistry::new();
        r.observe(&ev(
            0,
            EventKind::QueuePush {
                thread: 2,
                depth: 1,
            },
        ));
        r.observe(&ev(
            1,
            EventKind::QueuePush {
                thread: 2,
                depth: 2,
            },
        ));
        r.observe(&ev(
            2,
            EventKind::QueuePop {
                thread: 2,
                depth: 1,
            },
        ));
        assert_eq!(r.highwater("queue2.depth"), Some(2));
        assert_eq!(r.counter("queue2.push"), 2);
        assert_eq!(r.counter("queue2.pop"), 1);
    }

    #[test]
    fn utilization_counts_reads_and_writes_over_span() {
        let mut r = MetricsRegistry::new();
        r.observe(&ev(
            0,
            EventKind::Write {
                producer: 0,
                data: 0,
            },
        ));
        r.observe(&ev(1, EventKind::ReadIssue { consumer: 0 }));
        r.observe(&ev(9, EventKind::ArbStall { consumer: 0 }));
        let u = r.utilization();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].0, "bank0");
        assert!((u[0].1 - 0.2).abs() < 1e-12, "2 busy / 10 cycles");
    }

    #[test]
    fn json_export_contains_all_sections() {
        let mut r = MetricsRegistry::new();
        r.observe(&ev(
            3,
            EventKind::Write {
                producer: 0,
                data: 1,
            },
        ));
        r.observe(&ev(
            5,
            EventKind::Deliver {
                consumer: 1,
                data: 1,
            },
        ));
        r.observe_gauge("bank0.deplist_occupancy", 3);
        let s = r.to_json().render();
        for key in [
            "counters",
            "highwater",
            "histograms",
            "utilization",
            "latency",
            "pooled",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert!(s.contains("bank0.deplist_occupancy"));
    }

    #[test]
    fn recording_sink_tees_to_sink_and_registry() {
        let mut v = VecSink::new();
        let mut r = MetricsRegistry::new();
        let mut tee = RecordingSink {
            sink: &mut v,
            registry: &mut r,
        };
        tee.emit(&ev(1, EventKind::ArbStall { consumer: 0 }));
        assert_eq!(v.events.len(), 1);
        assert_eq!(r.counter("bank0.arb_stall.c0"), 1);
    }
}
