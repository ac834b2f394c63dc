//! Latency metrics: produce-to-consume delay statistics, the measurement
//! behind the paper's determinism comparison (§3.1 vs §3.2).
//!
//! A stream keeps five running integer sums, not its samples: count, Σx,
//! Σx², min and max determine every field of [`LatencyStats`] exactly, so
//! a recorder's memory follows its number of streams, not the number of
//! deliveries it has seen. It lives next to the counter registry that
//! embeds it.

use std::collections::BTreeMap;

/// Records per-(address, consumer) latencies between a producer write and
/// the consumer's data delivery.
///
/// Recording allocates only when it inserts a key: an address's first
/// write or a stream's first delivery. After that a write overwrites its
/// address's open round and a delivery adds to its stream's sums in place,
/// so a warmed recorder records with no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    /// Cycle of the open produce round per address.
    last_write: BTreeMap<u32, u64>,
    /// Running sums per `(addr, consumer)` stream with at least one sample.
    streams: BTreeMap<(u32, usize), Sums>,
}

/// Running sums of one stream, or of several pooled.
#[derive(Debug, Clone, Copy)]
struct Sums {
    count: usize,
    /// Σx. Cannot overflow: it stays below `count * 2^64 <= 2^128`.
    sum: u128,
    /// Σx², saturating at `u128::MAX` (see [`Sums::stats`]).
    sum_sq: u128,
    min: u64,
    max: u64,
}

impl Sums {
    const EMPTY: Sums = Sums {
        count: 0,
        sum: 0,
        sum_sq: 0,
        min: u64::MAX,
        max: 0,
    };

    fn add(&mut self, x: u64) {
        let wide = u128::from(x);
        self.count += 1;
        self.sum += wide;
        self.sum_sq = self.sum_sq.saturating_add(wide * wide);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    fn merge(&mut self, other: &Sums) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The summary; `None` when nothing was recorded.
    ///
    /// The mean is Σx / n. The population variance is computed exactly in
    /// integers, as `(n·Σx² − (Σx)²) / n²`, and converted to `f64` at the
    /// end. That is exact whenever `n·Σx²` fits in a `u128`, which holds
    /// whenever `count × max < 2^64` (a billion samples of up to 2^34
    /// cycles, say). Beyond that range, or once Σx² has saturated, the
    /// variance is an `f64` estimate clamped to `[0, (max − min)² / 4]`:
    /// finite and bounded, never wrapped.
    fn stats(&self) -> Option<LatencyStats> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as u128;
        let mean = self.sum as f64 / self.count as f64;
        let variance = match n.checked_mul(self.sum_sq) {
            // (Σx)² <= n·Σx² (Cauchy–Schwarz), so neither term overflows.
            Some(n_sum_sq) if self.sum_sq < u128::MAX => {
                (n_sum_sq - self.sum * self.sum) as f64 / (n * n) as f64
            }
            _ => {
                let spread = (self.max - self.min) as f64;
                (self.sum_sq as f64 / self.count as f64 - mean * mean)
                    .clamp(0.0, spread * spread / 4.0)
            }
        };
        Some(LatencyStats {
            count: self.count,
            min: self.min,
            max: self.max,
            mean,
            variance,
        })
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes a producer write to `addr` at `cycle`.
    pub fn record_write(&mut self, addr: u32, cycle: u64) {
        self.last_write.insert(addr, cycle);
    }

    /// Notes consumer `consumer` receiving data for `addr` at `cycle`. A
    /// delivery before any write to `addr` records nothing.
    pub fn record_delivery(&mut self, addr: u32, consumer: usize, cycle: u64) {
        if let Some(&w) = self.last_write.get(&addr) {
            self.streams
                .entry((addr, consumer))
                .or_insert(Sums::EMPTY)
                .add(cycle.saturating_sub(w));
        }
    }

    /// Summary over one (address, consumer) stream.
    pub fn stats(&self, addr: u32, consumer: usize) -> Option<LatencyStats> {
        self.streams.get(&(addr, consumer))?.stats()
    }

    /// Summary over every recorded stream pooled together.
    pub fn pooled_stats(&self) -> Option<LatencyStats> {
        let mut pooled = Sums::EMPTY;
        for sums in self.streams.values() {
            pooled.merge(sums);
        }
        pooled.stats()
    }

    /// Streams recorded, as `(addr, consumer)` keys in ascending order.
    pub fn streams(&self) -> Vec<(u32, usize)> {
        self.streams.keys().copied().collect()
    }

    /// Folds another recorder's streams into this one: each stream's sums
    /// add. Open produce rounds (writes with no delivery yet) are not
    /// carried over: merging is meant for recorders whose measurement
    /// windows are closed, e.g. per-shard registries snapshotted for a
    /// stats frame.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        for (key, sums) in &other.streams {
            self.streams.entry(*key).or_insert(Sums::EMPTY).merge(sums);
        }
    }
}

/// Summary statistics of a latency stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Sample count.
    pub count: usize,
    /// Minimum latency (cycles).
    pub min: u64,
    /// Maximum latency (cycles).
    pub max: u64,
    /// Mean latency: Σx / count.
    pub mean: f64,
    /// Population variance, computed from the integer sums. It is exact
    /// up to its one conversion to `f64` while `count × max < 2^64`;
    /// beyond that it is an estimate clamped to `[0, (max − min)² / 4]`.
    pub variance: f64,
}

impl LatencyStats {
    /// Whether every sample was identical — the §3.2 determinism property.
    pub fn is_deterministic(&self) -> bool {
        self.min == self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_latency_between_write_and_delivery() {
        let mut r = LatencyRecorder::new();
        r.record_write(4, 100);
        r.record_delivery(4, 0, 103);
        r.record_delivery(4, 1, 104);
        let s0 = r.stats(4, 0).unwrap();
        assert_eq!((s0.count, s0.min, s0.max, s0.mean), (1, 3, 3, 3.0));
        let s1 = r.stats(4, 1).unwrap();
        assert_eq!((s1.count, s1.min, s1.max, s1.mean), (1, 4, 4, 4.0));
    }

    #[test]
    fn stats_detect_determinism() {
        let mut r = LatencyRecorder::new();
        for (consumer, latencies) in [(0, [3, 3, 3]), (1, [3, 5, 7])] {
            for (k, lat) in latencies.into_iter().enumerate() {
                let at = 100 * k as u64;
                r.record_write(4, at);
                r.record_delivery(4, consumer, at + lat);
            }
        }
        let s = r.stats(4, 0).unwrap();
        assert!(s.is_deterministic());
        assert_eq!(s.variance, 0.0);
        let v = r.stats(4, 1).unwrap();
        assert!(!v.is_deterministic());
        assert_eq!(v.variance, 8.0 / 3.0);
        assert_eq!(v.mean, 5.0);
    }

    #[test]
    fn delivery_without_write_is_ignored() {
        let mut r = LatencyRecorder::new();
        r.record_delivery(9, 0, 50);
        assert!(r.stats(9, 0).is_none());
        assert!(r.pooled_stats().is_none());
        assert!(r.streams().is_empty());
    }

    #[test]
    fn pooled_stats_cover_all_streams() {
        let mut r = LatencyRecorder::new();
        r.record_write(1, 0);
        r.record_delivery(1, 0, 2);
        r.record_write(2, 0);
        r.record_delivery(2, 1, 6);
        let p = r.pooled_stats().unwrap();
        assert_eq!(p.count, 2);
        assert_eq!(p.min, 2);
        assert_eq!(p.max, 6);
        assert_eq!(r.streams().len(), 2);
    }

    #[test]
    fn empty_stream_has_no_stats() {
        let mut r = LatencyRecorder::new();
        assert!(r.stats(0, 0).is_none());
        assert!(r.pooled_stats().is_none());
        assert!(r.streams().is_empty());
        // A write with no delivery opens a round but records no sample.
        r.record_write(0, 5);
        assert!(r.stats(0, 0).is_none());
        assert!(r.pooled_stats().is_none());
        assert!(r.streams().is_empty());
    }

    #[test]
    fn single_sample_stats() {
        let mut r = LatencyRecorder::new();
        r.record_write(8, 10);
        r.record_delivery(8, 2, 15);
        let s = r.stats(8, 2).unwrap();
        assert_eq!((s.count, s.min, s.max), (1, 5, 5));
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.variance, 0.0);
        assert!(s.is_deterministic());
    }

    #[test]
    fn pooled_differs_from_per_stream() {
        let mut r = LatencyRecorder::new();
        r.record_write(1, 0);
        r.record_delivery(1, 0, 3); // stream (1,0): [3]
        r.record_delivery(1, 1, 9); // stream (1,1): [9]
        let s0 = r.stats(1, 0).unwrap();
        let s1 = r.stats(1, 1).unwrap();
        assert!(s0.is_deterministic() && s1.is_deterministic());
        let pooled = r.pooled_stats().unwrap();
        assert_eq!(pooled.count, 2);
        assert!(!pooled.is_deterministic(), "pooling mixes the streams");
        assert_eq!(pooled.mean, 6.0);
    }

    #[test]
    fn delivery_before_recorded_write_saturates_to_zero() {
        let mut r = LatencyRecorder::new();
        // The write is recorded at a later cycle than the delivery (the
        // engine records grants after deliveries within one step); the
        // latency clamps at zero instead of wrapping.
        r.record_write(4, 100);
        r.record_delivery(4, 0, 90);
        let s = r.stats(4, 0).unwrap();
        assert_eq!((s.count, s.min, s.max, s.mean), (1, 0, 0, 0.0));
    }

    #[test]
    fn latencies_near_u64_max_neither_panic_nor_wrap() {
        let mut r = LatencyRecorder::new();
        let top = u64::MAX;
        for (k, lat) in [top, top, top - 1, top].into_iter().enumerate() {
            // Each round's write at cycle 0 re-opens the round.
            r.record_write(4, 0);
            r.record_delivery(4, k % 2, lat);
        }
        let pooled = r.pooled_stats().unwrap();
        assert_eq!((pooled.count, pooled.min, pooled.max), (4, top - 1, top));
        // The exact mean is within 1 of u64::MAX; in f64 that is 2^64.
        assert_eq!(pooled.mean, top as f64);
        assert!(pooled.variance.is_finite());
        assert!((0.0..=0.25).contains(&pooled.variance), "{pooled:?}");
        // Σx² saturated, yet a stream of equal samples still reads exact.
        let s1 = r.stats(4, 1).unwrap();
        assert_eq!((s1.count, s1.min, s1.max), (2, top, top));
        assert!(s1.is_deterministic());
        assert_eq!(s1.variance, 0.0);
        // Merging saturated sums saturates again.
        let mut merged = r.clone();
        merged.merge(&r);
        let m = merged.pooled_stats().unwrap();
        assert_eq!((m.count, m.min, m.max), (8, top - 1, top));
        assert!(m.variance.is_finite() && m.variance >= 0.0);
    }
}
