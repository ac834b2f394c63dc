//! Fixed-footprint log2-bucketed histograms for hot-path stage timings.
//!
//! The raw-sample [`Histogram`](crate::registry::Histogram) keeps every
//! sample, which is right for the simulator's bounded runs but wrong for a
//! long-lived serving process: a shard handling millions of batches would
//! grow its stage histograms without bound. [`BucketHistogram`] trades
//! exact percentiles for O(1) memory — 64 power-of-two buckets, saturating
//! counts, exact min/max — while keeping merge associative and loss-free
//! (merging two bucket histograms equals recording every sample into one,
//! bucket by bucket). Percentile queries answer with the *upper bound* of
//! the bucket containing the requested rank, so two histograms agree on a
//! percentile whenever they agree within one bucket — the resolution the
//! tracing acceptance test pins live snapshots against offline span
//! recomputation with.

use crate::json::Json;

/// Number of buckets: one zero bucket plus one per power of two of `u64`.
pub const BUCKETS: usize = 64;

/// Bucket index for a sample value.
///
/// `0` maps to bucket 0; any other `v` maps to `floor(log2(v)) + 1`,
/// clamped to [`BUCKETS`]` - 1`. Bucket `i > 0` therefore covers the value
/// range `[2^(i-1), 2^i - 1]`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize + 1).min(BUCKETS - 1)
    }
}

/// Upper bound of a bucket's value range (inclusive).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A 64-bucket log2 histogram with saturating counts.
#[derive(Debug, Clone)]
pub struct BucketHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for BucketHistogram {
    fn default() -> Self {
        BucketHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl BucketHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Counts and the running sum saturate instead of
    /// wrapping, so a registry that outlives `u64` traffic stays ordered.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] = self.counts[bucket_index(v)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum sample; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples (saturating sum / count); `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Per-bucket counts, index `i` covering `[2^(i-1), 2^i - 1]`
    /// (bucket 0 holds zeros).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Percentile estimate: the upper bound of the bucket holding the
    /// requested rank, clamped to the exact observed `max` (and floored at
    /// the exact `min` for low quantiles). `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the q-th sample, 1-based, same rounding as the raw-sample
        // `percentile` (round to nearest index).
        let rank = (q * (self.count - 1) as f64).round() as u64 + 1;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_upper_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds `other` into `self`: bucket counts add (saturating), min/max
    /// tighten, sums saturate. Equivalent to having recorded every sample
    /// into one histogram.
    pub fn merge(&mut self, other: &BucketHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Percentile summary; `None` when empty.
    pub fn summary(&self) -> Option<BucketSummary> {
        (self.count > 0).then(|| BucketSummary {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: self.mean().expect("non-empty"),
            p50: self.percentile(0.50).expect("non-empty"),
            p90: self.percentile(0.90).expect("non-empty"),
            p99: self.percentile(0.99).expect("non-empty"),
        })
    }
}

/// Percentile summary of a [`BucketHistogram`]. Percentiles are bucket
/// upper bounds; min/max are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSummary {
    /// Sample count.
    pub count: u64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Mean (saturating sum / count).
    pub mean: f64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl BucketSummary {
    /// Renders the summary as a JSON object (same shape as
    /// [`HistSummary`](crate::registry::HistSummary)).
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

    /// Reads back a summary rendered by [`BucketSummary::to_json`];
    /// `None` when a field is missing or mistyped. Unknown keys are
    /// skipped.
    pub fn from_json(j: &Json) -> Option<BucketSummary> {
        let u = |key: &str| j.get(key).and_then(Json::as_u64);
        Some(BucketSummary {
            count: u("count")?,
            min: u("min")?,
            max: u("max")?,
            mean: j.get("mean").and_then(Json::as_f64)?,
            p50: u("p50")?,
            p90: u("p90")?,
            p99: u("p99")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn upper_bounds_close_each_range() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(11), 2047);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 2, 3, 7, 100, 1 << 40] {
            assert!(v <= bucket_upper_bound(bucket_index(v)));
        }
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = BucketHistogram::new();
        for v in [1u64, 1, 2, 4, 1000] {
            h.record(v);
        }
        let s = h.summary().unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 201.6).abs() < 1e-9);
        // p50: rank 3 lands in bucket 2 ([2,3]) → upper bound 3.
        assert_eq!(s.p50, 3);
        // p99 lands in the bucket of 1000 ([512,1023]) but clamps to the
        // exact max.
        assert_eq!(s.p99, 1000);
    }

    #[test]
    fn empty_histogram_answers_none() {
        let h = BucketHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.min().is_none());
        assert!(h.max().is_none());
        assert!(h.mean().is_none());
        assert!(h.percentile(0.5).is_none());
        assert!(h.summary().is_none());
    }

    #[test]
    fn merge_equals_single_recording() {
        let samples = [0u64, 1, 5, 9, 1 << 20, 77, 3, 3, 3, u64::MAX];
        let mut single = BucketHistogram::new();
        let mut left = BucketHistogram::new();
        let mut right = BucketHistogram::new();
        for (i, &v) in samples.iter().enumerate() {
            single.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.buckets(), single.buckets());
        assert_eq!(left.count(), single.count());
        assert_eq!(left.min(), single.min());
        assert_eq!(left.max(), single.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(left.percentile(q), single.percentile(q));
        }
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let mut h = BucketHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        // sum saturates at u64::MAX rather than wrapping to small values.
        assert!(h.mean().unwrap() >= (u64::MAX / 2) as f64);
        let mut other = h.clone();
        other.merge(&h);
        assert_eq!(other.count(), 4);
        assert_eq!(other.max(), Some(u64::MAX));
    }

    #[test]
    fn percentile_clamps_to_observed_extremes() {
        let mut h = BucketHistogram::new();
        h.record(1000);
        // Single sample: every percentile is that sample, not the bucket
        // bound 1023.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(1000));
        }
    }

    #[test]
    fn summary_json_has_percentile_fields() {
        let mut h = BucketHistogram::new();
        h.record(5);
        let s = h.summary().unwrap().to_json().render();
        for key in ["count", "min", "max", "mean", "p50", "p90", "p99"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn summary_json_round_trips_and_refuses_missing_fields() {
        let mut h = BucketHistogram::new();
        for v in [3u64, 900, 12_345] {
            h.record(v);
        }
        let s = h.summary().unwrap();
        let j = Json::parse(&s.to_json().render()).unwrap();
        assert_eq!(BucketSummary::from_json(&j), Some(s));
        let Json::Obj(mut fields) = j else {
            panic!("summary renders an object")
        };
        fields.retain(|(k, _)| k != "p90");
        assert_eq!(BucketSummary::from_json(&Json::Obj(fields)), None);
    }
}
