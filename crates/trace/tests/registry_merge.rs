//! Merge semantics of [`MetricsRegistry`] — the aggregation behind
//! memsync-serve's per-shard stats frames. Merging N registries must be
//! indistinguishable (counters, histogram percentiles, latency streams,
//! high-water marks) from recording every sample into one registry.

use memsync_trace::bucket::{bucket_index, BUCKETS};
use memsync_trace::{BucketHistogram, LatencyRecorder, LatencyStats, MetricsRegistry, Pcg32};

#[test]
fn merge_sums_counters_and_maxes_highwater() {
    let mut a = MetricsRegistry::new();
    let mut b = MetricsRegistry::new();
    a.add("serve.forwarded", 7);
    a.add("serve.dropped", 1);
    b.add("serve.forwarded", 5);
    b.add("serve.busy", 3);
    a.observe_gauge("serve.queue_depth", 4);
    b.observe_gauge("serve.queue_depth", 9);
    b.observe_gauge("serve.batchq", 2);
    a.merge(&b);
    assert_eq!(a.counter("serve.forwarded"), 12);
    assert_eq!(a.counter("serve.dropped"), 1);
    assert_eq!(a.counter("serve.busy"), 3);
    assert_eq!(a.highwater("serve.queue_depth"), Some(9));
    assert_eq!(a.highwater("serve.batchq"), Some(2));
}

#[test]
fn merge_concatenates_histograms_preserving_percentiles() {
    let mut a = MetricsRegistry::new();
    let mut b = MetricsRegistry::new();
    let mut one = MetricsRegistry::new();
    for v in 0..100u64 {
        // Interleave samples between the two shards.
        if v % 3 == 0 {
            a.record("serve.batch_size", v);
        } else {
            b.record("serve.batch_size", v);
        }
        one.record("serve.batch_size", v);
    }
    a.merge(&b);
    let merged = a.histogram("serve.batch_size").unwrap().summary().unwrap();
    let single = one
        .histogram("serve.batch_size")
        .unwrap()
        .summary()
        .unwrap();
    assert_eq!(merged, single, "order of recording must not matter");
    assert_eq!(merged.count, 100);
}

#[test]
fn merge_adds_latency_streams() {
    let mut a = MetricsRegistry::new();
    let mut b = MetricsRegistry::new();
    a.record_write(4, 10);
    a.record_delivery(4, 0, 13);
    b.record_write(4, 100);
    b.record_delivery(4, 0, 105);
    b.record_write(8, 0);
    b.record_delivery(8, 1, 2);
    a.merge(&b);
    let shared = a.stats(4, 0).expect("both sides recorded (4, 0)");
    assert_eq!(
        (shared.count, shared.min, shared.max, shared.mean),
        (2, 3, 5, 4.0)
    );
    let disjoint = a.stats(8, 1).expect("b recorded (8, 1)");
    assert_eq!(
        (disjoint.count, disjoint.min, disjoint.max, disjoint.mean),
        (1, 2, 2, 2.0)
    );
    assert_eq!(a.streams().len(), 2);
}

/// Seeded property sweep: arbitrary samples split across K registries and
/// merged give the same counters, percentile summaries, and pooled latency
/// statistics as one registry that saw everything.
#[test]
fn property_split_then_merge_equals_single_registry() {
    for seed in 0..20u64 {
        let mut rng = Pcg32::seed_from_u64(0xC0FFEE ^ seed);
        let shards = 1 + (seed as usize % 4);
        let mut parts: Vec<MetricsRegistry> = (0..shards).map(|_| MetricsRegistry::new()).collect();
        let mut one = MetricsRegistry::new();
        for i in 0..400u64 {
            let shard = rng.gen_range_usize(0..shards);
            match rng.gen_range(0..4) {
                0 => {
                    let n = rng.gen_range(1..10);
                    parts[shard].add("c.events", n);
                    one.add("c.events", n);
                }
                1 => {
                    let v = rng.gen_range(0..1000);
                    parts[shard].record("h.latency", v);
                    one.record("h.latency", v);
                }
                2 => {
                    let v = rng.gen_range(0..64);
                    parts[shard].observe_gauge("g.depth", v);
                    one.observe_gauge("g.depth", v);
                }
                _ => {
                    // A closed produce-consume round within one shard.
                    let addr = 4 * (1 + (i as u32 % 3));
                    let lat = rng.gen_range(1..20);
                    parts[shard].record_write(addr, i * 100);
                    parts[shard].record_delivery(addr, shard, i * 100 + lat);
                    one.record_write(addr, i * 100);
                    one.record_delivery(addr, shard, i * 100 + lat);
                }
            }
        }
        let mut merged = MetricsRegistry::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(
            merged.counter("c.events"),
            one.counter("c.events"),
            "seed {seed}"
        );
        assert_eq!(
            merged.histogram("h.latency").map(|h| h.summary()),
            one.histogram("h.latency").map(|h| h.summary()),
            "histogram percentiles must survive the split (seed {seed})"
        );
        assert_eq!(merged.highwater("g.depth"), one.highwater("g.depth"));
        let (mp, op) = (merged.pooled_stats(), one.pooled_stats());
        match (mp, op) {
            (None, None) => {}
            (Some(m), Some(o)) => {
                assert_eq!(m.count, o.count, "seed {seed}");
                assert_eq!(m.min, o.min);
                assert_eq!(m.max, o.max);
                assert!((m.mean - o.mean).abs() < 1e-9);
            }
            other => panic!("pooled stats diverged: {other:?}"),
        }
        // Merging must also be associative with an empty identity.
        let mut id = MetricsRegistry::new();
        id.merge(&merged);
        assert_eq!(id.counter("c.events"), merged.counter("c.events"));
    }
}

// ----------------------------------------------------------------------
// BucketHistogram merge — the aggregation behind the tracing plane's
// stage percentiles. The serve stats frame merges per-shard bucket
// histograms; these properties pin that the merge is loss-free at the
// bucket resolution, including the edges (empty identity, boundary
// values, saturating counts).

fn summaries_equal(a: &BucketHistogram, b: &BucketHistogram) {
    assert_eq!(a.buckets(), b.buckets(), "bucket counts differ");
    assert_eq!(a.count(), b.count());
    assert_eq!(a.min(), b.min());
    assert_eq!(a.max(), b.max());
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(a.percentile(q), b.percentile(q), "p{q} differs");
    }
}

#[test]
fn bucket_merge_with_empty_is_identity_both_ways() {
    let mut full = BucketHistogram::new();
    for v in [0u64, 1, 2, 1023, 1024, u64::MAX] {
        full.record(v);
    }
    let reference = full.clone();

    // full ⊕ empty = full.
    full.merge(&BucketHistogram::new());
    summaries_equal(&full, &reference);

    // empty ⊕ full = full (including exact min/max, which start at the
    // empty histogram's sentinel values u64::MAX / 0).
    let mut empty = BucketHistogram::new();
    empty.merge(&reference);
    summaries_equal(&empty, &reference);

    // empty ⊕ empty stays empty, not a phantom sample.
    let mut e2 = BucketHistogram::new();
    e2.merge(&BucketHistogram::new());
    assert_eq!(e2.count(), 0);
    assert_eq!(e2.min(), None);
    assert_eq!(e2.summary(), None);
}

#[test]
fn bucket_merge_saturates_counts_and_sums() {
    let mut a = BucketHistogram::new();
    let mut b = BucketHistogram::new();
    for h in [&mut a, &mut b] {
        h.record(u64::MAX);
        h.record(u64::MAX);
    }
    a.merge(&b);
    assert_eq!(a.count(), 4);
    assert_eq!(a.max(), Some(u64::MAX));
    // The running sum saturates instead of wrapping: the mean stays at
    // the top of the range rather than collapsing toward zero.
    assert!(a.mean().unwrap() >= (u64::MAX / 4) as f64);
    assert_eq!(a.percentile(1.0), Some(u64::MAX));
}

#[test]
fn bucket_split_at_boundaries_equals_single_recording() {
    // Adversarial split: every sample sits exactly on a bucket boundary
    // (2^k - 1 closes bucket k, 2^k opens bucket k+1), the worst case for
    // any off-by-one in the merge's bucket arithmetic.
    for k in 1..63u32 {
        let below = (1u64 << k) - 1;
        let at = 1u64 << k;
        assert_eq!(
            bucket_index(below) + 1,
            bucket_index(at),
            "2^{k}-1 and 2^{k} straddle a boundary"
        );
        let mut single = BucketHistogram::new();
        let mut left = BucketHistogram::new();
        let mut right = BucketHistogram::new();
        for (i, v) in [below, at, below, at, at].into_iter().enumerate() {
            single.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        summaries_equal(&left, &single);
    }
}

#[test]
fn property_bucket_split_then_merge_equals_single_histogram() {
    for seed in 0..20u64 {
        let mut rng = Pcg32::seed_from_u64(0xB0C4E7 ^ seed);
        let shards = 1 + (seed as usize % 5);
        let mut parts: Vec<BucketHistogram> = (0..shards).map(|_| BucketHistogram::new()).collect();
        let mut single = BucketHistogram::new();
        for _ in 0..500 {
            // Spread samples across the full bucket range, biased onto
            // boundaries: 2^k - 1, 2^k, 2^k + 1, or a random offset.
            let k = rng.gen_range(0..(BUCKETS as u64 - 1)) as u32;
            let base = 1u64 << k.min(62);
            let v = match rng.gen_range(0..4) {
                0 => base - 1,
                1 => base,
                2 => base.saturating_add(1),
                _ => base.saturating_add(rng.gen_range(0..base.max(1))),
            };
            parts[rng.gen_range_usize(0..shards)].record(v);
            single.record(v);
        }
        let mut merged = BucketHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        summaries_equal(&merged, &single);
        // Fold order must not matter either (associativity).
        let mut reversed = BucketHistogram::new();
        for p in parts.iter().rev() {
            reversed.merge(p);
        }
        summaries_equal(&reversed, &merged);
    }
}

// ----------------------------------------------------------------------
// LatencyRecorder merge edges: empty identities, stream union, and the
// documented closed-window contract (open produce rounds do not leak
// across a merge).

#[test]
fn latency_merge_with_empty_is_identity() {
    let mut full = LatencyRecorder::new();
    full.record_write(4, 10);
    full.record_delivery(4, 0, 13);
    let reference = full.stats(4, 0).expect("one sample");
    assert_eq!(
        (
            reference.count,
            reference.min,
            reference.max,
            reference.mean
        ),
        (1, 3, 3, 3.0)
    );

    full.merge(&LatencyRecorder::new());
    assert_eq!(full.stats(4, 0), Some(reference));

    let mut empty = LatencyRecorder::new();
    empty.merge(&full);
    assert_eq!(empty.stats(4, 0), Some(reference));
    assert_eq!(empty.streams(), full.streams());
    assert_eq!(empty.pooled_stats(), full.pooled_stats());
}

#[test]
fn latency_merge_unions_disjoint_streams_and_pools_shared_ones() {
    let mut a = LatencyRecorder::new();
    let mut b = LatencyRecorder::new();
    // Shared stream (4, 0): samples 3 from a, 5 from b.
    a.record_write(4, 10);
    a.record_delivery(4, 0, 13);
    b.record_write(4, 100);
    b.record_delivery(4, 0, 105);
    // Disjoint stream (8, 1) only in b.
    b.record_write(8, 0);
    b.record_delivery(8, 1, 7);
    a.merge(&b);
    let shared = a.stats(4, 0).expect("pooled stream");
    assert_eq!(
        (shared.count, shared.min, shared.max, shared.mean),
        (2, 3, 5, 4.0)
    );
    let disjoint = a.stats(8, 1).expect("b's stream");
    assert_eq!(
        (disjoint.count, disjoint.min, disjoint.max, disjoint.mean),
        (1, 7, 7, 7.0)
    );
    assert_eq!(a.streams().len(), 2);
    let pooled = a.pooled_stats().unwrap();
    assert_eq!(pooled.count, 3);
    assert_eq!((pooled.min, pooled.max), (3, 7));
}

#[test]
fn latency_merge_does_not_leak_open_produce_rounds() {
    // Documented closed-window contract: a `record_write` with no
    // delivery yet is measurement state, not a sample, and merging must
    // not let a later delivery in the *destination* recorder pair against
    // the source's open write.
    let mut open = LatencyRecorder::new();
    open.record_write(4, 1000);
    let mut dst = LatencyRecorder::new();
    dst.merge(&open);
    dst.record_delivery(4, 0, 1003);
    assert_eq!(
        dst.stats(4, 0),
        None,
        "the open write must not cross the merge"
    );
    assert!(dst.streams().is_empty());
    assert_eq!(dst.pooled_stats(), None);
}

/// The two-pass reference the recorder's running sums must reproduce:
/// the mean from the sample sum, the variance from each sample's squared
/// distance to that mean.
fn two_pass_stats(samples: &[u64]) -> Option<LatencyStats> {
    if samples.is_empty() {
        return None;
    }
    let count = samples.len();
    let min = *samples.iter().min().expect("non-empty");
    let max = *samples.iter().max().expect("non-empty");
    let mean = samples.iter().sum::<u64>() as f64 / count as f64;
    let variance = samples
        .iter()
        .map(|&s| {
            let d = s as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / count as f64;
    Some(LatencyStats {
        count,
        min,
        max,
        mean,
        variance,
    })
}

fn assert_matches_oracle(got: Option<LatencyStats>, samples: &[u64], what: &str, seed: u64) {
    let want = two_pass_stats(samples);
    let (Some(g), Some(w)) = (got, want) else {
        assert_eq!(got, want, "{what}: seed {seed:#x}");
        return;
    };
    assert_eq!(
        (g.count, g.min, g.max, g.mean.to_bits()),
        (w.count, w.min, w.max, w.mean.to_bits()),
        "{what}: count, min, max and mean must be exact (seed {seed:#x})"
    );
    let tolerance = 1e-9 * w.variance.abs().max(f64::MIN_POSITIVE);
    assert!(
        (g.variance - w.variance).abs() <= tolerance,
        "{what}: variance {} vs two-pass {} (seed {seed:#x})",
        g.variance,
        w.variance
    );
}

/// Seeded property: random streams recorded into one recorder, and the
/// same streams split across shard recorders that are then merged, both
/// match the two-pass oracle over the samples the test keeps, per stream
/// and pooled.
#[test]
fn property_running_sums_match_the_two_pass_oracle() {
    for case in 0..40u64 {
        let seed = 0x5EED_0000 ^ case;
        let mut rng = Pcg32::seed_from_u64(seed);
        let shards = 1 + rng.gen_range_usize(0..4);
        let mut one = LatencyRecorder::new();
        let mut parts: Vec<LatencyRecorder> = (0..shards).map(|_| LatencyRecorder::new()).collect();
        let mut kept: std::collections::BTreeMap<(u32, usize), Vec<u64>> = Default::default();
        // Per-address latency ranges from one cycle to 2^40, so the sums
        // cover both tiny and wide spreads while every sample stays exact
        // in the oracle's f64.
        let ranges: Vec<(u64, u64)> = (0..4)
            .map(|_| {
                let (base_bits, spread_bits) = (rng.gen_range(1..40), rng.gen_range(0..20));
                let base = rng.gen_range(0..1 << base_bits);
                (base, 1 + rng.gen_range(0..1 << spread_bits))
            })
            .collect();
        let mut cycle = 0u64;
        for _ in 0..rng.gen_range(1..600) {
            let a = rng.gen_range_usize(0..ranges.len());
            let addr = 4 * a as u32;
            let shard = rng.gen_range_usize(0..shards);
            cycle += 1 + rng.gen_range(0..8);
            // One closed produce round on one shard: a write, then one
            // delivery per consumer picked.
            one.record_write(addr, cycle);
            parts[shard].record_write(addr, cycle);
            let (base, spread) = ranges[a];
            for consumer in 0..1 + rng.gen_range_usize(0..3) {
                let latency = base + rng.gen_range(0..spread);
                one.record_delivery(addr, consumer, cycle + latency);
                parts[shard].record_delivery(addr, consumer, cycle + latency);
                kept.entry((addr, consumer)).or_default().push(latency);
            }
        }
        let mut merged = LatencyRecorder::new();
        for p in &parts {
            merged.merge(p);
        }
        let keys: Vec<(u32, usize)> = kept.keys().copied().collect();
        let all: Vec<u64> = kept.values().flatten().copied().collect();
        for (what, r) in [("one recorder", &one), ("merged shards", &merged)] {
            assert_eq!(r.streams(), keys, "{what}: stream order (seed {seed:#x})");
            for (&(addr, consumer), samples) in &kept {
                assert_matches_oracle(r.stats(addr, consumer), samples, what, seed);
            }
            assert_matches_oracle(r.pooled_stats(), &all, what, seed);
        }
    }
}
