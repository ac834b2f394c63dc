//! Order statistics for the report: nearest-rank percentiles and the
//! sample-size rule that decides whether a tail percentile is supported.

/// A percentile is reported as supported only when at least this many
/// samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in percent) over `n` samples:
/// the smallest rank with at least `p`% of the samples at or below it.
/// Integer arithmetic, so p99 of 1000 samples is exactly rank 990.
fn rank(n: usize, p: u32) -> usize {
    assert!(p <= 100, "percentile {p} out of range");
    (n * p as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` of an ascending slice; `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] samples beyond the
/// nearest-rank percentile `p`.
pub fn supports(n: usize, p: u32) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Sorts in place (NaN-free input) and returns the slice.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// One reported metric: its value, the first and third quartile of the
/// per-round values behind it, and the number of samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub value: f64,
    /// First quartile of the per-round values.
    pub q1: f64,
    /// Third quartile of the per-round values.
    pub q3: f64,
    /// Samples behind `value`.
    pub n: usize,
    /// Whether the samples support `value` (see [`supports`]); always
    /// true for medians of per-round scalars.
    pub supported: bool,
}

impl Summary {
    /// Median and quartiles of per-round values.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice (every metric has at least one round).
    pub fn of_rounds(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        let s = sorted(&mut v);
        Summary {
            value: nearest_rank(s, 50).expect("at least one round"),
            q1: nearest_rank(s, 25).expect("nonempty"),
            q3: nearest_rank(s, 75).expect("nonempty"),
            n: s.len(),
            supported: true,
        }
    }

    /// Percentile `p` taken round by round and reported as the median of
    /// the per-round values, with their quartiles. A host disturbance
    /// that hits one round moves one per-round value, where in a tail
    /// pooled across rounds that round's samples would own the
    /// percentile. `n` counts every sample; supported only if every round
    /// supports `p`. No samples at all report NaN (rendered as `null`).
    pub fn per_round(per_round: &[Vec<f64>], p: u32) -> Summary {
        let mut values: Vec<f64> = per_round
            .iter()
            .filter_map(|r| {
                let mut r = r.clone();
                nearest_rank(sorted(&mut r), p)
            })
            .collect();
        let values = sorted(&mut values);
        Summary {
            value: nearest_rank(values, 50).unwrap_or(f64::NAN),
            q1: nearest_rank(values, 25).unwrap_or(f64::NAN),
            q3: nearest_rank(values, 75).unwrap_or(f64::NAN),
            n: per_round.iter().map(Vec::len).sum(),
            supported: per_round.iter().all(|r| supports(r.len(), p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50), Some(5.0));
        assert_eq!(nearest_rank(&s, 51), Some(6.0));
        assert_eq!(nearest_rank(&s, 90), Some(9.0));
        assert_eq!(nearest_rank(&s, 99), Some(10.0));
        assert_eq!(nearest_rank(&s, 100), Some(10.0));
        assert_eq!(nearest_rank(&s, 0), Some(1.0), "p0 is the minimum");
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&[7.0], 99), Some(7.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(rank(1000, 99), 990, "exact, no float rounding");
        assert!(supports(1000, 99));
        assert!(!supports(999, 99), "rank 990 of 999 leaves 9 beyond");
        assert!(supports(100, 90));
        assert!(!supports(99, 90));
        assert!(supports(20, 50));
        assert!(!supports(19, 50), "rank 10 of 19 leaves 9 beyond");
        assert!(!supports(0, 50));
    }

    #[test]
    fn round_summary_is_median_and_quartiles() {
        let s = Summary::of_rounds(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.value, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        assert!(s.supported);
    }

    #[test]
    fn per_round_summary_shrugs_off_one_disturbed_round() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let slow: Vec<f64> = calm.iter().map(|v| v * 10.0).collect();
        let rounds = vec![calm.clone(), calm.clone(), slow, calm.clone(), calm];
        let s = Summary::per_round(&rounds, 90);
        assert_eq!((s.value, s.q1, s.q3, s.n), (90.0, 90.0, 90.0, 500));
        assert!(s.supported, "100 samples per round support p90");
        assert!(!Summary::per_round(&rounds, 99).supported);
        let empty = Summary::per_round(&[Vec::new()], 50);
        assert!(empty.value.is_nan() && !empty.supported);
    }
}
