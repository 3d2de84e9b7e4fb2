//! Exact sample statistics: sorted-sample quantiles, medians and spreads.
//!
//! Nothing here bins or approximates: a quantile is an element of the sample,
//! so `p50 == p99 == max` can only happen when the sample really is that flat.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule: the
/// smallest element with at least `q * n` elements at or below it.
///
/// `sorted` must be ascending and non-empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `sample` in place and returns its `q`-quantile.
pub fn quantile(sample: &mut [u64], q: f64) -> u64 {
    sample.sort_unstable();
    quantile_sorted(sample, q)
}

/// Median, quartiles and extremes of a set of per-repetition values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median (mean of the two middle values for an even count).
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// The smallest value.
    pub min: f64,
    /// The largest value.
    pub max: f64,
}

/// The `i`-th of the three quartile cut points of `sorted`, by the rule of
/// Python's `statistics.quantiles(data, n=4)` (exclusive method), so spreads
/// computed here and by the driver agree.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let position = i * (n + 1);
    let j = (position / 4).clamp(1, n - 1);
    let delta = position as f64 - 4.0 * j as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

impl Spread {
    /// A spread of one value.
    pub fn point(value: f64) -> Self {
        Spread {
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
        }
    }

    /// Summarizes `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(Spread {
            median: quartile(&sorted, 2),
            q1: quartile(&sorted, 1),
            q3: quartile(&sorted, 3),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        })
    }

    /// `(q3 - q1) / median`: the spread between repetitions, taken as the
    /// distance between their quartiles, as a share of the median (0 when the
    /// median is 0). The extremes are kept for the record but not used here:
    /// one slow repetition must not make a steady metric look unresolved.
    pub fn relative(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0 (a layer that did
/// no work has a ratio of nothing, reported as 0).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_sample_elements() {
        let mut sample: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut sample, 0.50), 50);
        assert_eq!(quantile_sorted(&sample, 0.99), 99);
        assert_eq!(quantile_sorted(&sample, 1.0), 100);
        assert_eq!(quantile_sorted(&sample, 0.0), 1);
        assert_eq!(quantile_sorted(&sample, 0.001), 1);
    }

    #[test]
    fn quantiles_of_small_and_skewed_samples() {
        assert_eq!(quantile_sorted(&[7], 0.5), 7);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        // p50 of two elements is the lower one (nearest rank, never interpolated).
        assert_eq!(quantile_sorted(&[1, 9], 0.5), 1);
        assert_eq!(quantile_sorted(&[1, 9], 0.51), 9);
        // A tail outlier moves p99 but not p50.
        let mut skewed = vec![10u64; 99];
        skewed.push(10_000);
        assert_eq!(quantile(&mut skewed, 0.5), 10);
        assert_eq!(quantile_sorted(&skewed, 0.99), 10);
        assert_eq!(quantile_sorted(&skewed, 0.995), 10_000);
    }

    #[test]
    fn spread_median_quartiles_and_extremes() {
        let spread = Spread::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((spread.median, spread.min, spread.max), (2.0, 1.0, 3.0));
        assert_eq!((spread.q1, spread.q3), (1.0, 3.0));
        assert_eq!(spread.relative(), 1.0);
        let even = Spread::of(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert!(Spread::of(&[]).is_none());
        assert_eq!(Spread::point(0.0).relative(), 0.0);
        assert_eq!(Spread::of(&[5.0]).unwrap(), Spread::point(5.0));
    }

    #[test]
    fn quartiles_match_pythons_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        // == [3.5, 24.0, 160.0]
        let values: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        let spread = Spread::of(&values).unwrap();
        assert_eq!((spread.q1, spread.median, spread.q3), (3.5, 24.0, 160.0));
        // One outlier among ten moves the extremes, not the quartiles.
        let mut steady = vec![100.0; 9];
        steady.push(10.0);
        let spread = Spread::of(&steady).unwrap();
        assert_eq!((spread.min, spread.relative()), (10.0, 0.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
