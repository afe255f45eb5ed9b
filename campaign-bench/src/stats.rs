//! Order statistics for timing samples.

/// Percentile ladder a tail is chosen from, in percent.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a tail percentile must leave above it.
const TAIL_BEYOND: usize = 10;

/// A timing distribution as the benchmark reports it: the median, the
/// highest ladder percentile that still has at least ten samples above
/// it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (nearest rank).
    pub p50: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Which percentile `tail` is. When fewer than 20 samples exist no
    /// percentile leaves ten above it; the tail is then the median and
    /// this reads 50.
    pub tail_pct: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples` (any order). An empty set summarizes to all
    /// zeros.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                p50: 0.0,
                tail: 0.0,
                tail_pct: 0.0,
                n: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pct = LADDER
            .iter()
            .copied()
            .rfind(|&p| beyond(n, p) >= TAIL_BEYOND)
            .unwrap_or(50.0);
        Summary {
            p50: percentile(&sorted, 50.0),
            tail: percentile(&sorted, tail_pct),
            tail_pct,
            n,
        }
    }
}

/// Samples strictly above the nearest-rank `pct` percentile of `n`.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The product is at most `n`, so the cast back cannot truncate.
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending, non-empty slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// Median of `values` (any order; the mean of the middle two for an
/// even count). Zero for an empty set.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
    }

    #[test]
    fn small_sets_fall_back_to_the_median() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail, s.tail_pct, s.n), (2.0, 2.0, 50.0, 3));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn medians_average_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
