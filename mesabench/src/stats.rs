//! Summary statistics of latency samples.

/// Samples that must lie strictly beyond a reported percentile; a
/// percentile with fewer is a statement about a handful of outliers.
pub const MIN_TAIL: usize = 10;

/// Smallest sample count at which the `p`-th percentile has [`MIN_TAIL`]
/// samples beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| tail_len(n, p) >= MIN_TAIL)
        .expect("a finite n exists for p < 100")
}

/// 1-based nearest rank of the `p`-th percentile of `n` samples: the
/// smallest rank whose share of samples at or below it reaches `p`%.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn tail_len(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The `p`-th percentile of `samples`, or `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond its nearest rank.
///
/// The estimate is Harrell and Davis's: a weighted mean of all order
/// statistics, the `i`-th weighted by the probability that a
/// Beta(`p(n+1)`, `(1-p)(n+1)`) draw falls in `((i-1)/n, i/n]`. Here the Beta
/// distribution is replaced by the normal one of equal mean and variance,
/// which is close at the sample counts a run gathers. Unlike a single
/// order statistic, the estimate does not jump when the percentile falls
/// between two clusters of samples, as the median of the 14 representative
/// queries does.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if tail_len(n, p) < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = p / 100.0;
    let sd = (q * (1.0 - q) / (n as f64 + 2.0)).sqrt();
    let cdf = |x: f64| normal_cdf((x - q) / sd);
    let (mut prev, mut total, mut weight) = (cdf(0.0), 0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let next = cdf((i + 1) as f64 / n as f64);
        total += (next - prev) * x;
        weight += next - prev;
        prev = next;
    }
    Some(total / weight)
}

/// Standard normal CDF via the error-function approximation 7.1.26 of
/// Abramowitz and Stegun (absolute error below 1.5e-7).
fn normal_cdf(z: f64) -> f64 {
    let x = z.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    if z >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Median latency of each query over `passes`, where `passes[p][i]` is
/// query `i`'s sample in pass `p`. Every pass must cover the same queries.
pub fn per_query_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| {
            let samples: Vec<f64> = passes.iter().map(|p| p[i]).collect();
            median(&samples).expect("at least one pass")
        })
        .collect()
}

/// Arithmetic mean, `0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(90.0), 100);
        // Nearest rank ceil(0.9 * 99) = 90 leaves only 9 samples beyond.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // Rank 90 of 100 leaves exactly samples 91..=100 beyond.
        let p90 = percentile(&ramp(100), 90.0).unwrap();
        assert!(close(p90, 90.5, 0.5), "{p90}");
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(percentile(&ramp(19), 50.0), None);
        let p50 = percentile(&ramp(20), 50.0).unwrap();
        assert!(close(p50, 10.5, 1e-9), "{p50}");
    }

    #[test]
    fn percentile_is_exact_on_constant_samples() {
        assert_eq!(percentile(&[4.25; 200], 90.0), Some(4.25));
    }

    #[test]
    fn percentile_between_two_clusters_is_steady() {
        // Two equal clusters: the median falls between them. A single
        // order statistic would be the lower cluster's maximum; the
        // estimate instead averages across the gap, and one outlier at
        // the cluster's edge moves it far less than the outlier itself.
        let low: Vec<f64> = (0..56).map(|i| 10.0 + (i % 7) as f64 * 0.1).collect();
        let high: Vec<f64> = (0..56).map(|i| 20.0 + (i % 7) as f64 * 0.1).collect();
        let base = percentile(&[low.clone(), high.clone()].concat(), 50.0).unwrap();
        assert!(base > 10.6 && base < 20.0, "{base}");
        let mut bumped = low.clone();
        bumped[0] = 19.0;
        let moved = percentile(&[bumped, high].concat(), 50.0).unwrap();
        assert!(
            (moved - base).abs() < 0.5 * (19.0 - 10.6),
            "{base} -> {moved}"
        );
    }

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!(close(normal_cdf(0.0), 0.5, 1e-7));
        assert!(close(normal_cdf(1.959_964), 0.975, 1e-6));
        assert!(close(normal_cdf(-1.0), 0.158_655_25, 1e-6));
    }

    #[test]
    fn per_query_medians_reject_one_slow_pass() {
        let passes = vec![
            vec![1.0, 10.0, 100.0],
            vec![5.0, 50.0, 500.0], // slowed by the host
            vec![1.2, 9.0, 110.0],
        ];
        assert_eq!(per_query_medians(&passes), vec![1.2, 10.0, 110.0]);
        assert_eq!(per_query_medians(&passes[..2]), vec![3.0, 30.0, 300.0]);
        assert!(per_query_medians(&[]).is_empty());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
