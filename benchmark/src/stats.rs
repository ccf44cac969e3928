//! The harness's own arithmetic: medians, quartiles, the tail percentile a
//! sample count supports, and shares.

/// Median of the samples (mean of the middle two for an even count).
/// `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(samples, n=4)` gives them (the exclusive method),
/// which is what the benchmark's acceptance check computes. Needs at least
/// two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped to the samples.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Distance between the quartiles as a share of the median — the spread a
/// metric's bound is compared with. `None` below two samples or for a
/// zero median.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest of the 99th, 90th and 50th percentile that still has at
/// least ten samples beyond it, with its value (nearest rank). `None` for
/// no samples; below twenty samples the median is all there is.
pub fn tail_percentile(samples: &[u64]) -> Option<(u32, u64)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let percentile = [99u32, 90, 50]
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= 10)
        .unwrap_or(50);
    let rank = (n * percentile as usize).div_ceil(100).clamp(1, n);
    Some((percentile, sorted[rank - 1]))
}

/// What is left of the whole after the attributed shares.
pub fn unattributed_share(shares: &[f64]) -> f64 {
    1.0 - shares.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&ten), Some(1.0));
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        let up_to = |n: u64| (1..=n).collect::<Vec<u64>>();
        // A thousand samples leave ten beyond the 99th percentile.
        assert_eq!(tail_percentile(&up_to(1000)), Some((99, 990)));
        // One short of that falls back to the 90th.
        assert_eq!(tail_percentile(&up_to(999)), Some((90, 900)));
        assert_eq!(tail_percentile(&up_to(100)), Some((90, 90)));
        // Below a hundred only the median has ten samples beyond it.
        assert_eq!(tail_percentile(&up_to(99)), Some((50, 50)));
        assert_eq!(tail_percentile(&up_to(20)), Some((50, 10)));
        assert_eq!(tail_percentile(&[42]), Some((50, 42)));
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn shares_and_the_unattributed_rest_sum_to_one() {
        let shares = [0.25, 0.125, 0.0625, 0.3];
        let rest = unattributed_share(&shares);
        assert!((shares.iter().sum::<f64>() + rest - 1.0).abs() < 1e-12);
        assert_eq!(unattributed_share(&[]), 1.0);
        // Kernels priced in isolation can over-attribute; the rest then
        // goes negative instead of being clamped out of sight.
        assert!(unattributed_share(&[0.7, 0.6]) < 0.0);
    }
}
