//! Order statistics with the sample-count rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! has at least [`MIN_BEYOND`] samples beyond it. Percentiles use the
//! nearest-rank definition, so every reported value is one that was
//! actually measured.

/// Samples that must lie strictly beyond a tail percentile before the
/// percentile may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `samples`, or `None` for
/// an empty slice.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples that lie beyond percentile `q` among `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Percentile `q` of `samples` when the sample-count rule allows it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, q)
}

/// The median (nearest rank), or `None` for an empty slice. The median
/// is always reported; the rule only gates tail percentiles.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&xs, 0.95), Some(10.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn sample_count_rule() {
        let fewest = |q: f64| (1..).find(|&n| beyond(n, q) >= MIN_BEYOND);
        assert_eq!(fewest(0.95), Some(200));
        assert_eq!(fewest(0.99), Some(1000));
        assert_eq!(fewest(0.5), Some(20));
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.95), None, "199 samples leave 9 beyond p95");
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(tail(&xs, 0.95), Some(190.0));
    }
}
