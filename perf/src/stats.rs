//! Order statistics for latency samples and run-to-run spreads.

/// Median of the samples (mean of the middle two for an even count);
/// 0 for no samples.
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

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the "exclusive" method) — the rule the contract's
/// steadiness check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Median latency in milliseconds.
pub fn p50_ms(lat_ns: &[u64]) -> f64 {
    let as_ms: Vec<f64> = lat_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    median(&as_ms)
}

/// The 99th percentile in milliseconds — or, with fewer than 1000
/// samples, the highest percentile that still has ten samples beyond it
/// (the maximum below 20 samples).
pub fn tail_ms(lat_ns: &[u64]) -> f64 {
    if lat_ns.is_empty() {
        return 0.0;
    }
    let mut sorted = lat_ns.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let p99 = (n * 99).div_ceil(100).saturating_sub(1);
    let supported = if n > 20 { n - 11 } else { n - 1 };
    sorted[p99.min(supported)] as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let many: Vec<u64> = (1..=2000).map(|i| i * 1_000_000).collect();
        assert_eq!(tail_ms(&many), 1980.0);
        let few: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert_eq!(tail_ms(&few), 90.0);
        assert_eq!(tail_ms(&[5_000_000, 7_000_000]), 7.0);
        assert_eq!(p50_ms(&[1_000_000, 3_000_000]), 2.0);
    }
}
