//! Order statistics over small samples of run results.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points of `xs`, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), which is what
/// the acceptance check of this benchmark uses. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median; `0` when the median is 0
/// or there are fewer than two values.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some([q1, _, q3]) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The lowest of the per-window values (`0` when there are none): what a
/// lower-is-better metric reports when interference can only add to it.
pub fn best_low(per_window: &[f64]) -> f64 {
    per_window.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some([15.0, 40.0, 120.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spoiled_windows_do_not_move_the_best_window() {
        let calm = [3.1, 3.0, 3.2, 3.05, 3.15];
        // Bursts of interference covering three of the five windows.
        let spoiled = [3.9, 3.0, 4.4, 3.05, 40.0];
        assert_eq!(best_low(&calm), 3.0);
        assert_eq!(best_low(&spoiled), 3.0);
        assert_eq!(median(&calm), 3.1);
        assert_eq!(median(&spoiled), 3.9); // what a window median would say
        assert_eq!(best_low(&[]), 0.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12); // (8.25-2.75)/5.5
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }
}
