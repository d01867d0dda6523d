//! Small numeric helpers shared by the experiment drivers.

/// Running cumulative sum of a series.
pub(crate) fn cumulative(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut acc = 0.0;
    values
        .into_iter()
        .map(|v| {
            acc += v;
            acc
        })
        .collect()
}

/// Centred-window moving average with window `w` (clamped at the edges) —
/// the smoothing behind the paper's "moving average query time" figures.
pub(crate) fn moving_average(values: &[f64], w: usize) -> Vec<f64> {
    assert!(w > 0, "window must be positive");
    let half = w / 2;
    (0..values.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(values.len());
            let slice = &values[lo..hi];
            slice.iter().sum::<f64>() / slice.len() as f64
        })
        .collect()
}

/// Arithmetic mean; 0 for an empty slice.
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation; 0 for slices shorter than 2.
pub(crate) fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_accumulates() {
        assert_eq!(cumulative([1.0, 2.0, 3.0]), vec![1.0, 3.0, 6.0]);
        assert!(cumulative(std::iter::empty()).is_empty());
    }

    #[test]
    fn moving_average_smooths_and_clamps() {
        let v = [0.0, 10.0, 0.0, 10.0, 0.0];
        let ma = moving_average(&v, 3);
        assert_eq!(ma.len(), v.len());
        // Centre points average their neighbourhood.
        assert!((ma[2] - 20.0 / 3.0).abs() < 1e-12);
        // Edges use the available values only.
        assert!((ma[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let v = [3.0, 1.0, 4.0];
        assert_eq!(moving_average(&v, 1), v.to_vec());
    }

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }
}
