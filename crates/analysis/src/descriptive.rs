//! Descriptive statistics: means, variation, quartiles and box-plot summaries.

/// Arithmetic mean of a slice. Returns 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation. Returns 0 for slices shorter than 2.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Coefficient of variation: standard deviation normalized to the mean (the metric
/// annotated under every subplot of Fig. 3). Returns 0 if the mean is 0.
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    let m = mean(values);
    if m == 0.0 {
        0.0
    } else {
        std_dev(values) / m
    }
}

/// Linearly interpolated quantile (`q` in `[0, 1]`) of an unsorted slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The box-and-whiskers summary used by Figs. 3 and 7: quartiles, the interquartile
/// range (IQR), whiskers at the central 1.5·IQR range (clipped to observed data),
/// mean and extremes.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxSummary {
    /// Number of data points.
    pub count: usize,
    /// Minimum observed value.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Arithmetic mean (the white circles in Fig. 3).
    pub mean: f64,
    /// Lower whisker: smallest observation ≥ `q1 - 1.5·IQR`.
    pub whisker_low: f64,
    /// Upper whisker: largest observation ≤ `q3 + 1.5·IQR`.
    pub whisker_high: f64,
}

impl BoxSummary {
    /// Compute the summary of a (non-empty) data set.
    pub fn of(values: &[f64]) -> BoxSummary {
        assert!(!values.is_empty(), "cannot summarize an empty data set");
        let q1 = quantile(values, 0.25);
        let q3 = quantile(values, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let whisker_low = values
            .iter()
            .cloned()
            .filter(|&v| v >= lo_fence)
            .fold(f64::INFINITY, f64::min);
        let whisker_high = values
            .iter()
            .cloned()
            .filter(|&v| v <= hi_fence)
            .fold(f64::NEG_INFINITY, f64::max);
        BoxSummary {
            count: values.len(),
            min,
            q1,
            median: median(values),
            q3,
            max,
            mean: mean(values),
            whisker_low,
            whisker_high,
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Normalize every value to the smallest non-zero value of the slice (used for
/// the "normalized to the minimum BER/HC_first" y-axes of Figs. 4 and 6). Zeros,
/// such as rows without a bitflip, stay 0.
pub fn normalize_to_min(values: &[f64]) -> Vec<f64> {
    let min = values
        .iter()
        .copied()
        .filter(|&v| v > 0.0)
        .fold(f64::INFINITY, f64::min);
    values.iter().map(|v| v / min).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_data() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
        assert!((coefficient_of_variation(&v) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn box_summary_of_uniform_data() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = BoxSummary::of(&v);
        assert_eq!(b.count, 100);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 100.0);
        assert!((b.median - 50.5).abs() < 1e-9);
        assert!(b.q1 < b.median && b.median < b.q3);
        assert!(b.whisker_low >= b.min && b.whisker_high <= b.max);
    }

    #[test]
    fn whiskers_exclude_outliers() {
        let mut v: Vec<f64> = (1..=99).map(|i| i as f64 / 10.0).collect();
        v.push(1000.0); // extreme outlier
        let b = BoxSummary::of(&v);
        assert!(b.whisker_high < 1000.0);
        assert_eq!(b.max, 1000.0);
    }

    #[test]
    fn normalize_to_min_makes_minimum_one() {
        let v = [2.0, 4.0, 8.0];
        assert_eq!(normalize_to_min(&v), vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn normalize_to_min_skips_zeros() {
        let v = [0.0, 4.0, 2.0, 0.0, 8.0];
        assert_eq!(normalize_to_min(&v), vec![0.0, 2.0, 1.0, 0.0, 4.0]);
        assert_eq!(normalize_to_min(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic]
    fn box_summary_rejects_empty() {
        let _ = BoxSummary::of(&[]);
    }
}
