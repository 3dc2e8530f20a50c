//! CDF and fraction helpers shared by the paper's rows.

/// Fraction of samples at or above `threshold`.
pub fn fraction_at_least(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v >= threshold).count() as f64 / values.len() as f64
}

/// Fraction of samples at or below `threshold`.
pub fn fraction_at_most(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v <= threshold).count() as f64 / values.len() as f64
}

/// The empirical CDF evaluated on a fixed grid, as `(x, F(x))` rows —
/// ready to plot against the paper's figure.
pub fn cdf_grid(values: &[f64], grid: &[f64]) -> Vec<(f64, f64)> {
    grid.iter()
        .map(|&x| (x, fraction_at_most(values, x)))
        .collect()
}

/// The sample median (convenience over `oak_core::stats`).
pub fn median(values: &[f64]) -> f64 {
    oak_core::stats::median(values).unwrap_or(f64::NAN)
}
