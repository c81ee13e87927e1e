//! The estimators the protocol uses: the fastest of repeats, medians over
//! operations, and a percentile only where at least ten samples lie beyond it.

/// Median of the samples (mean of the middle two for an even count).
/// Sorts in place; an empty slice yields NaN.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// The fastest sample; NaN for none.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

pub fn median_u64(samples: &[u64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    median(&mut v)
}

/// The `q`-quantile of sorted samples, stepped down until at least ten
/// samples lie beyond it (1 000 samples support p99, not p99.9).
pub fn supported_quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let beyond = ((sorted.len() as f64 * (1.0 - q)).floor() as usize).max(10).min(sorted.len() - 1);
    sorted[sorted.len() - 1 - beyond] as f64
}
