//! Order statistics used by the end-to-end metrics.

/// Samples that must lie beyond the percentile reported as the tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The percentile rank of the tail for `n` samples, as a fraction: the
/// highest one that still has at least [`TAIL_BEYOND`] samples beyond it,
/// `(n - 10) / n`. With `n <= 10` no rank qualifies and the rule falls
/// back to the median (0.5).
pub fn tail_rank(n: usize) -> f64 {
    if n <= TAIL_BEYOND {
        0.5
    } else {
        (n - TAIL_BEYOND) as f64 / n as f64
    }
}

/// Order-statistic sub-intervals per sample in [`quantile`]'s integral.
const STEPS: usize = 16;

/// The Harrell–Davis estimate of quantile `q` (0 < q < 1): a weighted
/// mean of all order statistics, weighted by the mass a
/// Beta(`q(n+1)`, `(1-q)(n+1)`) distribution puts on each one's share of
/// [0, 1]. Unlike a single order statistic it does not jump when the rank
/// falls between two clusters of similar samples — the ops of one circuit
/// under several configs form such clusters. `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n <= 1 {
        return v.first().copied().unwrap_or(f64::NAN);
    }
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let m = n * STEPS;
    let log_pdf: Vec<f64> = (0..m)
        .map(|j| {
            let x = (j as f64 + 0.5) / m as f64;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let top = log_pdf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut mass) = (0.0, 0.0);
    for (j, l) in log_pdf.iter().enumerate() {
        let w = (l - top).exp();
        sum += w * v[j / STEPS];
        mass += w;
    }
    sum / mass
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn harrell_davis_is_a_smooth_order_statistic() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 20.0).abs() < 1e-6, "symmetric data");
        assert_eq!(quantile(&[7.0; 12], 0.9), 7.0);
        assert_eq!(quantile(&[3.0], 0.5), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
        let (lo, hi) = (quantile(&v, 0.25), quantile(&v, 0.75));
        assert!(1.0 < lo && lo < 20.0 && 20.0 < hi && hi < 39.0);
    }
}
