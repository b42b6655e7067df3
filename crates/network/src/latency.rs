//! The log-normal RTT distribution and latency summary statistics.

use rand::Rng;

/// Samples one round-trip time in milliseconds from the log-normal
/// distribution with the given median and mean, the two statistics the paper
/// reports for each operator/technology. Heavy right tails (occasional
/// multi-second RTTs) arise naturally, matching the large standard deviations
/// in §VI-C-4.
///
/// # Panics
///
/// Panics if the median is non-positive or the mean is below the median.
pub(crate) fn sample_lognormal<R: Rng + ?Sized>(median_ms: f64, mean_ms: f64, rng: &mut R) -> f64 {
    let (mu, sigma) = lognormal_params(median_ms, mean_ms);
    (mu + sigma * standard_normal(rng)).exp()
}

/// Converts the paper's (median, mean) parameterization into the standard
/// log-normal parameters `(mu, sigma)`.
///
/// # Panics
///
/// Panics if `median <= 0` or `mean < median` (a log-normal's mean is always
/// at least its median).
fn lognormal_params(median_ms: f64, mean_ms: f64) -> (f64, f64) {
    assert!(median_ms > 0.0, "median must be positive");
    assert!(mean_ms >= median_ms, "log-normal mean must be >= median");
    let mu = median_ms.ln();
    let sigma = (2.0 * (mean_ms / median_ms).ln()).sqrt();
    (mu, sigma)
}

/// Samples a standard normal variate using the Box–Muller transform. Kept
/// local so the crate only depends on `rand`'s uniform sampling.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Summary statistics of a latency sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Number of samples aggregated.
    pub count: usize,
    /// Arithmetic mean, ms.
    pub mean_ms: f64,
    /// Sample standard deviation, ms.
    pub std_dev_ms: f64,
    /// Median, ms.
    pub median_ms: f64,
    /// Minimum, ms.
    pub min_ms: f64,
    /// Maximum, ms.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Computes summary statistics from raw samples. Returns the default
    /// (all-zero) value for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples must not be NaN"));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Self {
            count,
            mean_ms: mean,
            std_dev_ms: var.sqrt(),
            median_ms: median,
            min_ms: sorted[0],
            max_ms: sorted[count - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lognormal_matches_target_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..200_000)
            .map(|_| sample_lognormal(25.0, 36.0, &mut rng))
            .collect();
        let stats = LatencyStats::from_samples(&samples);
        assert!(
            (stats.mean_ms - 36.0).abs() / 36.0 < 0.05,
            "mean {}",
            stats.mean_ms
        );
        assert!(
            (stats.median_ms - 25.0).abs() / 25.0 < 0.05,
            "median {}",
            stats.median_ms
        );
        assert!(stats.min_ms > 0.0);
    }

    #[test]
    fn lognormal_has_heavy_right_tail() {
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..100_000)
            .map(|_| sample_lognormal(51.0, 128.0, &mut rng))
            .collect();
        let stats = LatencyStats::from_samples(&samples);
        // mean well above median and SD comparable to the paper's (~360 for 3G)
        assert!(stats.mean_ms > 1.8 * stats.median_ms);
        assert!(stats.std_dev_ms > 150.0, "std dev {}", stats.std_dev_ms);
    }

    #[test]
    #[should_panic(expected = "mean must be >= median")]
    fn lognormal_rejects_mean_below_median() {
        lognormal_params(100.0, 50.0);
    }

    #[test]
    fn stats_of_known_set() {
        let stats = LatencyStats::from_samples(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.mean_ms, 25.0);
        assert_eq!(stats.median_ms, 25.0);
        assert_eq!(stats.min_ms, 10.0);
        assert_eq!(stats.max_ms, 40.0);
        assert!((stats.std_dev_ms - 12.909944).abs() < 1e-5);
    }

    #[test]
    fn stats_of_empty_set_default() {
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }

    #[test]
    fn standard_normal_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..100_000).map(|_| standard_normal(&mut rng)).collect();
        let stats = LatencyStats::from_samples(&samples);
        assert!(stats.mean_ms.abs() < 0.02);
        assert!((stats.std_dev_ms - 1.0).abs() < 0.02);
    }
}
