//! Smartphone usage model (§VI-C-1).
//!
//! The paper deployed a tracking application on the smartphones of six
//! participants for three months. Combining the participants' data (and
//! removing long inactive night periods), the authors extract an inter-arrival
//! time between offloadable application sessions of **100–5000 ms**, which
//! then drives the simulator's inter-arrival mode for the 8-hour and 16-hour
//! experiments. The raw study is not available; [`InterArrivalSampler`]
//! reproduces the distribution the paper extracts from it — a bounded,
//! right-skewed distribution over `[100 ms, 5000 ms]`.

use rand::Rng;

/// Samples the inter-arrival time between consecutive offloading requests of
/// an active user, calibrated to the paper's 100–5000 ms range.
///
/// The shape is a truncated exponential: most requests follow each other
/// within a second (interactive bursts), with a tail up to the 5-second cap
/// (the paper's removal of longer gaps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterArrivalSampler {
    /// Minimum inter-arrival time, ms.
    pub min_ms: f64,
    /// Maximum inter-arrival time, ms.
    pub max_ms: f64,
    /// Mean of the underlying (untruncated) exponential, ms.
    pub mean_ms: f64,
}

impl InterArrivalSampler {
    /// The sampler calibrated to the paper's study (100–5000 ms, mean ≈ 1.2 s).
    pub fn paper_calibrated() -> Self {
        Self {
            min_ms: 100.0,
            max_ms: 5_000.0,
            mean_ms: 1_200.0,
        }
    }

    /// Creates a sampler with explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not ordered or non-positive.
    pub fn new(min_ms: f64, max_ms: f64, mean_ms: f64) -> Self {
        assert!(
            min_ms > 0.0 && max_ms > min_ms,
            "bounds must satisfy 0 < min < max"
        );
        assert!(mean_ms > 0.0, "mean must be positive");
        Self {
            min_ms,
            max_ms,
            mean_ms,
        }
    }

    /// Samples one inter-arrival time in milliseconds.
    pub fn sample_ms<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let exp = -self.mean_ms * u.ln();
        (self.min_ms + exp).min(self.max_ms)
    }
}

impl Default for InterArrivalSampler {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn inter_arrival_within_paper_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let sampler = InterArrivalSampler::paper_calibrated();
        for _ in 0..10_000 {
            let s = sampler.sample_ms(&mut rng);
            assert!((100.0..=5_000.0).contains(&s), "sample {s}");
        }
    }

    #[test]
    fn inter_arrival_distribution_is_right_skewed_and_uses_full_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let sampler = InterArrivalSampler::paper_calibrated();
        let samples: Vec<f64> = (0..50_000).map(|_| sampler.sample_ms(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let below_1s =
            samples.iter().filter(|&&s| s < 1_000.0).count() as f64 / samples.len() as f64;
        let at_cap =
            samples.iter().filter(|&&s| s >= 4_999.0).count() as f64 / samples.len() as f64;
        assert!(mean > 800.0 && mean < 1_600.0, "mean {mean}");
        assert!(below_1s > 0.4, "short gaps dominate: {below_1s}");
        assert!(at_cap > 0.005 && at_cap < 0.15, "cap mass {at_cap}");
    }

    #[test]
    #[should_panic(expected = "bounds must satisfy")]
    fn invalid_bounds_panic() {
        let _ = InterArrivalSampler::new(500.0, 100.0, 50.0);
    }
}
