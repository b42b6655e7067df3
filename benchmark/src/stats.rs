//! Order statistics and the output digest.

use mca_core::WorkloadForecast;

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `percent` % of the samples are less than or equal to it.
///
/// # Panics
///
/// Panics on an empty slice or a percentile outside `(0, 100]`.
pub fn nearest_rank(sorted: &[u64], percent: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(percent > 0.0 && percent <= 100.0, "percentile out of range");
    sorted[rank(sorted.len(), percent) - 1]
}

/// The 1-based nearest rank of `percent` among `n` samples.
fn rank(n: usize, percent: f64) -> usize {
    ((percent / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `percent`
/// percentile. A reported percentile needs at least [`MIN_BEYOND`] of them.
pub fn samples_beyond(n: usize, percent: f64) -> usize {
    n - rank(n, percent)
}

/// Samples a percentile must leave beyond itself before it is trusted.
pub const MIN_BEYOND: usize = 10;

/// Median of a list of measurements (mean of the middle pair for an even
/// count).
///
/// # Panics
///
/// Panics on an empty list or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest and largest of a list of measurements.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// FNV-1a over 64-bit words: the output digest. Floats enter as
/// `to_bits()`, so two runs agree only when every forecast and statistic is
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float in by its bit pattern.
    pub fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    /// Folds one forecast in: every group's load and the matched slot.
    pub fn forecast(&mut self, forecast: &WorkloadForecast) {
        for (group, load) in &forecast.per_group {
            self.word(u64::from(group.0));
            self.word(*load as u64);
        }
        self.word(forecast.matched_slot.map_or(u64::MAX, |s| s as u64));
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let samples: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&samples, 50.0), 5);
        assert_eq!(nearest_rank(&samples, 51.0), 6);
        assert_eq!(nearest_rank(&samples, 99.0), 10);
        assert_eq!(nearest_rank(&samples, 100.0), 10);
        assert_eq!(nearest_rank(&samples, 0.1), 1);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
    }

    #[test]
    fn p99_needs_a_thousand_samples_to_leave_ten_beyond() {
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert_eq!(samples_beyond(2_500, 99.0), 25);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert!(samples_beyond(999, 99.0) < MIN_BEYOND);
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn digest_separates_order_and_bit_patterns() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
        let mut zero = Digest::default();
        zero.float(0.0);
        let mut negative_zero = Digest::default();
        negative_zero.float(-0.0);
        assert_ne!(zero.value(), negative_zero.value());
    }
}
