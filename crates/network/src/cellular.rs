//! Per-operator 3G/LTE round-trip-time models (§VI-C-4).
//!
//! The paper analyzes three anonymized Finnish operators (α, β, γ) from the
//! NetRadar dataset and reports, per operator and technology, the mean,
//! standard deviation and median of the RTT. The profiles below are calibrated
//! to exactly those means and medians; the heavy-tailed log-normal shape makes
//! the standard deviations land in the reported range as well.

use crate::latency::{sample_lognormal, standard_normal};
use rand::Rng;
use std::fmt;

/// Cellular access technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// 3G / HSPA access.
    ThreeG,
    /// 4G / LTE access (the technology the paper's system assumes).
    Lte,
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Technology::ThreeG => "3G",
            Technology::Lte => "LTE",
        })
    }
}

/// The three anonymized mobile operators of the paper's latency study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operator {
    /// Operator α.
    Alpha,
    /// Operator β.
    Beta,
    /// Operator γ.
    Gamma,
}

impl Operator {
    /// All operators in the study.
    pub const ALL: [Operator; 3] = [Operator::Alpha, Operator::Beta, Operator::Gamma];
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Operator::Alpha => "alpha",
            Operator::Beta => "beta",
            Operator::Gamma => "gamma",
        })
    }
}

/// Calibration data for one operator/technology pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorProfile {
    /// Operator the profile describes.
    pub operator: Operator,
    /// Access technology the profile describes.
    pub technology: Technology,
    /// Mean RTT reported by the paper, ms.
    pub mean_ms: f64,
    /// Standard deviation reported by the paper, ms (informational; the
    /// generative model matches mean and median exactly and approximates the
    /// standard deviation through its log-normal tail).
    pub std_dev_ms: f64,
    /// Median RTT reported by the paper, ms.
    pub median_ms: f64,
    /// Number of samples in the paper's dataset for this pair.
    pub sample_count: usize,
}

impl OperatorProfile {
    /// The calibration table of §VI-C-4.
    pub fn paper_profiles() -> Vec<OperatorProfile> {
        use Operator::*;
        use Technology::*;
        vec![
            OperatorProfile {
                operator: Alpha,
                technology: ThreeG,
                mean_ms: 128.0,
                std_dev_ms: 362.0,
                median_ms: 51.0,
                sample_count: 205_762,
            },
            OperatorProfile {
                operator: Alpha,
                technology: Lte,
                mean_ms: 41.0,
                std_dev_ms: 56.0,
                median_ms: 34.0,
                sample_count: 182_549,
            },
            OperatorProfile {
                operator: Beta,
                technology: ThreeG,
                mean_ms: 141.0,
                std_dev_ms: 376.0,
                median_ms: 60.0,
                sample_count: 448_942,
            },
            OperatorProfile {
                operator: Beta,
                technology: Lte,
                mean_ms: 36.0,
                std_dev_ms: 70.0,
                median_ms: 25.0,
                sample_count: 493_956,
            },
            OperatorProfile {
                operator: Gamma,
                technology: ThreeG,
                mean_ms: 137.0,
                std_dev_ms: 379.0,
                median_ms: 56.0,
                sample_count: 191_973,
            },
            OperatorProfile {
                operator: Gamma,
                technology: Lte,
                mean_ms: 42.0,
                std_dev_ms: 84.0,
                median_ms: 27.0,
                sample_count: 152_605,
            },
        ]
    }

    /// Looks up the paper profile for one operator/technology pair.
    pub fn lookup(operator: Operator, technology: Technology) -> OperatorProfile {
        Self::paper_profiles()
            .into_iter()
            .find(|p| p.operator == operator && p.technology == technology)
            .expect("every operator/technology pair is in the paper table")
    }
}

/// Peak-to-mean amplitude of the diurnal RTT modulation.
const DIURNAL_AMPLITUDE: f64 = 0.15;
/// Multiplicative jitter applied on top of the log-normal RTT (standard
/// deviation of a unit-mean normal factor).
const JITTER: f64 = 0.05;

/// A sampling model for the RTT between a device and the cloud front-end over
/// a cellular network, with diurnal variation.
///
/// The diurnal modulation follows the busy-hour pattern visible in Fig. 11:
/// RTTs are slightly elevated during daytime (traffic load) and lowest in the
/// early morning, while the daily average stays at the calibrated mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellularNetwork {
    profile: OperatorProfile,
}

impl CellularNetwork {
    /// Creates a network model for the given operator and technology using
    /// the paper's calibration and a 15 % diurnal amplitude.
    pub fn new(operator: Operator, technology: Technology) -> Self {
        Self {
            profile: OperatorProfile::lookup(operator, technology),
        }
    }

    /// The calibration profile backing this model.
    pub fn profile(&self) -> OperatorProfile {
        self.profile
    }

    /// Deterministic diurnal factor for a time of day, averaging 1.0 over 24 h.
    ///
    /// `hour_of_day` may be fractional and is taken modulo 24.
    pub fn diurnal_factor(&self, hour_of_day: f64) -> f64 {
        let h = hour_of_day.rem_euclid(24.0);
        // Lowest around 04:00, highest around 16:00.
        let phase = (h - 4.0) / 24.0 * std::f64::consts::TAU;
        1.0 - DIURNAL_AMPLITUDE * phase.cos()
    }

    /// Samples one round-trip time at the given time of day, ms.
    pub fn sample_rtt_ms<R: Rng + ?Sized>(&self, hour_of_day: f64, rng: &mut R) -> f64 {
        let base = sample_lognormal(self.profile.median_ms, self.profile.mean_ms, rng);
        let jitter = 1.0 + JITTER * standard_normal(rng);
        (base * self.diurnal_factor(hour_of_day) * jitter.max(0.1)).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_table_has_six_profiles() {
        let profiles = OperatorProfile::paper_profiles();
        assert_eq!(profiles.len(), 6);
        for op in Operator::ALL {
            for tech in [Technology::ThreeG, Technology::Lte] {
                let p = OperatorProfile::lookup(op, tech);
                assert!(p.mean_ms > 0.0 && p.median_ms > 0.0);
                assert!(
                    p.mean_ms >= p.median_ms,
                    "log-normal requires mean >= median"
                );
            }
        }
    }

    #[test]
    fn lte_is_faster_than_3g_for_every_operator() {
        for op in Operator::ALL {
            let lte = OperatorProfile::lookup(op, Technology::Lte);
            let threeg = OperatorProfile::lookup(op, Technology::ThreeG);
            assert!(lte.mean_ms < threeg.mean_ms);
            assert!(lte.median_ms < threeg.median_ms);
        }
    }

    #[test]
    fn sampled_mean_matches_paper_value() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = CellularNetwork::new(Operator::Alpha, Technology::Lte);
        // 10:00 is where the diurnal factor crosses 1 (its cosine is 0).
        assert!((net.diurnal_factor(10.0) - 1.0).abs() < 1e-12);
        let samples: Vec<f64> = (0..100_000)
            .map(|_| net.sample_rtt_ms(10.0, &mut rng))
            .collect();
        let stats = LatencyStats::from_samples(&samples);
        assert!(
            (stats.mean_ms - 41.0).abs() / 41.0 < 0.06,
            "mean {}",
            stats.mean_ms
        );
        assert!(
            (stats.median_ms - 34.0).abs() / 34.0 < 0.08,
            "median {}",
            stats.median_ms
        );
    }

    #[test]
    fn diurnal_factor_averages_to_one() {
        let net = CellularNetwork::new(Operator::Beta, Technology::Lte);
        let mean: f64 = (0..240)
            .map(|i| net.diurnal_factor(i as f64 / 10.0))
            .sum::<f64>()
            / 240.0;
        assert!((mean - 1.0).abs() < 1e-6);
        assert!(net.diurnal_factor(16.0) > net.diurnal_factor(4.0));
    }

    #[test]
    fn diurnal_factor_wraps_around_midnight() {
        let net = CellularNetwork::new(Operator::Beta, Technology::Lte);
        assert!((net.diurnal_factor(25.0) - net.diurnal_factor(1.0)).abs() < 1e-12);
        assert!((net.diurnal_factor(-1.0) - net.diurnal_factor(23.0)).abs() < 1e-12);
    }

    #[test]
    fn samples_are_strictly_positive() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = CellularNetwork::new(Operator::Gamma, Technology::ThreeG);
        for i in 0..5_000 {
            let s = net.sample_rtt_ms(i as f64 % 24.0, &mut rng);
            assert!(s >= 1.0);
        }
    }

    #[test]
    fn default_network_is_lowest_latency_lte() {
        // The access network `SystemConfig` defaults to: operator β's LTE,
        // the lowest mean RTT of the paper's table.
        let net = CellularNetwork::new(Operator::Beta, Technology::Lte);
        assert_eq!(net.profile().operator, Operator::Beta);
        assert_eq!(net.profile().technology, Technology::Lte);
        assert_eq!(net.profile().mean_ms, 36.0);
        let lowest = OperatorProfile::paper_profiles()
            .into_iter()
            .map(|p| p.mean_ms)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(net.profile().mean_ms, lowest);
    }
}
