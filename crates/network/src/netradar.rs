//! Synthetic NetRadar-style measurement campaigns (Fig. 11).
//!
//! The paper draws Fig. 11 by aggregating the 2015 NetRadar dataset per
//! operator, technology and time of day. This module generates an equivalent
//! synthetic campaign from the calibrated [`CellularNetwork`] models and
//! performs the same hourly aggregation, so the figure can be regenerated.

use crate::cellular::{CellularNetwork, Operator, Technology};
use crate::latency::LatencyStats;
use rand::Rng;

/// One synthetic RTT measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetRadarSample {
    /// Operator that served the measurement.
    pub operator: Operator,
    /// Access technology.
    pub technology: Technology,
    /// Time of day of the measurement, fractional hours in `[0, 24)`.
    pub hour_of_day: f64,
    /// Measured round-trip time, ms.
    pub rtt_ms: f64,
}

/// Hourly aggregate of a campaign — one point of a Fig. 11 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourlyLatency {
    /// Hour of day in `[0, 24)`.
    pub hour: u8,
    /// Statistics of the RTT samples that fell in this hour.
    pub stats: LatencyStats,
}

/// A synthetic measurement campaign for one operator and technology.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRadarCampaign {
    /// Operator measured by the campaign.
    pub operator: Operator,
    /// Technology measured by the campaign.
    pub technology: Technology,
    /// Collected samples.
    pub samples: Vec<NetRadarSample>,
}

impl NetRadarCampaign {
    /// Runs a synthetic campaign of `sample_count` measurements spread over a
    /// 24-hour day (more samples during waking hours, as in a crowdsourced
    /// dataset).
    pub fn run<R: Rng + ?Sized>(
        operator: Operator,
        technology: Technology,
        sample_count: usize,
        rng: &mut R,
    ) -> Self {
        let network = CellularNetwork::new(operator, technology);
        let mut samples = Vec::with_capacity(sample_count);
        for _ in 0..sample_count {
            let hour = sample_measurement_hour(rng);
            let rtt = network.sample_rtt_ms(hour, rng);
            samples.push(NetRadarSample {
                operator,
                technology,
                hour_of_day: hour,
                rtt_ms: rtt,
            });
        }
        Self {
            operator,
            technology,
            samples,
        }
    }

    /// Runs a campaign with the same number of samples as the paper's dataset
    /// for this operator/technology pair, scaled down by `scale` (use
    /// `scale = 1` for the full size; the figure harness uses a smaller scale
    /// for speed).
    pub fn run_paper_sized<R: Rng + ?Sized>(
        operator: Operator,
        technology: Technology,
        scale: usize,
        rng: &mut R,
    ) -> Self {
        let profile = crate::cellular::OperatorProfile::lookup(operator, technology);
        let count = (profile.sample_count / scale.max(1)).max(1);
        Self::run(operator, technology, count, rng)
    }

    /// Summary statistics over the entire campaign.
    pub fn overall_stats(&self) -> LatencyStats {
        let rtts: Vec<f64> = self.samples.iter().map(|s| s.rtt_ms).collect();
        LatencyStats::from_samples(&rtts)
    }

    /// Aggregates samples into 24 hourly buckets — the series plotted in
    /// Fig. 11. Hours with no samples produce a zero-count entry.
    pub fn hourly_aggregate(&self) -> Vec<HourlyLatency> {
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); 24];
        for s in &self.samples {
            let hour = (s.hour_of_day.rem_euclid(24.0)) as usize;
            buckets[hour.min(23)].push(s.rtt_ms);
        }
        buckets
            .iter()
            .enumerate()
            .map(|(hour, rtts)| HourlyLatency {
                hour: hour as u8,
                stats: LatencyStats::from_samples(rtts),
            })
            .collect()
    }
}

/// Draws the hour of day of a crowdsourced measurement: a mixture favouring
/// waking hours (07–23) over night hours.
fn sample_measurement_hour<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    if rng.gen_bool(0.9) {
        rng.gen_range(7.0..24.0)
    } else {
        rng.gen_range(0.0..7.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn campaign_produces_requested_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = NetRadarCampaign::run(Operator::Alpha, Technology::Lte, 5_000, &mut rng);
        assert_eq!(c.samples.len(), 5_000);
        assert!(c.samples.iter().all(|s| s.rtt_ms > 0.0));
        assert!(c
            .samples
            .iter()
            .all(|s| (0.0..24.0).contains(&s.hour_of_day)));
    }

    #[test]
    fn campaign_statistics_match_profile() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = NetRadarCampaign::run(Operator::Beta, Technology::ThreeG, 60_000, &mut rng);
        let stats = c.overall_stats();
        // Paper: beta 3G mean ~141 ms, median ~60 ms.
        assert!(
            (stats.mean_ms - 141.0).abs() / 141.0 < 0.10,
            "mean {}",
            stats.mean_ms
        );
        assert!(
            (stats.median_ms - 60.0).abs() / 60.0 < 0.12,
            "median {}",
            stats.median_ms
        );
    }

    #[test]
    fn hourly_aggregate_has_24_buckets_and_diurnal_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = NetRadarCampaign::run(Operator::Gamma, Technology::Lte, 80_000, &mut rng);
        let hourly = c.hourly_aggregate();
        assert_eq!(hourly.len(), 24);
        let total: usize = hourly.iter().map(|h| h.stats.count).sum();
        assert_eq!(
            total,
            c.samples.len(),
            "every sample lands in exactly one bucket"
        );
        // afternoon RTT above early-morning RTT (diurnal modulation)
        let afternoon = hourly[16].stats.mean_ms;
        let early = hourly[4].stats.mean_ms;
        assert!(afternoon > early, "afternoon {afternoon} early {early}");
    }

    #[test]
    fn paper_sized_campaign_scales() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = NetRadarCampaign::run_paper_sized(Operator::Alpha, Technology::Lte, 100, &mut rng);
        assert_eq!(c.samples.len(), 182_549 / 100);
    }

    #[test]
    fn waking_hours_receive_most_samples() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = NetRadarCampaign::run(Operator::Alpha, Technology::Lte, 20_000, &mut rng);
        let night = c.samples.iter().filter(|s| s.hour_of_day < 7.0).count();
        assert!((night as f64) < 0.2 * c.samples.len() as f64);
    }
}
