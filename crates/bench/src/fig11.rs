//! Fig. 11 — 3G and LTE round-trip times per mobile operator and time of
//! day, from a synthetic NetRadar-style measurement campaign calibrated to
//! the per-operator statistics reported in §VI-C-4.

use crate::util;
use mca_network::{LatencyStats, NetRadarCampaign, Operator, Technology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One operator's campaign for both technologies.
#[derive(Debug, Clone)]
pub struct OperatorSeries {
    /// The operator.
    pub operator: Operator,
    /// Overall 3G statistics.
    pub threeg: LatencyStats,
    /// Overall LTE statistics.
    pub lte: LatencyStats,
    /// Hourly mean RTT for 3G (24 entries).
    pub threeg_hourly: Vec<f64>,
    /// Hourly mean RTT for LTE (24 entries).
    pub lte_hourly: Vec<f64>,
}

/// Runs the synthetic campaign. `scale` divides the paper's per-pair sample
/// counts (≈150 k–500 k); `scale = 50` keeps the run fast while preserving
/// the statistics.
pub fn run(scale: usize, seed: u64) -> Vec<OperatorSeries> {
    let mut rng = StdRng::seed_from_u64(seed);
    Operator::ALL
        .iter()
        .map(|&operator| {
            let threeg =
                NetRadarCampaign::run_paper_sized(operator, Technology::ThreeG, scale, &mut rng);
            let lte = NetRadarCampaign::run_paper_sized(operator, Technology::Lte, scale, &mut rng);
            OperatorSeries {
                operator,
                threeg: threeg.overall_stats(),
                lte: lte.overall_stats(),
                threeg_hourly: threeg
                    .hourly_aggregate()
                    .iter()
                    .map(|h| h.stats.mean_ms)
                    .collect(),
                lte_hourly: lte
                    .hourly_aggregate()
                    .iter()
                    .map(|h| h.stats.mean_ms)
                    .collect(),
            }
        })
        .collect()
}

/// Prints the overall statistics and the diurnal series.
pub fn print(series: &[OperatorSeries]) {
    util::header(
        "Fig 11: overall RTT per operator",
        &[
            "operator",
            "tech",
            "mean_ms",
            "sd_ms",
            "median_ms",
            "samples",
        ],
    );
    for s in series {
        util::row(&[
            s.operator.to_string(),
            "3G".into(),
            util::f1(s.threeg.mean_ms),
            util::f1(s.threeg.std_dev_ms),
            util::f1(s.threeg.median_ms),
            s.threeg.count.to_string(),
        ]);
        util::row(&[
            s.operator.to_string(),
            "LTE".into(),
            util::f1(s.lte.mean_ms),
            util::f1(s.lte.std_dev_ms),
            util::f1(s.lte.median_ms),
            s.lte.count.to_string(),
        ]);
    }
    for s in series {
        util::header(
            &format!("Fig 11: hourly mean RTT, operator {}", s.operator),
            &["hour", "3G_ms", "LTE_ms"],
        );
        for hour in 0..24 {
            util::row(&[
                hour.to_string(),
                util::f1(s.threeg_hourly[hour]),
                util::f1(s.lte_hourly[hour]),
            ]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_statistics_match_paper_calibration() {
        let series = run(200, 3);
        assert_eq!(series.len(), 3);
        let expectations = [
            (Operator::Alpha, 128.0, 41.0),
            (Operator::Beta, 141.0, 36.0),
            (Operator::Gamma, 137.0, 42.0),
        ];
        for (operator, threeg_mean, lte_mean) in expectations {
            let s = series.iter().find(|s| s.operator == operator).unwrap();
            assert!(
                (s.threeg.mean_ms - threeg_mean).abs() / threeg_mean < 0.15,
                "{operator} 3G {}",
                s.threeg.mean_ms
            );
            assert!(
                (s.lte.mean_ms - lte_mean).abs() / lte_mean < 0.15,
                "{operator} LTE {}",
                s.lte.mean_ms
            );
            assert!(s.lte.mean_ms < s.threeg.mean_ms, "LTE beats 3G");
            assert_eq!(s.threeg_hourly.len(), 24);
        }
    }

    #[test]
    fn test_scale_reads_the_pinned_figure() {
        let series = run(200, 3);
        let overall = |stats: &LatencyStats| {
            [
                stats.mean_ms,
                stats.std_dev_ms,
                stats.median_ms,
                stats.min_ms,
                stats.max_ms,
            ]
            .map(f64::to_bits)
            .into_iter()
            .chain([stats.count as u64])
        };
        let read: Vec<(Operator, u64, u64)> = series
            .iter()
            .map(|s| {
                let hourly = s.threeg_hourly.iter().chain(&s.lte_hourly);
                (
                    s.operator,
                    util::digest(overall(&s.threeg).chain(overall(&s.lte))),
                    util::digest(hourly.map(|mean| mean.to_bits())),
                )
            })
            .collect();
        let pinned = [
            (Operator::Alpha, 0xdc3b7f0f064cad2b, 0xb9e7016a7e055c91),
            (Operator::Beta, 0x2eea1b2cb7984e18, 0x80c3ceef4b67c76c),
            (Operator::Gamma, 0xf32b59fb937ae5bd, 0xc6d42a8c34c35372),
        ];
        assert_eq!(read, pinned, "{read:#x?}");
    }
}
