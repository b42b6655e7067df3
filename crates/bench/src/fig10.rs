//! Fig. 10 — (a) prediction accuracy as a function of the amount of history
//! (10-fold cross-validation over a 16-hour trace-driven workload, ≈87.5 %
//! with enough data), (b) response time perceived by the 100 users over the
//! run, and (c) the promotion rate of the workload.

use crate::fig9;
use crate::util;
use mca_core::{
    cross_validate, learning_curve, PredictionStrategy, SlotHistory, SystemReport, TraceLog,
};
use mca_offload::AccelerationGroupId;

/// Output of the Fig. 10 experiment.
#[derive(Debug, Clone)]
pub struct Fig10Output {
    /// (history size, accuracy) pairs — Fig. 10a.
    pub learning_curve: Vec<(usize, f64)>,
    /// Headline 10-fold cross-validation accuracy.
    pub cross_validated_accuracy: f64,
    /// `(request index, response ms, group)` over the whole run — Fig. 10b.
    pub responses: Vec<(usize, f64, u8)>,
    /// `(user id, final group, promotions)` — Fig. 10c.
    pub promotions: Vec<(u32, u8, u32)>,
    /// Fraction of users that ended above the entry group.
    pub promoted_fraction: f64,
}

/// Runs the 16-hour prediction study on top of the Fig. 9 system experiment.
///
/// `slots` controls how many prediction slots the 16-hour history is divided
/// into (the paper's Fig. 10a x-axis spans up to 20 history entries).
pub fn run(
    users: usize,
    duration_ms: f64,
    total_requests: usize,
    slots: usize,
    seed: u64,
) -> Fig10Output {
    let fig9 = fig9::run(users, duration_ms, total_requests, seed);
    let report: &SystemReport = &fig9.report;

    // Build the slot history for the predictor study from the logged traces.
    // A request that completes after the end of the run would open one more
    // slot holding a user or two; the study keeps the full slots only.
    let log: TraceLog = report
        .records
        .iter()
        .filter(|r| r.timestamp_ms < duration_ms)
        .cloned()
        .collect();
    let slot_length = duration_ms / slots.max(2) as f64;
    let history = SlotHistory::from_log(&log, slot_length);
    let groups = [
        AccelerationGroupId(1),
        AccelerationGroupId(2),
        AccelerationGroupId(3),
    ];

    let curve = learning_curve(&history, &groups, PredictionStrategy::NearestSlot);
    let folds = 10.min(history.len().saturating_sub(1)).max(2);
    let cv = cross_validate(&history, &groups, PredictionStrategy::NearestSlot, folds);

    let responses: Vec<(usize, f64, u8)> = report
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.round_trip_ms, r.group.0))
        .collect();
    let promotions: Vec<(u32, u8, u32)> = report
        .perceptions
        .iter()
        .map(|p| {
            (
                p.user.0,
                p.final_group().map(|g| g.0).unwrap_or(1),
                p.promotions,
            )
        })
        .collect();

    Fig10Output {
        learning_curve: curve,
        cross_validated_accuracy: cv.mean_accuracy,
        responses,
        promotions,
        promoted_fraction: report.promoted_user_fraction(AccelerationGroupId(1)),
    }
}

/// Prints the three panels.
pub fn print(output: &Fig10Output) {
    util::header(
        "Fig 10a: prediction accuracy vs size of the data",
        &["history_size", "accuracy_%"],
    );
    for (size, acc) in &output.learning_curve {
        util::row(&[size.to_string(), util::f1(acc * 100.0)]);
    }
    println!(
        "10-fold cross-validated accuracy: {:.1}% (paper: 87.5%)",
        output.cross_validated_accuracy * 100.0
    );
    util::header(
        "Fig 10b: response time of the workload (sampled)",
        &["request", "response_ms", "group"],
    );
    for (i, response, group) in output
        .responses
        .iter()
        .step_by((output.responses.len() / 60).max(1))
    {
        util::row(&[i.to_string(), util::f1(*response), format!("a{group}")]);
    }
    util::header(
        "Fig 10c: promotion rate of the workload",
        &["user", "final_group", "promotions"],
    );
    for (user, group, promotions) in &output.promotions {
        util::row(&[
            user.to_string(),
            format!("a{group}"),
            promotions.to_string(),
        ]);
    }
    println!("promoted users: {:.1}%", output.promoted_fraction * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_accuracy_is_high_and_promotions_happen() {
        // scaled-down 16-slot study
        let out = run(30, 2.0 * 3_600_000.0, 1_200, 16, 11);
        assert!(!out.learning_curve.is_empty());
        assert!(
            out.cross_validated_accuracy > 0.7,
            "cross-validated accuracy {}",
            out.cross_validated_accuracy
        );
        assert!(out.cross_validated_accuracy <= 1.0);
        assert!(!out.responses.is_empty());
        assert_eq!(out.promotions.len(), 30);
        assert!(out.promoted_fraction > 0.0, "some users must be promoted");
    }

    #[test]
    fn a_request_completing_after_the_run_opens_no_extra_slot() {
        // at seed 42 one request completes past the 16-hour mark
        let slots = 16;
        let out = run(100, 16.0 * 3_600_000.0, 8_000, slots, 42);
        let sizes: Vec<usize> = out.learning_curve.iter().map(|(size, _)| *size).collect();
        assert_eq!(
            sizes,
            (2..=slots - 2).collect::<Vec<_>>(),
            "a history of exactly {slots} slots"
        );
        for (size, accuracy) in &out.learning_curve {
            assert!(*accuracy >= 0.2, "history size {size} reads {accuracy}");
        }
    }

    /// Fig. 10a at the paper configuration — what the `fig10` bin prints,
    /// and the bits the decision to keep one distance rests on (see
    /// `mca_core::distance`).
    #[test]
    fn paper_configuration_reads_the_pinned_figure() {
        let out = run(100, 16.0 * 3_600_000.0, 8_000, 16, crate::DEFAULT_SEED);
        assert_eq!(
            out.cross_validated_accuracy.to_bits(),
            0x3feb78df67f74c12,
            "cross-validated accuracy {}",
            out.cross_validated_accuracy
        );
        let curve: Vec<(usize, String)> = out
            .learning_curve
            .iter()
            .map(|(size, accuracy)| (*size, util::f1(accuracy * 100.0)))
            .collect();
        let pinned = [
            (2, "24.9"),
            (3, "36.8"),
            (4, "46.3"),
            (5, "52.2"),
            (6, "59.8"),
            (7, "67.5"),
            (8, "69.9"),
            (9, "72.4"),
            (10, "73.6"),
            (11, "77.1"),
            (12, "80.7"),
            (13, "82.4"),
            (14, "89.6"),
        ]
        .map(|(size, accuracy)| (size, accuracy.to_string()));
        assert_eq!(curve, pinned);
    }
}
