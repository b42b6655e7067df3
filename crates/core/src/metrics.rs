//! Prediction accuracy and cross-validation (§VI-C-2, Fig. 10a).
//!
//! The paper reports the model's accuracy at "estimating the number of users
//! in each acceleration group" as ≈87.5 %, obtained through a 10-fold cross
//! validation over 16 hours of history, and shows how the accuracy grows with
//! the amount of data available for learning.

use crate::predictor::{PredictionStrategy, WorkloadForecast, WorkloadPredictor};
use crate::timeslot::{SlotHistory, TimeSlot};
use mca_offload::AccelerationGroupId;

/// Accuracy of one forecast against the slot that actually materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionQuality {
    /// Per-group accuracy in `[0, 1]`.
    pub per_group: Vec<(AccelerationGroupId, f64)>,
    /// Mean accuracy across groups in `[0, 1]`.
    pub overall: f64,
    /// Mean absolute error of the per-group user counts.
    pub mean_absolute_error: f64,
}

/// Accuracy of a forecast: per group, `1 - |predicted - actual| /
/// max(predicted, actual, 1)`, averaged over the groups. A perfect forecast
/// scores 1.0; predicting 0 users for a busy group scores 0.0 for that group.
pub fn accuracy(
    forecast: &WorkloadForecast,
    actual: &TimeSlot,
    groups: &[AccelerationGroupId],
) -> PredictionQuality {
    let mut per_group = Vec::with_capacity(groups.len());
    let mut abs_err = 0.0;
    for g in groups {
        let predicted = forecast.load_of(*g) as f64;
        let observed = actual.load_of(*g) as f64;
        let denom = predicted.max(observed).max(1.0);
        let acc = 1.0 - (predicted - observed).abs() / denom;
        per_group.push((*g, acc));
        abs_err += (predicted - observed).abs();
    }
    let overall = if per_group.is_empty() {
        1.0
    } else {
        per_group.iter().map(|(_, a)| a).sum::<f64>() / per_group.len() as f64
    };
    PredictionQuality {
        overall,
        mean_absolute_error: if groups.is_empty() {
            0.0
        } else {
            abs_err / groups.len() as f64
        },
        per_group,
    }
}

/// Result of a k-fold cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidationReport {
    /// Mean accuracy of each fold.
    pub fold_accuracies: Vec<f64>,
    /// Mean accuracy over all folds (the paper's headline number).
    pub mean_accuracy: f64,
    /// Total number of (current slot → next slot) predictions evaluated.
    pub evaluated_predictions: usize,
}

/// K-fold cross-validation of the predictor over a slot history.
///
/// Transitions `(t_i, t_{i+1})` are partitioned into `k` folds; for each fold
/// the knowledge base is built from the slots of the *other* folds and every
/// transition in the fold is predicted and scored with [`accuracy`].
///
/// # Panics
///
/// Panics if `k < 2` or the history has fewer than `k + 1` slots.
pub fn cross_validate(
    history: &SlotHistory,
    groups: &[AccelerationGroupId],
    strategy: PredictionStrategy,
    k: usize,
) -> CrossValidationReport {
    assert!(k >= 2, "cross-validation requires at least two folds");
    let transitions = history.len().saturating_sub(1);
    assert!(
        transitions >= k,
        "history too short for {k}-fold cross-validation"
    );

    let mut fold_accuracies = Vec::with_capacity(k);
    let mut evaluated = 0usize;
    for fold in 0..k {
        // transition i belongs to fold (i % k)
        let mut train = SlotHistory::new(history.slot_length_ms);
        for (i, slot) in history.iter().enumerate() {
            // a slot is part of the training set when the transition starting
            // at it is not in the evaluated fold
            if i % k != fold {
                train.push(slot.clone());
            }
        }
        let mut predictor =
            WorkloadPredictor::new(groups.to_vec(), history.slot_length_ms).with_strategy(strategy);
        predictor.set_history(train);

        let mut scores = Vec::new();
        for i in (0..transitions).filter(|i| i % k == fold) {
            let current = history.slot(i);
            let actual = history.slot(i + 1);
            if let Ok(forecast) = predictor.predict(current) {
                scores.push(accuracy(&forecast, actual, groups).overall);
                evaluated += 1;
            }
        }
        let fold_acc = if scores.is_empty() {
            0.0
        } else {
            scores.iter().sum::<f64>() / scores.len() as f64
        };
        fold_accuracies.push(fold_acc);
    }
    let mean_accuracy = fold_accuracies.iter().sum::<f64>() / fold_accuracies.len() as f64;
    CrossValidationReport {
        fold_accuracies,
        mean_accuracy,
        evaluated_predictions: evaluated,
    }
}

/// Learning curve (Fig. 10a): accuracy as a function of the amount of history
/// available. For each history size `h` the knowledge base is the first `h`
/// slots and every later transition is predicted and scored.
///
/// Returns `(history size, mean accuracy)` pairs for sizes `2 ..= len - 2`
/// (the last size has no transition left to score).
pub fn learning_curve(
    history: &SlotHistory,
    groups: &[AccelerationGroupId],
    strategy: PredictionStrategy,
) -> Vec<(usize, f64)> {
    let len = history.len();
    let mut curve = Vec::new();
    for h in 2..len {
        let mut train = SlotHistory::new(history.slot_length_ms);
        for slot in history.iter().take(h) {
            train.push(slot.clone());
        }
        let mut predictor =
            WorkloadPredictor::new(groups.to_vec(), history.slot_length_ms).with_strategy(strategy);
        predictor.set_history(train);
        let mut scores = Vec::new();
        for i in h..len - 1 {
            if let Ok(forecast) = predictor.predict(history.slot(i)) {
                scores.push(accuracy(&forecast, history.slot(i + 1), groups).overall);
            }
        }
        if !scores.is_empty() {
            curve.push((h, scores.iter().sum::<f64>() / scores.len() as f64));
        }
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_offload::UserId;

    const GROUPS: [AccelerationGroupId; 3] = [
        AccelerationGroupId(1),
        AccelerationGroupId(2),
        AccelerationGroupId(3),
    ];

    fn slot(n1: u32, n2: u32, n3: u32) -> TimeSlot {
        let mut pairs = Vec::new();
        for u in 0..n1 {
            pairs.push((AccelerationGroupId(1), UserId(u)));
        }
        for u in 0..n2 {
            pairs.push((AccelerationGroupId(2), UserId(1_000 + u)));
        }
        for u in 0..n3 {
            pairs.push((AccelerationGroupId(3), UserId(2_000 + u)));
        }
        TimeSlot::from_assignments(0, pairs)
    }

    fn forecast(n1: usize, n2: usize, n3: usize) -> WorkloadForecast {
        WorkloadForecast {
            per_group: vec![
                (AccelerationGroupId(1), n1),
                (AccelerationGroupId(2), n2),
                (AccelerationGroupId(3), n3),
            ],
            matched_slot: None,
        }
    }

    #[test]
    fn perfect_forecast_scores_one() {
        let q = accuracy(&forecast(10, 5, 2), &slot(10, 5, 2), &GROUPS);
        assert_eq!(q.overall, 1.0);
        assert_eq!(q.mean_absolute_error, 0.0);
        assert!(q.per_group.iter().all(|(_, a)| *a == 1.0));
    }

    #[test]
    fn missing_a_busy_group_scores_zero_for_that_group() {
        let q = accuracy(&forecast(0, 5, 2), &slot(10, 5, 2), &GROUPS);
        let g1 = q
            .per_group
            .iter()
            .find(|(g, _)| *g == AccelerationGroupId(1))
            .unwrap()
            .1;
        assert_eq!(g1, 0.0);
        assert!(q.overall < 1.0 && q.overall > 0.5);
    }

    #[test]
    fn empty_groups_with_empty_prediction_are_perfect() {
        let q = accuracy(&forecast(0, 0, 0), &slot(0, 0, 0), &GROUPS);
        assert_eq!(q.overall, 1.0);
    }

    #[test]
    fn accuracy_is_symmetric_in_over_and_under_prediction() {
        let over = accuracy(&forecast(20, 0, 0), &slot(10, 0, 0), &GROUPS);
        let under = accuracy(&forecast(10, 0, 0), &slot(20, 0, 0), &GROUPS);
        assert!((over.overall - under.overall).abs() < 1e-12);
    }

    /// A smooth diurnal-style history (small changes between consecutive
    /// hours, like the trace-driven 16-hour workload of the paper): the
    /// predictor should learn it well.
    fn periodic_history(hours: usize) -> SlotHistory {
        let mut history = SlotHistory::hourly();
        for h in 0..hours {
            // gentle ramp up and down with period 8 (diffs of 2 users/hour)
            let ramp = [2u32, 4, 6, 8, 6, 4, 2, 0][h % 8];
            let g1 = 12 + ramp;
            history.push(slot(g1, g1 / 4, g1 / 8));
        }
        history
    }

    #[test]
    fn cross_validation_on_periodic_history_is_accurate() {
        let history = periodic_history(16);
        let report = cross_validate(&history, &GROUPS, PredictionStrategy::NearestSlot, 10);
        assert_eq!(report.fold_accuracies.len(), 10);
        assert!(report.evaluated_predictions >= 10);
        // The nearest-slot strategy matches the current slot's shape; on a
        // slowly varying trace this lands near the paper's ≈87.5 % headline.
        assert!(
            report.mean_accuracy > 0.75,
            "accuracy {}",
            report.mean_accuracy
        );
        assert!(report.mean_accuracy <= 1.0);
    }

    #[test]
    fn both_history_strategies_learn_the_periodic_pattern() {
        let history = periodic_history(24);
        let nearest = cross_validate(&history, &GROUPS, PredictionStrategy::NearestSlot, 8);
        let successor =
            cross_validate(&history, &GROUPS, PredictionStrategy::SuccessorOfNearest, 8);
        // On a smooth ramp both strategies land in the same high-accuracy
        // band (the ramp is symmetric, so "the slot after the nearest match"
        // is ambiguous and does not strictly dominate plain matching).
        assert!(
            nearest.mean_accuracy > 0.7,
            "nearest {}",
            nearest.mean_accuracy
        );
        assert!(
            successor.mean_accuracy > nearest.mean_accuracy - 0.15,
            "successor {} vs nearest {}",
            successor.mean_accuracy,
            nearest.mean_accuracy
        );
    }

    #[test]
    fn learning_curve_reaches_high_accuracy_with_enough_data() {
        let history = periodic_history(20);
        let curve = learning_curve(&history, &GROUPS, PredictionStrategy::NearestSlot);
        assert!(!curve.is_empty());
        assert!(curve.windows(2).all(|w| w[1].0 > w[0].0), "sizes increase");
        let last = curve.last().unwrap().1;
        let first = curve.first().unwrap().1;
        assert!(
            last >= first - 0.1,
            "accuracy should not collapse with more data"
        );
        assert!(last > 0.6, "final accuracy {last}");
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn cross_validation_needs_two_folds() {
        let history = periodic_history(8);
        let _ = cross_validate(&history, &GROUPS, PredictionStrategy::NearestSlot, 1);
    }

    #[test]
    #[should_panic(expected = "history too short")]
    fn cross_validation_needs_enough_history() {
        let history = periodic_history(4);
        let _ = cross_validate(&history, &GROUPS, PredictionStrategy::NearestSlot, 10);
    }
}
