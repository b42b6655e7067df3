//! Property-based tests over the core data structures and invariants of the
//! reproduction: the ILP solver, the edit-distance metric, the application
//! state codec, the task work model, the battery, the server model and the
//! resource allocator.

use mobile_code_acceleration::core::{
    distance::{group_distance, group_distance_bounded, slot_distance, slot_distance_bounded},
    PredictionStrategy, SlotHistory, TimeSlot, TimeSlotBuilder, WorkloadForecast,
    WorkloadPredictor,
};
use mobile_code_acceleration::fleet::{ingest::bucket_by_shard, SlotBatchSource};
use mobile_code_acceleration::lp::{LpError, Problem, Sense, VarKind};
use mobile_code_acceleration::offload::{TaskKind, TaskSpec};
use mobile_code_acceleration::prelude::*;
use mobile_code_acceleration::snapshot::Cursor;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// ILP solver
// ---------------------------------------------------------------------------

/// Brute-force reference for small covering problems:
/// minimize sum(cost_i * x_i) s.t. sum(cap_i * x_i) >= demand, sum(x_i) <= cap.
fn brute_force_cover(costs: &[f64], caps: &[f64], demand: f64, total_cap: usize) -> Option<f64> {
    let n = costs.len();
    let mut best: Option<f64> = None;
    let mut counts = vec![0usize; n];
    loop {
        let total: usize = counts.iter().sum();
        if total <= total_cap {
            let capacity: f64 = counts.iter().zip(caps).map(|(&x, &c)| x as f64 * c).sum();
            if capacity >= demand {
                let cost: f64 = counts.iter().zip(costs).map(|(&x, &c)| x as f64 * c).sum();
                best = Some(best.map_or(cost, |b: f64| b.min(cost)));
            }
        }
        // increment mixed radix counter bounded by total_cap per variable
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            counts[i] += 1;
            if counts[i] > total_cap {
                counts[i] = 0;
                i += 1;
            } else {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The branch-and-bound ILP finds the same optimal cost as exhaustive
    /// enumeration on random covering problems (the shape of the paper's
    /// allocation model).
    #[test]
    fn ilp_matches_brute_force_on_covering_problems(
        costs in proptest::collection::vec(0.01f64..2.0, 2..4),
        caps in proptest::collection::vec(1.0f64..40.0, 2..4),
        demand in 1.0f64..120.0,
        total_cap in 3usize..6,
    ) {
        let n = costs.len().min(caps.len());
        let costs = &costs[..n];
        let caps = &caps[..n];
        let mut problem = Problem::minimize();
        let vars: Vec<_> = (0..n)
            .map(|i| problem.add_var(format!("x{i}"), VarKind::Integer, 0.0, Some(total_cap as f64), costs[i]))
            .collect();
        let cap_terms: Vec<_> = vars.iter().zip(caps).map(|(&v, &c)| (v, c)).collect();
        problem.add_constraint("cover", &cap_terms, Sense::Ge, demand);
        let count_terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        problem.add_constraint("cc", &count_terms, Sense::Le, total_cap as f64);

        let reference = brute_force_cover(costs, caps, demand, total_cap);
        match (problem.solve(), reference) {
            (Ok(solution), Some(best)) => {
                prop_assert!((solution.objective - best).abs() < 1e-6,
                    "solver {} vs brute force {best}", solution.objective);
                prop_assert!(problem.is_feasible(&solution.values, 1e-6));
            }
            (Err(LpError::Infeasible), None) => {}
            (solved, reference) => {
                return Err(TestCaseError::fail(format!(
                    "solver and brute force disagree: {solved:?} vs {reference:?}"
                )));
            }
        }
    }

    /// LP relaxations never cost more than the integer optimum (weak duality
    /// of the relaxation).
    #[test]
    fn relaxation_bounds_integer_optimum(
        costs in proptest::collection::vec(0.05f64..3.0, 2..5),
        demand in 5.0f64..60.0,
    ) {
        let mut problem = Problem::minimize();
        let vars: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| problem.add_var(format!("x{i}"), VarKind::Integer, 0.0, Some(30.0), c))
            .collect();
        let terms: Vec<_> = vars.iter().enumerate().map(|(i, &v)| (v, 3.0 + i as f64)).collect();
        problem.add_constraint("cover", &terms, Sense::Ge, demand);
        let relaxed = problem.solve_relaxation().expect("relaxation feasible");
        let integer = problem.solve().expect("ilp feasible");
        prop_assert!(relaxed.objective <= integer.objective + 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Distance metric
// ---------------------------------------------------------------------------

/// Sorted, deduplicated user run — the representation `TimeSlot` guarantees.
fn user_run(ids: Vec<u16>) -> Vec<UserId> {
    let set: BTreeSet<UserId> = ids.into_iter().map(|i| UserId(u32::from(i))).collect();
    set.into_iter().collect()
}

fn slot_of(index: usize, assignments: &[(u8, u16)]) -> TimeSlot {
    TimeSlot::from_assignments(
        index,
        assignments
            .iter()
            .map(|&(g, u)| (AccelerationGroupId(g), UserId(u32::from(u)))),
    )
}

const SLOT_GROUPS: [AccelerationGroupId; 3] = [
    AccelerationGroupId(0),
    AccelerationGroupId(1),
    AccelerationGroupId(2),
];

/// The set edit distance as §IV-B-1 defines it, the size of the symmetric
/// difference of the two user sets, computed through `BTreeSet`.
fn group_distance_reference(a: &[UserId], b: &[UserId]) -> usize {
    let a: BTreeSet<UserId> = a.iter().copied().collect();
    let b: BTreeSet<UserId> = b.iter().copied().collect();
    a.symmetric_difference(&b).count()
}

/// The slot distance over [`group_distance_reference`].
fn slot_distance_reference(a: &TimeSlot, b: &TimeSlot) -> usize {
    SLOT_GROUPS
        .iter()
        .map(|g| group_distance_reference(a.users_in(*g), b.users_in(*g)))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The per-group edit distance is a metric: identity, symmetry, triangle
    /// inequality.
    #[test]
    fn group_distance_is_a_metric(
        a in proptest::collection::vec(0u16..200, 0..20),
        b in proptest::collection::vec(0u16..200, 0..20),
        c in proptest::collection::vec(0u16..200, 0..20),
    ) {
        let (a, b, c) = (user_run(a), user_run(b), user_run(c));
        prop_assert_eq!(group_distance(&a, &a), 0);
        prop_assert_eq!(group_distance(&a, &b), group_distance(&b, &a));
        prop_assert!(group_distance(&a, &c) <= group_distance(&a, &b) + group_distance(&b, &c));
        // zero distance implies equality
        if group_distance(&a, &b) == 0 {
            prop_assert_eq!(a.clone(), b.clone());
        }
    }

    /// The allocation-free merge distance agrees exactly with the retained
    /// set-based reference, and its bounded variant prunes exactly beyond
    /// the true distance.
    #[test]
    fn merge_distance_matches_naive_reference(
        a in proptest::collection::vec(0u16..200, 0..30),
        b in proptest::collection::vec(0u16..200, 0..30),
        cap in 0usize..70,
    ) {
        let (a, b) = (user_run(a), user_run(b));
        let exact = group_distance_reference(&a, &b);
        prop_assert_eq!(group_distance(&a, &b), exact);
        let bounded = group_distance_bounded(&a, &b, cap);
        if cap >= exact {
            prop_assert_eq!(bounded, Some(exact));
        } else {
            prop_assert_eq!(bounded, None);
        }
    }

    /// The slot distance is zero exactly for identical per-group assignments
    /// and symmetric otherwise; the merge implementation and its bounded
    /// variant agree with the set-based reference.
    #[test]
    fn slot_distance_properties(
        assignments_a in proptest::collection::vec((0u8..3, 0u16..60), 0..40),
        assignments_b in proptest::collection::vec((0u8..3, 0u16..60), 0..40),
    ) {
        let slot_a = slot_of(0, &assignments_a);
        let slot_b = slot_of(1, &assignments_b);
        prop_assert_eq!(slot_distance(&slot_a, &slot_a, &SLOT_GROUPS), 0);
        prop_assert_eq!(
            slot_distance(&slot_a, &slot_b, &SLOT_GROUPS),
            slot_distance(&slot_b, &slot_a, &SLOT_GROUPS)
        );
        let exact = slot_distance_reference(&slot_a, &slot_b);
        prop_assert_eq!(slot_distance(&slot_a, &slot_b, &SLOT_GROUPS), exact);
        prop_assert_eq!(slot_distance_bounded(&slot_a, &slot_b, &SLOT_GROUPS, exact), Some(exact));
        if exact > 0 {
            prop_assert_eq!(
                slot_distance_bounded(&slot_a, &slot_b, &SLOT_GROUPS, exact - 1),
                None
            );
        }
    }

    /// The serial scan, the summary tree (built from the first slot) and
    /// the naive full scan return the same forecast, for both history-based
    /// strategies, on arbitrary histories and probes — and it is taken from
    /// the earliest slot nearest under this file's own set reference. The
    /// tight user universe (ids 0..40) makes equal-distance ties common,
    /// and histories of up to 150 slots let them straddle a 64-slot block,
    /// stressing the earliest-slot tie-break of the seed and the walk.
    #[test]
    fn pruned_prediction_matches_naive_scan(
        history in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u16..40), 0..8),
            1..150,
        ),
        probe in proptest::collection::vec((0u8..3, 0u16..40), 0..8),
    ) {
        let probe = slot_of(0, &probe);
        let mut serial = WorkloadPredictor::new(SLOT_GROUPS.to_vec(), 3_600_000.0);
        for assignments in &history {
            serial.observe_slot(slot_of(0, assignments));
        }
        let tree = serial
            .clone()
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1));
        prop_assert!(tree.index_active());
        // `min_by_key` keeps the first of equal minima: the earliest slot
        let (nearest, _) = serial
            .history()
            .iter()
            .map(|slot| slot_distance_reference(&probe, slot))
            .enumerate()
            .min_by_key(|&(_, distance)| distance)
            .expect("non-empty history");
        let last = serial.history().len() - 1;
        for (strategy, matched) in [
            (PredictionStrategy::NearestSlot, nearest),
            (PredictionStrategy::SuccessorOfNearest, (nearest + 1).min(last)),
        ] {
            let serial = serial.clone().with_strategy(strategy);
            let tree = tree.clone().with_strategy(strategy);
            let forecast = serial.predict(&probe).unwrap();
            prop_assert_eq!(forecast.matched_slot, Some(matched), "{:?}", strategy);
            prop_assert_eq!(&tree.predict(&probe).unwrap(), &forecast, "{:?} tree", strategy);
            prop_assert_eq!(serial.predict_naive(&probe).unwrap(), forecast, "{:?} naive", strategy);
        }
    }

    /// `observe_and_predict` (the closed loop's per-interval fast path) is
    /// bit-identical to `observe_slot` followed by `predict` — and hence,
    /// transitively, to the naive scan — on arbitrary slot sequences.
    #[test]
    fn observe_and_predict_matches_separate_observe_then_predict(
        slots in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u16..30), 0..10),
            1..16,
        ),
    ) {
        let mut combined = WorkloadPredictor::new(SLOT_GROUPS.to_vec(), 3_600_000.0);
        let mut separate = combined.clone();
        for assignments in &slots {
            let slot = slot_of(0, assignments);
            let fast = combined.observe_and_predict(slot.clone());
            separate.observe_slot(slot.clone());
            let reference = separate.predict(&slot);
            prop_assert_eq!(fast.unwrap(), reference.unwrap());
        }
        prop_assert_eq!(combined, separate);
    }

    /// A windowed history never retains more than its cap, keeps global
    /// indices, and predicts from retained slots only.
    #[test]
    fn windowed_history_bounds_retention(
        loads in proptest::collection::vec(1u16..50, 1..30),
        window in 1usize..8,
    ) {
        let mut history = SlotHistory::hourly().with_window(window);
        for (i, &load) in loads.iter().enumerate() {
            let assignments: Vec<(u8, u16)> = (0..load).map(|u| (0u8, u)).collect();
            history.push(slot_of(i, &assignments));
        }
        prop_assert!(history.len() <= window);
        prop_assert_eq!(history.first_index(), loads.len().saturating_sub(window));
        let indices: Vec<usize> = history.iter().map(|s| s.index).collect();
        let expected: Vec<usize> =
            (loads.len().saturating_sub(window)..loads.len()).collect();
        prop_assert_eq!(indices, expected);
    }
}

/// The reference slot history: a plain `Vec<TimeSlot>`, evicted from the
/// front one slot at a time.
#[derive(Default)]
struct ModelHistory {
    slots: Vec<TimeSlot>,
    window: Option<usize>,
    evicted: usize,
}

impl ModelHistory {
    fn push(&mut self, mut slot: TimeSlot) {
        slot.index = self.evicted + self.slots.len();
        self.slots.push(slot);
        self.trim();
    }

    fn set_window(&mut self, window: Option<usize>) {
        self.window = window;
        self.trim();
    }

    fn trim(&mut self) {
        while self.window.is_some_and(|w| self.slots.len() > w) {
            self.slots.remove(0);
            self.evicted += 1;
        }
    }
}

/// Whether `history` holds exactly the model's slots.
fn check_against_model(history: &SlotHistory, model: &ModelHistory) -> Result<(), TestCaseError> {
    prop_assert_eq!(history.len(), model.slots.len());
    prop_assert_eq!(history.first_index(), model.evicted);
    prop_assert_eq!(history.window(), model.window);
    for (position, slot) in model.slots.iter().enumerate() {
        prop_assert_eq!(history.slot(position), slot, "slot {}", position);
    }
    prop_assert!(history.iter().eq(&model.slots));
    prop_assert_eq!(history.last(), model.slots.last());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A predictor's slot store agrees with the plain `Vec<TimeSlot>` model
    /// after every step of a random sequence of pushes, window grows and
    /// shrinks, history hand-offs between predictors and checkpoint/restore
    /// round trips — and its derived caches keep predicting what the naive
    /// scan predicts.
    #[test]
    fn the_slot_store_matches_the_vec_model(
        ops in proptest::collection::vec(
            (0u8..8, proptest::collection::vec((0u8..3, 0u16..300), 0..12), 1usize..9),
            1..40,
        ),
        probe in proptest::collection::vec((0u8..3, 0u16..300), 0..12),
    ) {
        let probe = slot_of(0, &probe);
        let fresh = || {
            WorkloadPredictor::new(SLOT_GROUPS.to_vec(), 3_600_000.0)
                .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(4))
        };
        let mut predictor = fresh();
        let mut model = ModelHistory::default();
        for (kind, assignments, window) in &ops {
            match kind {
                3 => {
                    predictor.set_window(Some(*window));
                    model.set_window(Some(*window));
                }
                4 => {
                    predictor.set_window(None);
                    model.set_window(None);
                }
                5 => {
                    let history = predictor.take_history();
                    prop_assert!(predictor.history().is_empty());
                    predictor = fresh();
                    predictor.set_history(history);
                }
                6 => {
                    let mut bytes = Vec::new();
                    predictor.encode(&mut bytes);
                    let restored = WorkloadPredictor::decode(&mut Cursor::new(&bytes));
                    prop_assert_eq!(restored.as_ref().ok(), Some(&predictor));
                    predictor = restored.unwrap();
                }
                _ => {
                    predictor.observe_slot(slot_of(0, assignments));
                    model.push(slot_of(0, assignments));
                }
            }
            check_against_model(predictor.history(), &model)?;
            if !model.slots.is_empty() {
                prop_assert_eq!(predictor.predict(&probe), predictor.predict_naive(&probe));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The block-summary tree search is bit-identical to the pruned serial
    /// scan and the naive full scan through arbitrary histories of
    /// observations, windowed evictions, window shrinks and
    /// checkpoint/restore round trips. A prefix of identical filler slots
    /// moves the random slots to global positions
    /// around 63|64 (a block boundary) or 4095|4096 (a level boundary: more
    /// than 64 blocks give the tree a second level). The filler ties with
    /// itself across every boundary, and the tight user universe (ids
    /// 0..12) makes the random slots tie with each other across the one
    /// they straddle, so the earliest-slot tie-break is exercised there.
    #[test]
    fn indexed_prediction_matches_pruned_and_naive(
        prefix in proptest::sample::select(vec![0usize, 58, 4_090]),
        window_raw in proptest::sample::select(vec![0usize, 1, 3, 70, 4_100]),
        ops in proptest::collection::vec(
            (0u8..8, proptest::collection::vec((0u8..3, 0u16..12), 0..6), 1usize..80),
            1..16,
        ),
        probe in proptest::collection::vec((0u8..3, 0u16..12), 0..6),
    ) {
        let window = (window_raw > 0).then_some(window_raw);
        let mut serial = WorkloadPredictor::new(SLOT_GROUPS.to_vec(), 3_600_000.0);
        serial.set_window(window);
        let mut indexed = serial
            .clone()
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1));
        let filler = slot_of(0, &[(0, 5), (1, 5)]);
        for _ in 0..prefix {
            serial.observe_slot(filler.clone());
            indexed.observe_slot(filler.clone());
        }
        let probes = [slot_of(0, &probe), filler];
        for (kind, assignments, shrink_to) in &ops {
            match kind {
                // shrink the window (never grow it back: retention is what is tested)
                0 if serial.history().len() > *shrink_to => {
                    serial.set_window(Some(*shrink_to));
                    indexed.set_window(Some(*shrink_to));
                }
                // checkpoint + restore: the derived tree is recomputed
                1 => {
                    let mut bytes = Vec::new();
                    indexed.encode(&mut bytes);
                    let restored = WorkloadPredictor::decode(&mut Cursor::new(&bytes));
                    prop_assert_eq!(restored.as_ref().ok(), Some(&indexed));
                    indexed = restored.unwrap();
                }
                _ => {
                    let slot = slot_of(0, assignments);
                    serial.observe_slot(slot.clone());
                    indexed.observe_slot(slot);
                }
            }
            prop_assert_eq!(indexed.index_active(), !indexed.history().is_empty());
            for probe in &probes {
                let fast = indexed.predict(probe);
                prop_assert_eq!(&fast, &serial.predict(probe));
                prop_assert_eq!(fast, indexed.predict_naive(probe));
            }
        }
    }
}

/// The population of `epoch` in a drifting history: per group a window of
/// 3 to 6 ids that slides by `step` ids per epoch, about one id in eight
/// churned up to six ids ahead. `churn` keys which ids churn, so two keys
/// give two draws of the same epoch.
fn drifting_slot(epoch: usize, step: u32, churn: u64) -> TimeSlot {
    let load = 3 + (epoch % 4) as u32;
    let pairs = (0..3u8).flat_map(move |g| {
        let base = u32::from(g) * 1_000_000 + epoch as u32 * step;
        (0..load).map(move |u| {
            let noise = mix(churn ^ ((epoch as u64) << 16) ^ (u64::from(g) << 8) ^ u64::from(u));
            let ahead = if noise.is_multiple_of(8) {
                1 + (noise >> 8) as u32 % 6
            } else {
                0
            };
            (AccelerationGroupId(g), UserId(base + u + ahead))
        })
    });
    TimeSlot::from_assignments(epoch, pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tree search on drifting populations, where its descent follows
    /// the best-aligned of the nodes that tie at the least bound: the tree,
    /// the pruned serial scan and the naive full scan agree on every probe
    /// through observations, windowed evictions, window shrinks and
    /// checkpoint/restore round trips. Each step probes a fresh draw of the
    /// next epoch and of a random old one. A drifting prefix moves the
    /// random steps across 63|64 (a block boundary) or 4095|4096 (a level
    /// boundary).
    #[test]
    fn indexed_prediction_matches_pruned_and_naive_on_drifting_histories(
        prefix in proptest::sample::select(vec![0usize, 58, 4_090]),
        step in proptest::sample::select(vec![1u32, 2, 5]),
        churn in 0u64..u64::MAX,
        window_raw in proptest::sample::select(vec![0usize, 1, 3, 70, 4_100]),
        ops in proptest::collection::vec((0u8..8, 1usize..80, 0u64..u64::MAX), 1..16),
    ) {
        let window = (window_raw > 0).then_some(window_raw);
        let mut serial = WorkloadPredictor::new(SLOT_GROUPS.to_vec(), 3_600_000.0);
        serial.set_window(window);
        let mut indexed = serial
            .clone()
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1));
        let mut next = 0;
        for _ in 0..prefix {
            let slot = drifting_slot(next, step, churn);
            serial.observe_slot(slot.clone());
            indexed.observe_slot(slot);
            next += 1;
        }
        for (kind, shrink_to, old) in &ops {
            match kind {
                // shrink the window (never grow it back: retention is what is tested)
                0 if serial.history().len() > *shrink_to => {
                    serial.set_window(Some(*shrink_to));
                    indexed.set_window(Some(*shrink_to));
                }
                // checkpoint + restore: the derived tree is recomputed
                1 => {
                    let mut bytes = Vec::new();
                    indexed.encode(&mut bytes);
                    let restored = WorkloadPredictor::decode(&mut Cursor::new(&bytes));
                    prop_assert_eq!(restored.as_ref().ok(), Some(&indexed));
                    indexed = restored.unwrap();
                }
                _ => {
                    let slot = drifting_slot(next, step, churn);
                    serial.observe_slot(slot.clone());
                    indexed.observe_slot(slot);
                    next += 1;
                }
            }
            prop_assert_eq!(indexed.index_active(), !indexed.history().is_empty());
            let old = (*old % next.max(1) as u64) as usize;
            for epoch in [next, old] {
                let probe = drifting_slot(epoch, step, !churn);
                let fast = indexed.predict(&probe);
                prop_assert_eq!(&fast, &serial.predict(&probe));
                prop_assert_eq!(fast, indexed.predict_naive(&probe));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Slot builder
// ---------------------------------------------------------------------------

/// SplitMix64: a cheap deterministic stream for bulk test keys.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The batch builder builds the slot that one `TimeSlot::assign` per
    /// record builds, around its bitmap cut-over: on `n` keys whose relative
    /// span — `(group − gmin) << ubits | (user − umin)` up to the largest
    /// key, `ubits` the bits of the user span — is 64·n − 1, 64·n or
    /// 64·n + 1 bits. One group from a word-aligned smallest id is exactly
    /// the cut-over, an exact frame of at most one word per key; more
    /// groups or an unaligned id straddle it. `n` runs from 2 to 1,024
    /// across the radix sort's 64-key cut-over; the keys carry duplicates,
    /// groups 0 and 255, users 0 and `u32::MAX`, and arrive shuffled,
    /// sorted and reversed into one reused builder, each input past the
    /// first against the frame the one before left.
    #[test]
    fn slot_builder_equals_per_record_assign_around_the_bitmap_cut_over(
        spread in (
            proptest::sample::select(vec![0u32, 1, 2, 255]),
            7u32..14,
            proptest::sample::select(vec![-1i64, 0, 1]),
            0u32..1 << 16,
        ),
        anchor in (0u8..3, 0u8..3, 0u32..u32::MAX, 0u64..u64::MAX),
    ) {
        let (gspan, ubits, excess, pick) = spread;
        let (group_at, user_at, offset, seed) = anchor;
        // 255 groups apart, 8 user bits already make 1,024 keys
        let ubits = if gspan == 255 { 7 + ubits % 2 } else { ubits };
        // a user span of exactly `ubits` bits whose largest relative key
        // is 64·n + excess − 1
        let uspan = (1u32 << (ubits - 1))
            + 64 * (pick % (1 << (ubits - 7)))
            + (excess - 1).rem_euclid(64) as u32;
        prop_assert_eq!(u32::BITS - uspan.leading_zeros(), ubits);
        let largest = u64::from(gspan) << ubits | u64::from(uspan);
        let n = ((largest + 1) as i64 - excess) / 64;
        prop_assert_eq!(64 * n + excess, largest as i64 + 1);
        let n = n as usize;
        if n < 2 {
            // a span wider than one bit takes two keys
            return Ok(());
        }
        let gmin = match group_at {
            0 => 0,
            1 => 255 - gspan,
            _ => offset % (256 - gspan),
        };
        let umin = match user_at {
            0 => 0,
            1 => u32::MAX - uspan,
            _ => offset % (u32::MAX - uspan),
        };
        let key = |group: u32, user: u32| {
            (AccelerationGroupId((gmin + group) as u8), UserId(umin + user))
        };
        let mut pairs = vec![key(0, 0), key(gspan, uspan)];
        for i in 2..n as u64 {
            let z = mix(seed ^ i);
            pairs.push(if z.is_multiple_of(4) {
                pairs[(z >> 8) as usize % pairs.len()]
            } else {
                key((z >> 8) as u32 % (gspan + 1), (z >> 16) as u32 % (uspan + 1))
            });
        }
        let mut reference = TimeSlot::new(9);
        for &(group, user) in &pairs {
            reference.assign(group, user);
        }
        let mut shuffled = pairs.clone();
        shuffled.sort_unstable_by_key(|&(group, user)| {
            mix(seed ^ u64::from(group.0) << 32 ^ u64::from(user.0))
        });
        let mut sorted = pairs;
        sorted.sort_unstable();
        let reversed: Vec<_> = sorted.iter().rev().copied().collect();
        let mut builder = TimeSlotBuilder::new(0);
        for input in [shuffled, sorted, reversed] {
            builder.extend(input);
            prop_assert_eq!(builder.finish(9), reference.clone(), "{} keys", n);
        }
    }
}

// ---------------------------------------------------------------------------
// Offloading runtime
// ---------------------------------------------------------------------------

fn task_kind_strategy() -> impl Strategy<Value = TaskKind> {
    proptest::sample::select(TaskKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The work model is monotone in the input size and always positive.
    #[test]
    fn work_model_is_monotone(kind in task_kind_strategy(), size in 2u32..1_000) {
        let smaller = TaskSpec::new(kind, size - 1).work_units();
        let larger = TaskSpec::new(kind, size).work_units();
        prop_assert!(smaller > 0.0);
        prop_assert!(larger >= smaller);
    }

    /// Battery energy is conserved: consumed energy never exceeds the charge
    /// that was available, and the level never goes negative.
    #[test]
    fn battery_conservation(
        capacity in 100.0f64..20_000.0,
        drains in proptest::collection::vec((0.0f64..5_000.0, 0.0f64..600_000.0), 0..30),
    ) {
        let mut battery = mobile_code_acceleration::mobile::Battery::new(capacity);
        let mut consumed = 0.0;
        for (power, duration) in drains {
            consumed += battery.drain(power, duration);
        }
        prop_assert!(consumed <= capacity + 1e-9);
        prop_assert!((battery.remaining_mwh() + consumed - capacity).abs() < 1e-6);
        prop_assert!(battery.level_percent() >= 0.0 && battery.level_percent() <= 100.0);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint codec: runs
// ---------------------------------------------------------------------------

/// A `Vec<T>` travels as its length and then its items as one run
/// (`Snapshot::encode_slice` / `Restore::decode_many`); whether `T` moves
/// the run in bulk or item by item, the bytes and the values must be those
/// of encoding and decoding each item in turn.
fn assert_run_codec_matches_per_item<T>(items: Vec<T>) -> Result<(), TestCaseError>
where
    T: Snapshot + Restore + PartialEq + std::fmt::Debug,
{
    let mut per_item = Vec::new();
    items.len().encode(&mut per_item);
    for item in &items {
        item.encode(&mut per_item);
    }
    let mut run = Vec::new();
    items.encode(&mut run);
    prop_assert_eq!(&run, &per_item);

    let mut cur = Cursor::new(&per_item[8..]);
    let decoded = T::decode_many(&mut cur, items.len()).expect("a well-formed run");
    prop_assert!(cur.is_empty());
    let mut cur = Cursor::new(&per_item[8..]);
    for item in &decoded {
        prop_assert_eq!(item, &T::decode(&mut cur).expect("a well-formed item"));
    }
    prop_assert_eq!(decoded, items);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fixed-width integers and the id newtypes over them move their
    /// runs in bulk, and a composite falls through to the per-item default:
    /// same bytes, same values.
    #[test]
    fn run_codecs_match_the_per_item_codec(
        bytes in proptest::collection::vec(0u16..256, 0..40),
        halves in proptest::collection::vec(0u16..u16::MAX, 0..40),
        words in proptest::collection::vec(0u32..u32::MAX, 0..40),
        longs in proptest::collection::vec(0u64..u64::MAX, 0..40),
        signed in proptest::collection::vec(i64::MIN..i64::MAX, 0..40),
        pairs in proptest::collection::vec((0u32..u32::MAX, -1.0e9f64..1.0e9), 0..40),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        assert_run_codec_matches_per_item(bytes.iter().copied().map(AccelerationGroupId).collect())?;
        assert_run_codec_matches_per_item(bytes)?;
        assert_run_codec_matches_per_item(halves)?;
        assert_run_codec_matches_per_item(words.iter().copied().map(UserId).collect())?;
        assert_run_codec_matches_per_item(words.iter().copied().map(TenantId).collect())?;
        assert_run_codec_matches_per_item(words)?;
        assert_run_codec_matches_per_item(longs)?;
        assert_run_codec_matches_per_item(signed)?;
        assert_run_codec_matches_per_item(pairs)?;
    }

    /// A user run announcing more ids than the bytes that remain — or so
    /// many that `len × 4` overflows — is a typed truncation, not an
    /// allocation of what was announced.
    #[test]
    fn hostile_user_run_lengths_are_truncations(
        users in proptest::collection::vec(0u32..u32::MAX, 0..40),
        excess in 1u64..(1 << 40),
    ) {
        let users: Vec<UserId> = users.into_iter().map(UserId).collect();
        let mut bytes = Vec::new();
        users.encode(&mut bytes);
        for len in [1u64 << 61, users.len() as u64 + excess] {
            bytes[..8].copy_from_slice(&len.to_le_bytes());
            let decoded = Vec::<UserId>::decode(&mut Cursor::new(&bytes));
            prop_assert!(
                matches!(decoded, Err(SnapshotError::Truncated { .. })),
                "{} ids announced over {} gave {:?}", len, users.len(), decoded
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cloud substrate and allocator
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Server response times grow monotonically with concurrency and shrink
    /// with per-core speed, for every instance type.
    #[test]
    fn server_contention_is_monotone(
        users_low in 1usize..40,
        extra in 1usize..60,
        work in 5.0f64..500.0,
    ) {
        for ty in InstanceType::ALL {
            let server = Server::new(ty);
            let low = server.expected_execution_ms(work, users_low);
            let high = server.expected_execution_ms(work, users_low + extra);
            prop_assert!(high >= low, "{ty}: {high} < {low}");
        }
    }

    /// Whatever the forecast, the ILP allocation covers it, respects the
    /// account cap and never costs more than the over-provisioning baseline.
    #[test]
    fn allocation_covers_forecast_within_cap(
        w1 in 0usize..400,
        w2 in 0usize..400,
        w3 in 0usize..400,
    ) {
        let groups = AccelerationGroups::paper_three_groups();
        let forecast = WorkloadForecast {
            per_group: vec![
                (AccelerationGroupId(1), w1),
                (AccelerationGroupId(2), w2),
                (AccelerationGroupId(3), w3),
            ],
            matched_slot: None,
        };
        let ilp = ResourceAllocator::with_policy(groups.clone(), AllocationPolicy::IlpExact)
            .allocate(&forecast);
        let over = ResourceAllocator::with_policy(groups, AllocationPolicy::OverProvision)
            .allocate(&forecast);
        if let Ok(allocation) = &ilp {
            prop_assert!(allocation.covers(&forecast));
            prop_assert!(allocation.total_instances() <= 20);
            if let Ok(over) = &over {
                prop_assert!(allocation.hourly_cost <= over.hourly_cost + 1e-9);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet ingest
// ---------------------------------------------------------------------------

/// The two-pass reference fleet the engine's one-pass ingest must equal:
/// `bucket_by_shard`, one `TimeSlot::assign` per record, a bare
/// `TenantShard` tick per hosted tenant.
struct ReferenceFleet {
    config: SystemConfig,
    router: ShardRouter,
    shards: Vec<BTreeMap<TenantId, TenantShard>>,
    /// Records bucketed to each shard so far.
    records: Vec<u64>,
    /// Records of unknown tenants bucketed to each shard so far.
    unrouted: Vec<u64>,
    dropped: BTreeMap<TenantId, usize>,
    slot: usize,
}

impl ReferenceFleet {
    fn new(config: SystemConfig, shards: usize) -> Self {
        Self {
            config,
            router: ShardRouter::new(shards),
            shards: (0..shards).map(|_| BTreeMap::new()).collect(),
            records: vec![0; shards],
            unrouted: vec![0; shards],
            dropped: BTreeMap::new(),
            slot: 0,
        }
    }

    fn hosts(&self, tenant: TenantId) -> bool {
        self.shards.iter().any(|s| s.contains_key(&tenant))
    }

    fn add(&mut self, tenant: TenantId) {
        let state = TenantShard::new(tenant, &self.config);
        self.shards[self.router.shard_of_tenant(tenant)].insert(tenant, state);
    }

    /// Offboarding sends the tenant's placement home.
    fn extract(&mut self, tenant: TenantId) {
        self.shards[self.router.shard_of_tenant(tenant)]
            .remove(&tenant)
            .expect("hosted");
        self.router
            .place(tenant, self.router.home_shard_of_tenant(tenant));
    }

    fn migrate(&mut self, tenant: TenantId, to: usize) {
        let from = self.router.shard_of_tenant(tenant);
        let state = self.shards[from].remove(&tenant).expect("hosted");
        self.shards[to].insert(tenant, state);
        self.router.place(tenant, to);
    }

    fn tick(&mut self, batch: &[SlotRecord]) {
        let now_ms = (self.slot + 1) as f64 * self.config.slot_length_ms;
        let buckets = bucket_by_shard(batch, &self.router, &BTreeSet::new());
        for (at, bucket) in buckets.into_iter().enumerate() {
            self.records[at] += bucket.len() as u64;
            let mut slots: BTreeMap<TenantId, TimeSlot> = self.shards[at]
                .keys()
                .map(|&tenant| (tenant, TimeSlot::new(self.slot)))
                .collect();
            for record in bucket {
                match slots.get_mut(&record.tenant) {
                    Some(slot) => slot.assign(record.group, record.user),
                    None => {
                        self.unrouted[at] += 1;
                        *self.dropped.entry(record.tenant).or_insert(0) += 1;
                    }
                }
            }
            for (tenant, slot) in slots {
                let state = self.shards[at].get_mut(&tenant).expect("hosted");
                state.tick(slot, now_ms, &mut ());
            }
        }
        self.slot += 1;
    }

    /// Every hosted tenant's retained slots, by tenant id.
    fn histories(&self) -> BTreeMap<TenantId, SlotHistory> {
        self.shards
            .iter()
            .flatten()
            .map(|(&tenant, state)| (tenant, state.predictor().history().clone()))
            .collect()
    }

    fn forecasts(&self) -> Vec<(TenantId, Option<WorkloadForecast>)> {
        let forecasts: BTreeMap<TenantId, Option<WorkloadForecast>> = self
            .shards
            .iter()
            .flatten()
            .map(|(&tenant, state)| (tenant, state.forecast().cloned()))
            .collect();
        forecasts.into_iter().collect()
    }

    fn metrics(&self) -> FleetMetrics {
        FleetMetrics::aggregate(
            self.shards
                .iter()
                .flat_map(BTreeMap::values)
                .map(|state| state.metrics().clone())
                .collect(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scattering records through the lane table straight into per-tenant
    /// builders serves every tenant exactly what bucketing by shard and
    /// assigning record by record does — under duplicates, shuffled and
    /// pre-sorted arrival order, unknown tenants, the extreme ids, records
    /// far outside the frame the tenant's last slot left, empty slots, slots
    /// past the history window (whose evicted columns the builders refill),
    /// and tenants added, extracted (a displaced one goes home) and migrated
    /// between slots — builds the same slots, and charges every record to
    /// the same shard.
    #[test]
    fn fleet_ingest_matches_the_two_pass_reference(
        shards in 1usize..5,
        slots in proptest::collection::vec(
            (
                0u8..10,
                0usize..24,
                proptest::collection::vec((0usize..16, 0usize..5, 0u32..400), 0..400),
                0u8..6,
            ),
            3..14,
        ),
    ) {
        const TOGGLED: TenantId = TenantId(5);
        // one heavy tenant (its slots cross the radix cut-over), one the
        // script toggles, light ones, one at the top of the id space, one
        // onboarded only by a script, one never onboarded
        let plain = [TenantId(0), TenantId(1), TenantId(2), TenantId(3), TenantId(u32::MAX), TenantId(4)];
        let tenant_of = |pick: usize| match pick {
            0..=5 => plain[0],
            6..=9 => TOGGLED,
            10..=14 => plain[pick - 9],
            _ => TenantId(77),
        };
        let groups = [0u8, 1, 2, 3, 255].map(AccelerationGroupId);
        let config = SystemConfig::paper_three_groups().with_history_window(4);
        let mut engine = FleetEngine::new(config.clone(), shards, 9).with_threads(2);
        let mut reference = ReferenceFleet::new(config, shards);
        for &tenant in &plain[..5] {
            engine.add_tenant(tenant);
            reference.add(tenant);
        }
        engine.add_tenant(TOGGLED);
        reference.add(TOGGLED);

        let batches: Vec<Vec<SlotRecord>> = slots
            .iter()
            .map(|(_, _, picks, order)| {
                // an order of 3 or more also moves the ids far outside every
                // frame the slot before left
                let jump = if order >= &3 { 1 << 20 } else { 0 };
                let mut batch: Vec<SlotRecord> = picks
                    .iter()
                    .map(|&(tenant, group, user)| {
                        let user = if user < 4 { u32::MAX - user } else { user + jump };
                        SlotRecord::new(tenant_of(tenant), groups[group], UserId(user))
                    })
                    .collect();
                match order % 3 {
                    0 => {}
                    1 => batch.sort_unstable_by_key(|r| (r.tenant, r.group, r.user)),
                    _ => batch.extend_from_within(..batch.len() / 2),
                }
                batch
            })
            .collect();
        let mut driver =
            FleetDriver::new(engine).with_shared_source(SlotBatchSource::new(batches.clone()));
        let mut previous_unrouted = vec![0u64; shards];

        for ((op, arg, _, _), batch) in slots.into_iter().zip(&batches) {
            let engine = driver.engine_mut();
            let tenant = plain[arg % plain.len()];
            match op {
                0 if reference.hosts(tenant) => {
                    engine.extract_tenant(tenant).expect("hosted");
                    reference.extract(tenant);
                }
                1 if !reference.hosts(tenant) => {
                    engine.add_tenant(tenant);
                    reference.add(tenant);
                }
                2 | 3 if reference.hosts(tenant) => {
                    let to = arg % shards;
                    engine.migrate_tenant(tenant, to).expect("hosted, in range");
                    reference.migrate(tenant, to);
                }
                4 if reference.hosts(TOGGLED) => {
                    engine.extract_tenant(TOGGLED).expect("hosted");
                    reference.extract(TOGGLED);
                }
                4 => {
                    engine.add_tenant(TOGGLED);
                    reference.add(TOGGLED);
                }
                _ => {}
            }
            let staged_before: Vec<u64> =
                driver.engine().telemetry().shards.iter().map(|s| s.records).collect();
            driver.step().expect("a shared lane is never quarantined");
            reference.tick(batch);

            let engine = driver.engine();
            let histories: BTreeMap<TenantId, SlotHistory> = engine
                .tenant_ids()
                .into_iter()
                .map(|t| (t, engine.tenant(t).expect("hosted").predictor().history().clone()))
                .collect();
            prop_assert_eq!(histories, reference.histories());
            // a shard's staged records less those of the tenants it hosts are
            // the unknown tenants' records the engine charged to it
            let mut unrouted: Vec<u64> = engine
                .telemetry()
                .shards
                .iter()
                .zip(&staged_before)
                .map(|(s, before)| s.records - before)
                .collect();
            for record in batch.iter().filter(|r| engine.tenant(r.tenant).is_some()) {
                unrouted[engine.shard_of(record.tenant)] -= 1;
            }
            let reference_unrouted: Vec<u64> = reference
                .unrouted
                .iter()
                .zip(&mut previous_unrouted)
                .map(|(&total, previous)| total - std::mem::replace(previous, total))
                .collect();
            prop_assert_eq!(unrouted, reference_unrouted);
            prop_assert_eq!(engine.forecasts(), reference.forecasts());
            prop_assert_eq!(engine.metrics(), reference.metrics());
            prop_assert_eq!(engine.dropped_by_tenant(), &reference.dropped);
            prop_assert_eq!(
                engine.dropped_records(),
                reference.dropped.values().sum::<usize>()
            );
            let staged: Vec<u64> = engine.telemetry().shards.iter().map(|s| s.records).collect();
            prop_assert_eq!(staged, reference.records.clone());
        }
    }
}
