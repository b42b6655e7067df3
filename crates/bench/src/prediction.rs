//! Micro-benchmark of the nearest-slot predictor's **block-summary tree** in
//! steady state — the one regime the end-to-end benchmark has no workload
//! for (`forecast_indexed` stops at 100,000 slots; `forecast_linear` owns
//! the serial scan below the index threshold, `service_p50_ms`): one
//! predictor grown by `observe_slot` from 100k to 1M slots and, at every
//! point, 1,000 distinct probes (70 % resemble the next slot, 30 % revisit a
//! random old epoch) reported as p50/p99, against the pruned linear scan on
//! a sample of the same probes. One further row runs the same protocol on a
//! **stationary** population — id windows that never drift, so no envelope
//! separates one stretch of history from another — where the tree can only
//! degrade to the linear signature pass.
//!
//! The timings explain the end-to-end number and are **reported, never
//! gated**. The gate is agreement: at every point the serial and tree paths
//! (and, on small histories, the naive full scan) must return the
//! bit-identical forecast. `cargo run --release -p mca-bench --bin
//! bench_prediction` regenerates `BENCH_prediction.json` at the repository
//! root.

use mca_core::{IndexPolicy, SlotHistory, TimeSlot, WorkloadPredictor};
use mca_offload::{AccelerationGroupId, UserId};
use mca_telemetry::json::JsonWriter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A slot at the diurnal phase of `hour` whose per-group user populations
/// are contiguous id windows that have slid for `drift_hours` slots (`0` at
/// every hour makes the population stationary). With `drift_hours == hour`
/// consecutive slots share most users (as the paper's traces do) and
/// distances between far-apart slots are large — the regime the signature
/// pruning exploits.
fn synthetic_slot_drifted(
    workload: &IndexScanWorkload,
    hour: usize,
    drift_hours: usize,
    rng: &mut StdRng,
) -> TimeSlot {
    let mut slot = TimeSlot::new(hour);
    for (g, group) in workload.group_ids().into_iter().enumerate() {
        // diurnal ramp: load swings ±25% around nominal with period 24
        let phase = (hour % 24) as f64 / 24.0 * std::f64::consts::TAU;
        let ramp = 1.0 + 0.25 * phase.sin();
        let load = ((workload.users_per_group as f64 * ramp).round() as usize).max(1);
        // the user-id window drifts by ~2% of the population per slot
        let drift = drift_hours * (workload.users_per_group / 50).max(1);
        let base = (g * 1_000_000 + drift) as u32;
        for u in 0..load as u32 {
            // small churn: a few ids are replaced by out-of-window users
            let id = if rng.gen_bool(0.02) {
                base + u + rng.gen_range(1u32..50)
            } else {
                base + u
            };
            slot.assign(group, UserId(id));
        }
    }
    slot
}

/// Shape of the summary-tree steady-state sweep: one predictor grown slot
/// by slot through the swept sizes, tree versus pruned linear scan at each.
#[derive(Debug, Clone)]
pub struct IndexScanWorkload {
    /// History sizes swept, ascending (the history keeps growing by
    /// `observe_slot`, so every size extends the previous one).
    pub sizes: Vec<usize>,
    /// Number of acceleration groups.
    pub groups: usize,
    /// Nominal users per group per slot.
    pub users_per_group: usize,
    /// Distinct probes timed on the tree at every point.
    pub probes: usize,
    /// How many of those probes are also answered (and timed) by the serial
    /// scan and held to the same forecast.
    pub checked_probes: usize,
    /// Largest size at which the naive full scan also answers the first few
    /// checked probes (it is infeasible to run at 1M slots).
    pub verify_naive_up_to: usize,
    /// History length of the stationary-population row (`None` skips it).
    pub stationary_slots: Option<usize>,
}

/// Share of probes that revisit a random old epoch; the rest resemble the
/// next slot.
const REVISIT_SHARE: f64 = 0.3;
/// Checked probes per point the naive scan answers as well.
const NAIVE_CHECKS: usize = 3;

impl IndexScanWorkload {
    /// The headline sweep: 100k → 1M slots.
    pub fn headline() -> Self {
        Self {
            sizes: vec![100_000, 300_000, 1_000_000],
            groups: 3,
            users_per_group: 48,
            probes: 1_000,
            checked_probes: 20,
            verify_naive_up_to: 100_000,
            stationary_slots: Some(100_000),
        }
    }

    /// The CI smoke shape: one small size, agreement gating only.
    pub fn smoke() -> Self {
        Self {
            sizes: vec![6_000],
            groups: 3,
            users_per_group: 12,
            probes: 1_000,
            checked_probes: 20,
            verify_naive_up_to: 6_000,
            stationary_slots: Some(6_000),
        }
    }

    /// The acceleration-group universe of this workload.
    pub fn group_ids(&self) -> Vec<AccelerationGroupId> {
        (1..=self.groups as u8).map(AccelerationGroupId).collect()
    }
}

/// One point of the steady-state sweep.
#[derive(Debug, Clone, Copy)]
pub struct IndexScanPoint {
    /// History size at this point.
    pub slots: usize,
    /// Whether the population is the stationary one.
    pub stationary: bool,
    /// Median wall-clock time of one pruned linear-scan prediction over the
    /// checked probes, ms.
    pub pruned_p50_ms: f64,
    /// Median wall-clock time of one tree prediction over all probes, ms.
    pub indexed_p50_ms: f64,
    /// 99th-percentile wall-clock time of one tree prediction, ms.
    pub indexed_p99_ms: f64,
    /// Full distance evaluations per tree prediction (a count: it repeats
    /// exactly on any machine).
    pub tree_evaluated_per_query: f64,
    /// Summary-tree nodes bounded per tree prediction (a count).
    pub tree_nodes_per_query: f64,
    /// Whether the serial and tree paths (and the naive scan, where
    /// checked) returned the bit-identical forecast on every checked probe.
    pub forecasts_identical: bool,
}

impl IndexScanPoint {
    /// Pruned linear-scan median over tree median.
    pub fn speedup(&self) -> f64 {
        self.pruned_p50_ms / self.indexed_p50_ms
    }

    /// The population's name in reports.
    pub fn population(&self) -> &'static str {
        if self.stationary {
            "stationary"
        } else {
            "drifting"
        }
    }
}

/// Measurements of one steady-state sweep.
#[derive(Debug, Clone)]
pub struct IndexScanReport {
    /// The workload swept.
    pub workload: IndexScanWorkload,
    /// One measurement per swept history size, then the stationary row.
    pub points: Vec<IndexScanPoint>,
}

impl IndexScanReport {
    /// Whether every point agreed across every scan path.
    pub fn forecasts_identical(&self) -> bool {
        self.points.iter().all(|p| p.forecasts_identical)
    }

    /// The points of the drifting population, in sweep order.
    fn drifting(&self) -> impl DoubleEndedIterator<Item = &IndexScanPoint> {
        self.points.iter().filter(|p| !p.stationary)
    }

    /// The pruned-over-tree speedup at the largest swept size.
    pub fn speedup_at_largest(&self) -> Option<f64> {
        self.drifting().next_back().map(IndexScanPoint::speedup)
    }

    /// Median tree query at the largest size over the one at the smallest:
    /// the sub-linearity figure (a linear search would scale with the size
    /// ratio).
    pub fn indexed_scaling_ratio(&self) -> Option<f64> {
        let (first, last) = (self.drifting().next()?, self.drifting().next_back()?);
        (first.slots < last.slots).then(|| last.indexed_p50_ms / first.indexed_p50_ms)
    }

    /// The report as the `BENCH_prediction.json` document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty(3);
        w.object(|w| {
            w.key("benchmark").string("nearest_slot_prediction");
            w.key("index").object(|w| {
                w.key("protocol").string(&format!(
                    "history grown by observe_slot; {} distinct probes per point ({} revisit a \
                     random old epoch, the rest resemble the next slot); {} of them also timed \
                     on the pruned scan",
                    self.workload.probes, REVISIT_SHARE, self.workload.checked_probes,
                ));
                w.key("groups").u64(self.workload.groups as u64);
                w.key("users_per_group")
                    .u64(self.workload.users_per_group as u64);
                w.key("forecasts_identical")
                    .bool(self.forecasts_identical());
                w.key("speedup_at_largest")
                    .f64(self.speedup_at_largest().unwrap_or(f64::NAN), 2);
                w.key("indexed_scaling_ratio")
                    .f64(self.indexed_scaling_ratio().unwrap_or(f64::NAN), 2);
                w.key("points").array(|w| {
                    for p in &self.points {
                        w.object(|w| {
                            w.key("history_slots").u64(p.slots as u64);
                            w.key("population").string(p.population());
                            w.key("pruned_p50_ms").f64(p.pruned_p50_ms, 4);
                            w.key("indexed_p50_ms").f64(p.indexed_p50_ms, 4);
                            w.key("indexed_p99_ms").f64(p.indexed_p99_ms, 4);
                            w.key("tree_evaluated_per_query")
                                .f64(p.tree_evaluated_per_query, 2);
                            w.key("tree_nodes_per_query").f64(p.tree_nodes_per_query, 1);
                            w.key("speedup").f64(p.speedup(), 2);
                            w.key("forecasts_identical").bool(p.forecasts_identical);
                        });
                    }
                });
            });
        });
        w.finish()
    }
}

/// Nearest-rank percentile of ascending samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Grows `predictor` to `slots` slots by `observe_slot`, the tree live.
fn grow(
    predictor: &mut WorkloadPredictor,
    workload: &IndexScanWorkload,
    stationary: bool,
    slots: usize,
    rng: &mut StdRng,
) {
    for hour in predictor.history().len()..slots {
        let drift_hours = if stationary { 0 } else { hour };
        predictor.observe_slot(synthetic_slot_drifted(workload, hour, drift_hours, rng));
    }
}

/// Times one point: `probes` fresh probes on the tree, the checked ones on
/// the serial scan (and the naive scan, when `verify_naive`).
fn measure_point(
    predictor: &mut WorkloadPredictor,
    workload: &IndexScanWorkload,
    stationary: bool,
    verify_naive: bool,
    rng: &mut StdRng,
) -> IndexScanPoint {
    let slots = predictor.history().len();
    let indexed = predictor.index_policy();
    assert!(predictor.index_active(), "the tree must be live");
    let probes: Vec<TimeSlot> = (0..workload.probes)
        .map(|_| {
            let epoch = if rng.gen_bool(REVISIT_SHARE) {
                rng.gen_range(0..slots)
            } else {
                slots
            };
            let drift_hours = if stationary { 0 } else { epoch };
            synthetic_slot_drifted(workload, epoch, drift_hours, rng)
        })
        .collect();
    let mut forecasts = Vec::with_capacity(probes.len());
    let mut indexed_ms = Vec::with_capacity(probes.len());
    predictor.predict(&probes[0]).expect("non-empty history"); // warm-up
    let before = predictor.stats();
    for probe in &probes {
        let start = Instant::now();
        let forecast = predictor.predict(std::hint::black_box(probe));
        indexed_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        forecasts.push(forecast.expect("non-empty history"));
    }
    let after = predictor.stats();
    let per_query = |total: u64| total as f64 / probes.len() as f64;

    let stride = (probes.len() / workload.checked_probes.max(1)).max(1);
    let checked = || (0..probes.len()).step_by(stride);
    let mut forecasts_identical = true;
    let mut pruned_ms = Vec::with_capacity(workload.checked_probes);
    predictor.set_index_policy(IndexPolicy::linear());
    for at in checked() {
        let start = Instant::now();
        let forecast = predictor.predict(std::hint::black_box(&probes[at]));
        pruned_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        forecasts_identical &= forecast.as_ref() == Ok(&forecasts[at]);
    }
    if verify_naive {
        for at in checked().take(NAIVE_CHECKS) {
            forecasts_identical &=
                predictor.predict_naive(&probes[at]).as_ref() == Ok(&forecasts[at]);
        }
    }
    predictor.set_index_policy(indexed);

    pruned_ms.sort_by(f64::total_cmp);
    indexed_ms.sort_by(f64::total_cmp);

    IndexScanPoint {
        slots,
        stationary,
        pruned_p50_ms: percentile(&pruned_ms, 0.5),
        indexed_p50_ms: percentile(&indexed_ms, 0.5),
        indexed_p99_ms: percentile(&indexed_ms, 0.99),
        tree_evaluated_per_query: per_query(
            after.candidates_evaluated - before.candidates_evaluated,
        ),
        tree_nodes_per_query: per_query(after.rings_walked - before.rings_walked),
        forecasts_identical,
    }
}

/// Runs the steady-state sweep: a predictor under the indexed policy grows
/// by `observe_slot` through the swept sizes and is measured at each; a
/// second predictor does the same once on the stationary population. At
/// every point the serial scan and the tree must return bit-identical
/// forecasts on the checked probes; up to
/// [`IndexScanWorkload::verify_naive_up_to`] slots the naive full scan is
/// held to the same bar.
pub fn run_index(workload: &IndexScanWorkload) -> IndexScanReport {
    assert!(
        workload.sizes.windows(2).all(|w| w[0] < w[1]) && !workload.sizes.is_empty(),
        "sweep sizes must be ascending and non-empty"
    );
    assert!(workload.probes > 0, "at least one probe per point");
    let mut rng = StdRng::seed_from_u64(crate::DEFAULT_SEED);
    // threshold 1 so that sub-threshold test shapes still run the tree
    let fresh = || {
        WorkloadPredictor::new(workload.group_ids(), SlotHistory::hourly().slot_length_ms)
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1))
    };
    let mut points = Vec::with_capacity(workload.sizes.len() + 1);
    let mut predictor = fresh();
    for &size in &workload.sizes {
        grow(&mut predictor, workload, false, size, &mut rng);
        let verify_naive = size <= workload.verify_naive_up_to;
        points.push(measure_point(
            &mut predictor,
            workload,
            false,
            verify_naive,
            &mut rng,
        ));
    }
    if let Some(slots) = workload.stationary_slots {
        predictor = fresh(); // frees the swept history first
        grow(&mut predictor, workload, true, slots, &mut rng);
        let verify_naive = slots <= workload.verify_naive_up_to;
        points.push(measure_point(
            &mut predictor,
            workload,
            true,
            verify_naive,
            &mut rng,
        ));
    }
    IndexScanReport {
        workload: workload.clone(),
        points,
    }
}

/// Prints the steady-state sweep as an aligned table.
pub fn print_index(report: &IndexScanReport) {
    println!(
        "block-summary tree over {} groups x {} users/group, history grown by observe_slot, \
         {} distinct probes per point",
        report.workload.groups, report.workload.users_per_group, report.workload.probes,
    );
    println!(
        "  {:<14} {:<11} {:>14} {:>14} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "history slots",
        "population",
        "pruned p50 ms",
        "tree p50 ms",
        "tree p99 ms",
        "speedup",
        "eval/query",
        "node/query",
        "identical"
    );
    for p in &report.points {
        println!(
            "  {:<14} {:<11} {:>14.3} {:>14.4} {:>14.4} {:>9.1}x {:>10.2} {:>10.1} {:>10}",
            p.slots,
            p.population(),
            p.pruned_p50_ms,
            p.indexed_p50_ms,
            p.indexed_p99_ms,
            p.speedup(),
            p.tree_evaluated_per_query,
            p.tree_nodes_per_query,
            p.forecasts_identical,
        );
    }
    if let Some(ratio) = report.indexed_scaling_ratio() {
        let mut drifting = report.drifting();
        let size_ratio = drifting
            .next_back()
            .expect("a ratio needs two points")
            .slots as f64
            / drifting.next().expect("a ratio needs two points").slots as f64;
        println!("  tree scaling: {ratio:.2}x more time for {size_ratio:.0}x more history");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_sweep_agrees_and_reports_every_size() {
        let workload = IndexScanWorkload {
            sizes: vec![60, 120],
            groups: 3,
            users_per_group: 10,
            probes: 50,
            checked_probes: 10,
            verify_naive_up_to: 120,
            stationary_slots: Some(90),
        };
        let report = run_index(&workload);
        assert_eq!(report.points.len(), 3);
        assert!(report.forecasts_identical(), "indexed diverged from serial");
        assert!(report
            .points
            .iter()
            .all(|p| p.indexed_p50_ms > 0.0 && p.indexed_p99_ms >= p.indexed_p50_ms));
        // every tree query evaluates its seed and bounds a node at least
        assert!(report
            .points
            .iter()
            .all(|p| p.tree_evaluated_per_query >= 1.0 && p.tree_nodes_per_query >= 1.0));
        assert_eq!(
            report.points.iter().map(|p| p.slots).collect::<Vec<_>>(),
            [60, 120, 90]
        );
        assert!(report.points[2].stationary && !report.points[1].stationary);
        // the summary figures read the drifting sweep only
        assert_eq!(
            report.speedup_at_largest(),
            Some(report.points[1].speedup())
        );
        assert_eq!(
            report.indexed_scaling_ratio(),
            Some(report.points[1].indexed_p50_ms / report.points[0].indexed_p50_ms)
        );
    }

    #[test]
    fn synthetic_history_is_deterministic_and_diurnal() {
        let workload = IndexScanWorkload {
            groups: 2,
            users_per_group: 20,
            ..IndexScanWorkload::smoke()
        };
        let history = || {
            let mut predictor = WorkloadPredictor::new(workload.group_ids(), 3_600_000.0);
            let mut rng = StdRng::seed_from_u64(crate::DEFAULT_SEED);
            grow(&mut predictor, &workload, false, 48, &mut rng);
            predictor.take_history()
        };
        let a = history();
        assert_eq!(a, history());
        assert_eq!(a.len(), 48);
        let loads: Vec<usize> = a
            .iter()
            .map(|s| s.load_of(AccelerationGroupId(1)))
            .collect();
        let max = loads.iter().max().unwrap();
        let min = loads.iter().min().unwrap();
        assert!(max > min, "load should ramp over the day");
    }
}
