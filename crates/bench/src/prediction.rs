//! Performance harness for the nearest-slot workload predictor: the pruned,
//! allocation-free search of `mca-core` versus the retained naive baseline
//! (full scan, per-candidate set construction — the seed's cost model).
//!
//! The headline configuration follows the acceptance bar of the time-slot
//! engine rework: a 5,000-slot × 3-group × 200-users-per-group synthetic
//! history, on which the pruned search must be at least 5× faster than the
//! naive scan. `cargo run --release -p mca-bench --bin bench_prediction`
//! regenerates `BENCH_prediction.json` at the repository root.
//!
//! A second harness ([`run_index`]) times the **block-summary tree** in
//! steady state: one predictor grown by `observe_slot` from 100k to 1M slots
//! and, at every point, 1,000 distinct probes (70 % resemble the next slot,
//! 30 % revisit a random old epoch) reported as p50/p99, against the pruned
//! linear scan on a sample of the same probes, asserting the serial and tree
//! paths return the bit-identical forecast. The acceptance bar:
//! ≥5× over the pruned scan at 1M slots and sub-linear growth (10× more
//! history must cost the tree's median query <3× more time). One further row
//! runs the same protocol on a **stationary** population — id windows that
//! never drift, so no envelope separates one stretch of history from another
//! — where the tree can only degrade to the linear signature pass; it is
//! reported, not gated.

use mca_core::{IndexPolicy, SlotHistory, TimeSlot, WorkloadPredictor};
use mca_offload::{AccelerationGroupId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Shape of the synthetic prediction workload.
#[derive(Debug, Clone, Copy)]
pub struct PredictionWorkload {
    /// Number of historical slots (`H`).
    pub slots: usize,
    /// Number of acceleration groups.
    pub groups: usize,
    /// Nominal users per group per slot.
    pub users_per_group: usize,
}

impl PredictionWorkload {
    /// The acceptance-bar configuration: 5,000 slots × 3 groups × 200 users.
    pub fn headline() -> Self {
        Self {
            slots: 5_000,
            groups: 3,
            users_per_group: 200,
        }
    }

    /// The acceleration-group universe of this workload.
    pub fn group_ids(&self) -> Vec<AccelerationGroupId> {
        (1..=self.groups as u8).map(AccelerationGroupId).collect()
    }
}

/// Builds a drifting synthetic history: each group's user population is a
/// contiguous id window that slides slowly over time while the load ramps
/// diurnally, so consecutive slots share most users (as the paper's traces
/// do) and distances between far-apart slots are large — the regime the
/// signature pruning exploits.
pub fn synthetic_history(workload: &PredictionWorkload) -> SlotHistory {
    let mut rng = StdRng::seed_from_u64(crate::DEFAULT_SEED);
    let mut history = SlotHistory::hourly();
    for hour in 0..workload.slots {
        history.push(synthetic_slot(workload, hour, &mut rng));
    }
    history
}

/// The probe used as the "current" slot: a fresh slot resembling (but not
/// equal to) the most recent history entries.
pub fn current_probe_slot(workload: &PredictionWorkload) -> TimeSlot {
    let mut rng = StdRng::seed_from_u64(crate::DEFAULT_SEED ^ 0x5bd1e995);
    synthetic_slot(workload, workload.slots, &mut rng)
}

fn synthetic_slot(workload: &PredictionWorkload, hour: usize, rng: &mut StdRng) -> TimeSlot {
    synthetic_slot_drifted(workload, hour, hour, rng)
}

/// A slot at the diurnal phase of `hour` whose id windows have slid for
/// `drift_hours` slots (`0` at every hour makes the population stationary).
fn synthetic_slot_drifted(
    workload: &PredictionWorkload,
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

/// Measurements of one pruned-versus-naive comparison.
#[derive(Debug, Clone)]
pub struct PredictionBenchReport {
    /// The workload shape measured.
    pub workload: PredictionWorkload,
    /// Number of predictions timed per implementation.
    pub rounds: usize,
    /// Mean wall-clock time of one naive prediction, milliseconds.
    pub naive_ms: f64,
    /// Mean wall-clock time of one pruned prediction, milliseconds.
    pub pruned_ms: f64,
}

impl PredictionBenchReport {
    /// Naive time over pruned time.
    pub fn speedup(&self) -> f64 {
        self.naive_ms / self.pruned_ms
    }

    /// The report as a JSON object (hand-rolled: serde_json is unavailable
    /// offline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"history_slots\": {},\n  \
             \"groups\": {},\n  \"users_per_group\": {},\n  \"rounds\": {},\n  \
             \"naive_ms_per_prediction\": {:.4},\n  \"pruned_ms_per_prediction\": {:.4},\n  \
             \"speedup\": {:.2}\n}}",
            self.workload.slots,
            self.workload.groups,
            self.workload.users_per_group,
            self.rounds,
            self.naive_ms,
            self.pruned_ms,
            self.speedup(),
        )
    }
}

/// Times `rounds` naive and pruned `NearestSlot` predictions over the same
/// predictor state and probe, and checks both return identical forecasts.
pub fn run(workload: &PredictionWorkload, rounds: usize) -> PredictionBenchReport {
    assert!(rounds > 0, "at least one timed round");
    let history = synthetic_history(workload);
    let probe = current_probe_slot(workload);
    let mut predictor = WorkloadPredictor::new(workload.group_ids(), history.slot_length_ms);
    predictor.set_history(history);

    // correctness first: the pruned search must reproduce the naive forecast
    let fast = predictor.predict(&probe).expect("non-empty history");
    let naive = predictor.predict_naive(&probe).expect("non-empty history");
    assert_eq!(
        fast, naive,
        "pruned search diverged from the naive reference"
    );

    let naive_ms = time_ms(rounds, || {
        std::hint::black_box(predictor.predict_naive(&probe).expect("non-empty history"));
    });
    let pruned_ms = time_ms(rounds, || {
        std::hint::black_box(predictor.predict(&probe).expect("non-empty history"));
    });
    PredictionBenchReport {
        workload: *workload,
        rounds,
        naive_ms,
        pruned_ms,
    }
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
    /// The acceptance-bar sweep: 100k → 1M slots; the tree's median query
    /// must beat the pruned linear scan ≥5× at 1M, and 10× more history must
    /// cost it <3× more time.
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

    fn as_prediction_workload(&self) -> PredictionWorkload {
        PredictionWorkload {
            slots: *self.sizes.last().expect("non-empty sweep"),
            groups: self.groups,
            users_per_group: self.users_per_group,
        }
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
    /// ratio; the acceptance bar demands <3× for 10× more history).
    pub fn indexed_scaling_ratio(&self) -> Option<f64> {
        let (first, last) = (self.drifting().next()?, self.drifting().next_back()?);
        (first.slots < last.slots).then(|| last.indexed_p50_ms / first.indexed_p50_ms)
    }

    /// The report as a JSON object (hand-rolled: serde_json is unavailable
    /// offline).
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "    {{ \"history_slots\": {}, \"population\": \"{}\", \
                     \"pruned_p50_ms\": {:.4}, \"indexed_p50_ms\": {:.4}, \
                     \"indexed_p99_ms\": {:.4}, \"speedup\": {:.2}, \
                     \"forecasts_identical\": {} }}",
                    p.slots,
                    p.population(),
                    p.pruned_p50_ms,
                    p.indexed_p50_ms,
                    p.indexed_p99_ms,
                    p.speedup(),
                    p.forecasts_identical,
                )
            })
            .collect();
        let scaling = self
            .indexed_scaling_ratio()
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "null".into());
        format!(
            "{{\n  \"protocol\": \"history grown by observe_slot; {} distinct probes per point \
             ({} revisit a random old epoch, the rest resemble the next slot); {} of them also \
             timed on the pruned scan\",\n  \"groups\": {},\n  \"users_per_group\": {},\n  \
             \"forecasts_identical\": {},\n  \
             \"speedup_at_largest\": {:.2},\n  \"indexed_scaling_ratio\": {},\n  \
             \"points\": [\n{}\n  ]\n}}",
            self.workload.probes,
            REVISIT_SHARE,
            self.workload.checked_probes,
            self.workload.groups,
            self.workload.users_per_group,
            self.forecasts_identical(),
            self.speedup_at_largest().unwrap_or(0.0),
            scaling,
            points.join(",\n"),
        )
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
    template: &PredictionWorkload,
    stationary: bool,
    slots: usize,
    rng: &mut StdRng,
) {
    for hour in predictor.history().len()..slots {
        let drift_hours = if stationary { 0 } else { hour };
        predictor.observe_slot(synthetic_slot_drifted(template, hour, drift_hours, rng));
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
    let template = workload.as_prediction_workload();
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
            synthetic_slot_drifted(&template, epoch, drift_hours, rng)
        })
        .collect();
    let mut forecasts = Vec::with_capacity(probes.len());
    let mut indexed_ms = Vec::with_capacity(probes.len());
    predictor.predict(&probes[0]).expect("non-empty history"); // warm-up
    for probe in &probes {
        let start = Instant::now();
        let forecast = predictor.predict(std::hint::black_box(probe));
        indexed_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        forecasts.push(forecast.expect("non-empty history"));
    }

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
    let template = workload.as_prediction_workload();
    let mut rng = StdRng::seed_from_u64(crate::DEFAULT_SEED);
    // threshold 1 so that custom sub-threshold shapes still measure the tree
    let fresh = || {
        WorkloadPredictor::new(template.group_ids(), SlotHistory::hourly().slot_length_ms)
            .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(1))
    };
    let mut points = Vec::with_capacity(workload.sizes.len() + 1);
    let mut predictor = fresh();
    for &size in &workload.sizes {
        grow(&mut predictor, &template, false, size, &mut rng);
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
        grow(&mut predictor, &template, true, slots, &mut rng);
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
        "  {:<14} {:<11} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "history slots",
        "population",
        "pruned p50 ms",
        "tree p50 ms",
        "tree p99 ms",
        "speedup",
        "identical"
    );
    for p in &report.points {
        println!(
            "  {:<14} {:<11} {:>14.3} {:>14.4} {:>14.4} {:>9.1}x {:>10}",
            p.slots,
            p.population(),
            p.pruned_p50_ms,
            p.indexed_p50_ms,
            p.indexed_p99_ms,
            p.speedup(),
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

/// The two prediction reports combined into the `BENCH_prediction.json`
/// document.
pub fn combined_json(pruned: &PredictionBenchReport, index: &IndexScanReport) -> String {
    format!(
        "{{\n  \"benchmark\": \"nearest_slot_prediction\",\n  \"pruned_vs_naive\": {},\n  \
         \"index\": {}\n}}\n",
        indent_object(&pruned.to_json()),
        indent_object(&index.to_json()),
    )
}

/// Re-indents a one-object JSON string by two spaces for nesting.
fn indent_object(json: &str) -> String {
    json.replace('\n', "\n  ")
}

fn time_ms(rounds: usize, mut body: impl FnMut()) -> f64 {
    body(); // warm-up
    let start = Instant::now();
    for _ in 0..rounds {
        body();
    }
    start.elapsed().as_secs_f64() * 1_000.0 / rounds as f64
}

/// Prints the report as an aligned table.
pub fn print(report: &PredictionBenchReport) {
    println!(
        "nearest-slot prediction over {} slots x {} groups x {} users/group ({} rounds)",
        report.workload.slots,
        report.workload.groups,
        report.workload.users_per_group,
        report.rounds,
    );
    println!("  {:<28} {:>12}", "implementation", "ms/predict");
    println!("  {:<28} {:>12.3}", "naive full scan", report.naive_ms);
    println!(
        "  {:<28} {:>12.3}",
        "pruned nearest-neighbour", report.pruned_ms
    );
    println!("  speedup: {:.1}x", report.speedup());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_and_naive_agree_on_a_small_workload() {
        let workload = PredictionWorkload {
            slots: 60,
            groups: 3,
            users_per_group: 12,
        };
        let report = run(&workload, 2);
        assert!(report.naive_ms > 0.0 && report.pruned_ms > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"history_slots\": 60"));
        assert!(json.contains("speedup"));
    }

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
        assert_eq!(
            report.points.iter().map(|p| p.slots).collect::<Vec<_>>(),
            [60, 120, 90]
        );
        assert!(report.points[2].stationary && !report.points[1].stationary);
        // the gates read the drifting sweep only
        assert_eq!(
            report.speedup_at_largest(),
            Some(report.points[1].speedup())
        );
        assert_eq!(
            report.indexed_scaling_ratio(),
            Some(report.points[1].indexed_p50_ms / report.points[0].indexed_p50_ms)
        );
        let json = report.to_json();
        assert!(json.contains("\"history_slots\": 120"));
        assert!(json.contains("\"population\": \"stationary\""));
        assert!(json.contains("\"forecasts_identical\": true"));
        assert!(json.contains("\"indexed_scaling_ratio\""));
    }

    #[test]
    fn combined_json_nests_both_reports() {
        let pruned = run(
            &PredictionWorkload {
                slots: 40,
                groups: 2,
                users_per_group: 8,
            },
            1,
        );
        let index = run_index(&IndexScanWorkload {
            sizes: vec![40],
            groups: 2,
            users_per_group: 8,
            probes: 10,
            checked_probes: 2,
            verify_naive_up_to: 40,
            stationary_slots: None,
        });
        let json = combined_json(&pruned, &index);
        assert!(json.contains("\"benchmark\": \"nearest_slot_prediction\""));
        assert!(json.contains("\"pruned_vs_naive\""));
        assert!(json.contains("\"index\""));
        assert!(json.contains("\"points\""));
    }

    #[test]
    fn synthetic_history_is_deterministic_and_diurnal() {
        let workload = PredictionWorkload {
            slots: 48,
            groups: 2,
            users_per_group: 20,
        };
        let a = synthetic_history(&workload);
        let b = synthetic_history(&workload);
        assert_eq!(a, b);
        assert_eq!(a.len(), 48);
        let loads: Vec<usize> = a
            .slots()
            .iter()
            .map(|s| s.load_of(AccelerationGroupId(1)))
            .collect();
        let max = loads.iter().max().unwrap();
        let min = loads.iter().min().unwrap();
        assert!(max > min, "load should ramp over the day");
    }
}
