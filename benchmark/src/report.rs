//! What a repetition measures, and how repetitions fold into the metrics
//! `BENCHMARK.json` names.

use crate::stats::{median, min_max, nearest_rank, samples_beyond, MIN_BEYOND};
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("service_p50_ms", "ms"),
    ("service_p99_ms", "ms"),
    ("records_per_s", "1/s"),
    ("checkpoint_p50_ms", "ms"),
    ("restore_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run: `(name, unit)`. A workload that
/// never enters a layer reports 0 for it, which is the "this workload
/// bypasses that layer" evidence the README's table predicts.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.gen_us_per_op", "us"),
    ("loadgen.records_per_op", "count"),
    ("fleet.source.push_ns_per_record", "ns"),
    ("fleet.source.late_records", "count"),
    ("fleet.driver.step_us_per_slot", "us"),
    ("fleet.ingest.bucket_us_per_slot", "us"),
    ("core.timeslot.build_us_per_slot", "us"),
    ("core.predictor.observe_predict_us_per_slot", "us"),
    ("core.predictor.fast_predictions", "count"),
    ("core.predictor.queries", "count"),
    ("core.allocator.allocate_us_per_slot", "us"),
    ("core.allocator.solves", "count"),
    ("fleet.shard.alloc_cache_hit_ratio", "ratio"),
    ("lp.nodes_per_solve", "count"),
    ("lp.pivots_per_solve", "count"),
    ("lp.phase1_skip_ratio", "ratio"),
    ("lp.us_per_pivot", "us"),
    ("core.billing.settle_us_per_slot", "us"),
    ("cloudsim.datacenter.placements", "count"),
    ("cloudsim.datacenter.placement_failures", "count"),
    ("fleet.engine.overhead_us_per_slot", "us"),
    ("trace.replay_coverage", "ratio"),
    ("fleet.engine.critical_path_share", "ratio"),
    ("fleet.rebalance.migrations", "count"),
    ("fleet.rebalance.max_mean_ratio", "ratio"),
    ("core.predictor.query_us", "us"),
    ("core.index.rings_per_query", "count"),
    ("core.index.bounded_per_query", "count"),
    ("core.predictor.evaluated_per_query", "count"),
    ("core.index.rebuilds", "count"),
    ("core.predictor.observe_us", "us"),
    ("core.predictor.observe_max_us", "us"),
    ("snapshot.checkpoint_bytes", "count"),
    ("snapshot.encode_mb_per_s", "MB/s"),
    ("snapshot.restore_mb_per_s", "MB/s"),
    ("telemetry.scrape_us", "us"),
    ("fleet.engine.metrics_rollup_us", "us"),
    ("trace.replay_vs_engine.windowing", "ratio"),
    ("trace.replay_vs_engine.predict", "ratio"),
    ("trace.replay_vs_engine.allocate", "ratio"),
    ("trace.replay_vs_engine.bill", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Restores timed per repetition. The first restore after a measured phase
/// runs 10–40 % slower than the ones after it (it grows the heap the others
/// reuse); the median of three reads the steady cost.
pub const RESTORES_PER_REP: usize = 3;

/// Failure messages kept per repetition (the count is never capped).
const MAX_MESSAGES: usize = 8;

/// Everything one repetition of a workload's measured phase yields.
#[derive(Debug, Default)]
pub struct Rep {
    /// Time the program spent being built and warmed (load generation
    /// excluded), ns.
    pub setup_ns: u64,
    /// Service time of each measured request, ns.
    pub service_ns: Vec<u64>,
    /// Duration of each measured-phase operation that is not a request (an
    /// `observe_slot` between queries), ns. With the requests it is the
    /// throughput denominator.
    pub other_ns: Vec<u64>,
    /// Records the program accepted in the measured phase.
    pub records: u64,
    /// Each checkpoint's duration, ns.
    pub checkpoint_ns: Vec<u64>,
    /// Each restore's duration, ns.
    pub restore_ns: Vec<u64>,
    /// Digest of every forecast and the final statistics.
    pub digest: u64,
    /// The simulated statistics, exact.
    pub sim: Vec<(&'static str, f64)>,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// What failed (first few).
    pub messages: Vec<String>,
    /// Per-layer values (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The spans (traced repetitions only).
    pub trace: Option<Trace>,
    /// Peak resident set of the process (`VmHWM`) when the repetition
    /// ended, MB.
    pub peak_rss_mb: f64,
}

impl Rep {
    /// Counts one operation or output check; a failed one is described by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(what());
            }
        }
    }

    /// The output signature that must repeat exactly: digest plus
    /// statistics, as the text `expected/<workload>-<seed>.txt` holds.
    pub fn signature(&self) -> String {
        let mut text = format!("digest {:016x}\n", self.digest);
        for (name, value) in &self.sim {
            text.push_str(&format!("{name} {:016x} {value}\n", value.to_bits()));
        }
        text
    }

    fn p50_service_ms(&self) -> f64 {
        percentile_ms(&self.service_ns, 50.0)
    }
}

/// One reported metric with the range of its per-repetition values.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Smallest value the same statistic takes over one repetition alone.
    pub rep_min: f64,
    /// Largest value the same statistic takes over one repetition alone.
    pub rep_max: f64,
}

fn percentile_ms(samples_ns: &[u64], percent: f64) -> f64 {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, percent) as f64 / 1e6
}

/// Nanoseconds between two clock readings.
pub fn ns_between(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Throughput of moving `bytes` once per sample, MB/s.
pub fn mb_per_s(bytes: usize, samples_ns: &[u64]) -> f64 {
    let total: u64 = samples_ns.iter().sum();
    (bytes * samples_ns.len()) as f64 * 1e3 / total.max(1) as f64
}

fn seconds(series: &[&[u64]]) -> f64 {
    series.iter().flat_map(|s| s.iter()).sum::<u64>() as f64 / 1e9
}

/// What the repetitions agree a series of timed operations costs: operation
/// by operation, the fastest of the repetitions.
///
/// Repetitions run the same operations on the same inputs, so operation *i*
/// costs the same in each; what differs is what the machine added. This box
/// shares its host: one repetition in ten runs 30–50 % slow for a second or
/// two, and ten slow slots are enough to move a repetition's p99. Noise only
/// adds time, so the minimum across repetitions is the least contaminated
/// reading of each operation, while the spread *across operations* (which
/// slots are expensive, which probes scan far) stays what it is. Percentiles
/// and sums are taken over this series.
fn quietest(reps: &[Rep], series: impl Fn(&Rep) -> &Vec<u64>) -> Vec<u64> {
    let operations = reps.iter().map(|r| series(r).len()).min().unwrap_or(0);
    (0..operations)
        .map(|i| reps.iter().map(|r| series(r)[i]).min().unwrap_or(0))
        .collect()
}

/// A metric beside the range of `per_rep`, the values the same statistic
/// takes over each repetition alone.
fn metric(name: &'static str, unit: &'static str, value: f64, per_rep: Vec<f64>) -> Metric {
    let (rep_min, rep_max) = min_max(&per_rep);
    Metric {
        name,
        unit,
        value,
        rep_min,
        rep_max,
    }
}

/// Folds untraced repetitions into the end-to-end metrics, in
/// [`END_TO_END`] order.
pub fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let service = quietest(reps, |r| &r.service_ns);
    let other = quietest(reps, |r| &r.other_ns);
    let checkpoints = quietest(reps, |r| &r.checkpoint_ns);
    let restores = quietest(reps, |r| &r.restore_ns);
    let setup = reps.iter().map(|r| r.setup_ns).min().unwrap_or(0);
    let each = |of_one: &dyn Fn(&Rep) -> f64| reps.iter().map(of_one).collect::<Vec<f64>>();
    let metrics = vec![
        metric(
            "setup_s",
            "s",
            setup as f64 / 1e9,
            each(&|r| r.setup_ns as f64 / 1e9),
        ),
        metric(
            "service_p50_ms",
            "ms",
            percentile_ms(&service, 50.0),
            each(&|r| percentile_ms(&r.service_ns, 50.0)),
        ),
        metric(
            "service_p99_ms",
            "ms",
            percentile_ms(&service, 99.0),
            each(&|r| percentile_ms(&r.service_ns, 99.0)),
        ),
        metric(
            "records_per_s",
            "1/s",
            reps[0].records as f64 / seconds(&[&service, &other]),
            each(&|r| r.records as f64 / seconds(&[&r.service_ns, &r.other_ns])),
        ),
        metric(
            "checkpoint_p50_ms",
            "ms",
            percentile_ms(&checkpoints, 50.0),
            each(&|r| percentile_ms(&r.checkpoint_ns, 50.0)),
        ),
        metric(
            "restore_p50_ms",
            "ms",
            percentile_ms(&restores, 50.0),
            each(&|r| percentile_ms(&r.restore_ns, 50.0)),
        ),
        // a high-water mark only grows: the first repetition's is the one
        // no earlier repetition's leftovers have raised, so it does not
        // depend on how many repetitions fit into the run
        metric(
            "peak_rss_mb",
            "MB",
            reps[0].peak_rss_mb,
            each(&|r| r.peak_rss_mb),
        ),
    ];
    debug_assert!(metrics
        .iter()
        .zip(END_TO_END)
        .all(|(m, (name, unit))| m.name == *name && m.unit == *unit));
    metrics
}

/// Whether every repetition's service samples leave enough beyond p99 for
/// it to be trusted.
pub fn p99_supported(reps: &[Rep]) -> bool {
    reps.iter()
        .all(|r| samples_beyond(r.service_ns.len(), 99.0) >= MIN_BEYOND)
}

/// Folds traced repetitions into the per-layer metrics, in [`PER_LAYER`]
/// order: the median over repetitions of each layer value, 0 for a layer
/// the workload never entered. `reference` is an untraced repetition of the
/// same inputs, the base of `trace.overhead_pct`.
pub fn per_layer(traced: &[Rep], reference: &Rep) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            if name == "trace.overhead_pct" {
                let base = reference.p50_service_ms();
                let values: Vec<f64> = traced
                    .iter()
                    .map(|r| (r.p50_service_ms() / base - 1.0) * 100.0)
                    .collect();
                return metric(name, unit, median(&values), values);
            }
            let values: Vec<f64> = traced
                .iter()
                .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            metric(name, unit, median(&values), values)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(service_ns: Vec<u64>, other_ns: Vec<u64>, records: u64) -> Rep {
        Rep {
            setup_ns: 2_000_000_000,
            service_ns,
            other_ns,
            records,
            checkpoint_ns: vec![3_000_000],
            restore_ns: vec![5_000_000],
            ..Rep::default()
        }
    }

    #[test]
    fn statistics_are_taken_over_the_operation_wise_fastest_repetition() {
        // the second repetition was disturbed on its first request, the
        // third on its second; neither disturbance survives
        let mut reps = vec![
            rep(
                vec![1_000_000, 2_000_000, 9_000_000],
                vec![500_000_000],
                300,
            ),
            rep(
                vec![7_000_000, 2_000_000, 9_000_000],
                vec![491_000_000],
                300,
            ),
            rep(
                vec![1_000_000, 8_000_000, 9_500_000],
                vec![488_000_000],
                300,
            ),
        ];
        for (rep, (rss, setup)) in reps.iter_mut().zip([(12.5, 3), (14.0, 2), (13.0, 4)]) {
            rep.peak_rss_mb = rss;
            rep.setup_ns = setup * 1_000_000_000;
        }
        assert_eq!(
            quietest(&reps, |r| &r.service_ns),
            vec![1_000_000, 2_000_000, 9_000_000]
        );
        let metrics = end_to_end(&reps);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().clone();
        assert_eq!(value("service_p50_ms").value, 2.0);
        assert_eq!(value("service_p50_ms").rep_min, 2.0);
        assert_eq!(value("service_p50_ms").rep_max, 8.0);
        // the slow third request is slow in every repetition: it is the
        // workload's own tail and stays
        assert_eq!(value("service_p99_ms").value, 9.0);
        // 300 records over 1 + 2 + 9 ms of requests and 488 ms of the rest
        assert_eq!(value("records_per_s").value, 600.0);
        assert_eq!(value("setup_s").value, 2.0);
        assert_eq!(value("checkpoint_p50_ms").value, 3.0);
        assert_eq!(value("restore_p50_ms").value, 5.0);
        assert_eq!(value("peak_rss_mb").value, 12.5);
        assert_eq!(value("peak_rss_mb").rep_max, 14.0);
        assert!(!p99_supported(&reps));
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn a_layer_that_was_never_entered_reads_zero_and_overhead_compares_medians() {
        let mut traced = rep(vec![1_100_000; 3], vec![], 1);
        traced.layers.insert("core.allocator.solves", 7.0);
        let reference = rep(vec![1_000_000; 3], vec![], 1);
        let metrics = per_layer(&[traced], &reference);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("core.allocator.solves"), 7.0);
        assert_eq!(value("snapshot.checkpoint_bytes"), 0.0);
        assert!((value("trace.overhead_pct") - 10.0).abs() < 1e-9);
    }

    #[test]
    fn failed_checks_are_counted_and_described() {
        let mut rep = Rep::default();
        rep.check(true, || unreachable!());
        rep.check(false, || "forecast mismatch".to_string());
        assert_eq!((rep.attempted, rep.failed), (2, 1));
        assert_eq!(rep.messages, vec!["forecast mismatch"]);
        rep.digest = 0xabc;
        rep.sim.push(("sim.total_cost", 1.5));
        assert_eq!(
            rep.signature(),
            "digest 0000000000000abc\nsim.total_cost 3ff8000000000000 1.5\n"
        );
    }
}
