//! The fleet workloads: a closed loop with one client that pushes slot
//! *n + 1* into the driver's live lane only after slot *n* closed. What is
//! timed is the service time of closing one slot; a slot never queues.

use crate::loadgen::{Diurnal, FleetGen, Population};
use crate::replay::Replay;
use crate::report::{mb_per_s, ns_between as ns, Rep, RESTORES_PER_REP};
use crate::stats::Digest;
use crate::trace::Trace;
use mca_cloudsim::{DatacenterConfig, InstanceType};
use mca_core::{AccelerationGroups, IndexPolicy, SystemConfig};
use mca_fleet::{
    DriveReport, FleetDriver, FleetEngine, FleetMetrics, RebalancerConfig, RecordSource,
    SlotBatchHandle, SlotBatchSource, SlotRecord, StreamHandle, StreamSource, TelemetryMode,
};
use mca_offload::AccelerationGroupId;
use mca_telemetry::{json_snapshot, prometheus_text};
use mca_workload::TenantMix;
use std::hint::black_box;
use std::time::Instant;

/// Knowledge-base window of every fleet workload: a week of hourly slots.
const HISTORY_WINDOW: usize = 168;

/// Seed of the tenant shapes of [`Tenants::Heterogeneous`].
const SHAPE_SEED: u64 = 42;

/// One record in a hundred reaches a timestamped lane after its slot
/// closed.
const LATE_ONE_IN: usize = 100;

/// Spans a traced slot records: the slot, generate, push, step, the replay
/// and its five layers.
const SPANS_PER_SLOT: usize = 10;

/// Who the tenants are, before the seed is known.
#[derive(Debug, Clone, Copy)]
pub enum Tenants {
    /// `TenantMix::heterogeneous`: steady, ramping and doubling tenants.
    Heterogeneous { tenants: usize, users: usize },
    /// `TenantMix::zipf`: power-law tenant sizes, 2 % churn.
    Zipf {
        tenants: usize,
        max_users: usize,
        s: f64,
    },
    /// Day/night tenants with noise ([`Diurnal`]).
    Diurnal { tenants: usize, users: usize },
}

/// A fleet workload. The sizes are frozen: a change to them changes the
/// expected digests and invalidates every recorded baseline.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Workload name.
    pub name: &'static str,
    /// The shared system configuration.
    pub config: SystemConfig,
    /// The tenants.
    pub tenants: Tenants,
    /// Engine shards.
    pub shards: usize,
    /// Engine threads.
    pub threads: usize,
    /// Between-slots rebalancing, if the workload runs it.
    pub rebalancer: Option<RebalancerConfig>,
    /// Whether records arrive one by one with timestamps
    /// (`StreamSource`, one in [`LATE_ONE_IN`] too late) instead of as one
    /// pre-bucketed batch per slot (`SlotBatchSource`).
    pub timestamped: bool,
    /// Scrape the metrics registry every this many slots.
    pub scrape_every: Option<usize>,
    /// Slots that fill the history window and the caches before measuring.
    pub warmup_slots: usize,
    /// Measured slots per repetition.
    pub measured_slots: usize,
    /// Checkpoint every this many measured slots.
    pub checkpoint_every: usize,
}

/// The paper's configuration at fleet scale: three groups, the §IV-C ILP
/// (the default policy), the index armed, datacenter billing.
fn paper_config() -> SystemConfig {
    SystemConfig::paper_three_groups()
        .with_history_window(HISTORY_WINDOW)
        .with_index_policy(IndexPolicy::indexed())
        .with_datacenter(DatacenterConfig::paper_default())
}

/// Four groups that each offer the six instance types of pairwise distinct
/// price structure (the catalogue of `crates/bench/src/allocation.rs`): 24
/// decision variables, where the paper's own groups pin one type each.
fn wide_catalogue_config() -> SystemConfig {
    let types = vec![
        InstanceType::T2Nano,
        InstanceType::T2Small,
        InstanceType::T2Large,
        InstanceType::M4_4XLarge,
        InstanceType::M4_10XLarge,
        InstanceType::C4_8XLarge,
    ];
    let assignments: Vec<(AccelerationGroupId, Vec<InstanceType>)> = (1..=4)
        .map(|g| (AccelerationGroupId(g), types.clone()))
        .collect();
    let mut config =
        paper_config().with_datacenter(DatacenterConfig::paper_default().with_hosts(64, 48, 192.0));
    config.groups = AccelerationGroups::from_assignments(&assignments, 500.0, 65.0);
    config.account_cap = 2_000;
    config
}

impl FleetSpec {
    /// The ROADMAP's headline slot: ingest-bound.
    pub fn steady() -> Self {
        Self {
            name: "fleet_steady",
            config: paper_config(),
            tenants: Tenants::Heterogeneous {
                tenants: 64,
                users: 800,
            },
            shards: 8,
            threads: 1,
            rebalancer: None,
            timestamped: false,
            scrape_every: None,
            warmup_slots: 200,
            measured_slots: 1_000,
            checkpoint_every: 300,
        }
    }

    /// The same loop, solver-bound: forecasts rarely repeat, so the memo
    /// cache misses and the ILP runs.
    pub fn solver() -> Self {
        Self {
            name: "fleet_solver",
            config: wide_catalogue_config(),
            tenants: Tenants::Diurnal {
                tenants: 16,
                users: 500,
            },
            ..Self::steady()
        }
    }

    /// The operated fleet: skewed tenants, the rebalancer, a timestamped
    /// lane with late events, registry scrapes.
    ///
    /// One engine thread, not the two an operator would give it: on this
    /// 2-vCPU box the second vCPU comes and goes with the host's other
    /// guests. Sixteen alternating 15 s runs read `service_p50_ms`
    /// 1.65-2.41 ms with two threads (faster than one thread in quiet
    /// minutes, slower in busy ones) against 1.76-2.08 ms with one: the
    /// two-thread numbers measure the host's scheduler. On a machine with
    /// dedicated cores, raise `threads` here and record new baselines.
    pub fn elastic() -> Self {
        // the heaviest Zipf tenant (4,000 users) needs more instances than
        // the paper's 20-instance account holds; a workload must not fail
        let mut config = paper_config();
        config.account_cap = 40;
        Self {
            name: "fleet_elastic",
            config,
            tenants: Tenants::Zipf {
                tenants: 48,
                max_users: 4_000,
                s: 0.8,
            },
            shards: 7,
            threads: 1,
            rebalancer: Some(RebalancerConfig::default()),
            timestamped: true,
            scrape_every: Some(50),
            ..Self::steady()
        }
    }

    /// The same workload at another size.
    #[cfg(test)]
    pub fn resized(mut self, warmup: usize, measured: usize, checkpoint_every: usize) -> Self {
        self.warmup_slots = warmup;
        self.measured_slots = measured;
        self.checkpoint_every = checkpoint_every;
        self
    }

    fn population(&self, seed: u64) -> Population {
        let groups = self.config.groups.ids();
        match self.tenants {
            Tenants::Heterogeneous { tenants, users } => {
                // which tenant is steady, ramps or doubles, and how big it
                // is, belongs to the workload and is fixed; the seed draws
                // who churns and in which order records arrive
                let shape = TenantMix::heterogeneous(tenants, users, groups.clone(), SHAPE_SEED);
                let scenarios = shape.tenant_ids().map(|t| *shape.scenario_of(t)).collect();
                Population::Mix(TenantMix::new(seed, groups, scenarios))
            }
            Tenants::Zipf {
                tenants,
                max_users,
                s,
            } => Population::Mix(TenantMix::zipf(tenants, max_users, s, groups, seed)),
            Tenants::Diurnal { tenants, users } => Population::Diurnal(Diurnal {
                tenants,
                nominal_users: users,
                groups,
            }),
        }
    }

    /// The sizes, for the environment stamp.
    pub fn sizes(&self) -> String {
        format!(
            "{:?}, {} shards, {} thread(s), window {HISTORY_WINDOW}, {} warm-up + {} measured \
             slots per repetition, checkpoint every {}",
            self.tenants,
            self.shards,
            self.threads,
            self.warmup_slots,
            self.measured_slots,
            self.checkpoint_every
        )
    }
}

/// One slot's input, prepared outside the timed spans: late records of the
/// previous slot first, then this slot's own.
struct SlotInput {
    records: Vec<SlotRecord>,
    /// Arrival time of each record (timestamped lanes only).
    times_ms: Vec<f64>,
    /// How many of the leading records the lane will refuse as late.
    late: usize,
}

impl SlotInput {
    /// The records the lane will accept: the slot the engine sees.
    fn accepted(&self) -> &[SlotRecord] {
        &self.records[self.late..]
    }
}

/// The load generator's side of the lane. A clone resumes from the same
/// point, held-back records included.
#[derive(Clone)]
struct Feeder {
    gen: FleetGen,
    timestamped: bool,
    slot_length_ms: f64,
    /// Records of the previous slot that are delivered one slot late.
    held: Vec<(f64, SlotRecord)>,
}

impl Feeder {
    fn next(&mut self) -> SlotInput {
        let slot = self.gen.slot();
        let mut batch = self.gen.next_batch();
        if !self.timestamped {
            return SlotInput {
                records: batch,
                times_ms: Vec::new(),
                late: 0,
            };
        }
        // the batch is in random order, so its tail is a random sample:
        // exactly one record in LATE_ONE_IN is held back and pushed with
        // the next slot, after its own slot closed
        let mut times = self.gen.timestamps(batch.len(), slot, self.slot_length_ms);
        let on_time = batch.len() - batch.len() / LATE_ONE_IN;
        let late = std::mem::replace(
            &mut self.held,
            times.drain(on_time..).zip(batch.drain(on_time..)).collect(),
        );
        let (mut times_ms, mut records): (Vec<f64>, Vec<SlotRecord>) = late.into_iter().unzip();
        let late = records.len();
        times_ms.append(&mut times);
        records.append(&mut batch);
        SlotInput {
            records,
            times_ms,
            late,
        }
    }
}

/// The producer half of the driver's live lane.
enum Lane {
    Batch(SlotBatchHandle),
    Stream(StreamHandle),
}

impl Lane {
    fn open(timestamped: bool, slot_length_ms: f64) -> (Self, Box<dyn RecordSource>) {
        if timestamped {
            let (handle, source) = StreamSource::channel(slot_length_ms);
            (Lane::Stream(handle), Box::new(source))
        } else {
            let (handle, source) = SlotBatchSource::channel();
            (Lane::Batch(handle), Box::new(source))
        }
    }

    /// Pushes one slot's input; returns how many records the lane refused.
    fn push(&self, input: SlotInput) -> usize {
        match self {
            Lane::Batch(handle) => {
                handle.push_slot(input.records);
                0
            }
            Lane::Stream(handle) => input
                .times_ms
                .into_iter()
                .zip(input.records)
                .filter(|&(time_ms, record)| !handle.push(time_ms, record))
                .count(),
        }
    }
}

/// `RecordSource` is implemented by the concrete sources only; the driver's
/// builder wants one of them by value.
struct Boxed(Box<dyn RecordSource>);

impl RecordSource for Boxed {
    fn next_slot(&mut self, slot: usize) -> mca_fleet::SourceBatch {
        self.0.next_slot(slot)
    }
    fn save_cursor(&self, out: &mut Vec<u8>) {
        self.0.save_cursor(out);
    }
    fn load_cursor(
        &mut self,
        cur: &mut mca_snapshot::Cursor<'_>,
    ) -> Result<(), mca_snapshot::SnapshotError> {
        self.0.load_cursor(cur)
    }
}

fn digest_metrics(digest: &mut Digest, report: &DriveReport) {
    let m: &FleetMetrics = &report.metrics;
    for count in [
        report.slots,
        report.records,
        report.late_records,
        report.dropped_records,
        m.tenants,
        m.slots,
        m.total_allocations,
        m.total_infeasible,
        m.peak_user_sum,
        m.total_cache_hits,
        m.total_cache_misses,
        m.total_cache_evictions,
        m.total_solver_nodes,
        m.total_solver_pivots,
        m.total_solver_phase1_skips,
        m.total_sla_violations,
        m.total_sla_dropped_users,
        m.total_placed_instance_slots,
        m.total_placement_failures,
    ] {
        digest.word(count as u64);
    }
    for value in [
        m.total_cost,
        m.mean_accuracy.unwrap_or(f64::NAN),
        m.total_sla_latency_ms,
        m.total_energy_wh,
    ] {
        digest.float(value);
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Runs one repetition on freshly built state: build, warm up, measure,
/// restore from the last checkpoint and check that the resumed tail ends
/// where the uninterrupted run did. A traced repetition also records spans
/// and replays every slot through the layers.
pub fn run_rep(spec: &FleetSpec, seed: u64, traced: bool) -> Rep {
    let config = &spec.config;
    let total_slots = spec.warmup_slots + spec.measured_slots;
    let mut rep = Rep::default();
    let mut feeder = Feeder {
        gen: FleetGen::new(spec.population(seed), seed),
        timestamped: spec.timestamped,
        slot_length_ms: config.slot_length_ms,
        held: Vec::new(),
    };
    let tenants = feeder.gen.tenant_ids().count();
    let mut trace = traced.then(|| Trace::with_capacity(total_slots * SPANS_PER_SLOT));
    let mut replay = traced.then(|| Replay::new(config, spec.shards, tenants));

    // end-to-end runs measure with the engine's own clocks off; the traced
    // run turns them on and cross-checks the replay against them
    let mode = if traced {
        TelemetryMode::Monotonic
    } else {
        TelemetryMode::Disabled
    };
    let build = Instant::now();
    let mut engine = FleetEngine::new(config.clone(), spec.shards, seed)
        .with_threads(spec.threads)
        .with_telemetry(mode);
    if let Some(rebalancer) = spec.rebalancer {
        engine = engine.with_rebalancer(rebalancer);
    }
    engine.add_tenants(feeder.gen.tenant_ids());
    let (lane, source) = Lane::open(spec.timestamped, config.slot_length_ms);
    let mut driver = FleetDriver::new(engine).with_shared_source(Boxed(source));
    rep.setup_ns = build.elapsed().as_nanos() as u64;

    let mut digest = Digest::default();
    let mut checkpoint: Vec<u8> = Vec::new();
    let mut resume: Option<Feeder> = None;
    let mut scrape_ns: Vec<u64> = Vec::new();
    let (mut pushed, mut late_total) = (0u64, 0u64);
    let (mut gen_ns, mut push_ns, mut step_ns) = (0u64, 0u64, 0u64);

    for slot in 0..total_slots {
        let generate = Instant::now();
        let input = feeder.next();
        let (accepted, late) = (input.accepted().len(), input.late);
        let copy = traced.then(|| input.accepted().to_vec());
        let push = Instant::now();
        let refused = lane.push(input);
        let step = Instant::now();
        let stepped = driver.step();
        let closed = Instant::now();

        rep.check(stepped.is_ok(), || {
            format!("slot {slot}: step failed: {stepped:?}")
        });
        rep.check(refused == late, || {
            format!("slot {slot}: lane refused {refused} records, {late} were late")
        });
        let service = ns(push, closed);
        if slot < spec.warmup_slots {
            rep.setup_ns += service;
        } else {
            rep.service_ns.push(service);
            rep.records += accepted as u64;
        }
        pushed += (accepted + late) as u64;
        late_total += late as u64;
        gen_ns += ns(generate, push);
        push_ns += ns(push, step);
        step_ns += ns(step, closed);

        let forecasts = driver.engine().forecasts();
        for (tenant, forecast) in &forecasts {
            digest.word(u64::from(tenant.0));
            if let Some(forecast) = forecast {
                digest.forecast(forecast);
            }
        }

        if let (Some(trace), Some(replay), Some(batch)) =
            (trace.as_mut(), replay.as_mut(), copy.as_ref())
        {
            let op = slot as u32;
            let root = trace.open("slot", generate, None, op);
            trace.record("loadgen.generate", generate, push, Some(root), op);
            trace.record("fleet.source.push", push, step, Some(root), op);
            trace.record("fleet.driver.step", step, closed, Some(root), op);
            let replaying = Instant::now();
            let replay_span = trace.open("trace.replay", replaying, Some(root), op);
            replay.slot(batch, slot, trace, replay_span);
            let replayed = Instant::now();
            trace.close(replay_span, replayed);
            trace.close(root, replayed);
            let agree = forecasts
                .iter()
                .all(|(tenant, forecast)| replay.forecast(*tenant) == forecast.as_ref());
            rep.check(agree, || {
                format!("slot {slot}: engine forecasts differ from the tenant-alone replay")
            });
        }

        let measured = (slot + 1).saturating_sub(spec.warmup_slots);
        if spec
            .scrape_every
            .is_some_and(|every| measured > 0 && measured % every == 0)
        {
            let start = Instant::now();
            let registry = driver.engine().telemetry_registry();
            black_box(prometheus_text(&registry));
            black_box(json_snapshot(&registry));
            scrape_ns.push(start.elapsed().as_nanos() as u64);
        }
        if measured > 0 && measured % spec.checkpoint_every == 0 && slot + 1 < total_slots {
            checkpoint.clear();
            let start = Instant::now();
            let written = driver.checkpoint(&mut checkpoint);
            rep.checkpoint_ns.push(start.elapsed().as_nanos() as u64);
            rep.check(written.is_ok(), || {
                format!("slot {slot}: checkpoint failed: {written:?}")
            });
            resume = Some(feeder.clone());
        }
    }

    let rollup = Instant::now();
    let metrics = driver.engine().metrics();
    let rollup_ns = rollup.elapsed().as_nanos() as u64;
    let report = driver.report();
    digest_metrics(&mut digest, &report);
    rep.digest = digest.value();
    rep.sim = vec![
        (
            "sim.mean_accuracy",
            metrics.mean_accuracy.unwrap_or(f64::NAN),
        ),
        ("sim.total_cost", metrics.total_cost),
        ("sim.energy_wh", metrics.total_energy_wh),
        ("sim.sla_violations", metrics.total_sla_violations as f64),
        ("sim.alloc_cache_hits", metrics.total_cache_hits as f64),
        ("sim.late_records", report.late_records as f64),
    ];

    rep.check(metrics.total_infeasible == 0, || {
        format!("{} infeasible allocations", metrics.total_infeasible)
    });
    rep.check(metrics.total_placement_failures == 0, || {
        format!("{} placement failures", metrics.total_placement_failures)
    });
    rep.check(
        report.records as u64 + late_total == pushed && report.late_records as u64 == late_total,
        || {
            format!(
                "records not conserved: pushed {pushed}, ingested {}, late {} (expected {late_total})",
                report.records, report.late_records
            )
        },
    );
    rep.check(report.dropped_records == 0, || {
        format!("{} records dropped", report.dropped_records)
    });

    // kill and resume: a driver restored from the last checkpoint and fed
    // the rest of the same stream must end exactly where this one did
    match resume {
        None => rep.check(false, || "the repetition took no checkpoint".to_string()),
        Some(mut tail) => {
            // the restore is sampled several times; the last driver resumes
            let mut resumed = None;
            for _ in 0..RESTORES_PER_REP {
                // one restored fleet at a time, as after a crash
                drop(resumed.take());
                let (lane, source) = Lane::open(spec.timestamped, config.slot_length_ms);
                let start = Instant::now();
                let restored =
                    FleetDriver::restore(&mut checkpoint.as_slice(), config, vec![(None, source)]);
                rep.restore_ns.push(start.elapsed().as_nanos() as u64);
                rep.check(restored.is_ok(), || {
                    format!("restore failed: {:?}", restored.as_ref().err())
                });
                resumed = restored.ok().map(|driver| (lane, driver));
            }
            if let Some((lane, mut restored)) = resumed {
                while tail.gen.slot() < total_slots {
                    lane.push(tail.next());
                    let stepped = restored.step();
                    rep.check(stepped.is_ok(), || {
                        format!("resumed step failed: {stepped:?}")
                    });
                }
                rep.check(restored.report() == report, || {
                    "the resumed tail does not reproduce the uninterrupted report".to_string()
                });
            }
        }
    }

    if let (Some(trace), Some(replay)) = (trace, replay) {
        let slots = total_slots as f64;
        let totals = trace.totals();
        let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
        let per_slot_us = |name: &str| total_ns(name) as f64 / slots / 1e3;
        let layers = [
            "fleet.ingest.bucket",
            "core.timeslot.build",
            "core.predictor.observe_predict",
            "core.allocator.allocate",
            "core.billing.settle",
        ];
        let replayed_ns: u64 = layers.iter().map(|name| total_ns(name)).sum();
        let counts = replay.counts;
        let telemetry = driver.engine().telemetry();
        let predictor = driver.engine().predictor_stats();

        // the mirror and the engine must agree on what the caches did
        rep.check(
            counts.memo_hits == metrics.total_cache_hits as u64
                && counts.solves == metrics.total_cache_misses as u64,
            || {
                format!(
                    "memo mirror saw {} hits / {} solves, the engine {} / {}",
                    counts.memo_hits,
                    counts.solves,
                    metrics.total_cache_hits,
                    metrics.total_cache_misses
                )
            },
        );
        rep.check(
            counts.placements == metrics.total_placed_instance_slots as u64
                && counts.placement_failures == metrics.total_placement_failures as u64
                && counts.infeasible == metrics.total_infeasible as u64,
            || "replayed billing disagrees with the engine's placement accounting".to_string(),
        );

        let l = &mut rep.layers;
        l.insert("loadgen.gen_us_per_op", gen_ns as f64 / slots / 1e3);
        l.insert("loadgen.records_per_op", pushed as f64 / slots);
        l.insert("fleet.source.push_ns_per_record", ratio(push_ns, pushed));
        l.insert("fleet.source.late_records", late_total as f64);
        l.insert(
            "fleet.driver.step_us_per_slot",
            step_ns as f64 / slots / 1e3,
        );
        l.insert("fleet.ingest.bucket_us_per_slot", per_slot_us(layers[0]));
        l.insert("core.timeslot.build_us_per_slot", per_slot_us(layers[1]));
        l.insert(
            "core.predictor.observe_predict_us_per_slot",
            per_slot_us(layers[2]),
        );
        l.insert(
            "core.allocator.allocate_us_per_slot",
            per_slot_us(layers[3]),
        );
        l.insert("core.billing.settle_us_per_slot", per_slot_us(layers[4]));
        l.insert(
            "core.predictor.fast_predictions",
            predictor.fast_predictions as f64,
        );
        l.insert("core.predictor.queries", predictor.queries as f64);
        l.insert("core.allocator.solves", counts.solves as f64);
        l.insert(
            "fleet.shard.alloc_cache_hit_ratio",
            metrics.cache_hit_rate().unwrap_or(0.0),
        );
        l.insert("lp.nodes_per_solve", ratio(counts.nodes, counts.solves));
        l.insert("lp.pivots_per_solve", ratio(counts.pivots, counts.solves));
        l.insert(
            "lp.phase1_skip_ratio",
            ratio(
                counts.phase1_skips,
                counts.nodes.saturating_sub(counts.solves),
            ),
        );
        l.insert(
            "lp.us_per_pivot",
            ratio(counts.solve_ns, counts.pivots) / 1e3,
        );
        l.insert("cloudsim.datacenter.placements", counts.placements as f64);
        l.insert(
            "cloudsim.datacenter.placement_failures",
            counts.placement_failures as f64,
        );
        // what `step` costs beyond the layers the replay could reproduce:
        // the driver's multiplexing, the thread pool, the engine's own
        // bookkeeping. Coverage and overhead add up to `step` by definition.
        l.insert(
            "fleet.engine.overhead_us_per_slot",
            (step_ns as f64 - replayed_ns as f64) / slots / 1e3,
        );
        l.insert("trace.replay_coverage", ratio(replayed_ns, step_ns));
        l.insert(
            "fleet.engine.critical_path_share",
            ratio(telemetry.critical_path_ns, telemetry.slot.sum()),
        );
        if let Some(rebalance) = &telemetry.rebalance {
            l.insert("fleet.rebalance.migrations", rebalance.migrations as f64);
            l.insert("fleet.rebalance.max_mean_ratio", rebalance.last_ratio);
        }
        l.insert("snapshot.checkpoint_bytes", checkpoint.len() as f64);
        l.insert(
            "snapshot.encode_mb_per_s",
            mb_per_s(checkpoint.len(), &rep.checkpoint_ns),
        );
        l.insert(
            "snapshot.restore_mb_per_s",
            mb_per_s(checkpoint.len(), &rep.restore_ns),
        );
        if !scrape_ns.is_empty() {
            let mean = scrape_ns.iter().sum::<u64>() as f64 / scrape_ns.len() as f64;
            l.insert("telemetry.scrape_us", mean / 1e3);
        }
        l.insert("fleet.engine.metrics_rollup_us", rollup_ns as f64 / 1e3);
        // reported, not gated: the replay's stage sums against the
        // engine's own stage clocks over the same slots
        let stages = &telemetry.stages;
        for (name, replayed, engine) in [
            // the engine's windowing clock covers the sort + dedup only
            (
                "trace.replay_vs_engine.windowing",
                counts.sort_dedup_ns,
                stages.windowing.sum(),
            ),
            (
                "trace.replay_vs_engine.predict",
                total_ns(layers[2]),
                stages.predict.sum(),
            ),
            (
                "trace.replay_vs_engine.allocate",
                total_ns(layers[3]),
                stages.allocate.sum(),
            ),
            (
                "trace.replay_vs_engine.bill",
                total_ns(layers[4]),
                stages.bill.sum(),
            ),
        ] {
            l.insert(name, ratio(replayed, engine));
        }
        rep.trace = Some(trace);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_steady_fleet_passes_every_check_and_the_memo_mirror_matches_the_engine() {
        let spec = FleetSpec::steady().resized(12, 30, 10);
        let rep = run_rep(&spec, 42, true);
        assert_eq!(rep.failed, 0, "{:?}", rep.messages);
        assert_eq!(rep.service_ns.len(), 30);
        assert_eq!(rep.checkpoint_ns.len(), 2);
        assert_eq!(rep.restore_ns.len(), RESTORES_PER_REP);
        // the mirror-vs-engine equality is one of the checks that passed;
        // it only means something if the cache was hit at all
        let hits = rep
            .sim
            .iter()
            .find(|(n, _)| *n == "sim.alloc_cache_hits")
            .unwrap()
            .1;
        assert!(hits > 0.0);
        assert!(rep.layers["core.allocator.solves"] > 0.0);
        // the fleet path never scans: every forecast is the fast path
        assert_eq!(rep.layers["core.predictor.queries"], 0.0);
        assert!(rep.layers["core.predictor.fast_predictions"] > 0.0);
        let coverage = rep.layers["trace.replay_coverage"];
        let step = rep.layers["fleet.driver.step_us_per_slot"];
        let overhead = rep.layers["fleet.engine.overhead_us_per_slot"];
        assert!((coverage + overhead / step - 1.0).abs() < 1e-9);
    }

    #[test]
    fn traced_and_untraced_repetitions_agree_on_every_output() {
        let spec = FleetSpec::solver().resized(6, 12, 5);
        let untraced = run_rep(&spec, 7, false);
        let traced = run_rep(&spec, 7, true);
        assert_eq!(untraced.failed, 0, "{:?}", untraced.messages);
        assert_eq!(traced.failed, 0, "{:?}", traced.messages);
        assert_eq!(untraced.signature(), traced.signature());
        assert!(untraced.layers.is_empty() && untraced.trace.is_none());
        assert_ne!(untraced.signature(), run_rep(&spec, 8, false).signature());
    }

    #[test]
    fn exactly_one_record_in_a_hundred_is_late_on_the_timestamped_lane() {
        let spec = FleetSpec::elastic().resized(4, 8, 3);
        let mut feeder = Feeder {
            gen: FleetGen::new(spec.population(42), 42),
            timestamped: true,
            slot_length_ms: spec.config.slot_length_ms,
            held: Vec::new(),
        };
        let mut expected_late = 0;
        let mut previous = 0;
        for _ in 0..12 {
            let input = feeder.next();
            assert_eq!(input.late, previous / LATE_ONE_IN);
            assert_eq!(input.times_ms.len(), input.records.len());
            expected_late += input.late;
            previous = input.accepted().len() + feeder.held.len();
        }
        let rep = run_rep(&spec, 42, false);
        assert_eq!(rep.failed, 0, "{:?}", rep.messages);
        let late = rep
            .sim
            .iter()
            .find(|(n, _)| *n == "sim.late_records")
            .unwrap()
            .1;
        assert_eq!(late, expected_late as f64);
        assert!(late > 0.0);
    }
}
