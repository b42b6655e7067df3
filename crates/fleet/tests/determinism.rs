//! Shard determinism: the same `TenantMix` seed must produce identical
//! `FleetMetrics` (and forecasts) across repeated runs, across thread
//! counts, across shard counts — and per-tenant results must be
//! bit-identical to running each tenant alone. All runs are driven through
//! the streaming ingestion API (`FleetDriver` over per-tenant
//! `TenantMixSource`s or one shared lane), the one way records reach the
//! engine, and the engine is a pure function of those records. Beside the
//! identities, two counted tables: checkpoint bytes per fleet size, and
//! what each placement policy accounts on a Zipf fleet.

use mca_cloudsim::{DatacenterConfig, PlacementKind};
use mca_core::{
    AllocationPolicy, IndexPolicy, SystemConfig, TimeSlot, TimeSlotBuilder, WorkloadForecast,
};
use mca_fleet::{
    DriveReport, FleetDriver, FleetEngine, FleetMetrics, RebalancerConfig, RecordSource,
    SlotBatchSource, SlotRecord, TelemetryMode, TenantMixSource, TenantShard,
};
use mca_offload::TenantId;
use mca_snapshot::SnapshotError;
use mca_workload::TenantMix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 20170605;
const TENANTS: usize = 12;
const SLOTS: usize = 24;

fn config() -> SystemConfig {
    SystemConfig::paper_three_groups().with_history_window(16)
}

fn mix() -> TenantMix {
    TenantMix::heterogeneous(TENANTS, 12, config().groups.ids(), SEED)
}

/// A week of hourly slots in the window, and greedy allocation: the drives
/// that run past that window spend their time in ingest, prediction and
/// billing rather than in ILP solves.
fn week_config() -> SystemConfig {
    SystemConfig::paper_three_groups()
        .with_history_window(168)
        .with_allocation_policy(AllocationPolicy::GreedyCheapest)
        .with_index_policy(IndexPolicy::linear())
}

fn run_fleet_mode(shards: usize, threads: usize, mode: TelemetryMode) -> DriveReport {
    let mix = mix();
    let mut engine = FleetEngine::new(config(), shards, SEED)
        .with_threads(threads)
        .with_telemetry(mode);
    engine.add_tenants(mix.tenant_ids());
    let mut driver = FleetDriver::new(engine)
        .with_mix(&mix)
        .expect("every tenant is part of the mix");
    driver.run(SLOTS).expect("mix sources never misbehave")
}

fn run_fleet(
    shards: usize,
    threads: usize,
) -> (FleetMetrics, Vec<(TenantId, Option<WorkloadForecast>)>) {
    let report = run_fleet_mode(shards, threads, TelemetryMode::default());
    (report.metrics, report.forecasts)
}

/// An aggressive rebalancer: fires on 5 % imbalance after a 2-slot warmup,
/// so the heterogeneous mix migrates tenants many times over a short drive.
fn aggressive_rebalancer() -> RebalancerConfig {
    RebalancerConfig::default()
        .with_ratio(1.05)
        .with_warmup_slots(2)
}

fn run_fleet_rebalanced(shards: usize, threads: usize, mode: TelemetryMode) -> DriveReport {
    let mix = mix();
    let mut engine = FleetEngine::new(config(), shards, SEED)
        .with_threads(threads)
        .with_telemetry(mode)
        .with_rebalancer(aggressive_rebalancer());
    engine.add_tenants(mix.tenant_ids());
    let mut driver = FleetDriver::new(engine)
        .with_mix(&mix)
        .expect("every tenant is part of the mix");
    driver.run(SLOTS).expect("mix sources never misbehave")
}

#[test]
fn repeated_runs_are_identical() {
    let (metrics_a, forecasts_a) = run_fleet(4, 2);
    let (metrics_b, forecasts_b) = run_fleet(4, 2);
    assert_eq!(metrics_a, metrics_b);
    assert_eq!(forecasts_a, forecasts_b);
}

#[test]
fn thread_count_does_not_change_results() {
    let (sequential, forecasts_seq) = run_fleet(6, 1);
    for threads in [2, 4, 8] {
        let (parallel, forecasts_par) = run_fleet(6, threads);
        assert_eq!(sequential, parallel, "threads={threads}");
        assert_eq!(forecasts_seq, forecasts_par, "threads={threads}");
    }
}

#[test]
fn shard_layout_does_not_change_results() {
    let (one, forecasts_one) = run_fleet(1, 2);
    for shards in [3, TENANTS, 64] {
        let (many, forecasts_many) = run_fleet(shards, 2);
        assert_eq!(one, many, "shards={shards}");
        assert_eq!(forecasts_one, forecasts_many, "shards={shards}");
    }
}

#[test]
fn the_engine_depends_only_on_its_records() {
    // the engine seed is ignored: two sessions over the same mix whose
    // engines were built with different seeds checkpoint to the same bytes
    let mix = mix();
    let session = |seed: u64| {
        let mut engine = FleetEngine::new(config(), 4, seed)
            .with_threads(2)
            .with_telemetry(TelemetryMode::Logical);
        engine.add_tenants(mix.tenant_ids());
        let mut driver = FleetDriver::new(engine)
            .with_mix(&mix)
            .expect("every tenant is part of the mix");
        let report = driver.run(20).expect("mix sources never misbehave");
        let mut bytes = Vec::new();
        driver.checkpoint(&mut bytes).expect("checkpoint to memory");
        (bytes, report)
    };
    let (bytes_1, report_1) = session(1);
    let (bytes_99, report_99) = session(99);
    assert!(bytes_1 == bytes_99, "checkpoint streams differ");
    assert_eq!(report_1, report_99);
}

#[test]
fn telemetry_mode_does_not_change_forecasts_or_metrics() {
    // the tentpole guarantee of the instrumentation layer: enabling stage
    // tracing must not perturb a single forecast or metric, under any
    // telemetry mode and any thread count
    let (baseline_metrics, baseline_forecasts) = run_fleet(4, 1);
    for mode in [
        TelemetryMode::Disabled,
        TelemetryMode::Monotonic,
        TelemetryMode::Logical,
    ] {
        for threads in [1, 2, 4, 8] {
            let report = run_fleet_mode(4, threads, mode);
            assert_eq!(
                report.metrics, baseline_metrics,
                "{mode:?}, threads={threads}"
            );
            assert_eq!(
                report.forecasts, baseline_forecasts,
                "{mode:?}, threads={threads}"
            );
        }
    }
}

#[test]
fn logical_telemetry_snapshots_are_bit_identical_across_thread_counts() {
    // under the logical clock a histogram is a pure function of the event
    // sequence, and clocks are per shard — so the whole telemetry snapshot
    // (stage histograms, per-slot latency, per-shard loads) must reproduce
    // exactly whatever the thread count
    let baseline = run_fleet_mode(6, 1, TelemetryMode::Logical).telemetry;
    assert_eq!(baseline.slot.count() as usize, SLOTS);
    assert_eq!(baseline.stages.tick.count() as usize, 6 * SLOTS);
    assert_eq!(baseline.stages.predict.count() as usize, TENANTS * SLOTS);
    assert!(baseline.stages.predict.p99() > 0);
    for threads in [2, 4, 8] {
        let telemetry = run_fleet_mode(6, threads, TelemetryMode::Logical).telemetry;
        assert_eq!(telemetry, baseline, "threads={threads}");
    }
}

#[test]
fn rebalancing_does_not_change_forecasts_or_metrics_at_any_thread_count() {
    // the determinism bar of the elastic layer: a fleet that migrates
    // tenants between shards mid-drive must report forecasts and metrics
    // bit-identical to a fleet that never moves anyone
    let (baseline_metrics, baseline_forecasts) = run_fleet(4, 1);
    for threads in [1, 2, 4, 8] {
        let report = run_fleet_rebalanced(4, threads, TelemetryMode::default());
        let rebalance = report
            .telemetry
            .rebalance
            .as_ref()
            .expect("the rebalanced run carries its activity snapshot");
        assert!(
            rebalance.migrations > 0,
            "threads={threads}: the aggressive trigger must actually move tenants"
        );
        assert_eq!(report.metrics, baseline_metrics, "threads={threads}");
        assert_eq!(report.forecasts, baseline_forecasts, "threads={threads}");
    }
}

#[test]
fn rebalanced_logical_snapshots_are_bit_identical_across_thread_counts() {
    // under the logical clock the full telemetry snapshot includes the
    // rebalancer's activity (checks, migrations, per-shard loads), so
    // snapshot equality across thread counts proves the migration schedule
    // itself is thread-independent
    let baseline = run_fleet_rebalanced(6, 1, TelemetryMode::Logical).telemetry;
    let rebalance = baseline.rebalance.as_ref().unwrap();
    assert!(rebalance.migrations > 0);
    assert!(rebalance.checks >= rebalance.triggers);
    for threads in [2, 4, 8] {
        let telemetry = run_fleet_rebalanced(6, threads, TelemetryMode::Logical).telemetry;
        assert_eq!(telemetry, baseline, "threads={threads}");
    }
}

#[test]
fn mid_drive_migration_schedule_is_invisible_in_results() {
    // an explicit control-plane migration schedule — including moves landing
    // after the 16-slot window has begun evicting — must not change a
    // forecast or metric
    let mix = mix();
    let drive = |schedule: &[(usize, TenantId, usize)]| {
        let mut engine = FleetEngine::new(config(), 4, SEED).with_threads(2);
        engine.add_tenants(mix.tenant_ids());
        let mut driver = FleetDriver::new(engine)
            .with_mix(&mix)
            .expect("every tenant is part of the mix");
        for slot in 0..SLOTS {
            for &(at, tenant, to) in schedule {
                if at == slot {
                    driver
                        .engine_mut()
                        .migrate_tenant(tenant, to)
                        .expect("the schedule names hosted tenants");
                }
            }
            driver.step().expect("mix sources never misbehave");
        }
        (driver.engine().metrics(), driver.engine().forecasts())
    };
    let baseline = drive(&[]);
    // slot 18 is past the window: those moves land in the same slot as an
    // eviction on every tenant with a full history
    let migrated = drive(&[
        (3, TenantId(5), 0),
        (18, TenantId(5), 2),
        (18, TenantId(7), 2),
    ]);
    assert_eq!(migrated, baseline);
}

fn dc_config(placement: PlacementKind) -> SystemConfig {
    config().with_datacenter(DatacenterConfig::paper_default().with_placement(placement))
}

fn run_fleet_dc(
    shards: usize,
    threads: usize,
    placement: PlacementKind,
) -> (FleetMetrics, Vec<(TenantId, Option<WorkloadForecast>)>) {
    let mix = mix();
    let mut engine = FleetEngine::new(dc_config(placement), shards, SEED).with_threads(threads);
    engine.add_tenants(mix.tenant_ids());
    let mut driver = FleetDriver::new(engine)
        .with_mix(&mix)
        .expect("every tenant is part of the mix");
    let report = driver.run(SLOTS).expect("mix sources never misbehave");
    (report.metrics, report.forecasts)
}

/// The datacenter-only rollup fields, zeroed — what a datacenter run must
/// share bit-for-bit with an arithmetic run.
fn strip_datacenter(mut metrics: FleetMetrics) -> FleetMetrics {
    for tenant in &mut metrics.per_tenant {
        tenant.sla_violations = 0;
        tenant.sla_dropped_users = 0;
        tenant.sla_latency_ms = 0.0;
        tenant.energy_wh = 0.0;
        tenant.placed_instance_slots = 0;
        tenant.placement_failures = 0;
    }
    metrics.total_sla_violations = 0;
    metrics.total_sla_dropped_users = 0;
    metrics.total_sla_latency_ms = 0.0;
    metrics.total_energy_wh = 0.0;
    metrics.total_placed_instance_slots = 0;
    metrics.total_placement_failures = 0;
    metrics
}

#[test]
fn datacenter_billing_does_not_move_a_forecast_or_a_prediction_metric() {
    // the tentpole guarantee of the datacenter refactor: routing the bill
    // stage through simulated hosts must not change a forecast, an
    // allocation or a billed cent — only add the SLA/energy/placement
    // accounting on top — at any thread count
    let (baseline_metrics, baseline_forecasts) = run_fleet(4, 1);
    assert_eq!(
        baseline_metrics,
        strip_datacenter(baseline_metrics.clone()),
        "the arithmetic run carries no datacenter accounting"
    );
    for placement in PlacementKind::ALL {
        for threads in [1, 2, 4, 8] {
            let (dc_metrics, dc_forecasts) = run_fleet_dc(4, threads, placement);
            let at = format!("{placement}, threads={threads}");
            assert_eq!(dc_forecasts, baseline_forecasts, "{at}");
            assert_eq!(
                dc_metrics.total_cost.to_bits(),
                baseline_metrics.total_cost.to_bits(),
                "{at}"
            );
            assert_eq!(
                strip_datacenter(dc_metrics.clone()),
                baseline_metrics,
                "{at}"
            );
            assert!(dc_metrics.total_placed_instance_slots > 0, "{at}");
            assert!(dc_metrics.total_energy_wh > 0.0, "{at}");
            assert_eq!(dc_metrics.total_placement_failures, 0, "{at}");
        }
    }
}

/// A Zipf fleet (`tenants` tenants, s = 0.8, the heaviest `max_users`
/// strong) on 7 shards and 4 threads, billed arithmetically and against the
/// paper-default datacenter under each placement policy, all four in
/// lockstep for `slots` slots. Asserts that every arm's forecasts equal the
/// arithmetic run's after every slot and that its total cost does to the
/// bit; returns that cost and each policy's rollup, in
/// [`PlacementKind::ALL`] order.
fn zipf_placement_sweep(
    tenants: usize,
    max_users: usize,
    slots: usize,
) -> (f64, Vec<FleetMetrics>) {
    let config = week_config();
    let mix = TenantMix::zipf(tenants, max_users, 0.8, config.groups.ids(), SEED);
    let drive = |config: SystemConfig| {
        let mut engine = FleetEngine::new(config, 7, SEED).with_threads(4);
        engine.add_tenants(mix.tenant_ids());
        FleetDriver::new(engine)
            .with_mix(&mix)
            .expect("every tenant is part of the mix")
    };
    let mut arithmetic = drive(config.clone());
    let mut arms: Vec<FleetDriver> = PlacementKind::ALL
        .into_iter()
        .map(|placement| {
            drive(
                config
                    .clone()
                    .with_datacenter(DatacenterConfig::paper_default().with_placement(placement)),
            )
        })
        .collect();
    for slot in 0..slots {
        arithmetic.step().expect("mix sources never misbehave");
        let forecasts = arithmetic.engine().forecasts();
        for (arm, placement) in arms.iter_mut().zip(PlacementKind::ALL) {
            arm.step().expect("mix sources never misbehave");
            assert_eq!(
                arm.engine().forecasts(),
                forecasts,
                "{placement}, slot {slot}"
            );
        }
    }
    let cost = arithmetic.engine().metrics().total_cost;
    let rollups = arms
        .iter()
        .zip(PlacementKind::ALL)
        .map(|(arm, placement)| {
            let metrics = arm.engine().metrics();
            assert_eq!(metrics.total_cost.to_bits(), cost.to_bits(), "{placement}");
            metrics
        })
        .collect();
    (cost, rollups)
}

#[test]
fn placement_policies_bill_alike_and_spread_energy_on_a_zipf_fleet() {
    // equal cost and equal forecasts under every policy, no placement
    // failure on the paper-default hosts, and the tradeoff the policies
    // exist for: at equal instances, worst-fit powers more hosts than
    // best-fit packs them onto, and its spread instances violate no SLA
    let (cost, rollups) = zipf_placement_sweep(12, 400, 48);
    assert_eq!(format!("{cost:.6}"), "610.214400");
    // (violations, dropped users, placed instance-slots, failures, Wh) of
    // first-fit, best-fit and worst-fit
    let counted: Vec<_> = rollups
        .iter()
        .map(|m| {
            (
                m.total_sla_violations,
                m.total_sla_dropped_users,
                m.total_placed_instance_slots,
                m.total_placement_failures,
                m.total_energy_wh,
            )
        })
        .collect();
    assert_eq!(
        counted,
        [
            (94, 4_886, 1_920, 0, 144_760.0),
            (94, 4_886, 1_920, 0, 144_760.0),
            (0, 4_886, 1_920, 0, 355_320.0),
        ]
    );
    let energy_spread = rollups[2].total_energy_wh / rollups[1].total_energy_wh;
    assert!(
        energy_spread >= 1.01,
        "worst-fit / best-fit energy {energy_spread}"
    );
}

#[test]
fn datacenter_rollups_are_bit_identical_across_thread_counts() {
    // the datacenter's own accounting (SLA scores, energy, placements) is
    // folded in tenant-id order, so it must reproduce exactly whatever the
    // thread count — for every placement policy
    for placement in PlacementKind::ALL {
        let (baseline, baseline_forecasts) = run_fleet_dc(4, 1, placement);
        assert!(baseline.total_placed_instance_slots > 0, "{placement}");
        assert!(baseline.total_energy_wh > 0.0, "{placement}");
        for threads in [2, 4, 8] {
            let (metrics, forecasts) = run_fleet_dc(4, threads, placement);
            assert_eq!(metrics, baseline, "{placement}, threads={threads}");
            assert_eq!(
                forecasts, baseline_forecasts,
                "{placement}, threads={threads}"
            );
        }
    }
}

#[test]
fn datacenter_accounting_survives_a_mid_drive_migration_schedule() {
    // migration moves the whole TenantShard — including its datacenter with
    // the standing placement — so an explicit control-plane schedule must
    // leave every rollup (SLA, energy, placements included) bit-identical
    let mix = mix();
    let drive = |schedule: &[(usize, TenantId, usize)]| {
        let mut engine =
            FleetEngine::new(dc_config(PlacementKind::BestFit), 4, SEED).with_threads(2);
        engine.add_tenants((0..TENANTS as u32).map(TenantId));
        let mut driver = FleetDriver::new(engine)
            .with_mix(&mix)
            .expect("every tenant is part of the mix");
        for slot in 0..SLOTS {
            for &(at, tenant, to) in schedule {
                if at == slot {
                    driver
                        .engine_mut()
                        .migrate_tenant(tenant, to)
                        .expect("the schedule names hosted tenants");
                }
            }
            driver.step().expect("mix sources never misbehave");
        }
        assert!(driver.engine().placement_health().is_ok());
        (driver.engine().metrics(), driver.engine().forecasts())
    };
    let baseline = drive(&[]);
    assert!(baseline.0.total_energy_wh > 0.0);
    let migrated = drive(&[
        (3, TenantId(5), 0),
        (18, TenantId(5), 2),
        (18, TenantId(7), 2),
    ]);
    assert_eq!(migrated, baseline);
}

// ---------------------------------------------------------------------------
// Durable sessions: checkpoint/restore resume
// ---------------------------------------------------------------------------

/// The full-featured configuration the resume bar is set against:
/// datacenter billing and the indexed scan policy both on.
fn resume_config() -> SystemConfig {
    dc_config(PlacementKind::BestFit).with_indexed_scan()
}

/// A driver with everything stateful switched on: rebalancing, datacenter
/// billing, indexed predictors and the logical telemetry clock (so the
/// telemetry snapshot itself is comparable across runs).
fn resume_driver(threads: usize) -> FleetDriver {
    let mix = mix();
    let mut engine = FleetEngine::new(resume_config(), 4, SEED)
        .with_threads(threads)
        .with_telemetry(TelemetryMode::Logical)
        .with_rebalancer(aggressive_rebalancer());
    engine.add_tenants(mix.tenant_ids());
    FleetDriver::new(engine)
        .with_mix(&mix)
        .expect("every tenant is part of the mix")
}

/// Freshly constructed replacement sources for [`FleetDriver::restore`], in
/// the registration order `with_mix` used.
fn mix_sources() -> Vec<(Option<TenantId>, Box<dyn RecordSource>)> {
    let mix = mix();
    mix.tenant_ids()
        .map(|tenant| {
            let source = TenantMixSource::new(&mix, tenant).expect("tenant is part of the mix");
            (Some(tenant), Box::new(source) as Box<dyn RecordSource>)
        })
        .collect()
}

#[test]
fn restore_then_drive_is_bit_identical_to_the_uninterrupted_run() {
    // the tentpole guarantee of durable sessions: checkpoint at slot k,
    // restore into a fresh process-shaped driver, drive to slot n — and the
    // report (forecasts, metrics, datacenter accounting, ingestion
    // accounting) plus the logical-clock telemetry snapshot must equal the
    // uninterrupted run bit for bit, at any thread count. Slot 18 is past
    // the 16-slot window, so that checkpoint lands mid-eviction.
    let baseline = {
        let mut driver = resume_driver(1);
        driver.run(SLOTS).expect("mix sources never misbehave")
    };
    assert!(baseline.metrics.total_energy_wh > 0.0, "datacenter is on");
    assert!(
        baseline
            .telemetry
            .rebalance
            .as_ref()
            .expect("rebalancer is on")
            .migrations
            > 0,
        "the aggressive trigger must actually move tenants"
    );
    for checkpoint_slot in [12, 18] {
        for threads in [1, 2, 4, 8] {
            let mut driver = resume_driver(threads);
            driver.run(checkpoint_slot).expect("pre-checkpoint drive");
            let mut bytes = Vec::new();
            driver.checkpoint(&mut bytes).expect("checkpoint to memory");
            let mut source = bytes.as_slice();
            let mut resumed = FleetDriver::restore(&mut source, &resume_config(), mix_sources())
                .expect("restore from fresh bytes");
            assert_eq!(
                resumed.engine().forecasts(),
                driver.engine().forecasts(),
                "slot {checkpoint_slot}, threads={threads}: restored forecasts \
                 must match the checkpointed engine before any further slot"
            );
            let report = resumed
                .run(SLOTS - checkpoint_slot)
                .expect("post-restore drive");
            assert_eq!(
                report, baseline,
                "slot {checkpoint_slot}, threads={threads}"
            );
            assert_eq!(
                report.telemetry, baseline.telemetry,
                "slot {checkpoint_slot}, threads={threads}: logical-clock telemetry"
            );
        }
    }
}

/// Wire bytes and sections of a [`FleetDriver::checkpoint`] taken after
/// `warmup` slots of a heterogeneous mix of `tenants` tenants (24 users
/// nominal) on 7 shards and 4 threads, under the logical clock (the stage
/// histograms ride in the checkpoint, and under a wall clock their sizes
/// vary run to run).
fn checkpoint_size(tenants: usize, warmup: usize) -> (u64, u32) {
    let config = week_config();
    let mix = TenantMix::heterogeneous(tenants, 24, config.groups.ids(), SEED);
    let mut engine = FleetEngine::new(config, 7, SEED)
        .with_threads(4)
        .with_telemetry(TelemetryMode::Logical);
    engine.add_tenants(mix.tenant_ids());
    let mut driver = FleetDriver::new(engine)
        .with_mix(&mix)
        .expect("every tenant is part of the mix");
    driver.run(warmup).expect("mix sources never misbehave");
    let mut bytes = Vec::new();
    let stats = driver.checkpoint(&mut bytes).expect("checkpoint to memory");
    (stats.bytes, stats.sections)
}

#[test]
fn checkpoint_bytes_and_sections_grow_with_the_fleet_as_pinned() {
    // the engine, its shards and one mix cursor per tenant: a changed
    // figure is a changed wire or a changed amount of retained state
    let sizes = [2, 4, 8].map(|tenants| checkpoint_size(tenants, 24));
    assert_eq!(sizes, [(8_560, 12), (15_983, 12), (29_069, 12)]);
}

#[test]
fn engine_checkpoint_roundtrips_without_a_driver() {
    // the engine-level API stands alone: a restored engine reports the same
    // forecasts, metrics and telemetry snapshot as the one it was taken from
    let mut driver = resume_driver(2);
    driver.run(SLOTS / 2).expect("mix sources never misbehave");
    let mut engine = driver.into_engine();
    let mut bytes = Vec::new();
    let stats = engine.checkpoint(&mut bytes).expect("checkpoint to memory");
    assert_eq!(u64::try_from(bytes.len()).unwrap(), stats.bytes);
    assert!(
        stats.sections >= 4 + 4,
        "meta, router, engine, rebalancer + one per shard"
    );
    let mut source = bytes.as_slice();
    let restored = FleetEngine::restore(&mut source, &resume_config()).expect("restore");
    assert_eq!(restored.forecasts(), engine.forecasts());
    assert_eq!(restored.metrics(), engine.metrics());
    assert_eq!(restored.telemetry(), engine.telemetry());
    assert_eq!(restored.slot_index(), engine.slot_index());
}

#[test]
fn back_to_back_checkpoints_restore_in_sequence_from_one_slice() {
    // a checkpoint appends behind what the buffer holds, and a restore
    // reads one stream off the front of the slice and steps past it
    let mut driver = resume_driver(2);
    driver.run(SLOTS / 3).expect("mix sources never misbehave");
    let mut early = driver.into_engine();
    let mut bytes = Vec::new();
    let first = early.checkpoint(&mut bytes).expect("checkpoint to memory");
    let mut driver = resume_driver(2);
    driver.run(SLOTS / 2).expect("mix sources never misbehave");
    let mut late = driver.into_engine();
    let second = late.checkpoint(&mut bytes).expect("checkpoint to memory");
    assert_eq!(
        u64::try_from(bytes.len()).unwrap(),
        first.bytes + second.bytes
    );

    let mut source = bytes.as_slice();
    let restored_early = FleetEngine::restore(&mut source, &resume_config()).expect("first");
    assert_eq!(u64::try_from(source.len()).unwrap(), second.bytes);
    let restored_late = FleetEngine::restore(&mut source, &resume_config()).expect("second");
    assert!(source.is_empty(), "both streams consumed");
    assert_eq!(restored_early.slot_index(), early.slot_index());
    assert_eq!(restored_early.forecasts(), early.forecasts());
    assert_eq!(restored_late.slot_index(), late.slot_index());
    assert_eq!(restored_late.forecasts(), late.forecasts());
    assert_eq!(restored_late.metrics(), late.metrics());
}

#[test]
fn a_restore_leaves_whatever_follows_its_stream() {
    let mut driver = resume_driver(2);
    driver.run(6).expect("mix sources never misbehave");
    let mut bytes = Vec::new();
    driver.checkpoint(&mut bytes).expect("checkpoint to memory");
    let junk = b"\xFF\x00not a snapshot";
    bytes.extend_from_slice(junk);
    let mut source = bytes.as_slice();
    let resumed = FleetDriver::restore(&mut source, &resume_config(), mix_sources())
        .expect("the stream in front of the junk is whole");
    assert_eq!(source, junk);
    assert_eq!(resumed.engine().forecasts(), driver.engine().forecasts());
}

#[test]
fn restore_rejects_disagreeing_inputs_with_typed_errors() {
    let mut driver = resume_driver(2);
    driver.run(6).expect("mix sources never misbehave");
    let mut bytes = Vec::new();
    driver.checkpoint(&mut bytes).expect("checkpoint to memory");

    // a configuration that disagrees with the checkpoint's fingerprint
    let wrong_config = resume_config().with_slot_length_ms(12_345.0);
    let mut source = bytes.as_slice();
    assert!(matches!(
        FleetDriver::restore(&mut source, &wrong_config, mix_sources()),
        Err(SnapshotError::Malformed { .. })
    ));

    // the wrong number of replacement sources
    let mut source = bytes.as_slice();
    assert!(matches!(
        FleetDriver::restore(&mut source, &resume_config(), Vec::new()),
        Err(SnapshotError::Malformed { .. })
    ));

    // a source bound to the wrong tenant
    let mut swapped = mix_sources();
    swapped[0].0 = swapped[1].0;
    let mut source = bytes.as_slice();
    assert!(matches!(
        FleetDriver::restore(&mut source, &resume_config(), swapped),
        Err(SnapshotError::Malformed { .. })
    ));

    // truncation and corruption surface as their own variants
    let mut source = &bytes[..bytes.len() - 3];
    assert!(matches!(
        FleetDriver::restore(&mut source, &resume_config(), mix_sources()),
        Err(SnapshotError::Truncated { .. })
    ));
    let mut flipped = bytes.clone();
    let at = flipped.len() / 2;
    flipped[at] ^= 0x40;
    let mut source = flipped.as_slice();
    assert!(
        FleetDriver::restore(&mut source, &resume_config(), mix_sources()).is_err(),
        "a flipped byte must never restore silently"
    );
}

#[test]
fn an_indexed_fleet_resumed_midway_matches_a_linear_one() {
    // the summary tree inside a FleetEngine: one fleet's predictors index
    // from 24 retained slots in a 32-slot window, so the tree is built,
    // checkpointed (and recomputed on restore) and then evicts alongside the
    // history; the other fleet scans linearly. Same mix, same answers.
    const DRIVE: usize = 40;
    const CHECKPOINT: usize = 28;
    let linear = SystemConfig::paper_three_groups().with_history_window(32);
    let indexed = linear
        .clone()
        .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(24));
    let mix = mix();
    let drive = |config: &SystemConfig, threads: usize| {
        let mut engine = FleetEngine::new(config.clone(), 4, SEED).with_threads(threads);
        engine.add_tenants(mix.tenant_ids());
        let mut driver = FleetDriver::new(engine)
            .with_mix(&mix)
            .expect("every tenant is part of the mix");
        driver.run(CHECKPOINT).expect("pre-checkpoint drive");
        let mut bytes = Vec::new();
        driver.checkpoint(&mut bytes).expect("checkpoint to memory");
        let mut source = bytes.as_slice();
        let mut resumed =
            FleetDriver::restore(&mut source, config, mix_sources()).expect("restore");
        resumed.run(DRIVE - CHECKPOINT).expect("post-restore drive");
        let engine = resumed.engine();
        (
            engine.forecasts(),
            engine.metrics(),
            engine.predictor_stats().index_builds,
        )
    };
    for threads in [1, 2] {
        let (forecasts, metrics, builds) = drive(&linear, threads);
        assert_eq!(builds, 0, "threads={threads}: no tree when linear");
        let (indexed_forecasts, indexed_metrics, indexed_builds) = drive(&indexed, threads);
        assert!(indexed_builds > 0, "threads={threads}: the tree was built");
        assert_eq!(indexed_forecasts, forecasts, "threads={threads}");
        assert_eq!(indexed_metrics, metrics, "threads={threads}");
    }
}

/// Drives [`mix`] through a fleet on `fleet` (5 shards, `threads` threads)
/// beside a bare [`TenantShard`] per tenant on `alone` (no router, no
/// engine, no parallelism) for `slots` slots, asserting after every slot
/// that each fleet forecast equals its tenant's alone, and at the end that
/// the rollups agree and every shard ticked every slot; returns the drive's
/// report and the number of records the mix generated. The fleet reads
/// the mix through one [`TenantMixSource`] per tenant, or, with
/// `shuffled_lane`, through one shared [`SlotBatchSource`] lane fed every
/// tenant's records in a seeded random order, the way concurrent arrivals
/// reach a front-end.
fn drive_beside_each_tenant_alone(
    fleet: SystemConfig,
    alone: &SystemConfig,
    slots: usize,
    threads: usize,
    shuffled_lane: bool,
) -> (DriveReport, usize) {
    let mix = mix();
    let slot_length_ms = fleet.slot_length_ms;
    let mut engine = FleetEngine::new(fleet, 5, SEED).with_threads(threads);
    engine.add_tenants(mix.tenant_ids());
    let (lane, source) = SlotBatchSource::channel();
    let mut driver = match shuffled_lane {
        true => FleetDriver::new(engine).with_shared_source(source),
        false => FleetDriver::new(engine).with_mix(&mix).unwrap(),
    };
    let mut replicas: Vec<TenantShard> = mix
        .tenant_ids()
        .map(|t| TenantShard::new(t, alone))
        .collect();
    // the replicas' own streams: the same draws the mix sources make
    let mut streams: Vec<_> = mix.tenant_ids().map(|t| mix.stream_for(t)).collect();
    let mut arrival_order = StdRng::seed_from_u64(SEED);
    let mut generated = 0;

    for slot in 0..slots {
        let now_ms = (slot + 1) as f64 * slot_length_ms;
        let mut batch = Vec::new();
        for (tenant, stream) in replicas.iter_mut().zip(&mut streams) {
            let records = mix.slot_records(tenant.id(), slot, stream);
            generated += records.len();
            batch.extend(
                records
                    .iter()
                    .map(|&(g, u)| SlotRecord::new(tenant.id(), g, u)),
            );
            let mut builder = TimeSlotBuilder::with_capacity(slot, records.len());
            builder.extend(records);
            tenant.tick(builder.build(), now_ms, &mut ());
        }
        if shuffled_lane {
            // Fisher–Yates: consecutive records seldom share a tenant
            for i in (1..batch.len()).rev() {
                batch.swap(i, arrival_order.gen_range(0..i + 1));
            }
            lane.push_slot(batch);
        }
        driver
            .step()
            .expect("mix sources and the lane never misroute");
        // compare after every slot, not just at the end
        for ((fleet_id, fleet_forecast), tenant) in
            driver.engine().forecasts().iter().zip(&replicas)
        {
            assert_eq!(*fleet_id, tenant.id());
            assert_eq!(
                fleet_forecast.as_ref(),
                tenant.forecast(),
                "slot {slot}, tenant {fleet_id}"
            );
        }
    }
    // the accounting agrees too
    let rollup = driver.engine().metrics();
    let alone_rollup =
        FleetMetrics::aggregate(replicas.iter().map(|t| t.metrics().clone()).collect());
    assert_eq!(rollup, alone_rollup);
    let report = driver.report();
    let shards = &report.telemetry.shards;
    assert!(shards.iter().all(|shard| shard.ticks == slots as u64));
    assert_eq!(
        shards.iter().map(|shard| shard.tenants).sum::<usize>(),
        TENANTS
    );
    (report, generated)
}

#[test]
fn fleet_forecasts_are_bit_identical_to_each_tenant_alone() {
    drive_beside_each_tenant_alone(config(), &config(), SLOTS, 4, false);
}

#[test]
fn a_shuffled_lane_fleet_is_bit_identical_to_tree_forced_replicas_past_eviction() {
    // through a shuffled shared lane, against replicas that keep the
    // summary tree from 64 retained slots while the fleet scans linearly,
    // past the 168-slot window: the tree agrees with the serial scan through
    // continuous eviction
    let tree = week_config().with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(64));
    let (report, _) = drive_beside_each_tenant_alone(week_config(), &tree, 200, 2, true);
    // the router's hash placement and the records each shard staged
    let shards: Vec<(usize, u64)> = report
        .telemetry
        .shards
        .iter()
        .map(|shard| (shard.tenants, shard.records))
        .collect();
    assert_eq!(
        shards,
        [(3, 4_536), (1, 997), (3, 3_567), (5, 10_313), (0, 0)]
    );
}

#[test]
fn a_shuffled_lane_delivers_every_record_to_its_tenant_once() {
    // the lane carries every tenant's records in one seeded random order:
    // each arrives, once, at the shard hosting its tenant (the forecasts and
    // rollups the drive compares would differ from the replicas' otherwise)
    let (report, generated) = drive_beside_each_tenant_alone(config(), &config(), SLOTS, 2, true);
    assert!(generated > 0);
    assert_eq!(report.records, generated);
    assert_eq!((report.late_records, report.dropped_records), (0, 0));
    let staged: u64 = report
        .telemetry
        .shards
        .iter()
        .map(|shard| shard.records)
        .sum();
    assert_eq!(staged, generated as u64);
}

#[test]
fn slot_frames_follow_their_tenants_through_the_control_plane() {
    // every hosted tenant's slot builder keeps a frame on the ids of its
    // last slot. An onboarding that inserts ahead of a shard's tenants, a
    // migration, an extraction and a checkpoint/restore (whose tenants
    // start frameless) move tenants about; each forecast must still equal
    // the tenant alone, whose slots are built by fresh, frameless builders
    let mix = mix();
    let late = TenantId(0);
    let (migrated, extracted) = (TenantId(5), TenantId(7));
    let mut engine = FleetEngine::new(config(), 3, SEED).with_threads(2);
    engine.add_tenants(mix.tenant_ids().filter(|&t| t != late));
    let (mut lane, source) = SlotBatchSource::channel();
    let mut driver = FleetDriver::new(engine).with_shared_source(source);
    let mut alone: Vec<Option<TenantShard>> = mix
        .tenant_ids()
        .map(|t| (t != late).then(|| TenantShard::new(t, &config())))
        .collect();
    let mut streams: Vec<_> = mix.tenant_ids().map(|t| mix.stream_for(t)).collect();

    for slot in 0..SLOTS {
        match slot {
            6 => {
                let engine = driver.engine_mut();
                engine.add_tenant(late);
                let home = engine.shard_of(late);
                assert!(
                    engine
                        .tenant_ids()
                        .iter()
                        .any(|&t| t > late && engine.shard_of(t) == home),
                    "the late tenant lands ahead of another on shard {home}"
                );
                alone[late.0 as usize] = Some(TenantShard::new(late, &config()));
            }
            10 => {
                let engine = driver.engine_mut();
                let to = (engine.shard_of(migrated) + 1) % engine.shard_count();
                engine
                    .migrate_tenant(migrated, to)
                    .expect("a hosted tenant");
            }
            14 => {
                driver
                    .engine_mut()
                    .extract_tenant(extracted)
                    .expect("a hosted tenant");
                alone[extracted.0 as usize] = None;
            }
            18 => {
                let mut bytes = Vec::new();
                let mut engine = driver.into_engine();
                engine.checkpoint(&mut bytes).expect("checkpoint to memory");
                let restored = FleetEngine::restore(&mut bytes.as_slice(), &config())
                    .expect("restore from fresh bytes")
                    .with_threads(2);
                let source;
                (lane, source) = SlotBatchSource::channel();
                driver = FleetDriver::new(restored).with_shared_source(source);
            }
            _ => {}
        }
        let now_ms = (slot + 1) as f64 * config().slot_length_ms;
        let mut batch = Vec::new();
        for (tenant, stream) in mix.tenant_ids().zip(&mut streams) {
            let records = mix.slot_records(tenant, slot, stream);
            batch.extend(records.iter().map(|&(g, u)| SlotRecord::new(tenant, g, u)));
            if let Some(replica) = &mut alone[tenant.0 as usize] {
                replica.tick(TimeSlot::from_assignments(slot, records), now_ms, &mut ());
            }
        }
        lane.push_slot(batch);
        driver.step().expect("a shared lane never misroutes");
        let expected: Vec<_> = alone
            .iter()
            .flatten()
            .map(|replica| (replica.id(), replica.forecast().cloned()))
            .collect();
        assert_eq!(driver.engine().forecasts(), expected, "slot {slot}");
    }
}
