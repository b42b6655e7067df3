//! Shard determinism: the same `TenantMix` seed must produce identical
//! `FleetMetrics` (and forecasts) across repeated runs, across thread
//! counts, across shard counts — and per-tenant results must be
//! bit-identical to running each tenant alone. All runs are driven through
//! the streaming ingestion API (`FleetDriver` over per-tenant
//! `TenantMixSource`s), the one way records reach the engine, and the
//! engine is a pure function of those records.

use mca_cloudsim::{DatacenterConfig, PlacementKind};
use mca_core::{IndexPolicy, SystemConfig, TimeSlot, TimeSlotBuilder, WorkloadForecast};
use mca_fleet::{
    DriveReport, FleetDriver, FleetEngine, FleetMetrics, RebalancerConfig, RecordSource,
    SlotBatchSource, SlotRecord, TelemetryMode, TenantMixSource, TenantShard,
};
use mca_offload::TenantId;
use mca_snapshot::SnapshotError;
use mca_workload::TenantMix;

const SEED: u64 = 20170605;
const TENANTS: usize = 12;
const SLOTS: usize = 24;

fn config() -> SystemConfig {
    SystemConfig::paper_three_groups().with_history_window(16)
}

fn mix() -> TenantMix {
    TenantMix::heterogeneous(TENANTS, 12, config().groups.ids(), SEED)
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
    for threads in [1, 2, 4, 8] {
        let (dc_metrics, dc_forecasts) = run_fleet_dc(4, threads, PlacementKind::FirstFit);
        assert_eq!(dc_forecasts, baseline_forecasts, "threads={threads}");
        assert_eq!(
            strip_datacenter(dc_metrics.clone()),
            baseline_metrics,
            "threads={threads}"
        );
        assert!(
            dc_metrics.total_placed_instance_slots > 0,
            "threads={threads}"
        );
        assert!(dc_metrics.total_energy_wh > 0.0, "threads={threads}");
        assert_eq!(dc_metrics.total_placement_failures, 0, "threads={threads}");
    }
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

#[test]
fn fleet_forecasts_are_bit_identical_to_each_tenant_alone() {
    let mix = mix();
    let mut engine = FleetEngine::new(config(), 5, SEED).with_threads(4);
    engine.add_tenants(mix.tenant_ids());
    let mut driver = FleetDriver::new(engine).with_mix(&mix).unwrap();

    // each tenant alone: a bare TenantShard (no router, no engine, no
    // parallelism) consuming the same mix through its canonical streams
    let mut alone: Vec<TenantShard> = mix
        .tenant_ids()
        .map(|t| TenantShard::new(t, &config()))
        .collect();
    let mut streams: Vec<_> = mix.tenant_ids().map(|t| mix.stream_for(t)).collect();

    for slot in 0..SLOTS {
        driver.step().expect("mix sources never misbehave");
        let now_ms = (slot + 1) as f64 * config().slot_length_ms;
        for (tenant, stream) in alone.iter_mut().zip(&mut streams) {
            let records = mix.slot_records(tenant.id(), slot, stream);
            let mut builder = TimeSlotBuilder::with_capacity(slot, records.len());
            builder.extend(records);
            tenant.tick(builder.build(), now_ms, &mut ());
        }
        // compare after every slot, not just at the end
        for ((fleet_id, fleet_forecast), tenant) in driver.engine().forecasts().iter().zip(&alone) {
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
    let alone_rollup = FleetMetrics::aggregate(alone.iter().map(|t| t.metrics().clone()).collect());
    assert_eq!(rollup, alone_rollup);
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
