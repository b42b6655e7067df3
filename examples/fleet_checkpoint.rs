//! Kill-and-resume smoke for durable fleet sessions: a full-featured fleet
//! (rebalancer firing, datacenter billing on, logical telemetry clock) is
//! driven half way, checkpointed to disk, **dropped** — the simulated
//! crash — and restored into a fresh process-shaped driver that finishes
//! the drive. The resumed session must match an uninterrupted reference
//! run bit for bit: forecasts, metrics, datacenter accounting, ingestion
//! accounting and the logical-clock telemetry snapshot.
//!
//! ```bash
//! cargo run --release --example fleet_checkpoint
//! ```
//!
//! Exits non-zero (assert) on any divergence, and on any change to the
//! checkpoint's bytes: the session runs on the logical clock, so the
//! stream's length and CRC-32 repeat on every run and machine. CI runs this
//! as the checkpoint gate.

use mobile_code_acceleration::cloudsim::{DatacenterConfig, PlacementKind};
use mobile_code_acceleration::core::SystemConfig;
use mobile_code_acceleration::fleet::{
    FleetDriver, FleetEngine, RebalancerConfig, RecordSource, TelemetryMode, TenantMixSource,
};
use mobile_code_acceleration::offload::TenantId;
use mobile_code_acceleration::snapshot::crc32;
use mobile_code_acceleration::workload::TenantMix;
use std::time::Instant;

const SEED: u64 = 20170605;
const TENANTS: usize = 12;
const SLOTS: usize = 32;
const CHECKPOINT_AT: usize = 17; // past the 16-slot window: mid-eviction
const SHARDS: usize = 4;
const THREADS: usize = 2;
/// The checkpoint's length and CRC-32: a different value means the wire
/// format or the checkpointed state changed.
const CHECKPOINT_BYTES: usize = 35_932;
const CHECKPOINT_CRC: u32 = 0xcd4f_9d6b;

fn config() -> SystemConfig {
    SystemConfig::paper_three_groups()
        .with_history_window(16)
        .with_indexed_scan()
        .with_datacenter(DatacenterConfig::paper_default().with_placement(PlacementKind::BestFit))
}

fn mix() -> TenantMix {
    TenantMix::heterogeneous(TENANTS, 12, config().groups.ids(), SEED)
}

fn fresh_driver() -> FleetDriver {
    let mix = mix();
    let mut engine = FleetEngine::new(config(), SHARDS, SEED)
        .with_threads(THREADS)
        .with_telemetry(TelemetryMode::Logical)
        .with_rebalancer(
            RebalancerConfig::default()
                .with_ratio(1.05)
                .with_warmup_slots(2),
        );
    engine.add_tenants(mix.tenant_ids());
    FleetDriver::new(engine)
        .with_mix(&mix)
        .expect("every tenant is part of the mix")
}

fn main() {
    // the uninterrupted reference run
    let reference = {
        let mut driver = fresh_driver();
        driver.run(SLOTS).expect("mix sources never misbehave")
    };
    assert!(
        reference.metrics.total_energy_wh > 0.0,
        "datacenter billing is on"
    );

    // the session that will "crash": drive half way, checkpoint to disk
    let checkpoint_path = std::env::temp_dir().join("mca_fleet_checkpoint.bin");
    let (stats, checkpoint_ms, forecasts_at_kill) = {
        let mut driver = fresh_driver();
        driver.run(CHECKPOINT_AT).expect("pre-crash drive");
        let mut bytes = Vec::new();
        let start = Instant::now();
        let stats = driver.checkpoint(&mut bytes).expect("checkpoint to memory");
        let checkpoint_ms = start.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(stats.bytes as usize, bytes.len());
        assert_eq!(
            (bytes.len(), crc32(&bytes)),
            (CHECKPOINT_BYTES, CHECKPOINT_CRC),
            "the checkpoint's bytes changed"
        );
        std::fs::write(&checkpoint_path, &bytes).expect("write checkpoint file");
        (stats, checkpoint_ms, driver.engine().forecasts())
        // the driver (and its engine, sources, RNG streams) drops here: the
        // process-shaped state is gone, only the file survives
    };
    println!(
        "checkpoint at slot {CHECKPOINT_AT}: {} bytes (CRC-32 {CHECKPOINT_CRC:#010x}), {} sections, \
         {:.3} ms -> {}",
        stats.bytes,
        stats.sections,
        checkpoint_ms,
        checkpoint_path.display(),
    );

    // the resumed process: fresh sources over the same mix, cursors loaded
    let mix = mix();
    let sources: Vec<(Option<TenantId>, Box<dyn RecordSource>)> = mix
        .tenant_ids()
        .map(|tenant| {
            let source = TenantMixSource::new(&mix, tenant).expect("tenant is part of the mix");
            (Some(tenant), Box::new(source) as Box<dyn RecordSource>)
        })
        .collect();
    let bytes = std::fs::read(&checkpoint_path).expect("read checkpoint file");
    let mut source = bytes.as_slice();
    let start = Instant::now();
    let mut resumed =
        FleetDriver::restore(&mut source, &config(), sources).expect("restore from disk");
    let restore_ms = start.elapsed().as_secs_f64() * 1_000.0;
    assert!(source.is_empty(), "the restore read the whole file");
    println!("restore: {restore_ms:.3} ms");
    assert_eq!(
        resumed.engine().forecasts(),
        forecasts_at_kill,
        "the restored engine resumes exactly where the crash left it"
    );

    let report = resumed
        .run(SLOTS - CHECKPOINT_AT)
        .expect("post-restore drive");
    assert_eq!(
        report, reference,
        "resumed forecasts/metrics/accounting must equal the uninterrupted run"
    );
    assert_eq!(
        report.telemetry, reference.telemetry,
        "logical-clock telemetry must equal the uninterrupted run"
    );
    let rebalance = report
        .telemetry
        .rebalance
        .as_ref()
        .expect("the smoke runs with a rebalancer");
    println!(
        "resumed drive: {} slots, {} records, ${:.2} billed, {:.1} wh metered, \
         {} migrations — bit-identical to the uninterrupted run",
        report.slots,
        report.records,
        report.metrics.total_cost,
        report.metrics.total_energy_wh,
        rebalance.migrations,
    );
    std::fs::remove_file(&checkpoint_path).ok();
    println!("kill-and-resume smoke: OK");
}
