//! Checkpoint/restore sweep for durable fleet sessions: wire bytes and
//! section count of [`FleetDriver::checkpoint`] — the engine plus one
//! [`TenantMixSource`] cursor per tenant, because only the driver can resume
//! a mix — as the fleet grows, with every [`FleetDriver::restore`] verified
//! bit-identical. What a checkpoint or a restore costs in time is the
//! end-to-end benchmark's to say (`checkpoint_p50_ms` / `restore_p50_ms` in
//! `BENCHMARK.json`, on fleets thirty times this size).
//!
//! Each arm drives a heterogeneous mix half way, checkpoints to memory,
//! restores into a fresh driver, and drives **both** drivers to the end —
//! the report only counts an arm as passing when the resumed run's
//! forecasts, metrics and ingestion accounting equal the uninterrupted one
//! exactly.
//!
//! `cargo run --release -p mca-bench --bin bench_snapshot` regenerates
//! `BENCH_snapshot.json` at the repository root, byte for byte (the engines
//! run under the logical clock), and gates on resume identity; `--check`
//! compares instead of writing, as CI does.

use mca_fleet::{FleetDriver, FleetEngine, RecordSource, TelemetryMode, TenantMixSource};
use mca_offload::TenantId;
use mca_telemetry::json::JsonWriter;
use mca_workload::TenantMix;

/// Shape of the checkpoint/restore sweep.
#[derive(Debug, Clone)]
pub struct SnapshotWorkload {
    /// Fleet sizes (tenant counts) to measure, one arm each.
    pub fleet_sizes: Vec<usize>,
    /// Users of the heaviest tenant in each mix.
    pub users_per_tenant: usize,
    /// Number of shards each engine runs.
    pub shards: usize,
    /// Thread count of every engine.
    pub threads: usize,
    /// Slots driven before the checkpoint.
    pub warmup_slots: usize,
    /// Slots driven after the restore, on both arms.
    pub resume_slots: usize,
}

impl SnapshotWorkload {
    /// The acceptance-bar configuration.
    pub fn headline() -> Self {
        Self {
            fleet_sizes: vec![8, 16, 32, 64, 128],
            users_per_tenant: 24,
            shards: 7,
            threads: 4,
            warmup_slots: 96,
            resume_slots: 96,
        }
    }
}

/// One fleet size's measurements.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotPoint {
    /// Tenants in this arm's fleet.
    pub tenants: usize,
    /// Checkpoint size on the wire, bytes.
    pub bytes: u64,
    /// Sections in the stream.
    pub sections: u32,
    /// Whether the resumed drive finished bit-identical to the
    /// uninterrupted one (forecasts, metrics and ingestion accounting).
    pub resume_identical: bool,
}

/// Measurements of one checkpoint/restore sweep.
#[derive(Debug, Clone)]
pub struct SnapshotBenchReport {
    /// The workload shape measured.
    pub workload: SnapshotWorkload,
    /// One point per fleet size, in [`SnapshotWorkload::fleet_sizes`] order.
    pub points: Vec<SnapshotPoint>,
}

impl SnapshotBenchReport {
    /// True when every arm resumed bit-identically.
    pub fn all_identical(&self) -> bool {
        self.points.iter().all(|p| p.resume_identical)
    }

    /// The report as the `BENCH_snapshot.json` document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty(2);
        w.object(|w| {
            w.key("benchmark").string("fleet_snapshot");
            w.key("users_per_tenant")
                .u64(self.workload.users_per_tenant as u64);
            w.key("shards").u64(self.workload.shards as u64);
            w.key("threads").u64(self.workload.threads as u64);
            w.key("warmup_slots").u64(self.workload.warmup_slots as u64);
            w.key("resume_slots").u64(self.workload.resume_slots as u64);
            w.key("all_identical").bool(self.all_identical());
            w.key("points").array(|w| {
                for point in &self.points {
                    w.object(|w| {
                        w.key("tenants").u64(point.tenants as u64);
                        w.key("bytes").u64(point.bytes);
                        w.key("sections").u64(u64::from(point.sections));
                        w.key("resume_identical").bool(point.resume_identical);
                    });
                }
            });
        });
        w.finish()
    }
}

/// Runs the sweep: per fleet size, warm up, checkpoint, restore, and drive
/// both the original and the resumed driver to the end under the same mix.
pub fn run(workload: &SnapshotWorkload, seed: u64) -> SnapshotBenchReport {
    let config = crate::fleet::bench_config();
    let points = workload
        .fleet_sizes
        .iter()
        .map(|&tenants| {
            let mix = TenantMix::heterogeneous(
                tenants,
                workload.users_per_tenant,
                config.groups.ids(),
                seed,
            );
            // the logical clock: the stage histograms ride in the checkpoint,
            // and under the monotonic one their sizes differ run to run
            let mut engine = FleetEngine::new(config.clone(), workload.shards, seed)
                .with_threads(workload.threads)
                .with_telemetry(TelemetryMode::Logical);
            engine.add_tenants(mix.tenant_ids());
            let mut driver = FleetDriver::new(engine)
                .with_mix(&mix)
                .expect("every hosted tenant is in the mix");
            driver
                .run(workload.warmup_slots)
                .expect("mix sources never misbehave");

            let mut bytes = Vec::new();
            let stats = driver
                .checkpoint(&mut bytes)
                .expect("checkpointing to memory cannot fail");
            // fresh sources over the same mix, in `with_mix`'s order
            let sources: Vec<(Option<TenantId>, Box<dyn RecordSource>)> = mix
                .tenant_ids()
                .map(|tenant| {
                    let source = TenantMixSource::new(&mix, tenant).expect("tenant is in the mix");
                    (Some(tenant), Box::new(source) as Box<dyn RecordSource>)
                })
                .collect();
            let mut resumed = FleetDriver::restore(&mut bytes.as_slice(), &config, sources)
                .expect("the bytes were just written");

            let restored_exactly = resumed.engine().forecasts() == driver.engine().forecasts();
            let finished = driver
                .run(workload.resume_slots)
                .expect("mix sources never misbehave");
            let resume_identical = restored_exactly
                && resumed
                    .run(workload.resume_slots)
                    .expect("mix sources never misbehave")
                    == finished;

            SnapshotPoint {
                tenants,
                bytes: stats.bytes,
                sections: stats.sections,
                resume_identical,
            }
        })
        .collect();

    SnapshotBenchReport {
        workload: workload.clone(),
        points,
    }
}

/// Prints the sweep as an aligned table.
pub fn print(report: &SnapshotBenchReport) {
    println!(
        "fleet checkpoint/restore sweep: {} shards, {} thread(s), {} users/tenant, \
         checkpoint after {} slots, {} slots resumed",
        report.workload.shards,
        report.workload.threads,
        report.workload.users_per_tenant,
        report.workload.warmup_slots,
        report.workload.resume_slots,
    );
    println!(
        "  {:<10} {:>12} {:>10} {:>10}",
        "tenants", "bytes", "sections", "resume"
    );
    for point in &report.points {
        println!(
            "  {:<10} {:>12} {:>10} {:>10}",
            point.tenants,
            point.bytes,
            point.sections,
            if point.resume_identical {
                "exact"
            } else {
                "DIVERGED"
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SnapshotWorkload {
        SnapshotWorkload {
            fleet_sizes: vec![3, 6],
            users_per_tenant: 8,
            shards: 2,
            threads: 2,
            warmup_slots: 8,
            resume_slots: 8,
        }
    }

    #[test]
    fn sweep_resumes_bit_identically_and_bytes_grow_with_the_fleet() {
        let report = run(&tiny(), crate::DEFAULT_SEED);
        assert!(report.all_identical());
        assert_eq!(report.points.len(), 2);
        assert!(report.points[1].bytes > report.points[0].bytes);
        assert!(report.points.iter().all(|p| p.sections > 0));
    }

    #[test]
    fn report_serializes_to_valid_json() {
        let report = run(&tiny(), crate::DEFAULT_SEED);
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"fleet_snapshot\""));
        assert!(json.contains("\"resume_identical\": true"));
        mca_telemetry::json::parse(&json).expect("the sweep report is valid JSON");
    }
}
