//! Bit-identity and placement harness for the multi-tenant fleet engine.
//! Nothing here reads a clock: what a fleet slot costs is the end-to-end
//! benchmark's to say (`service_p50_ms` and `records_per_s` on
//! `fleet_steady`, `fleet.engine.critical_path_share` and
//! `fleet.rebalance.max_mean_ratio` on `fleet_elastic`, `trace.overhead_pct`
//! for the instrumentation — see `BENCHMARK.json`), so `BENCH_fleet.json`
//! is a pure function of the code and regenerates byte for byte.
//!
//! Two sections, both counted:
//!
//! * [`run`] drives the sharded engine through the streaming ingestion API —
//!   a [`FleetDriver`] over a live [`SlotBatchSource`] lane fed one
//!   interleaved arrival batch per slot — and replays every tenant **alone**
//!   (a bare [`TenantShard`], no engine, the block-summary tree forced on)
//!   on the same records, asserting the fleet's per-tenant forecasts are
//!   bit-identical slot by slot. The headline configuration is 64 tenants ×
//!   2,000 slots.
//! * [`run_skewed`] runs a Zipf-skewed fleet under static hash placement and
//!   under the elastic rebalancer in lockstep, each fed by
//!   [`FleetDriver::with_mix`], forecasts compared after
//!   every slot, and gates on the per-shard record counts the two placements
//!   produce.
//!
//! `cargo run --release -p mca-bench --bin bench_fleet` regenerates
//! `BENCH_fleet.json` at the repository root.

use mca_core::{AllocationPolicy, IndexPolicy, SystemConfig, TimeSlotBuilder};
use mca_fleet::{
    shard_chunks, FleetDriver, FleetEngine, RebalancerConfig, ShardLoad, SlotBatchSource,
    SlotRecord, TenantShard,
};
use mca_offload::{AccelerationGroupId, TenantId, UserId};
use mca_telemetry::json::JsonWriter;
use mca_workload::TenantMix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knowledge-base window of the benchmark configuration: a week of hourly
/// slots, the regime a long-running deployment operates in.
pub const HISTORY_WINDOW: usize = 168;

/// Shape of the synthetic fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetWorkload {
    /// Number of tenants.
    pub tenants: usize,
    /// Number of provisioning slots.
    pub slots: usize,
    /// Nominal users per tenant per slot (the mix varies per tenant and
    /// slot: steady / ramp / doubling shapes).
    pub users_per_tenant: usize,
    /// Thread count of the engine (forecasts are identical at any count;
    /// pinned so the report does not depend on the machine).
    pub threads: usize,
}

impl FleetWorkload {
    /// The acceptance-bar configuration: 64 tenants × 2,000 slots.
    pub fn headline() -> Self {
        Self {
            tenants: 64,
            slots: 2_000,
            users_per_tenant: 800,
            threads: 2,
        }
    }
}

/// The system configuration every `bench_*` fleet runs. Allocation uses the
/// greedy policy so the harnesses exercise ingest, prediction and billing
/// rather than ILP solves, and the engines scan linearly: at a 168-slot
/// window the pruned scan is already microseconds (that regime is exactly
/// why `IndexPolicy` defaults the index off below 4096 retained slots). The
/// tenant-alone reference replicas run indexed instead — see
/// [`reference_config`].
pub fn bench_config() -> SystemConfig {
    SystemConfig::paper_three_groups()
        .with_history_window(HISTORY_WINDOW)
        .with_allocation_policy(AllocationPolicy::GreedyCheapest)
        .with_index_policy(IndexPolicy::linear())
}

/// The configuration of the tenant-alone bit-identity replicas: identical
/// to [`bench_config`] except the block-summary tree is forced on (kept
/// once a tenant retains 64 slots, well inside the 168-slot window). The
/// per-slot forecast comparison therefore proves indexed and linear scans
/// agree bit-for-bit across every tenant and every slot of continuous
/// windowed eviction — a stronger exercise of the indexed path than
/// running the same policy on both sides.
pub fn reference_config() -> SystemConfig {
    bench_config().with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(64))
}

/// Outcome of one fleet-versus-tenant-alone comparison.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// The workload shape driven.
    pub workload: FleetWorkload,
    /// Shards the fleet engine ran with.
    pub shards: usize,
    /// Whether every per-tenant fleet forecast matched the tenant-alone
    /// replay bit for bit, every slot.
    pub forecasts_identical: bool,
    /// Every shard's end-of-run load view (the counted columns are
    /// reported: tenants, ticks, records, records-per-tick EWMA).
    pub shard_loads: Vec<ShardLoad>,
}

impl FleetBenchReport {
    /// The `BENCH_fleet.json` document: this report with the Zipf-skew
    /// comparison embedded as its `skewed` section.
    pub fn to_json(&self, skew: &SkewBenchReport) -> String {
        let mut w = JsonWriter::pretty(2);
        w.object(|w| {
            w.key("benchmark").string("fleet_tick");
            w.key("tenants").u64(self.workload.tenants as u64);
            w.key("slots").u64(self.workload.slots as u64);
            w.key("users_per_tenant")
                .u64(self.workload.users_per_tenant as u64);
            w.key("shards").u64(self.shards as u64);
            w.key("threads").u64(self.workload.threads as u64);
            w.key("history_window").u64(HISTORY_WINDOW as u64);
            w.key("forecasts_bit_identical")
                .bool(self.forecasts_identical);
            w.key("shard_loads").array(|w| {
                for shard in &self.shard_loads {
                    w.object(|w| {
                        w.key("shard").u64(shard.shard as u64);
                        w.key("tenants").u64(shard.tenants as u64);
                        w.key("ticks").u64(shard.ticks);
                        w.key("records").u64(shard.records);
                        w.key("load_ewma").f64(shard.load_ewma, 4);
                    });
                }
            });
            w.key("skewed").object(|w| skew.write_json(w));
        });
        w.finish()
    }
}

/// Interleaves the per-tenant records in a seeded random arrival order, the
/// way concurrent arrivals from many tenants reach a front-end: consecutive
/// records almost never belong to the same tenant or follow user-id order,
/// so the ingest path has real scattering and sorting to do.
fn interleave<R: Rng>(
    per_tenant: &[Vec<(AccelerationGroupId, UserId)>],
    rng: &mut R,
) -> Vec<SlotRecord> {
    let total: usize = per_tenant.iter().map(Vec::len).sum();
    let mut batch = Vec::with_capacity(total);
    for (t, records) in per_tenant.iter().enumerate() {
        for &(group, user) in records {
            batch.push(SlotRecord::new(TenantId(t as u32), group, user));
        }
    }
    // Fisher–Yates with the bench's deterministic rng
    for i in (1..batch.len()).rev() {
        batch.swap(i, rng.gen_range(0..i + 1));
    }
    batch
}

/// Drives `slots` slots of the sharded fleet, verifying its forecasts
/// against tenant-alone replays after every slot.
pub fn run(workload: &FleetWorkload, seed: u64) -> FleetBenchReport {
    let config = bench_config();
    let mix = TenantMix::heterogeneous(
        workload.tenants,
        workload.users_per_tenant,
        config.groups.ids(),
        seed,
    );

    // the sharded fleet, driven through the streaming ingestion API: the
    // bench plays the front-end, pushing each slot's batch into the live
    // lane the driver drains
    let mut engine =
        FleetEngine::new(config.clone(), workload.tenants, seed).with_threads(workload.threads);
    engine.add_tenants(mix.tenant_ids());
    let shards = engine.shard_count();
    let (feed, source) = SlotBatchSource::channel();
    let mut driver = FleetDriver::new(engine).with_shared_source(source);
    // each tenant alone: the bit-identity reference, run with the index
    // forced on so the comparison doubles as an indexed-vs-linear check
    let reference = reference_config();
    let mut alone: Vec<TenantShard> = mix
        .tenant_ids()
        .map(|t| TenantShard::new(t, &reference))
        .collect();

    let mut streams: Vec<StdRng> = mix.tenant_ids().map(|t| mix.stream_for(t)).collect();
    let mut arrival_rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let mut forecasts_identical = true;

    for slot in 0..workload.slots {
        let per_tenant: Vec<Vec<(AccelerationGroupId, UserId)>> = mix
            .tenant_ids()
            .map(|t| mix.slot_records(t, slot, &mut streams[t.0 as usize]))
            .collect();
        let now_ms = (slot + 1) as f64 * config.slot_length_ms;

        feed.push_slot(interleave(&per_tenant, &mut arrival_rng));
        driver.step().expect("the shared lane never misroutes");

        for (tenant, records) in alone.iter_mut().zip(&per_tenant) {
            let mut builder = TimeSlotBuilder::with_capacity(slot, records.len());
            builder.extend(records.iter().copied());
            tenant.tick(builder.build(), now_ms, &mut ());
        }
        for ((_, fleet_forecast), tenant) in driver.engine().forecasts().iter().zip(&alone) {
            if fleet_forecast.as_ref() != tenant.forecast() {
                forecasts_identical = false;
            }
        }
    }

    FleetBenchReport {
        workload: *workload,
        shards,
        forecasts_identical,
        shard_loads: driver.engine().telemetry().shards,
    }
}

/// Prints the report as an aligned table.
pub fn print(report: &FleetBenchReport) {
    println!(
        "fleet tick over {} tenants x {} slots (~{} users/tenant), {} shards, {} thread(s)",
        report.workload.tenants,
        report.workload.slots,
        report.workload.users_per_tenant,
        report.shards,
        report.workload.threads,
    );
    println!(
        "  per-tenant forecasts bit-identical to tenant-alone replay: {}",
        report.forecasts_identical
    );
    println!(
        "  {:<8} {:>8} {:>10} {:>12}",
        "shard", "tenants", "records", "load ewma"
    );
    for shard in &report.shard_loads {
        println!(
            "  {:<8} {:>8} {:>10} {:>12.1}",
            shard.shard, shard.tenants, shard.records, shard.load_ewma,
        );
    }
}

/// Shape of the Zipf-skewed rebalancing workload: heavy-tailed tenant sizes
/// over a small shard count, the regime where static hash placement leaves
/// the fleet running at the speed of its hottest shard.
#[derive(Debug, Clone, Copy)]
pub struct SkewWorkload {
    /// Number of shards (deliberately small and coprime-ish with the tenant
    /// count, so the hash clumps heavy tenants).
    pub shards: usize,
    /// Number of tenants, Zipf-sized.
    pub tenants: usize,
    /// The Zipf exponent `s` of [`TenantMix::zipf`].
    pub zipf_s: f64,
    /// Users of the heaviest tenant (tenant 0).
    pub max_users: usize,
    /// Number of provisioning slots.
    pub slots: usize,
    /// The pool size the record-count projection models (both engines tick
    /// on one thread: nothing here depends on how many actually run).
    pub threads: usize,
}

impl SkewWorkload {
    /// The acceptance-bar configuration.
    pub fn headline() -> Self {
        Self {
            shards: 7,
            tenants: 24,
            zipf_s: 0.8,
            max_users: 800,
            slots: 400,
            threads: 4,
        }
    }
}

/// The rebalancer configuration the skew bench runs: trigger early (10 %
/// over the mean), one move per slot once the load EWMAs have seeded.
pub fn skew_rebalancer_config() -> RebalancerConfig {
    RebalancerConfig::default()
        .with_ratio(1.1)
        .with_warmup_slots(8)
}

/// Outcome of one static-placement-versus-rebalanced comparison on the
/// Zipf-skewed workload.
///
/// The cost model is **projected work**: per slot, the most *records* any
/// [`shard_chunks`] range of shards ingests at [`SkewWorkload::threads`]
/// threads, summed over the run.
/// Counts, not clocks — identical on every machine, run and telemetry mode
/// (a shard tick here is tens of microseconds, within scheduler jitter of
/// its neighbours; the measured view of the same imbalance is
/// `fleet.engine.critical_path_share` on `fleet_elastic`).
#[derive(Debug, Clone)]
pub struct SkewBenchReport {
    /// The workload shape driven.
    pub workload: SkewWorkload,
    /// Whether static and rebalanced forecasts matched bit for bit after
    /// every slot.
    pub forecasts_identical: bool,
    /// Migrations the rebalanced arm performed.
    pub migrations: u64,
    /// The max/mean load ratio the rebalancer last observed.
    pub trigger_last_ratio: f64,
    /// Per-shard loads when the trigger last fired, before the move.
    pub loads_before: Vec<f64>,
    /// Per-shard loads after the last firing check's moves.
    pub loads_after: Vec<f64>,
    /// Sum over slots of the heaviest chunk's record count at the target
    /// thread count, static placement.
    pub static_projected_records: u64,
    /// Sum over slots of the heaviest chunk's record count at the target
    /// thread count, rebalanced.
    pub rebalanced_projected_records: u64,
}

impl SkewBenchReport {
    /// Static over rebalanced, projected record counts at the target thread
    /// count — the gated figure.
    pub fn work_speedup(&self) -> f64 {
        self.static_projected_records as f64 / self.rebalanced_projected_records as f64
    }

    /// The report's members, written into the object the caller opened (the
    /// `skewed` section of `BENCH_fleet.json`).
    fn write_json(&self, w: &mut JsonWriter) {
        let loads = |w: &mut JsonWriter, values: &[f64]| {
            w.array(|w| {
                for &value in values {
                    w.f64(value, 2);
                }
            });
        };
        w.key("shards").u64(self.workload.shards as u64);
        w.key("tenants").u64(self.workload.tenants as u64);
        w.key("zipf_s").f64(self.workload.zipf_s, 2);
        w.key("max_users").u64(self.workload.max_users as u64);
        w.key("slots").u64(self.workload.slots as u64);
        w.key("threads").u64(self.workload.threads as u64);
        w.key("forecasts_identical").bool(self.forecasts_identical);
        w.key("migrations").u64(self.migrations);
        w.key("trigger_last_ratio").f64(self.trigger_last_ratio, 3);
        loads(w.key("loads_before"), &self.loads_before);
        loads(w.key("loads_after"), &self.loads_after);
        w.key("static_projected_records")
            .u64(self.static_projected_records);
        w.key("rebalanced_projected_records")
            .u64(self.rebalanced_projected_records);
        w.key("projected_work_speedup").f64(self.work_speedup(), 3);
    }
}

/// One slot's cost at `threads` threads, from the per-shard record counts:
/// the engine ticks each [`shard_chunks`] range on one thread, and the slot
/// ends when the range with the most records does.
fn projected_slot_cost(per_shard: &[u64], threads: usize) -> u64 {
    shard_chunks(per_shard.len(), threads)
        .map(|chunk| per_shard[chunk].iter().sum())
        .max()
        .unwrap_or(0)
}

/// Records each shard ingested in the slot just ticked: the deltas of the
/// shards' cumulative [`mca_fleet::ShardLoad::records`] against `seen`,
/// which is brought up to date.
fn slot_records(engine: &FleetEngine, seen: &mut [u64]) -> Vec<u64> {
    let shards = engine.telemetry().shards;
    shards
        .iter()
        .zip(seen)
        .map(|(shard, seen)| {
            let delta = shard.records - *seen;
            *seen = shard.records;
            delta
        })
        .collect()
}

/// Runs the Zipf-skew comparison: a static-placement fleet and a rebalanced
/// fleet drive the identical heavy-tailed [`TenantMix::zipf`] workload in
/// lockstep, with forecasts compared bit for bit after **every** slot — the
/// balance claim is only admissible because the rebalanced fleet provably
/// computes the same answers — sampling each shard's record count per slot
/// for the projected-work model.
pub fn run_skewed(workload: &SkewWorkload, seed: u64) -> SkewBenchReport {
    let config = bench_config();
    let mix = TenantMix::zipf(
        workload.tenants,
        workload.max_users,
        workload.zipf_s,
        config.groups.ids(),
        seed,
    );

    let drive = |engine: FleetEngine| {
        let mut engine = engine.with_threads(1);
        engine.add_tenants(mix.tenant_ids());
        FleetDriver::new(engine)
            .with_mix(&mix)
            .expect("every hosted tenant is in the mix")
    };
    let mut static_fleet = drive(FleetEngine::new(config.clone(), workload.shards, seed));
    let mut rebalanced_fleet = drive(
        FleetEngine::new(config, workload.shards, seed).with_rebalancer(skew_rebalancer_config()),
    );

    let mut forecasts_identical = true;
    let mut static_projected_records = 0u64;
    let mut rebalanced_projected_records = 0u64;
    let mut static_records = vec![0u64; workload.shards];
    let mut rebalanced_records = vec![0u64; workload.shards];
    for _ in 0..workload.slots {
        static_fleet.step().expect("mix sources never misbehave");
        rebalanced_fleet
            .step()
            .expect("mix sources never misbehave");
        let (static_engine, rebalanced_engine) = (static_fleet.engine(), rebalanced_fleet.engine());
        forecasts_identical &= static_engine.forecasts() == rebalanced_engine.forecasts();
        static_projected_records += projected_slot_cost(
            &slot_records(static_engine, &mut static_records),
            workload.threads,
        );
        rebalanced_projected_records += projected_slot_cost(
            &slot_records(rebalanced_engine, &mut rebalanced_records),
            workload.threads,
        );
    }
    forecasts_identical &= static_fleet.engine().metrics() == rebalanced_fleet.engine().metrics();
    let rebalance = rebalanced_fleet
        .engine()
        .telemetry()
        .rebalance
        .expect("the rebalanced arm runs a rebalancer");

    SkewBenchReport {
        workload: *workload,
        forecasts_identical,
        migrations: rebalance.migrations,
        trigger_last_ratio: rebalance.last_ratio,
        loads_before: rebalance.loads_before,
        loads_after: rebalance.loads_after,
        static_projected_records,
        rebalanced_projected_records,
    }
}

/// Prints the skew comparison as an aligned table.
pub fn print_skewed(report: &SkewBenchReport) {
    println!(
        "\nzipf skew (s={:.1}) over {} tenants x {} slots, {} shards",
        report.workload.zipf_s,
        report.workload.tenants,
        report.workload.slots,
        report.workload.shards,
    );
    println!(
        "  {:<26} {:>14} {:>14} {:>9}",
        "cost model", "static", "rebalanced", "ratio"
    );
    println!(
        "  {:<26} {:>14} {:>14} {:>8.3}x",
        format!("records @{} threads (total)", report.workload.threads),
        report.static_projected_records,
        report.rebalanced_projected_records,
        report.work_speedup(),
    );
    println!(
        "  migrations: {} (last trigger ratio {:.2}); forecasts identical every slot: {}",
        report.migrations, report.trigger_last_ratio, report.forecasts_identical,
    );
    if !report.loads_before.is_empty() {
        let fmt = |values: &[f64]| {
            values
                .iter()
                .map(|v| format!("{v:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "  shard loads at last trigger: [{}] -> [{}]",
            fmt(&report.loads_before),
            fmt(&report.loads_after),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_bench_verifies_bit_identity() {
        let workload = FleetWorkload {
            tenants: 6,
            slots: 12,
            users_per_tenant: 20,
            threads: 2,
        };
        let report = run(&workload, crate::DEFAULT_SEED);
        assert!(report.forecasts_identical);
        assert_eq!(report.shard_loads.len(), report.shards);
        assert!(report.shard_loads.iter().all(|s| s.ticks == 12));
        assert_eq!(
            report.shard_loads.iter().map(|s| s.tenants).sum::<usize>(),
            6
        );
    }

    #[test]
    fn skewed_run_rebalances_without_perturbing_forecasts() {
        let workload = SkewWorkload {
            shards: 5,
            tenants: 8,
            zipf_s: 0.8,
            max_users: 60,
            slots: 30,
            threads: 2,
        };
        let report = run_skewed(&workload, crate::DEFAULT_SEED);
        assert!(
            report.forecasts_identical,
            "rebalancing must not change a single forecast or metric"
        );
        assert!(report.migrations > 0, "the Zipf skew must trigger moves");
        // the gated model counts records: every slot of either arm has some
        assert!(report.static_projected_records >= workload.slots as u64);
        assert!(report.rebalanced_projected_records >= workload.slots as u64);
    }

    #[test]
    fn reports_reproduce_byte_for_byte_at_the_smoke_shape() {
        let fleet = FleetWorkload {
            tenants: 16,
            slots: 200,
            ..FleetWorkload::headline()
        };
        let skew = SkewWorkload {
            tenants: 16,
            max_users: 300,
            slots: 120,
            ..SkewWorkload::headline()
        };
        let json =
            || run(&fleet, crate::DEFAULT_SEED).to_json(&run_skewed(&skew, crate::DEFAULT_SEED));
        let first = json();
        assert_eq!(first, json(), "BENCH_fleet.json is a function of the code");
        // the Zipf gate's figures at this shape, every run, on any machine
        assert!(first.contains("\"static_projected_records\": 101640"));
        assert!(first.contains("\"rebalanced_projected_records\": 54420"));
        assert!(first.contains("\"projected_work_speedup\": 1.868"));
    }

    #[test]
    fn projected_slot_model_mirrors_the_pool_chunking() {
        // 5 shards at 2 threads: chunks [0..3], [3..5]
        assert_eq!(shard_chunks(5, 2).collect::<Vec<_>>(), [0..3, 3..5]);
        assert_eq!(projected_slot_cost(&[5, 1, 1, 4, 4], 2), 8);
        // more threads than shards: one shard per worker = critical path
        assert_eq!(projected_slot_cost(&[5, 1, 1], 8), 5);
        // one thread: the full serial sum
        assert_eq!(projected_slot_cost(&[5, 1, 1], 1), 7);
    }

    #[test]
    fn interleaving_preserves_every_record() {
        let per_tenant = vec![
            vec![(AccelerationGroupId(1), UserId(1)); 3],
            vec![(AccelerationGroupId(1), UserId(1_000_001)); 5],
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let batch = interleave(&per_tenant, &mut rng);
        assert_eq!(batch.len(), 8);
        assert_eq!(batch.iter().filter(|r| r.tenant == TenantId(0)).count(), 3);
        assert_eq!(batch.iter().filter(|r| r.tenant == TenantId(1)).count(), 5);
    }
}
