//! Performance harness for the multi-tenant fleet engine: the sharded,
//! batch-ingesting parallel tick of `mca-fleet` versus the sequential
//! single-shard loop the pre-fleet architecture would run.
//!
//! Both paths consume the **identical** interleaved arrival batch every
//! slot and run the identical score→learn→predict→allocate→bill cycle
//! ([`mca_fleet::TenantShard::tick`]); they differ exactly where the
//! architectures differ:
//!
//! * the **single-shard baseline** merges every tenant into one slot
//!   history, ingesting the batch through [`TimeSlot::assign`]'s per-record
//!   ordered insert (`O(n)` per out-of-order user — and a multi-tenant
//!   arrival stream is almost entirely out of order), then runs one
//!   predict→allocate cycle over the merged knowledge base;
//! * the **fleet** scatters the batch in one pass into per-tenant
//!   builders, builds each tenant's slot with one sort + dedup
//!   ([`mca_core::TimeSlotBuilder`]) and ticks every tenant's own
//!   predictor/allocator in parallel.
//!
//! Alongside the timing comparison the harness replays every tenant
//! **alone** (a bare [`TenantShard`], no engine) on the same records and
//! asserts the fleet's per-tenant forecasts are bit-identical, slot by
//! slot. The fleet side is driven through the streaming ingestion API — a
//! [`FleetDriver`] over a live [`SlotBatchSource`] lane, the path a real
//! front-end feeds — so the measured cost includes the driver multiplexing.
//! The headline configuration is 64 tenants × 2,000 slots; `cargo run
//! --release -p mca-bench --bin bench_fleet` regenerates `BENCH_fleet.json`
//! at the repository root.

use mca_core::{AllocationPolicy, IndexPolicy, SystemConfig, TimeSlot, TimeSlotBuilder};
use mca_fleet::{
    FleetDriver, FleetEngine, FleetTelemetry, RebalancerConfig, SlotBatchSource, SlotRecord,
    TelemetryMode, TenantShard,
};
use mca_offload::{AccelerationGroupId, TenantId, UserId};
use mca_telemetry::{json, json_snapshot, prometheus_text, SNAPSHOT_VERSION};
use mca_workload::TenantMix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

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
}

impl FleetWorkload {
    /// The acceptance-bar configuration: 64 tenants × 2,000 slots.
    pub fn headline() -> Self {
        Self {
            tenants: 64,
            slots: 2_000,
            users_per_tenant: 800,
        }
    }

    /// A small configuration for the CI smoke gate.
    pub fn smoke() -> Self {
        Self {
            tenants: 16,
            slots: 200,
            users_per_tenant: 800,
        }
    }
}

/// The shared system configuration of both timed paths. Allocation uses
/// the greedy policy on both sides so the comparison isolates the ingest
/// and prediction engine rather than ILP solve time. The timed paths scan
/// linearly: at a 168-slot window the pruned scan is already microseconds,
/// so per-observe index maintenance would cost both sides more than it
/// saves (that regime is exactly why `IndexPolicy` defaults the index off
/// below 4096 retained slots). The tenant-alone reference replicas run
/// indexed instead — see [`reference_config`].
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

/// Measurements of one fleet-versus-single-shard comparison.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// The workload shape measured.
    pub workload: FleetWorkload,
    /// Shards the fleet engine ran with.
    pub shards: usize,
    /// Threads the fleet tick ran with.
    pub threads: usize,
    /// Mean wall-clock time of one single-shard slot (ingest + tick), ms.
    pub single_ms_per_slot: f64,
    /// Mean wall-clock time of one fleet slot (ingest + parallel tick), ms.
    pub fleet_ms_per_slot: f64,
    /// Whether every per-tenant fleet forecast matched the tenant-alone
    /// replay bit for bit, every slot.
    pub forecasts_identical: bool,
    /// The fleet engine's telemetry snapshot at the end of the run: per-slot
    /// tick latency tails, stage histograms and per-shard load.
    pub telemetry: FleetTelemetry,
}

impl FleetBenchReport {
    /// Single-shard time over fleet time.
    pub fn speedup(&self) -> f64 {
        self.single_ms_per_slot / self.fleet_ms_per_slot
    }

    /// The report's fields, without the enclosing braces, so the caller can
    /// append sibling sections ([`FleetBenchReport::to_json_with_skew`]).
    fn json_fields(&self) -> String {
        let slot = &self.telemetry.slot;
        let mut shard_loads = String::new();
        for (index, shard) in self.telemetry.shards.iter().enumerate() {
            let _ = write!(
                shard_loads,
                "{}\n    {{\"shard\": {}, \"tenants\": {}, \"ticks\": {}, \"records\": {}, \
                 \"load_ewma\": {:.4}, \"tick_ewma_ns\": {:.1}, \"tick_p99_ns\": {}}}",
                if index > 0 { "," } else { "" },
                shard.shard,
                shard.tenants,
                shard.ticks,
                shard.records,
                shard.load_ewma,
                shard.tick_ewma_ns,
                shard.tick_p99_ns,
            );
        }
        format!(
            "  \"benchmark\": \"fleet_tick\",\n  \"tenants\": {},\n  \"slots\": {},\n  \
             \"users_per_tenant\": {},\n  \"shards\": {},\n  \"threads\": {},\n  \
             \"history_window\": {},\n  \"single_shard_ms_per_slot\": {:.4},\n  \
             \"fleet_ms_per_slot\": {:.4},\n  \"speedup\": {:.2},\n  \
             \"forecasts_bit_identical\": {},\n  \
             \"slot_tick_ns\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \
             \"max\": {}}},\n  \"shard_loads\": [{}\n  ]",
            self.workload.tenants,
            self.workload.slots,
            self.workload.users_per_tenant,
            self.shards,
            self.threads,
            HISTORY_WINDOW,
            self.single_ms_per_slot,
            self.fleet_ms_per_slot,
            self.speedup(),
            self.forecasts_identical,
            slot.count(),
            slot.p50(),
            slot.p99(),
            slot.p999(),
            slot.max(),
            shard_loads,
        )
    }

    /// The report as a JSON object (hand-rolled: serde_json is unavailable
    /// offline).
    pub fn to_json(&self) -> String {
        format!("{{\n{}\n}}\n", self.json_fields())
    }

    /// The report as a JSON object with the Zipf-skew comparison embedded as
    /// a `skewed` section — the shape `BENCH_fleet.json` records.
    pub fn to_json_with_skew(&self, skew: &SkewBenchReport) -> String {
        format!(
            "{{\n{},\n  \"skewed\": {}\n}}\n",
            self.json_fields(),
            skew.json_object()
        )
    }
}

/// Interleaves the per-tenant records in a seeded random arrival order, the
/// way concurrent arrivals from many tenants reach a front-end: consecutive
/// records almost never belong to the same tenant or follow user-id order,
/// so an ordered-insert ingest pays its `O(n)` insert on nearly every
/// record.
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

/// Times `slots` slots of the single-shard loop and the sharded fleet on
/// identical batches, verifying fleet forecasts against tenant-alone
/// replays throughout.
pub fn run(workload: &FleetWorkload, seed: u64) -> FleetBenchReport {
    let config = bench_config();
    let mix = TenantMix::heterogeneous(
        workload.tenants,
        workload.users_per_tenant,
        config.groups.ids(),
        seed,
    );

    // the single merged shard of the pre-fleet architecture
    let mut single = TenantShard::new(TenantId(u32::MAX), &config, seed);
    // the sharded fleet, driven through the streaming ingestion API: the
    // bench plays the front-end, pushing each slot's batch into the live
    // lane the driver drains
    let mut engine = FleetEngine::new(config.clone(), workload.tenants, seed);
    engine.add_tenants(mix.tenant_ids());
    let shards = engine.shard_count();
    let threads = engine.threads();
    let (feed, source) = SlotBatchSource::channel();
    let mut driver = FleetDriver::new(engine).with_shared_source(source);
    // each tenant alone: the bit-identity reference, run with the index
    // forced on so the comparison doubles as an indexed-vs-linear check
    let reference = reference_config();
    let mut alone: Vec<TenantShard> = mix
        .tenant_ids()
        .map(|t| TenantShard::new(t, &reference, seed))
        .collect();

    let mut streams: Vec<StdRng> = mix.tenant_ids().map(|t| mix.stream_for(t)).collect();
    let mut arrival_rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let mut single_ms = 0.0f64;
    let mut fleet_ms = 0.0f64;
    let mut forecasts_identical = true;

    for slot in 0..workload.slots {
        // generation is shared by every path and excluded from the timings
        let per_tenant: Vec<Vec<(AccelerationGroupId, UserId)>> = mix
            .tenant_ids()
            .map(|t| mix.slot_records(t, slot, &mut streams[t.0 as usize]))
            .collect();
        let batch = interleave(&per_tenant, &mut arrival_rng);
        let now_ms = (slot + 1) as f64 * config.slot_length_ms;

        // single-shard loop: per-record ordered-insert ingest, one merged tick
        let start = Instant::now();
        let mut merged = TimeSlot::new(slot);
        for record in &batch {
            merged.assign(record.group, record.user);
        }
        single.tick(merged, now_ms);
        single_ms += start.elapsed().as_secs_f64() * 1_000.0;

        // fleet: live-lane push + driver step (one-pass batch ingest +
        // parallel per-shard tick)
        let start = Instant::now();
        feed.push_slot(batch);
        driver.step().expect("the shared lane never misroutes");
        fleet_ms += start.elapsed().as_secs_f64() * 1_000.0;

        // bit-identity: every tenant alone, same records (untimed)
        for (tenant, records) in alone.iter_mut().zip(&per_tenant) {
            let mut builder = TimeSlotBuilder::with_capacity(slot, records.len());
            builder.extend(records.iter().copied());
            tenant.tick(builder.build(), now_ms);
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
        threads,
        single_ms_per_slot: single_ms / workload.slots as f64,
        fleet_ms_per_slot: fleet_ms / workload.slots as f64,
        forecasts_identical,
        telemetry: driver.engine().telemetry(),
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
        report.threads,
    );
    println!("  {:<32} {:>12}", "architecture", "ms/slot");
    println!(
        "  {:<32} {:>12.3}",
        "single shard, per-record ingest", report.single_ms_per_slot
    );
    println!(
        "  {:<32} {:>12.3}",
        "sharded fleet, batched ingest", report.fleet_ms_per_slot
    );
    println!("  speedup: {:.1}x", report.speedup());
    println!(
        "  per-tenant forecasts bit-identical to tenant-alone replay: {}",
        report.forecasts_identical
    );
    let slot = &report.telemetry.slot;
    if slot.count() > 0 {
        println!(
            "  slot tick latency: p50 {:.1} us, p99 {:.1} us, p999 {:.1} us, max {:.1} us",
            slot.p50() as f64 / 1_000.0,
            slot.p99() as f64 / 1_000.0,
            slot.p999() as f64 / 1_000.0,
            slot.max() as f64 / 1_000.0,
        );
    }
    if !report.telemetry.shards.is_empty() {
        println!(
            "  {:<8} {:>8} {:>10} {:>12} {:>14} {:>14}",
            "shard", "tenants", "records", "load ewma", "tick ewma us", "tick p99 us"
        );
        for shard in &report.telemetry.shards {
            println!(
                "  {:<8} {:>8} {:>10} {:>12.1} {:>14.1} {:>14.1}",
                shard.shard,
                shard.tenants,
                shard.records,
                shard.load_ewma,
                shard.tick_ewma_ns / 1_000.0,
                shard.tick_p99_ns as f64 / 1_000.0,
            );
        }
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
    /// The thread count the projected and measured comparisons target.
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

    /// A small configuration for the CI smoke gate.
    pub fn smoke() -> Self {
        Self {
            shards: 7,
            tenants: 16,
            zipf_s: 0.8,
            max_users: 300,
            slots: 120,
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

/// Measurements of one static-placement-versus-rebalanced comparison on the
/// Zipf-skewed workload.
///
/// Four cost models, weakest hardware dependence first:
///
/// * **projected work** — per slot, the most *records* any chunk of shards
///   ingests under the bundled thread pool's contiguous chunking at
///   [`SkewWorkload::threads`] threads. Counts, not clocks: identical on
///   every machine, run and telemetry mode, which is why the gate reads
///   this model and only reports the three timed ones (a shard tick here is
///   tens of microseconds, within scheduler jitter of its neighbours);
/// * **critical path** — per slot, the slowest shard tick (what the slot
///   would cost with one thread per shard); measured single-threaded, so it
///   is meaningful on any machine including a single-core CI runner;
/// * **projected** — per slot, the slowest chunk of shards under the same
///   chunking, from the same single-threaded tick samples: the multicore
///   slot cost this machine would pay if it had the cores;
/// * **measured** — wall-clock ms per slot of full runs at the configured
///   thread count; only a fair comparison when
///   [`SkewBenchReport::available_parallelism`] covers the thread count.
#[derive(Debug, Clone)]
pub struct SkewBenchReport {
    /// The workload shape measured.
    pub workload: SkewWorkload,
    /// Cores the machine exposes (what the measured model actually ran on).
    pub available_parallelism: usize,
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
    /// Critical-path ms per slot, static placement.
    pub static_critical_ms: f64,
    /// Critical-path ms per slot, rebalanced.
    pub rebalanced_critical_ms: f64,
    /// Projected ms per slot at the target thread count, static placement.
    pub static_projected_ms: f64,
    /// Projected ms per slot at the target thread count, rebalanced.
    pub rebalanced_projected_ms: f64,
    /// Measured wall-clock ms per slot at the target thread count, static.
    pub static_measured_ms: f64,
    /// Measured wall-clock ms per slot at the target thread count,
    /// rebalanced.
    pub rebalanced_measured_ms: f64,
}

impl SkewBenchReport {
    /// Static over rebalanced, projected record counts at the target thread
    /// count — the gated figure.
    pub fn work_speedup(&self) -> f64 {
        self.static_projected_records as f64 / self.rebalanced_projected_records as f64
    }

    /// Static over rebalanced, critical-path model.
    pub fn critical_speedup(&self) -> f64 {
        self.static_critical_ms / self.rebalanced_critical_ms
    }

    /// Static over rebalanced, projected at the target thread count.
    pub fn projected_speedup(&self) -> f64 {
        self.static_projected_ms / self.rebalanced_projected_ms
    }

    /// Static over rebalanced, measured wall clock.
    pub fn measured_speedup(&self) -> f64 {
        self.static_measured_ms / self.rebalanced_measured_ms
    }

    /// The report as a JSON object (no trailing newline — embeddable as a
    /// section of `BENCH_fleet.json`).
    pub fn json_object(&self) -> String {
        let loads = |values: &[f64]| {
            let mut out = String::from("[");
            for (i, v) in values.iter().enumerate() {
                let _ = write!(out, "{}{:.2}", if i > 0 { ", " } else { "" }, v);
            }
            out.push(']');
            out
        };
        format!(
            "{{\n    \"shards\": {},\n    \"tenants\": {},\n    \"zipf_s\": {:.2},\n    \
             \"max_users\": {},\n    \"slots\": {},\n    \"threads\": {},\n    \
             \"available_parallelism\": {},\n    \"forecasts_identical\": {},\n    \
             \"migrations\": {},\n    \"trigger_last_ratio\": {:.3},\n    \
             \"loads_before\": {},\n    \"loads_after\": {},\n    \
             \"static_projected_records\": {},\n    \
             \"rebalanced_projected_records\": {},\n    \
             \"projected_work_speedup\": {:.3},\n    \
             \"static_critical_ms_per_slot\": {:.4},\n    \
             \"rebalanced_critical_ms_per_slot\": {:.4},\n    \
             \"critical_path_speedup\": {:.2},\n    \
             \"static_projected_ms_per_slot\": {:.4},\n    \
             \"rebalanced_projected_ms_per_slot\": {:.4},\n    \
             \"projected_speedup\": {:.2},\n    \
             \"static_measured_ms_per_slot\": {:.4},\n    \
             \"rebalanced_measured_ms_per_slot\": {:.4},\n    \
             \"measured_speedup\": {:.2}\n  }}",
            self.workload.shards,
            self.workload.tenants,
            self.workload.zipf_s,
            self.workload.max_users,
            self.workload.slots,
            self.workload.threads,
            self.available_parallelism,
            self.forecasts_identical,
            self.migrations,
            self.trigger_last_ratio,
            loads(&self.loads_before),
            loads(&self.loads_after),
            self.static_projected_records,
            self.rebalanced_projected_records,
            self.work_speedup(),
            self.static_critical_ms,
            self.rebalanced_critical_ms,
            self.critical_speedup(),
            self.static_projected_ms,
            self.rebalanced_projected_ms,
            self.projected_speedup(),
            self.static_measured_ms,
            self.rebalanced_measured_ms,
            self.measured_speedup(),
        )
    }
}

/// One slot's cost at `threads` threads under the bundled thread pool's
/// contiguous chunking, from the per-shard costs (tick times, or record
/// counts): the pool splits the
/// shard list into `threads` contiguous chunks (the first `len % threads`
/// chunks one longer), runs each chunk on one worker, and the slot ends when
/// the slowest chunk does. Mirrors `chunk_ranges` in the bundled rayon
/// stand-in exactly, so the projection is the arithmetic the real pool
/// executes.
fn projected_slot_cost(per_shard: &[u64], threads: usize) -> u64 {
    let len = per_shard.len();
    let parts = threads.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut start = 0;
    let mut slowest = 0u64;
    for part in 0..parts {
        let size = base + usize::from(part < extra);
        let chunk: u64 = per_shard[start..start + size].iter().sum();
        start += size;
        slowest = slowest.max(chunk);
    }
    slowest
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

/// Drives a full skewed run at the workload's thread count with telemetry
/// disabled and returns the mean wall-clock ms per slot (generation
/// included, identically on both arms).
fn measure_skewed(
    workload: &SkewWorkload,
    seed: u64,
    config: &SystemConfig,
    mix: &TenantMix,
    rebalancer: Option<RebalancerConfig>,
) -> f64 {
    let mut engine = FleetEngine::new(config.clone(), workload.shards, seed)
        .with_threads(workload.threads)
        .with_telemetry(TelemetryMode::Disabled);
    if let Some(rebalancer) = rebalancer {
        engine = engine.with_rebalancer(rebalancer);
    }
    engine.add_tenants(mix.tenant_ids());
    let start = Instant::now();
    for _ in 0..workload.slots {
        engine
            .try_tick_mix(mix)
            .expect("every hosted tenant is in the mix");
    }
    start.elapsed().as_secs_f64() * 1_000.0 / workload.slots as f64
}

/// Runs the Zipf-skew comparison: a static-placement fleet and a rebalanced
/// fleet drive the identical heavy-tailed [`TenantMix::zipf`] workload in
/// lockstep, with forecasts compared bit for bit after **every** slot — the
/// perf claim is only admissible because the rebalanced fleet provably
/// computes the same answers. The lockstep pass runs single-threaded with
/// monotonic telemetry, sampling each shard's record count and tick time
/// per slot for the projected-work, critical-path and projected models; a
/// second pass measures wall-clock runs at the target thread count.
pub fn run_skewed(workload: &SkewWorkload, seed: u64) -> SkewBenchReport {
    let config = bench_config();
    let mix = TenantMix::zipf(
        workload.tenants,
        workload.max_users,
        workload.zipf_s,
        config.groups.ids(),
        seed,
    );

    let mut static_engine = FleetEngine::new(config.clone(), workload.shards, seed).with_threads(1);
    static_engine.add_tenants(mix.tenant_ids());
    let mut rebalanced_engine = FleetEngine::new(config.clone(), workload.shards, seed)
        .with_threads(1)
        .with_rebalancer(skew_rebalancer_config());
    rebalanced_engine.add_tenants(mix.tenant_ids());

    let mut forecasts_identical = true;
    let mut static_critical_ns = 0u64;
    let mut rebalanced_critical_ns = 0u64;
    let mut static_projected_ns = 0u64;
    let mut rebalanced_projected_ns = 0u64;
    let mut static_projected_records = 0u64;
    let mut rebalanced_projected_records = 0u64;
    let mut static_records = vec![0u64; workload.shards];
    let mut rebalanced_records = vec![0u64; workload.shards];
    for _ in 0..workload.slots {
        static_engine
            .try_tick_mix(&mix)
            .expect("every hosted tenant is in the mix");
        rebalanced_engine
            .try_tick_mix(&mix)
            .expect("every hosted tenant is in the mix");
        if static_engine.forecasts() != rebalanced_engine.forecasts() {
            forecasts_identical = false;
        }
        let static_ticks = static_engine.last_shard_tick_ns();
        let rebalanced_ticks = rebalanced_engine.last_shard_tick_ns();
        static_critical_ns += static_ticks.iter().copied().max().unwrap_or(0);
        rebalanced_critical_ns += rebalanced_ticks.iter().copied().max().unwrap_or(0);
        static_projected_ns += projected_slot_cost(&static_ticks, workload.threads);
        rebalanced_projected_ns += projected_slot_cost(&rebalanced_ticks, workload.threads);
        static_projected_records += projected_slot_cost(
            &slot_records(&static_engine, &mut static_records),
            workload.threads,
        );
        rebalanced_projected_records += projected_slot_cost(
            &slot_records(&rebalanced_engine, &mut rebalanced_records),
            workload.threads,
        );
    }
    if static_engine.metrics() != rebalanced_engine.metrics() {
        forecasts_identical = false;
    }
    let rebalance = rebalanced_engine
        .telemetry()
        .rebalance
        .expect("the rebalanced arm runs a rebalancer");

    let static_measured_ms = measure_skewed(workload, seed, &config, &mix, None);
    let rebalanced_measured_ms = measure_skewed(
        workload,
        seed,
        &config,
        &mix,
        Some(skew_rebalancer_config()),
    );

    let to_ms = |ns: u64| ns as f64 / 1e6 / workload.slots as f64;
    SkewBenchReport {
        workload: *workload,
        available_parallelism: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        forecasts_identical,
        migrations: rebalance.migrations,
        trigger_last_ratio: rebalance.last_ratio,
        loads_before: rebalance.loads_before,
        loads_after: rebalance.loads_after,
        static_projected_records,
        rebalanced_projected_records,
        static_critical_ms: to_ms(static_critical_ns),
        rebalanced_critical_ms: to_ms(rebalanced_critical_ns),
        static_projected_ms: to_ms(static_projected_ns),
        rebalanced_projected_ms: to_ms(rebalanced_projected_ns),
        static_measured_ms,
        rebalanced_measured_ms,
    }
}

/// Prints the skew comparison as an aligned table.
pub fn print_skewed(report: &SkewBenchReport) {
    println!(
        "\nzipf skew (s={:.1}) over {} tenants x {} slots, {} shards, target {} threads \
         ({} core(s) available)",
        report.workload.zipf_s,
        report.workload.tenants,
        report.workload.slots,
        report.workload.shards,
        report.workload.threads,
        report.available_parallelism,
    );
    println!(
        "  {:<26} {:>14} {:>14} {:>9}",
        "cost model", "static ms/slot", "rebal ms/slot", "speedup"
    );
    println!(
        "  {:<26} {:>14} {:>14} {:>8.3}x",
        format!("records @{} threads (total)", report.workload.threads),
        report.static_projected_records,
        report.rebalanced_projected_records,
        report.work_speedup(),
    );
    println!(
        "  {:<26} {:>14.3} {:>14.3} {:>8.2}x",
        "critical path (1/shard)",
        report.static_critical_ms,
        report.rebalanced_critical_ms,
        report.critical_speedup(),
    );
    println!(
        "  {:<26} {:>14.3} {:>14.3} {:>8.2}x",
        format!("projected @{} threads", report.workload.threads),
        report.static_projected_ms,
        report.rebalanced_projected_ms,
        report.projected_speedup(),
    );
    println!(
        "  {:<26} {:>14.3} {:>14.3} {:>8.2}x",
        "measured wall clock",
        report.static_measured_ms,
        report.rebalanced_measured_ms,
        report.measured_speedup(),
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

/// Absolute slack added to the telemetry-overhead gate, ms per slot. The
/// 3% relative bound is the real bar; on a smoke-sized workload a slot is a
/// few milliseconds, so scheduler jitter alone can swing two identical runs
/// past a bare percentage — the fixed slack absorbs that noise while still
/// failing on any per-record cost sneaking into the hot path.
pub const OVERHEAD_SLACK_MS: f64 = 0.25;

/// Relative telemetry-overhead bound: instrumented ticks may cost at most
/// this fraction more than uninstrumented ones.
pub const OVERHEAD_BOUND: f64 = 0.03;

/// Results and gate verdicts of the telemetry smoke run: one fleet pass
/// with monotonic telemetry, one with telemetry disabled, on identical
/// record streams.
#[derive(Debug, Clone)]
pub struct TelemetrySmokeReport {
    /// The workload shape measured.
    pub workload: FleetWorkload,
    /// Mean wall-clock time of one fleet slot with monotonic telemetry, ms.
    pub enabled_ms_per_slot: f64,
    /// Mean wall-clock time of one fleet slot with telemetry disabled, ms.
    pub disabled_ms_per_slot: f64,
    /// The instrumented engine's telemetry snapshot.
    pub telemetry: FleetTelemetry,
    /// The instrumented engine's registry as a versioned JSON snapshot.
    pub snapshot_json: String,
    /// Correctness-gate failures: histogram totals that disagree with event
    /// counts, or a snapshot that fails to round-trip. Empty on success.
    pub failures: Vec<String>,
    /// Whether the instrumented pass stayed within the overhead bound.
    pub overhead_within_bound: bool,
}

impl TelemetrySmokeReport {
    /// Instrumented cost over uninstrumented cost, as a percentage.
    pub fn overhead_percent(&self) -> f64 {
        (self.enabled_ms_per_slot / self.disabled_ms_per_slot - 1.0) * 100.0
    }

    /// Whether every gate passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.overhead_within_bound
    }

    /// The report as a JSON object; `snapshot` embeds the registry snapshot
    /// verbatim (it is already JSON).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"fleet_telemetry\",\n  \"tenants\": {},\n  \"slots\": {},\n  \
             \"users_per_tenant\": {},\n  \"enabled_ms_per_slot\": {:.4},\n  \
             \"disabled_ms_per_slot\": {:.4},\n  \"overhead_percent\": {:.2},\n  \
             \"overhead_within_bound\": {},\n  \"checks_passed\": {},\n  \"snapshot\": {}\n}}\n",
            self.workload.tenants,
            self.workload.slots,
            self.workload.users_per_tenant,
            self.enabled_ms_per_slot,
            self.disabled_ms_per_slot,
            self.overhead_percent(),
            self.overhead_within_bound,
            self.failures.is_empty(),
            self.snapshot_json.trim_end(),
        )
    }
}

/// Drives the fleet path alone (no single-shard baseline, no tenant-alone
/// replicas) over the workload's record stream and returns the mean ms per
/// slot plus the driver for inspection.
fn drive_fleet(workload: &FleetWorkload, seed: u64, mode: TelemetryMode) -> (f64, FleetDriver) {
    let config = bench_config();
    let mix = TenantMix::heterogeneous(
        workload.tenants,
        workload.users_per_tenant,
        config.groups.ids(),
        seed,
    );
    let mut engine = FleetEngine::new(config, workload.tenants, seed).with_telemetry(mode);
    engine.add_tenants(mix.tenant_ids());
    let (feed, source) = SlotBatchSource::channel();
    let mut driver = FleetDriver::new(engine).with_shared_source(source);

    let mut streams: Vec<StdRng> = mix.tenant_ids().map(|t| mix.stream_for(t)).collect();
    let mut arrival_rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let mut fleet_ms = 0.0f64;
    for slot in 0..workload.slots {
        let per_tenant: Vec<Vec<(AccelerationGroupId, UserId)>> = mix
            .tenant_ids()
            .map(|t| mix.slot_records(t, slot, &mut streams[t.0 as usize]))
            .collect();
        let batch = interleave(&per_tenant, &mut arrival_rng);
        let start = Instant::now();
        feed.push_slot(batch);
        driver.step().expect("the shared lane never misroutes");
        fleet_ms += start.elapsed().as_secs_f64() * 1_000.0;
    }
    (fleet_ms / workload.slots as f64, driver)
}

/// The telemetry smoke gate: proves the instrumentation layer's three
/// contracts on a live fleet run.
///
/// 1. **Histogram totals equal event counts** — the stage-count arithmetic
///    (`windowing == predict == tenant-ticks`, `allocate == allocations +
///    infeasible`, `bill == allocations`, `tick == shards × slots`, `slot ==
///    slots`) holds exactly; a missed or double-counted timer fails the gate.
/// 2. **The exposition round-trips** — the versioned JSON snapshot parses
///    with the in-tree parser, carries [`SNAPSHOT_VERSION`], and its
///    histogram counts agree with the live histograms; the Prometheus text
///    carries the slot-tick series.
/// 3. **The hot path stays cheap** — the instrumented pass costs at most
///    [`OVERHEAD_BOUND`] more than a telemetry-disabled pass over identical
///    records (plus [`OVERHEAD_SLACK_MS`] for timing noise).
pub fn telemetry_smoke(workload: &FleetWorkload, seed: u64) -> TelemetrySmokeReport {
    // a short untimed pass warms the allocator and the rayon pool so the
    // disabled-vs-enabled comparison does not charge warmup to either side
    let warmup = FleetWorkload {
        slots: workload.slots.min(16),
        ..*workload
    };
    drive_fleet(&warmup, seed, TelemetryMode::Disabled);

    let (disabled_ms, _) = drive_fleet(workload, seed, TelemetryMode::Disabled);
    let (enabled_ms, driver) = drive_fleet(workload, seed, TelemetryMode::Monotonic);

    let report = driver.report();
    let telemetry = report.telemetry.clone();
    let mut failures = Vec::new();
    let mut check = |name: &str, got: u64, want: u64| {
        if got != want {
            failures.push(format!("{name}: got {got}, want {want}"));
        }
    };

    let slots = workload.slots as u64;
    let shards = telemetry.shards.len() as u64;
    check("slot histogram count", telemetry.slot.count(), slots);
    check(
        "tick histogram count",
        telemetry.stages.tick.count(),
        shards * slots,
    );
    check(
        "windowing histogram count",
        telemetry.stages.windowing.count(),
        workload.tenants as u64 * slots,
    );
    check(
        "predict histogram count",
        telemetry.stages.predict.count(),
        telemetry.stages.windowing.count(),
    );
    check(
        "allocate histogram count",
        telemetry.stages.allocate.count(),
        (report.metrics.total_allocations + report.metrics.total_infeasible) as u64,
    );
    check(
        "bill histogram count",
        telemetry.stages.bill.count(),
        report.metrics.total_allocations as u64,
    );
    let staged: u64 = telemetry.shards.iter().map(|s| s.records).sum();
    check(
        "records staged across shards",
        staged,
        report.records as u64,
    );

    let registry = driver.engine().telemetry_registry();
    let snapshot_json = json_snapshot(&registry);
    match json::parse(&snapshot_json) {
        Err(error) => failures.push(format!("snapshot does not parse: {error}")),
        Ok(doc) => {
            if doc.get("version").and_then(|v| v.as_u64()) != Some(SNAPSHOT_VERSION) {
                failures.push(format!("snapshot version is not {SNAPSHOT_VERSION}"));
            }
            let hist_count = |name: &str| {
                doc.get("histograms")
                    .and_then(|h| h.get(name))
                    .and_then(|h| h.get("count"))
                    .and_then(|c| c.as_u64())
            };
            if hist_count("fleet_slot_tick_ns") != Some(telemetry.slot.count()) {
                failures.push("snapshot fleet_slot_tick_ns count disagrees".to_string());
            }
            let counter = |name: &str| {
                doc.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(|c| c.as_u64())
            };
            if counter("fleet_records_total") != Some(report.records as u64) {
                failures.push("snapshot fleet_records_total disagrees".to_string());
            }
        }
    }
    if !prometheus_text(&registry).contains("fleet_slot_tick_ns_count") {
        failures.push("prometheus text is missing the slot-tick series".to_string());
    }

    let overhead_within_bound =
        enabled_ms <= disabled_ms * (1.0 + OVERHEAD_BOUND) + OVERHEAD_SLACK_MS;

    TelemetrySmokeReport {
        workload: *workload,
        enabled_ms_per_slot: enabled_ms,
        disabled_ms_per_slot: disabled_ms,
        telemetry,
        snapshot_json,
        failures,
        overhead_within_bound,
    }
}

/// Prints the telemetry smoke verdicts as an aligned table.
pub fn print_telemetry_smoke(report: &TelemetrySmokeReport) {
    println!(
        "\ntelemetry smoke over {} tenants x {} slots",
        report.workload.tenants, report.workload.slots
    );
    println!("  {:<32} {:>12}", "fleet path", "ms/slot");
    println!(
        "  {:<32} {:>12.3}",
        "telemetry disabled", report.disabled_ms_per_slot
    );
    println!(
        "  {:<32} {:>12.3}",
        "telemetry enabled (monotonic)", report.enabled_ms_per_slot
    );
    println!(
        "  overhead: {:+.2}% (bound {:.0}% + {:.2} ms slack) -> {}",
        report.overhead_percent(),
        OVERHEAD_BOUND * 100.0,
        OVERHEAD_SLACK_MS,
        if report.overhead_within_bound {
            "ok"
        } else {
            "EXCEEDED"
        },
    );
    if report.failures.is_empty() {
        println!("  histogram totals equal event counts; snapshot round-trips: ok");
    } else {
        for failure in &report.failures {
            println!("  FAILED: {failure}");
        }
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
        };
        let report = run(&workload, crate::DEFAULT_SEED);
        assert!(report.forecasts_identical);
        assert!(report.single_ms_per_slot > 0.0 && report.fleet_ms_per_slot > 0.0);
        // the engine defaults to monotonic telemetry, so the bench report
        // carries real tail latencies and per-shard load
        assert_eq!(report.telemetry.slot.count(), 12);
        assert!(report.telemetry.slot.p99() > 0);
        assert_eq!(report.telemetry.shards.len(), report.shards);
        let json = report.to_json();
        assert!(json.contains("\"tenants\": 6"));
        assert!(json.contains("\"forecasts_bit_identical\": true"));
        assert!(json.contains("\"slot_tick_ns\""));
        assert!(json.contains("\"p999\""));
        assert!(json.contains("\"shard_loads\""));
        assert!(json.contains("\"load_ewma\""));
    }

    #[test]
    fn telemetry_smoke_gates_pass_on_a_small_fleet() {
        let workload = FleetWorkload {
            tenants: 6,
            slots: 12,
            users_per_tenant: 20,
        };
        let report = telemetry_smoke(&workload, crate::DEFAULT_SEED);
        // the correctness gates are deterministic; the overhead gate is a
        // wall-clock comparison and is only asserted at smoke scale in CI
        assert_eq!(report.failures, Vec::<String>::new());
        assert_eq!(report.telemetry.slot.count(), 12);
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"fleet_telemetry\""));
        assert!(json.contains("\"snapshot\": {\"version\":1,"));
        mca_telemetry::json::parse(&json).expect("the telemetry report is valid JSON");
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
        assert!(report.static_critical_ms > 0.0 && report.rebalanced_critical_ms > 0.0);
        // the projected model can never beat the critical path (one thread
        // per shard is its limit), and never lose to a single thread
        assert!(report.static_projected_ms >= report.static_critical_ms);
        // the gated model counts records: every slot of either arm has some
        assert!(report.static_projected_records >= workload.slots as u64);
        assert!(report.rebalanced_projected_records >= workload.slots as u64);
        let json = report.json_object();
        assert!(json.contains("\"forecasts_identical\": true"));
        assert!(json.contains("\"projected_speedup\""));
        assert!(json.contains("\"projected_work_speedup\""));
        // the embedded form stays valid JSON
        let full = FleetBenchReport {
            workload: FleetWorkload {
                tenants: 2,
                slots: 1,
                users_per_tenant: 1,
            },
            shards: 1,
            threads: 1,
            single_ms_per_slot: 1.0,
            fleet_ms_per_slot: 1.0,
            forecasts_identical: true,
            telemetry: FleetTelemetry {
                mode: TelemetryMode::Disabled,
                slot: Default::default(),
                stages: Default::default(),
                shards: Vec::new(),
                rebalance: None,
                critical_path_ns: 0,
            },
        }
        .to_json_with_skew(&report);
        mca_telemetry::json::parse(&full).expect("the skewed report is valid JSON");
    }

    #[test]
    fn projected_slot_model_mirrors_the_pool_chunking() {
        // 5 shards at 2 threads: chunks [0..3], [3..5]
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
