//! One huge CloneCloud-style tenant — a single app whose clone population
//! dwarfs every other tenant — served in **user-sharded** mode: the
//! `ShardRouter` splits the population across every shard by user hash, each
//! shard's replica predicts and allocates over its own slice, and the
//! engine combines the slice forecasts into the tenant-wide view. The
//! predictor is configured with the block-summary tree
//! (`with_index_policy`), which takes over once a replica retains 24 slots
//! and keeps the nearest-slot search sublinear as the knowledge base grows
//! toward its six-month window.
//!
//! ```bash
//! cargo run --release --example huge_tenant
//! ```

use mobile_code_acceleration::core::{IndexPolicy, SystemConfig};
use mobile_code_acceleration::fleet::{FleetDriver, FleetEngine, SlotBatchSource, SlotRecord};
use mobile_code_acceleration::offload::{AccelerationGroupId, TenantId, UserId};

const SHARDS: usize = 4;
const SLOTS: usize = 72;
const POPULATION: u32 = 6_000;
const SEED: u64 = 20170605;

fn main() {
    // Paper defaults except: a raised account cap (one huge tenant needs
    // more than 20 instances), a bounded knowledge base, and the summary
    // tree for the nearest-neighbour search.
    let mut config = SystemConfig::paper_three_groups()
        .with_history_window(4_320) // six months of hourly slots
        .with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(24));
    config.account_cap = 5_000;

    let huge = TenantId(0);
    let mut engine = FleetEngine::new(config, SHARDS, SEED).with_threads(SHARDS);
    engine.add_user_sharded_tenant(huge);
    println!("huge tenant: {POPULATION} clones user-sharded over {SHARDS} shards, {SLOTS} slots\n");

    // diurnal ramp with a slowly drifting population window, the shape of
    // the paper's traces — recorded up front as a replayable per-slot batch
    // list and streamed through the unified ingestion driver
    let batches: Vec<Vec<SlotRecord>> = (0..SLOTS)
        .map(|slot| {
            let phase = (slot % 24) as f64 / 24.0 * std::f64::consts::TAU;
            let load = (f64::from(POPULATION) * (1.0 + 0.25 * phase.sin())).round() as u32;
            let drift = slot as u32 * (POPULATION / 200);
            (0..load)
                .map(|u| {
                    SlotRecord::new(
                        huge,
                        AccelerationGroupId((u % 3 + 1) as u8),
                        UserId(drift + u),
                    )
                })
                .collect()
        })
        .collect();

    let mut driver = FleetDriver::new(engine)
        .with_source(huge, SlotBatchSource::new(batches))
        .expect("the huge tenant is onboarded");
    let report = driver
        .run_until_exhausted(SLOTS)
        .expect("the replay source stays on its tenant");

    let metrics = &report.metrics;
    let engine = driver.engine();
    let tenant = metrics.tenant(huge).expect("huge tenant is onboarded");
    println!("rollup over the tenant's {} replicas:", SHARDS);
    println!("  slots ticked              {:>10}", tenant.slots);
    println!("  mean users/slot           {:>10.0}", tenant.mean_users());
    println!(
        "  mean forecast accuracy    {:>10.3}",
        tenant.mean_accuracy().unwrap_or(0.0)
    );
    println!("  allocations               {:>10}", tenant.allocations);
    println!(
        "  mean instances/slot       {:>10.1}",
        tenant.mean_instances()
    );
    println!("  total cost (USD)          {:>10.2}", tenant.total_cost);
    println!(
        "  alloc cache hit/miss/evict{:>6}/{}/{}",
        tenant.alloc_cache_hits, tenant.alloc_cache_misses, tenant.alloc_cache_evictions
    );

    let forecast = engine
        .combined_forecast(huge)
        .expect("every replica has forecast");
    println!("\ncombined next-slot forecast: {} users", forecast.total());
    for (group, users) in &forecast.per_group {
        println!("  {group}: {users}");
    }
}
