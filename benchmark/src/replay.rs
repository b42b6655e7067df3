//! The layer replay of the traced run: the batch a slot just fed to the
//! (opaque) `FleetDriver::step` is run again through the public layer
//! functions, on tenant-alone replicas built from the same `SystemConfig`,
//! one timed span per layer. The replicas' forecasts must equal the
//! engine's every slot, so the replay is also the reference computation.
//!
//! The engine walks tenant by tenant through all stages; the replay walks
//! stage by stage through all tenants, so that each layer is one contiguous
//! span per slot. Tenants share no state, so both orders compute the same.

use crate::trace::Trace;
use mca_cloudsim::InstancePool;
use mca_core::{
    Allocation, BillingBackend, BillingEngine, ResourceAllocator, SystemConfig, TimeSlotBuilder,
    WorkloadForecast, WorkloadPredictor,
};
use mca_fleet::ingest::bucket_by_shard;
use mca_fleet::{ShardRouter, SlotRecord};
use mca_offload::{AccelerationGroupId, TenantId};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::Instant;

/// Entries a tenant's allocation memo holds before it evicts the oldest:
/// the value of `mca-fleet`'s private `ALLOC_CACHE_CAP`, which the mirror
/// must share for its hit counts to equal the engine's.
const MEMO_CAP: usize = 1024;

type WorkloadVector = Vec<(AccelerationGroupId, usize)>;

/// One tenant running alone: the parts of a `TenantShard`, held apart so
/// each can be timed.
#[derive(Debug)]
struct Replica {
    predictor: WorkloadPredictor,
    allocator: ResourceAllocator,
    pool: InstancePool,
    billing: BillingEngine,
    /// The harness-side mirror of the shard's allocation memo cache.
    memo: HashMap<WorkloadVector, Allocation>,
    memo_order: VecDeque<WorkloadVector>,
    forecast: Option<WorkloadForecast>,
}

/// Counts the replay makes at the layer boundaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Time inside `TimeSlotBuilder::build` (the sort + dedup), ns: the
    /// part of `core.timeslot.build` the engine's windowing clock covers.
    pub sort_dedup_ns: u64,
    /// Allocation requests the memo mirror served.
    pub memo_hits: u64,
    /// Allocation requests that reached the solver.
    pub solves: u64,
    /// Time inside `ResourceAllocator::allocate`, ns.
    pub solve_ns: u64,
    /// Branch-and-bound nodes over all solves.
    pub nodes: u64,
    /// Simplex pivots over all solves.
    pub pivots: u64,
    /// Nodes that re-entered from their parent's basis.
    pub phase1_skips: u64,
    /// Requests the allocator found infeasible.
    pub infeasible: u64,
    /// Instances placed on simulated hosts.
    pub placements: u64,
    /// Placement transactions that found no host.
    pub placement_failures: u64,
}

/// Tenant-alone replicas of a whole fleet.
#[derive(Debug)]
pub struct Replay {
    router: ShardRouter,
    no_user_sharding: BTreeSet<TenantId>,
    /// Indexed by tenant id (the workloads number tenants from 0).
    replicas: Vec<Replica>,
    groups: Vec<AccelerationGroupId>,
    slot_length_ms: f64,
    /// Counts so far.
    pub counts: ReplayCounts,
}

impl Replay {
    /// Replicas of tenants `0..tenants` under `config`, bucketed over
    /// `shards` shards by the router's hash.
    pub fn new(config: &SystemConfig, shards: usize, tenants: usize) -> Self {
        Self {
            router: ShardRouter::new(shards),
            no_user_sharding: BTreeSet::new(),
            replicas: (0..tenants)
                .map(|_| Replica {
                    predictor: config.build_predictor(),
                    allocator: config.build_allocator(),
                    pool: config.build_pool(),
                    billing: config.build_billing(),
                    memo: HashMap::new(),
                    memo_order: VecDeque::new(),
                    forecast: None,
                })
                .collect(),
            groups: config.groups.ids(),
            slot_length_ms: config.slot_length_ms,
            counts: ReplayCounts::default(),
        }
    }

    /// The forecast standing for `tenant`'s next slot.
    pub fn forecast(&self, tenant: TenantId) -> Option<&WorkloadForecast> {
        self.replicas[tenant.0 as usize].forecast.as_ref()
    }

    /// Runs slot `slot` over `batch`, recording one span per layer under
    /// `parent`.
    pub fn slot(&mut self, batch: &[SlotRecord], slot: usize, trace: &mut Trace, parent: u32) {
        let op = slot as u32;
        let now_ms = (slot + 1) as f64 * self.slot_length_ms;

        let start = Instant::now();
        let buckets = bucket_by_shard(batch, &self.router, &self.no_user_sharding);
        let bucketed = Instant::now();
        trace.record("fleet.ingest.bucket", start, bucketed, Some(parent), op);

        // one builder per tenant, filled shard by shard as the shard tick
        // does, then one sort + dedup each
        let mut builders: Vec<TimeSlotBuilder> = self
            .replicas
            .iter()
            .map(|_| TimeSlotBuilder::new(slot))
            .collect();
        for bucket in &buckets {
            for record in bucket {
                builders[record.tenant.0 as usize].assign(record.group, record.user);
            }
        }
        let sorting = Instant::now();
        let slots: Vec<_> = builders.into_iter().map(TimeSlotBuilder::build).collect();
        let built = Instant::now();
        self.counts.sort_dedup_ns += built.duration_since(sorting).as_nanos() as u64;
        trace.record("core.timeslot.build", bucketed, built, Some(parent), op);

        // what each slot really brought, for the datacenter's SLA score
        // (the shard tick collects it before the predictor takes the slot)
        let demands: Vec<WorkloadVector> = slots
            .iter()
            .map(|s| self.groups.iter().map(|g| (*g, s.load_of(*g))).collect())
            .collect();

        let start = Instant::now();
        for (replica, observed) in self.replicas.iter_mut().zip(slots) {
            replica.forecast = replica.predictor.observe_and_predict(observed).ok();
        }
        let predicted = Instant::now();
        trace.record(
            "core.predictor.observe_predict",
            start,
            predicted,
            Some(parent),
            op,
        );

        let counts = &mut self.counts;
        let allocations: Vec<Option<Allocation>> = self
            .replicas
            .iter_mut()
            .map(|replica| {
                let forecast = replica.forecast.as_ref()?;
                if let Some(hit) = replica.memo.get(&forecast.per_group) {
                    counts.memo_hits += 1;
                    return Some(hit.clone());
                }
                counts.solves += 1;
                let solve = Instant::now();
                let solved = replica.allocator.allocate(forecast);
                counts.solve_ns += solve.elapsed().as_nanos() as u64;
                let Ok(allocation) = solved else {
                    counts.infeasible += 1;
                    return None;
                };
                counts.nodes += allocation.stats.nodes as u64;
                counts.pivots += allocation.stats.pivots as u64;
                counts.phase1_skips += allocation.stats.phase1_skips as u64;
                if replica.memo.len() >= MEMO_CAP {
                    if let Some(oldest) = replica.memo_order.pop_front() {
                        replica.memo.remove(&oldest);
                    }
                }
                replica
                    .memo
                    .insert(forecast.per_group.clone(), allocation.clone());
                replica.memo_order.push_back(forecast.per_group.clone());
                Some(allocation)
            })
            .collect();
        let allocated = Instant::now();
        trace.record(
            "core.allocator.allocate",
            predicted,
            allocated,
            Some(parent),
            op,
        );

        for ((replica, allocation), observed) in
            self.replicas.iter_mut().zip(&allocations).zip(&demands)
        {
            if let Some(allocation) = allocation {
                let settlement = replica.billing.settle(
                    &mut replica.pool,
                    allocation,
                    observed,
                    self.slot_length_ms,
                    now_ms,
                );
                self.counts.placements += settlement.placements as u64;
                self.counts.placement_failures += settlement.placement_failures as u64;
            }
        }
        trace.record(
            "core.billing.settle",
            allocated,
            Instant::now(),
            Some(parent),
            op,
        );
    }
}
