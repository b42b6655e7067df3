//! The per-tenant provisioning state: one closed loop per tenant.
//!
//! A [`TenantShard`] is the multi-tenant unit of the paper's Fig. 2 loop: it
//! owns one tenant's [`WorkloadPredictor`] (the tenant's private knowledge
//! base), [`ResourceAllocator`] and [`InstancePool`], plus the tenant's own
//! deterministic RNG stream. Every provisioning tick replays the cycle the
//! single-operator [`mca_core::System`] runs at each slot boundary — score
//! the previous forecast, learn the observed slot, forecast the next one,
//! allocate and bill — so a fleet of shards is semantically *exactly* a set
//! of independent single-tenant systems, just executed batched and in
//! parallel.

use crate::metrics::TenantMetrics;
use crate::telemetry::{ewma, ShardTelemetry};
use mca_cloudsim::{Datacenter, InstancePool, PlacementError};
use mca_core::{
    accuracy, Allocation, BillingBackend, BillingEngine, ResourceAllocator, SlotHistory,
    SystemConfig, TimeSlot, WorkloadForecast, WorkloadPredictor,
};
use mca_offload::{AccelerationGroupId, TenantId};
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};

/// Upper bound on memoized allocations per tenant. Steady tenants cycle
/// through a handful of workload vectors, so the cap is generous; a tenant
/// that exceeds it evicts one entry per new insertion, oldest first (FIFO
/// by insertion order), so the recent working set keeps serving hits and
/// the just-inserted vector is never the victim. Eviction depends only on
/// the tenant's own forecast sequence, so it is deterministic across runs,
/// shard layouts and thread counts.
const ALLOC_CACHE_CAP: usize = 1024;

/// One tenant's predictor + allocator + instance pool + RNG stream.
#[derive(Debug, Clone)]
pub struct TenantShard {
    id: TenantId,
    predictor: WorkloadPredictor,
    allocator: ResourceAllocator,
    pool: InstancePool,
    /// The bill stage's backend: pure arithmetic by default, a transaction
    /// against a per-tenant simulated datacenter when the configuration
    /// enabled one. Lives inside the shard, so a tenant migration carries
    /// the standing placement with it.
    billing: BillingEngine,
    rng: StdRng,
    metrics: TenantMetrics,
    /// Forecast produced at the end of the previous slot, scored against the
    /// next observed slot.
    pending_forecast: Option<WorkloadForecast>,
    slot_length_ms: f64,
    /// Memoized allocations keyed by the forecast workload vector: steady
    /// tenants re-predict the same per-group loads slot after slot, so the
    /// ILP re-solve is skipped entirely on repeats. The allocator is a pure
    /// function of the forecast, which makes the cache exact.
    alloc_cache: HashMap<Vec<(AccelerationGroupId, usize)>, Allocation>,
    /// Insertion order of the memoized workload vectors (front = oldest):
    /// the FIFO eviction queue behind [`ALLOC_CACHE_CAP`]. Always in sync
    /// with `alloc_cache` — entries enter and leave both together.
    alloc_cache_order: VecDeque<Vec<(AccelerationGroupId, usize)>>,
    /// EWMA of observed users per tick — the tenant's contribution to its
    /// shard's load, and the signal the rebalancer ranks tenants by. Derived
    /// purely from the observed slot populations, so it is independent of
    /// placement, thread count and telemetry mode.
    load_ewma: f64,
}

impl TenantShard {
    /// Derives the tenant's RNG stream seed from the fleet seed. The
    /// derivation matches `TenantMix::stream_for`, so a mix-driven fleet run
    /// (same fleet and mix seed) is replayable either through a standalone
    /// `TenantShard` or through the mix's own stream API — `try_tick_mix`
    /// generates exactly the records `TenantMix::stream_for` would.
    pub fn stream_seed(fleet_seed: u64, tenant: TenantId) -> u64 {
        fleet_seed ^ u64::from(tenant.0).wrapping_mul(0xBF58_476D_1CE4_E5B9)
    }

    /// Creates the tenant's provisioning state from the shared system
    /// configuration (groups, strategies, caps and history window all come
    /// from [`SystemConfig`], exactly as [`mca_core::System::new`] builds
    /// its single-operator equivalents).
    pub fn new(id: TenantId, config: &SystemConfig, fleet_seed: u64) -> Self {
        Self {
            id,
            predictor: config.build_predictor(),
            allocator: config.build_allocator(),
            pool: config.build_pool(),
            billing: config.build_billing(),
            rng: StdRng::seed_from_u64(Self::stream_seed(fleet_seed, id)),
            metrics: TenantMetrics::new(id),
            pending_forecast: None,
            slot_length_ms: config.slot_length_ms,
            alloc_cache: HashMap::new(),
            alloc_cache_order: VecDeque::new(),
            load_ewma: 0.0,
        }
    }

    /// The tenant this shard serves.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant's accumulated accounting.
    pub fn metrics(&self) -> &TenantMetrics {
        &self.metrics
    }

    /// The forecast standing for the *next* slot, if one was produced.
    pub fn forecast(&self) -> Option<&WorkloadForecast> {
        self.pending_forecast.as_ref()
    }

    /// The tenant's knowledge base.
    pub fn predictor(&self) -> &WorkloadPredictor {
        &self.predictor
    }

    /// The tenant's instance pool.
    pub fn pool(&self) -> &InstancePool {
        &self.pool
    }

    /// The tenant's billing engine.
    pub fn billing(&self) -> &BillingEngine {
        &self.billing
    }

    /// The tenant's simulated datacenter, when the fleet bills against one.
    pub fn datacenter(&self) -> Option<&Datacenter> {
        self.billing.datacenter()
    }

    /// The tenant's standing placement failure, if its most recent
    /// placement transaction found no host (host exhaustion never panics —
    /// the engine surfaces it as `FleetError::Placement`).
    pub fn placement_error(&self) -> Option<&PlacementError> {
        self.billing.placement_error()
    }

    /// The tenant's private RNG stream (used by synthetic workload
    /// generation; batched external ingest never touches it).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// EWMA of the tenant's observed users per tick — the load the tenant
    /// contributes to whichever shard hosts it. A pure function of the
    /// tenant's own observed slots (first sample seeds, later samples fold
    /// in at 1/8), so moving the tenant between shards never changes it.
    pub fn load_ewma(&self) -> f64 {
        self.load_ewma
    }

    /// Runs one provisioning tick on the observed `slot`: scores the
    /// standing forecast against it, folds it into the knowledge base,
    /// forecasts the next slot, allocates for that forecast and bills the
    /// allocation for one slot length. `now_ms` is the closing slot
    /// boundary.
    pub fn tick(&mut self, slot: TimeSlot, now_ms: f64) {
        self.tick_instrumented(slot, now_ms, &mut ShardTelemetry::disabled());
    }

    /// [`TenantShard::tick`] with stage tracing: the predict, allocate and
    /// billing phases are each timed against `telemetry`'s clock. The
    /// instrumented and plain ticks are the same code — `tick` delegates here
    /// with a disabled telemetry whose clock reads cost one branch — so
    /// forecasts and metrics are bit-identical in every telemetry mode.
    pub fn tick_instrumented(
        &mut self,
        slot: TimeSlot,
        now_ms: f64,
        telemetry: &mut ShardTelemetry,
    ) {
        let groups = self.predictor.groups();
        // the datacenter backend scores the slot's actual per-group arrivals
        // against the standing capacity; captured here because the predict
        // stage consumes the slot. Arithmetic billing skips the collection.
        let observed_demand: Vec<(AccelerationGroupId, usize)> = if self.billing.observes_demand() {
            groups.iter().map(|g| (*g, slot.load_of(*g))).collect()
        } else {
            Vec::new()
        };
        self.metrics.slots += 1;
        let observed_users = slot.total_users();
        self.metrics.total_user_slots += observed_users;
        self.metrics.peak_users = self.metrics.peak_users.max(observed_users);
        self.load_ewma = ewma(
            self.load_ewma,
            observed_users as f64,
            self.metrics.slots as u64,
        );

        if let Some(forecast) = &self.pending_forecast {
            self.metrics.scored_slots += 1;
            self.metrics.accuracy_sum += accuracy(forecast, &slot, groups).overall;
        }

        // the slot moves into the knowledge base (no clone) and the forecast
        // comes from the observe-and-predict fast path — identical to
        // `observe_slot` + `predict` on the same slot
        let timer = telemetry.start_stage();
        let forecast = self.predictor.observe_and_predict(slot).ok();
        telemetry.end_predict(timer);
        if let Some(forecast) = &forecast {
            let timer = telemetry.start_stage();
            let allocated = self.allocate_memoized(forecast);
            telemetry.end_allocate(timer);
            match allocated {
                Ok(allocation) => {
                    let timer = telemetry.start_stage();
                    self.metrics.allocations += 1;
                    self.metrics.allocated_instance_slots += allocation.total_instances();
                    // the backend applies the pool transaction (pool failures
                    // cannot occur: the allocator respects the same account
                    // cap the pool enforces) and — under datacenter billing —
                    // scores the elapsed slot, meters energy and re-places.
                    // The settled cost is the exact arithmetic expression this
                    // line always computed, so it is bit-identical across
                    // backends.
                    let settlement = self.billing.settle(
                        &mut self.pool,
                        &allocation,
                        &observed_demand,
                        self.slot_length_ms,
                        now_ms,
                    );
                    self.metrics.total_cost += settlement.cost;
                    self.metrics.sla_violations += settlement.sla_violations;
                    self.metrics.sla_dropped_users += settlement.sla_dropped_users;
                    self.metrics.sla_latency_ms += settlement.sla_latency_ms;
                    self.metrics.energy_wh += settlement.energy_wh;
                    self.metrics.placed_instance_slots += settlement.placements;
                    self.metrics.placement_failures += settlement.placement_failures;
                    telemetry.end_bill(timer);
                }
                Err(_) => self.metrics.infeasible_allocations += 1,
            }
        }
        self.pending_forecast = forecast;
    }

    /// Serves an allocation for `forecast`, from the memo cache when this
    /// workload vector was allocated before, solving (and caching) it
    /// otherwise. Cache-served allocations are clones of the original
    /// solve's result, so the tick's behaviour is bit-identical with and
    /// without the cache; only the hit/miss counters differ.
    fn allocate_memoized(
        &mut self,
        forecast: &WorkloadForecast,
    ) -> Result<Allocation, mca_core::CoreError> {
        if let Some(hit) = self.alloc_cache.get(&forecast.per_group) {
            self.metrics.alloc_cache_hits += 1;
            return Ok(hit.clone());
        }
        self.metrics.alloc_cache_misses += 1;
        let allocation = self.allocator.allocate(forecast)?;
        // solver work is accounted where it happens: cache hits replay a
        // clone of the original solve and must not re-count its effort
        self.metrics.solver_nodes += allocation.stats.nodes;
        self.metrics.solver_pivots += allocation.stats.pivots;
        self.metrics.solver_phase1_skips += allocation.stats.phase1_skips;
        if self.alloc_cache.len() >= ALLOC_CACHE_CAP {
            // bounded FIFO eviction: drop the oldest memoized vector. The
            // key being inserted is by construction not in the cache (this
            // is a miss), so the hot key can never be its own victim — the
            // previous wholesale `clear()` here thrashed a >CAP-vector
            // tenant to a ~0% hit rate right after warm-up.
            if let Some(oldest) = self.alloc_cache_order.pop_front() {
                self.alloc_cache.remove(&oldest);
                self.metrics.alloc_cache_evictions += 1;
            }
        }
        self.alloc_cache
            .insert(forecast.per_group.clone(), allocation.clone());
        self.alloc_cache_order.push_back(forecast.per_group.clone());
        Ok(allocation)
    }

    /// Number of distinct workload vectors currently memoized.
    pub fn cached_allocations(&self) -> usize {
        self.alloc_cache.len()
    }

    /// Serializes the shard's full tick state for a checkpoint: identity,
    /// knowledge base, instance pool, billing backend (standing datacenter
    /// placement included), the raw RNG stream words, metrics, the standing
    /// forecast, the allocation memo cache **in FIFO insertion order** (so
    /// the restored cache evicts the same victims), and the load EWMA. The
    /// allocator and slot length are not on the wire — both are pure
    /// functions of the [`SystemConfig`] the restore receives.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.predictor.encode(out);
        self.pool.encode(out);
        self.billing.encode(out);
        self.rng.state().encode(out);
        self.metrics.encode(out);
        self.pending_forecast.encode(out);
        // the HashMap is rebuilt from the FIFO queue: one pass, exact order
        self.alloc_cache_order.len().encode(out);
        for key in &self.alloc_cache_order {
            key.encode(out);
            self.alloc_cache[key].encode(out);
        }
        self.load_ewma.encode(out);
    }

    /// Rebuilds a shard from [`TenantShard::encode_state`] bytes and the
    /// shared system configuration (which supplies the allocator and slot
    /// length, exactly as [`TenantShard::new`] does).
    pub(crate) fn decode_state(
        cur: &mut Cursor<'_>,
        config: &SystemConfig,
    ) -> Result<Self, SnapshotError> {
        let id = TenantId::decode(cur)?;
        let predictor = WorkloadPredictor::decode(cur)?;
        let pool = InstancePool::decode(cur)?;
        let billing = BillingEngine::decode(cur)?;
        let rng = StdRng::from_state(<[u64; 4]>::decode(cur)?);
        let metrics = TenantMetrics::decode(cur)?;
        let pending_forecast = Option::<WorkloadForecast>::decode(cur)?;
        let entries = usize::decode(cur)?;
        if entries > ALLOC_CACHE_CAP {
            return Err(SnapshotError::Malformed {
                context: "allocation memo cache over its cap",
            });
        }
        let mut alloc_cache = HashMap::with_capacity(entries);
        let mut alloc_cache_order = VecDeque::with_capacity(entries);
        for _ in 0..entries {
            let key = Vec::<(AccelerationGroupId, usize)>::decode(cur)?;
            let allocation = Allocation::decode(cur)?;
            if alloc_cache.insert(key.clone(), allocation).is_some() {
                return Err(SnapshotError::Malformed {
                    context: "duplicate workload vector in the memo cache",
                });
            }
            alloc_cache_order.push_back(key);
        }
        let load_ewma = f64::decode(cur)?;
        if metrics.tenant != id {
            return Err(SnapshotError::Malformed {
                context: "tenant metrics belong to another tenant",
            });
        }
        Ok(Self {
            id,
            predictor,
            allocator: config.build_allocator(),
            pool,
            billing,
            rng,
            metrics,
            pending_forecast,
            slot_length_ms: config.slot_length_ms,
            alloc_cache,
            alloc_cache_order,
            load_ewma,
        })
    }

    /// Hands the tenant's slot history out of the shard (offboarding or
    /// migration to another shard): the knowledge base moves without
    /// copying, the standing forecast is dropped, the allocation memo is
    /// cleared and the instance pool is terminated at `now_ms`.
    pub fn decommission(&mut self, now_ms: f64) -> SlotHistory {
        self.pending_forecast = None;
        self.alloc_cache.clear();
        self.alloc_cache_order.clear();
        self.pool.terminate_all(now_ms);
        self.billing.reset();
        self.predictor.take_history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_core::{AllocationPolicy, PredictionStrategy};
    use mca_offload::{AccelerationGroupId, UserId};

    fn slot(index: usize, users: u32) -> TimeSlot {
        TimeSlot::from_assignments(
            index,
            (0..users).map(|u| (AccelerationGroupId(1), UserId(u))),
        )
    }

    fn config() -> SystemConfig {
        SystemConfig::paper_three_groups().with_slot_length_ms(3_600_000.0)
    }

    #[test]
    fn tick_cycle_scores_learns_allocates_and_bills() {
        let mut shard = TenantShard::new(TenantId(3), &config(), 7);
        assert_eq!(shard.id(), TenantId(3));
        assert!(shard.forecast().is_none());

        shard.tick(slot(0, 10), 3_600_000.0);
        // first slot: nothing to score yet, but a forecast + allocation stand
        assert_eq!(shard.metrics().slots, 1);
        assert_eq!(shard.metrics().scored_slots, 0);
        assert_eq!(shard.metrics().allocations, 1);
        assert_eq!(shard.metrics().alloc_cache_misses, 1);
        assert!(shard.forecast().is_some());
        assert!(shard.metrics().total_cost > 0.0);
        assert!(!shard.pool().is_empty());

        shard.tick(slot(1, 10), 7_200_000.0);
        // identical workload: the standing forecast scores perfectly
        assert_eq!(shard.metrics().scored_slots, 1);
        assert!((shard.metrics().accuracy_sum - 1.0).abs() < 1e-12);
        assert_eq!(shard.metrics().peak_users, 10);
        assert_eq!(shard.predictor().history().len(), 2);
    }

    #[test]
    fn shards_replicate_the_single_tenant_loop_exactly() {
        // two shards with the same config and stream seed, fed the same
        // slots, are bit-identical — the property the fleet engine builds on
        let mut a = TenantShard::new(TenantId(1), &config(), 42);
        let mut b = TenantShard::new(TenantId(1), &config(), 42);
        for i in 0..5 {
            let users = 5 + (i as u32 * 7) % 11;
            a.tick(slot(i, users), (i + 1) as f64 * 3_600_000.0);
            b.tick(slot(i, users), (i + 1) as f64 * 3_600_000.0);
        }
        assert_eq!(a.forecast(), b.forecast());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn repeat_forecasts_hit_the_allocation_cache() {
        let mut shard = TenantShard::new(TenantId(9), &config(), 3);
        // steady workload: the forecast repeats from the second slot on
        for i in 0..6 {
            shard.tick(slot(i, 12), (i + 1) as f64 * 3_600_000.0);
        }
        let m = shard.metrics();
        assert_eq!(m.allocations, 6);
        assert_eq!(m.alloc_cache_misses, 1, "one solve for the steady vector");
        assert_eq!(m.alloc_cache_hits, 5, "every repeat is served cached");
        assert_eq!(shard.cached_allocations(), 1);

        // a different workload vector misses, then hits on its repeat
        shard.tick(slot(6, 30), 7.0 * 3_600_000.0);
        shard.tick(slot(7, 30), 8.0 * 3_600_000.0);
        let m = shard.metrics();
        assert_eq!(m.alloc_cache_misses, 2);
        assert_eq!(m.alloc_cache_hits, 6);
        assert_eq!(shard.cached_allocations(), 2);
    }

    #[test]
    fn cached_allocations_are_identical_to_fresh_solves() {
        // same slots with and without intervening repeats: metrics that
        // depend on the allocation (cost, instance-slots) must agree
        let mut cached = TenantShard::new(TenantId(1), &config(), 5);
        let mut fresh = TenantShard::new(TenantId(1), &config(), 5);
        for i in 0..4 {
            cached.tick(slot(i, 8), (i + 1) as f64 * 3_600_000.0);
        }
        for i in 0..4 {
            fresh.tick(slot(i, 8), (i + 1) as f64 * 3_600_000.0);
        }
        assert_eq!(cached.metrics(), fresh.metrics());
        assert_eq!(cached.forecast(), fresh.forecast());
    }

    #[test]
    fn cache_cap_evicts_oldest_vector_not_the_working_set() {
        // LastValue makes the forecast equal the observed slot, so each
        // distinct user count is a distinct workload vector; greedy
        // allocation keeps the 1k+ solves cheap and a raised account cap
        // keeps them feasible
        let mut config = config()
            .with_prediction_strategy(PredictionStrategy::LastValue)
            .with_allocation_policy(AllocationPolicy::GreedyCheapest)
            .with_history_window(4);
        config.account_cap = 1_000_000;
        let mut shard = TenantShard::new(TenantId(1), &config, 1);

        // one distinct vector past the cap
        let past_cap = ALLOC_CACHE_CAP as u32 + 1;
        for users in 1..=past_cap {
            shard.tick(slot(users as usize, users), f64::from(users) * 3_600_000.0);
        }
        let m = shard.metrics();
        assert_eq!(m.alloc_cache_misses, ALLOC_CACHE_CAP + 1);
        assert_eq!(m.alloc_cache_hits, 0);
        assert_eq!(m.alloc_cache_evictions, 1, "only the oldest vector left");
        assert_eq!(shard.cached_allocations(), ALLOC_CACHE_CAP);

        // recent repeats keep serving hits — under the previous wholesale
        // clear() the cache held a single vector at this point and every
        // repeat below would have missed
        let mut index = past_cap + 1;
        for users in (past_cap - 31..=past_cap).rev() {
            shard.tick(slot(index as usize, users), f64::from(index) * 3_600_000.0);
            index += 1;
        }
        let m = shard.metrics();
        assert_eq!(m.alloc_cache_misses, ALLOC_CACHE_CAP + 1, "all repeats hit");
        assert_eq!(m.alloc_cache_hits, 32);
        assert_eq!(m.alloc_cache_evictions, 1);

        // the evicted oldest vector misses again and displaces the
        // next-oldest, never the fresh working set
        shard.tick(slot(index as usize, 1), f64::from(index) * 3_600_000.0);
        let m = shard.metrics();
        assert_eq!(m.alloc_cache_misses, ALLOC_CACHE_CAP + 2);
        assert_eq!(m.alloc_cache_evictions, 2);
        assert_eq!(shard.cached_allocations(), ALLOC_CACHE_CAP);
        shard.tick(
            slot(index as usize + 1, 1),
            f64::from(index + 1) * 3_600_000.0,
        );
        assert_eq!(shard.metrics().alloc_cache_hits, 33, "hot key retained");
    }

    #[test]
    fn datacenter_billing_adds_accounting_without_moving_a_bit() {
        use mca_cloudsim::DatacenterConfig;
        let mut plain = TenantShard::new(TenantId(4), &config(), 11);
        let mut datacenter = TenantShard::new(
            TenantId(4),
            &config().with_datacenter(DatacenterConfig::paper_default()),
            11,
        );
        for i in 0..5 {
            let users = 4 + (i as u32 * 5) % 9;
            plain.tick(slot(i, users), (i + 1) as f64 * 3_600_000.0);
            datacenter.tick(slot(i, users), (i + 1) as f64 * 3_600_000.0);
        }
        // forecasts and every prediction/allocation/cost field agree bitwise
        assert_eq!(plain.forecast(), datacenter.forecast());
        let p = plain.metrics();
        let d = datacenter.metrics();
        assert_eq!(p.total_cost.to_bits(), d.total_cost.to_bits());
        assert_eq!(
            (p.allocations, p.allocated_instance_slots, p.scored_slots),
            (d.allocations, d.allocated_instance_slots, d.scored_slots)
        );
        // only the datacenter shard carries placement/energy accounting
        assert_eq!(p.placed_instance_slots, 0);
        assert_eq!(p.energy_wh, 0.0);
        assert!(d.placed_instance_slots > 0);
        assert!(d.energy_wh > 0.0);
        assert_eq!(d.placement_failures, 0);
        assert!(datacenter.datacenter().unwrap().active_hosts() > 0);
        assert!(plain.datacenter().is_none());
    }

    #[test]
    fn host_exhaustion_is_a_counted_failure_not_a_panic() {
        use mca_cloudsim::DatacenterConfig;
        // one 1-vCPU host cannot hold the three-group minimum fleet (the
        // m4.4xlarge group member alone needs 16 vCPUs)
        let starved =
            config().with_datacenter(DatacenterConfig::paper_default().with_hosts(1, 1, 0.5));
        let mut shard = TenantShard::new(TenantId(6), &starved, 11);
        shard.tick(slot(0, 10), 3_600_000.0);
        shard.tick(slot(1, 10), 7_200_000.0);
        let m = shard.metrics();
        assert_eq!(m.allocations, 2, "the pool transaction still lands");
        assert_eq!(m.placement_failures, 2);
        assert_eq!(m.placed_instance_slots, 0);
        assert!(shard.placement_error().is_some());
        assert!(m.total_cost > 0.0, "the bill does not vanish");
        shard.decommission(3.0 * 3_600_000.0);
        assert!(shard.placement_error().is_none(), "reset clears the error");
    }

    #[test]
    fn decommission_hands_off_the_history_and_clears_the_pool() {
        let mut shard = TenantShard::new(TenantId(5), &config(), 1);
        for i in 0..3 {
            shard.tick(slot(i, 4), (i + 1) as f64 * 3_600_000.0);
        }
        let history = shard.decommission(4.0 * 3_600_000.0);
        assert_eq!(history.len(), 3);
        assert!(shard.predictor().history().is_empty());
        assert!(shard.forecast().is_none());
        assert!(shard.pool().is_empty());
    }

    #[test]
    fn load_ewma_tracks_observed_users() {
        let mut shard = TenantShard::new(TenantId(2), &config(), 1);
        assert_eq!(shard.load_ewma(), 0.0);
        shard.tick(slot(0, 8), 3_600_000.0);
        assert_eq!(shard.load_ewma(), 8.0, "first sample seeds the average");
        shard.tick(slot(1, 16), 7_200_000.0);
        let expected = 0.125 * 16.0 + 0.875 * 8.0;
        assert!((shard.load_ewma() - expected).abs() < 1e-12);
    }

    #[test]
    fn stream_seeds_differ_per_tenant_and_fleet_seed() {
        let a = TenantShard::stream_seed(1, TenantId(0));
        let b = TenantShard::stream_seed(1, TenantId(1));
        let c = TenantShard::stream_seed(2, TenantId(0));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shard_streams_match_the_mix_canonical_streams() {
        // the documented replay contract: with fleet seed == mix seed, a
        // shard's private stream IS the mix's canonical per-tenant stream
        let mix = mca_workload::TenantMix::heterogeneous(5, 10, config().groups.ids(), 77);
        for tenant in mix.tenant_ids() {
            let mut shard = TenantShard::new(tenant, &config(), 77);
            assert_eq!(*shard.rng_mut(), mix.stream_for(tenant), "{tenant}");
        }
    }
}
