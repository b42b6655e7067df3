//! The per-tenant provisioning state: one closed loop per tenant.
//!
//! A [`TenantShard`] is the multi-tenant unit of the paper's Fig. 2 loop: one
//! tenant's [`ControlLoop`] — its private knowledge base, allocator,
//! instance pool, billing backend and allocation memo — plus the tenant's
//! accounting. A provisioning tick *is* [`ControlLoop::close_slot`], the
//! same call the single-operator [`mca_core::System`] makes at each slot
//! boundary, so a fleet of shards is by construction a set of independent
//! single-tenant systems, just executed batched and in parallel
//! (`tests/integration_system.rs::system_is_a_one_tenant_fleet` replays a
//! `System::run` through a one-tenant fleet and compares every forecast).

use crate::metrics::TenantMetrics;
use crate::telemetry::ewma;
use mca_cloudsim::{Datacenter, InstancePool, PlacementError};
use mca_core::{
    BillingEngine, ControlLoop, SlotHistory, StageObserver, SystemConfig, TimeSlot,
    TimeSlotBuilder, WorkloadForecast, WorkloadPredictor,
};
use mca_offload::TenantId;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};

/// One tenant's control loop + accounting, and the builder its next slot
/// is staged in.
#[derive(Debug, Clone)]
pub struct TenantShard {
    id: TenantId,
    control: ControlLoop,
    /// The slot the engine stages this tenant's records in. It is empty
    /// between slots and travels with the tenant, so its frame (the last
    /// slot's id range) follows the tenant through insertions and
    /// migrations.
    pub(crate) builder: TimeSlotBuilder,
    metrics: TenantMetrics,
    /// EWMA of observed users per tick — the tenant's contribution to its
    /// shard's load, and the signal the rebalancer ranks tenants by. Derived
    /// purely from the observed slot populations, so it is independent of
    /// placement, thread count and telemetry mode.
    load_ewma: f64,
}

impl TenantShard {
    /// Creates the tenant's provisioning state from the shared system
    /// configuration (groups, strategies, caps and history window all come
    /// from [`SystemConfig`], exactly as [`mca_core::System::new`] builds
    /// its own loop).
    pub fn new(id: TenantId, config: &SystemConfig) -> Self {
        Self {
            id,
            control: ControlLoop::new(config),
            builder: TimeSlotBuilder::default(),
            metrics: TenantMetrics::new(id),
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
        self.control.forecast()
    }

    /// The tenant's knowledge base.
    pub fn predictor(&self) -> &WorkloadPredictor {
        self.control.predictor()
    }

    /// The tenant's instance pool.
    pub fn pool(&self) -> &InstancePool {
        self.control.pool()
    }

    /// The tenant's billing engine.
    pub fn billing(&self) -> &BillingEngine {
        self.control.billing()
    }

    /// The tenant's simulated datacenter, when the fleet bills against one.
    pub fn datacenter(&self) -> Option<&Datacenter> {
        self.billing().datacenter()
    }

    /// The tenant's standing placement failure, if its most recent
    /// placement transaction found no host (host exhaustion never panics —
    /// the engine surfaces it as `FleetError::Placement`).
    pub fn placement_error(&self) -> Option<&PlacementError> {
        self.billing().placement_error()
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
    /// boundary; `stages` watches the predict, allocate and bill phases
    /// (`&mut ()` watches nothing). The closed slot is then folded into the
    /// tenant's accounting.
    pub fn tick<S: StageObserver>(&mut self, slot: TimeSlot, now_ms: f64, stages: &mut S) {
        let outcome = self.control.close_slot(slot, now_ms, stages);
        let metrics = &mut self.metrics;
        metrics.slots += 1;
        metrics.total_user_slots += outcome.observed_users;
        metrics.peak_users = metrics.peak_users.max(outcome.observed_users);
        self.load_ewma = ewma(
            self.load_ewma,
            outcome.observed_users as f64,
            metrics.slots as u64,
        );
        if let Some(score) = outcome.forecast_accuracy {
            metrics.scored_slots += 1;
            metrics.accuracy_sum += score;
        }
        match outcome.provision {
            None => {}
            Some(Ok(provisioned)) => {
                if provisioned.memo_hit {
                    metrics.alloc_cache_hits += 1;
                } else {
                    // solver work is accounted where it happens: memo hits
                    // replay a clone of the original solve and must not
                    // re-count its effort
                    metrics.alloc_cache_misses += 1;
                    metrics.solver_nodes += provisioned.allocation.stats.nodes;
                    metrics.solver_pivots += provisioned.allocation.stats.pivots;
                    metrics.solver_phase1_skips += provisioned.allocation.stats.phase1_skips;
                }
                metrics.alloc_cache_evictions += usize::from(provisioned.memo_evicted);
                metrics.allocations += 1;
                metrics.allocated_instance_slots += provisioned.allocation.total_instances();
                let settlement = provisioned.settlement;
                metrics.total_cost += settlement.cost;
                metrics.sla_violations += settlement.sla_violations;
                metrics.sla_dropped_users += settlement.sla_dropped_users;
                metrics.sla_latency_ms += settlement.sla_latency_ms;
                metrics.energy_wh += settlement.energy_wh;
                metrics.placed_instance_slots += settlement.placements;
                metrics.placement_failures += settlement.placement_failures;
            }
            Some(Err(_)) => {
                metrics.alloc_cache_misses += 1;
                metrics.infeasible_allocations += 1;
            }
        }
    }

    /// Number of distinct workload vectors currently memoized.
    pub fn cached_allocations(&self) -> usize {
        self.control.cached_allocations()
    }

    /// Serializes the shard's full tick state for a checkpoint: identity,
    /// the control loop (see its [`Snapshot`] impl), metrics and the load
    /// EWMA.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.control.encode(out);
        self.metrics.encode(out);
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
        let control = ControlLoop::decode(cur, config)?;
        let metrics = TenantMetrics::decode(cur)?;
        let load_ewma = f64::decode(cur)?;
        if metrics.tenant != id {
            return Err(SnapshotError::Malformed {
                context: "tenant metrics belong to another tenant",
            });
        }
        Ok(Self {
            id,
            control,
            builder: TimeSlotBuilder::default(),
            metrics,
            load_ewma,
        })
    }

    /// Hands the tenant's slot history out of the shard (offboarding or
    /// migration to another shard): the knowledge base moves without
    /// copying, the standing forecast is dropped, the allocation memo is
    /// cleared and the instance pool is terminated at `now_ms`.
    pub fn decommission(&mut self, now_ms: f64) -> SlotHistory {
        self.control.decommission(now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_core::control::ALLOC_CACHE_CAP;
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
        let mut shard = TenantShard::new(TenantId(3), &config());
        assert_eq!(shard.id(), TenantId(3));
        assert!(shard.forecast().is_none());

        shard.tick(slot(0, 10), 3_600_000.0, &mut ());
        // first slot: nothing to score yet, but a forecast + allocation stand
        assert_eq!(shard.metrics().slots, 1);
        assert_eq!(shard.metrics().scored_slots, 0);
        assert_eq!(shard.metrics().allocations, 1);
        assert_eq!(shard.metrics().alloc_cache_misses, 1);
        assert!(shard.forecast().is_some());
        assert!(shard.metrics().total_cost > 0.0);
        assert!(!shard.pool().is_empty());

        shard.tick(slot(1, 10), 7_200_000.0, &mut ());
        // identical workload: the standing forecast scores perfectly
        assert_eq!(shard.metrics().scored_slots, 1);
        assert!((shard.metrics().accuracy_sum - 1.0).abs() < 1e-12);
        assert_eq!(shard.metrics().peak_users, 10);
        assert_eq!(shard.predictor().history().len(), 2);
    }

    #[test]
    fn shards_replicate_the_single_tenant_loop_exactly() {
        // two shards with the same config, fed the same slots, are
        // bit-identical — the property the fleet engine builds on
        let mut a = TenantShard::new(TenantId(1), &config());
        let mut b = TenantShard::new(TenantId(1), &config());
        for i in 0..5 {
            let users = 5 + (i as u32 * 7) % 11;
            a.tick(slot(i, users), (i + 1) as f64 * 3_600_000.0, &mut ());
            b.tick(slot(i, users), (i + 1) as f64 * 3_600_000.0, &mut ());
        }
        assert_eq!(a.forecast(), b.forecast());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn repeat_forecasts_hit_the_allocation_cache() {
        let mut shard = TenantShard::new(TenantId(9), &config());
        // steady workload: the forecast repeats from the second slot on
        for i in 0..6 {
            shard.tick(slot(i, 12), (i + 1) as f64 * 3_600_000.0, &mut ());
        }
        let m = shard.metrics();
        assert_eq!(m.allocations, 6);
        assert_eq!(m.alloc_cache_misses, 1, "one solve for the steady vector");
        assert_eq!(m.alloc_cache_hits, 5, "every repeat is served cached");
        assert_eq!(shard.cached_allocations(), 1);

        // a different workload vector misses, then hits on its repeat
        shard.tick(slot(6, 30), 7.0 * 3_600_000.0, &mut ());
        shard.tick(slot(7, 30), 8.0 * 3_600_000.0, &mut ());
        let m = shard.metrics();
        assert_eq!(m.alloc_cache_misses, 2);
        assert_eq!(m.alloc_cache_hits, 6);
        assert_eq!(shard.cached_allocations(), 2);
    }

    #[test]
    fn cached_allocations_are_identical_to_fresh_solves() {
        // same slots with and without intervening repeats: metrics that
        // depend on the allocation (cost, instance-slots) must agree
        let mut cached = TenantShard::new(TenantId(1), &config());
        let mut fresh = TenantShard::new(TenantId(1), &config());
        for i in 0..4 {
            cached.tick(slot(i, 8), (i + 1) as f64 * 3_600_000.0, &mut ());
        }
        for i in 0..4 {
            fresh.tick(slot(i, 8), (i + 1) as f64 * 3_600_000.0, &mut ());
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
        let mut shard = TenantShard::new(TenantId(1), &config);

        // one distinct vector past the cap
        let past_cap = ALLOC_CACHE_CAP as u32 + 1;
        for users in 1..=past_cap {
            shard.tick(
                slot(users as usize, users),
                f64::from(users) * 3_600_000.0,
                &mut (),
            );
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
            shard.tick(
                slot(index as usize, users),
                f64::from(index) * 3_600_000.0,
                &mut (),
            );
            index += 1;
        }
        let m = shard.metrics();
        assert_eq!(m.alloc_cache_misses, ALLOC_CACHE_CAP + 1, "all repeats hit");
        assert_eq!(m.alloc_cache_hits, 32);
        assert_eq!(m.alloc_cache_evictions, 1);

        // the evicted oldest vector misses again and displaces the
        // next-oldest, never the fresh working set
        shard.tick(
            slot(index as usize, 1),
            f64::from(index) * 3_600_000.0,
            &mut (),
        );
        let m = shard.metrics();
        assert_eq!(m.alloc_cache_misses, ALLOC_CACHE_CAP + 2);
        assert_eq!(m.alloc_cache_evictions, 2);
        assert_eq!(shard.cached_allocations(), ALLOC_CACHE_CAP);
        shard.tick(
            slot(index as usize + 1, 1),
            f64::from(index + 1) * 3_600_000.0,
            &mut (),
        );
        assert_eq!(shard.metrics().alloc_cache_hits, 33, "hot key retained");
    }

    #[test]
    fn datacenter_billing_adds_accounting_without_moving_a_bit() {
        use mca_cloudsim::DatacenterConfig;
        let mut plain = TenantShard::new(TenantId(4), &config());
        let mut datacenter = TenantShard::new(
            TenantId(4),
            &config().with_datacenter(DatacenterConfig::paper_default()),
        );
        for i in 0..5 {
            let users = 4 + (i as u32 * 5) % 9;
            plain.tick(slot(i, users), (i + 1) as f64 * 3_600_000.0, &mut ());
            datacenter.tick(slot(i, users), (i + 1) as f64 * 3_600_000.0, &mut ());
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
        let mut shard = TenantShard::new(TenantId(6), &starved);
        shard.tick(slot(0, 10), 3_600_000.0, &mut ());
        shard.tick(slot(1, 10), 7_200_000.0, &mut ());
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
        let mut shard = TenantShard::new(TenantId(5), &config());
        for i in 0..3 {
            shard.tick(slot(i, 4), (i + 1) as f64 * 3_600_000.0, &mut ());
        }
        let history = shard.decommission(4.0 * 3_600_000.0);
        assert_eq!(history.len(), 3);
        assert!(shard.predictor().history().is_empty());
        assert!(shard.forecast().is_none());
        assert!(shard.pool().is_empty());
    }

    #[test]
    fn load_ewma_tracks_observed_users() {
        let mut shard = TenantShard::new(TenantId(2), &config());
        assert_eq!(shard.load_ewma(), 0.0);
        shard.tick(slot(0, 8), 3_600_000.0, &mut ());
        assert_eq!(shard.load_ewma(), 8.0, "first sample seeds the average");
        shard.tick(slot(1, 16), 7_200_000.0, &mut ());
        let expected = 0.125 * 16.0 + 0.875 * 8.0;
        assert!((shard.load_ewma() - expected).abs() < 1e-12);
    }
}
