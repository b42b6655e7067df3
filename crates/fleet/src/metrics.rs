//! Per-tenant accounting and fleet-wide rollups.
//!
//! Every [`crate::TenantShard`] accumulates its own [`TenantMetrics`] as its
//! predict→allocate→bill cycle runs; [`FleetMetrics::aggregate`] folds the
//! per-tenant records (in tenant-id order, so the fold is bitwise
//! reproducible across shard layouts and thread counts) into the fleet-wide
//! view an operator dashboard would show.
//!
//! Everything here is **placement-invariant** by design: a tenant's metrics
//! travel with its [`crate::TenantShard`] through a live migration, and no
//! counter records *where* the work ran — so the rollup is bit-identical
//! under any rebalancing schedule (the determinism suite asserts it).
//! Placement-dependent accounting (migrations performed, trigger ratios,
//! per-shard load) lives in [`crate::FleetTelemetry`] instead, which the
//! [`crate::DriveReport`] equality deliberately excludes.

use mca_offload::TenantId;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};

/// Accounting for one tenant: forecast quality, spend and allocation volume.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantMetrics {
    /// The tenant.
    pub tenant: TenantId,
    /// Slots ticked.
    pub slots: usize,
    /// Slots whose incoming forecast was scored against the actual workload
    /// (every slot after the first).
    pub scored_slots: usize,
    /// Sum of per-slot forecast accuracies over the scored slots.
    pub accuracy_sum: f64,
    /// Accumulated cloud spend, USD (hourly allocation cost × slot length).
    pub total_cost: f64,
    /// Successful allocations applied.
    pub allocations: usize,
    /// Allocations that were infeasible under the account cap.
    pub infeasible_allocations: usize,
    /// Sum of allocated instances over slots (instance-slots).
    pub allocated_instance_slots: usize,
    /// Largest observed per-slot user count.
    pub peak_users: usize,
    /// Sum of observed users over slots (user-slots).
    pub total_user_slots: usize,
    /// Allocations served from the per-tenant memo cache (repeat forecast
    /// workload vectors that skipped the solver).
    pub alloc_cache_hits: usize,
    /// Allocations that required a solver run (first sight of a workload
    /// vector, or a re-solve after the vector was evicted).
    pub alloc_cache_misses: usize,
    /// Memoized workload vectors evicted when the cache reached its cap
    /// (FIFO by insertion order; a high rate flags a tenant whose forecast
    /// churn exceeds the cache capacity).
    pub alloc_cache_evictions: usize,
    /// Branch-and-bound nodes the tenant's ILP solves explored (cache-served
    /// allocations replay the original solve and add nothing).
    pub solver_nodes: usize,
    /// Simplex pivots across the tenant's ILP solves.
    pub solver_pivots: usize,
    /// Solver nodes re-entered from a parent basis without running phase 1.
    pub solver_phase1_skips: usize,
    /// Group-slots whose actual arrivals violated the SLA of the standing
    /// allocation (zero under arithmetic billing).
    pub sla_violations: usize,
    /// Users beyond the admission limit of their serving instances.
    pub sla_dropped_users: usize,
    /// Modeled worst-response latency summed over scored group-slots, ms.
    pub sla_latency_ms: f64,
    /// Energy the tenant's standing placements drew, watt-hours.
    pub energy_wh: f64,
    /// Instances placed onto simulated hosts, summed over slots.
    pub placed_instance_slots: usize,
    /// Placement transactions that failed on host exhaustion.
    pub placement_failures: usize,
}

impl TenantMetrics {
    /// Creates empty accounting for `tenant`.
    pub fn new(tenant: TenantId) -> Self {
        Self {
            tenant,
            ..Self::default()
        }
    }

    /// Mean forecast accuracy over the scored slots, when any were scored.
    pub fn mean_accuracy(&self) -> Option<f64> {
        (self.scored_slots > 0).then(|| self.accuracy_sum / self.scored_slots as f64)
    }

    /// Fraction of allocation requests served from the memo cache, when any
    /// allocation ran.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.alloc_cache_hits + self.alloc_cache_misses;
        (total > 0).then(|| self.alloc_cache_hits as f64 / total as f64)
    }

    /// Mean allocated instances per slot.
    pub fn mean_instances(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.allocated_instance_slots as f64 / self.slots as f64
        }
    }

    /// Mean observed users per slot.
    pub fn mean_users(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.total_user_slots as f64 / self.slots as f64
        }
    }
}

impl Snapshot for TenantMetrics {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tenant.encode(out);
        self.slots.encode(out);
        self.scored_slots.encode(out);
        self.accuracy_sum.encode(out);
        self.total_cost.encode(out);
        self.allocations.encode(out);
        self.infeasible_allocations.encode(out);
        self.allocated_instance_slots.encode(out);
        self.peak_users.encode(out);
        self.total_user_slots.encode(out);
        self.alloc_cache_hits.encode(out);
        self.alloc_cache_misses.encode(out);
        self.alloc_cache_evictions.encode(out);
        self.solver_nodes.encode(out);
        self.solver_pivots.encode(out);
        self.solver_phase1_skips.encode(out);
        self.sla_violations.encode(out);
        self.sla_dropped_users.encode(out);
        self.sla_latency_ms.encode(out);
        self.energy_wh.encode(out);
        self.placed_instance_slots.encode(out);
        self.placement_failures.encode(out);
    }
}

impl Restore for TenantMetrics {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            tenant: TenantId::decode(cur)?,
            slots: usize::decode(cur)?,
            scored_slots: usize::decode(cur)?,
            accuracy_sum: f64::decode(cur)?,
            total_cost: f64::decode(cur)?,
            allocations: usize::decode(cur)?,
            infeasible_allocations: usize::decode(cur)?,
            allocated_instance_slots: usize::decode(cur)?,
            peak_users: usize::decode(cur)?,
            total_user_slots: usize::decode(cur)?,
            alloc_cache_hits: usize::decode(cur)?,
            alloc_cache_misses: usize::decode(cur)?,
            alloc_cache_evictions: usize::decode(cur)?,
            solver_nodes: usize::decode(cur)?,
            solver_pivots: usize::decode(cur)?,
            solver_phase1_skips: usize::decode(cur)?,
            sla_violations: usize::decode(cur)?,
            sla_dropped_users: usize::decode(cur)?,
            sla_latency_ms: f64::decode(cur)?,
            energy_wh: f64::decode(cur)?,
            placed_instance_slots: usize::decode(cur)?,
            placement_failures: usize::decode(cur)?,
        })
    }
}

/// The fleet-wide rollup over every tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Per-tenant accounting, sorted by tenant id.
    pub per_tenant: Vec<TenantMetrics>,
    /// Number of tenants.
    pub tenants: usize,
    /// Slots ticked (the maximum over tenants; tenants added late have
    /// fewer).
    pub slots: usize,
    /// Total cloud spend across tenants, USD.
    pub total_cost: f64,
    /// Total successful allocations across tenants.
    pub total_allocations: usize,
    /// Total infeasible allocations across tenants.
    pub total_infeasible: usize,
    /// Mean of the tenants' mean forecast accuracies (tenants with no scored
    /// slot are excluded).
    pub mean_accuracy: Option<f64>,
    /// Sum of the tenants' peak per-slot user counts — the fleet's
    /// provisioning head-room requirement if every tenant peaked at once.
    pub peak_user_sum: usize,
    /// Total allocation-cache hits across tenants.
    pub total_cache_hits: usize,
    /// Total allocation-cache misses (solver runs) across tenants.
    pub total_cache_misses: usize,
    /// Total allocation-cache evictions across tenants.
    pub total_cache_evictions: usize,
    /// Total branch-and-bound nodes explored across tenants' ILP solves.
    pub total_solver_nodes: usize,
    /// Total simplex pivots across tenants' ILP solves.
    pub total_solver_pivots: usize,
    /// Total phase-1 skips across tenants' ILP solves.
    pub total_solver_phase1_skips: usize,
    /// Total SLA-violated group-slots across tenants (zero under arithmetic
    /// billing).
    pub total_sla_violations: usize,
    /// Total users dropped beyond admission limits across tenants.
    pub total_sla_dropped_users: usize,
    /// Total modeled worst-response latency across tenants, ms (folded in
    /// tenant-id order, so the float sum is bitwise reproducible).
    pub total_sla_latency_ms: f64,
    /// Total energy metered across tenants, watt-hours (tenant-id order).
    pub total_energy_wh: f64,
    /// Total instances placed onto simulated hosts across tenants.
    pub total_placed_instance_slots: usize,
    /// Total failed placement transactions across tenants.
    pub total_placement_failures: usize,
}

impl FleetMetrics {
    /// Folds per-tenant metrics into the fleet rollup. The input is sorted
    /// by tenant id first so every aggregation order produces the same
    /// floating-point sums.
    pub fn aggregate(mut per_tenant: Vec<TenantMetrics>) -> Self {
        per_tenant.sort_by_key(|m| m.tenant);
        let tenants = per_tenant.len();
        let slots = per_tenant.iter().map(|m| m.slots).max().unwrap_or(0);
        let total_cost = per_tenant.iter().map(|m| m.total_cost).sum();
        let total_allocations = per_tenant.iter().map(|m| m.allocations).sum();
        let total_infeasible = per_tenant.iter().map(|m| m.infeasible_allocations).sum();
        let peak_user_sum = per_tenant.iter().map(|m| m.peak_users).sum();
        let total_cache_hits = per_tenant.iter().map(|m| m.alloc_cache_hits).sum();
        let total_cache_misses = per_tenant.iter().map(|m| m.alloc_cache_misses).sum();
        let total_cache_evictions = per_tenant.iter().map(|m| m.alloc_cache_evictions).sum();
        let total_solver_nodes = per_tenant.iter().map(|m| m.solver_nodes).sum();
        let total_solver_pivots = per_tenant.iter().map(|m| m.solver_pivots).sum();
        let total_solver_phase1_skips = per_tenant.iter().map(|m| m.solver_phase1_skips).sum();
        let total_sla_violations = per_tenant.iter().map(|m| m.sla_violations).sum();
        let total_sla_dropped_users = per_tenant.iter().map(|m| m.sla_dropped_users).sum();
        let total_sla_latency_ms = per_tenant.iter().map(|m| m.sla_latency_ms).sum();
        let total_energy_wh = per_tenant.iter().map(|m| m.energy_wh).sum();
        let total_placed_instance_slots = per_tenant.iter().map(|m| m.placed_instance_slots).sum();
        let total_placement_failures = per_tenant.iter().map(|m| m.placement_failures).sum();
        let accuracies: Vec<f64> = per_tenant
            .iter()
            .filter_map(|m| m.mean_accuracy())
            .collect();
        let mean_accuracy = (!accuracies.is_empty())
            .then(|| accuracies.iter().sum::<f64>() / accuracies.len() as f64);
        Self {
            per_tenant,
            tenants,
            slots,
            total_cost,
            total_allocations,
            total_infeasible,
            mean_accuracy,
            peak_user_sum,
            total_cache_hits,
            total_cache_misses,
            total_cache_evictions,
            total_solver_nodes,
            total_solver_pivots,
            total_solver_phase1_skips,
            total_sla_violations,
            total_sla_dropped_users,
            total_sla_latency_ms,
            total_energy_wh,
            total_placed_instance_slots,
            total_placement_failures,
        }
    }

    /// Fraction of allocation requests across the fleet served from the
    /// per-tenant memo caches, when any allocation ran.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.total_cache_hits + self.total_cache_misses;
        (total > 0).then(|| self.total_cache_hits as f64 / total as f64)
    }

    /// The accounting of one tenant, if it is part of the fleet.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantMetrics> {
        self.per_tenant
            .binary_search_by_key(&tenant, |m| m.tenant)
            .ok()
            .map(|at| &self.per_tenant[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(tenant: u32, scored: usize, accuracy_sum: f64, cost: f64) -> TenantMetrics {
        TenantMetrics {
            tenant: TenantId(tenant),
            slots: 10,
            scored_slots: scored,
            accuracy_sum,
            total_cost: cost,
            allocations: 10,
            infeasible_allocations: 1,
            allocated_instance_slots: 30,
            peak_users: 8,
            total_user_slots: 50,
            alloc_cache_hits: 7,
            alloc_cache_misses: 3,
            alloc_cache_evictions: 2,
            solver_nodes: 40,
            solver_pivots: 90,
            solver_phase1_skips: 5,
            sla_violations: 4,
            sla_dropped_users: 6,
            sla_latency_ms: 100.0,
            energy_wh: 20.0,
            placed_instance_slots: 25,
            placement_failures: 1,
        }
    }

    #[test]
    fn aggregation_sorts_and_sums() {
        let rollup = FleetMetrics::aggregate(vec![
            metrics(2, 9, 7.2, 1.0),
            metrics(0, 9, 8.1, 2.0),
            metrics(1, 0, 0.0, 0.5),
        ]);
        assert_eq!(rollup.tenants, 3);
        assert_eq!(rollup.slots, 10);
        assert_eq!(rollup.total_allocations, 30);
        assert_eq!(rollup.total_infeasible, 3);
        assert_eq!(rollup.peak_user_sum, 24);
        assert_eq!(rollup.total_cache_hits, 21);
        assert_eq!(rollup.total_cache_misses, 9);
        assert_eq!(rollup.total_cache_evictions, 6);
        assert_eq!(rollup.total_solver_nodes, 120);
        assert_eq!(rollup.total_solver_pivots, 270);
        assert_eq!(rollup.total_solver_phase1_skips, 15);
        assert_eq!(rollup.total_sla_violations, 12);
        assert_eq!(rollup.total_sla_dropped_users, 18);
        assert!((rollup.total_sla_latency_ms - 300.0).abs() < 1e-12);
        assert!((rollup.total_energy_wh - 60.0).abs() < 1e-12);
        assert_eq!(rollup.total_placed_instance_slots, 75);
        assert_eq!(rollup.total_placement_failures, 3);
        assert!((rollup.cache_hit_rate().unwrap() - 0.7).abs() < 1e-12);
        assert!((rollup.total_cost - 3.5).abs() < 1e-12);
        let ids: Vec<u32> = rollup.per_tenant.iter().map(|m| m.tenant.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // tenant 1 never scored a forecast and is excluded from the mean
        let expected = (7.2 / 9.0 + 8.1 / 9.0) / 2.0;
        assert!((rollup.mean_accuracy.unwrap() - expected).abs() < 1e-12);
        assert_eq!(rollup.tenant(TenantId(2)).unwrap().tenant, TenantId(2));
        assert!(rollup.tenant(TenantId(9)).is_none());
    }

    #[test]
    fn per_tenant_means() {
        let m = metrics(0, 4, 3.0, 0.0);
        assert!((m.mean_accuracy().unwrap() - 0.75).abs() < 1e-12);
        assert!((m.mean_instances() - 3.0).abs() < 1e-12);
        assert!((m.mean_users() - 5.0).abs() < 1e-12);
        assert!((m.cache_hit_rate().unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(TenantMetrics::new(TenantId(1)).mean_accuracy(), None);
        assert_eq!(TenantMetrics::new(TenantId(1)).mean_instances(), 0.0);
        assert_eq!(TenantMetrics::new(TenantId(1)).cache_hit_rate(), None);
    }

    #[test]
    fn empty_fleet_aggregates_to_zero() {
        let rollup = FleetMetrics::aggregate(Vec::new());
        assert_eq!(rollup.tenants, 0);
        assert_eq!(rollup.slots, 0);
        assert_eq!(rollup.mean_accuracy, None);
    }
}
