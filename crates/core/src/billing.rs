//! The billing backends behind the bill stage of the
//! score→learn→predict→allocate→**bill** cycle.
//!
//! The paper prices an allocation arithmetically: hourly rate × instance
//! count, prorated to the provisioning slot (§IV-C). That stayed hard-wired
//! into [`crate::System`] and the fleet's tenant shards long after every
//! other stage of the loop grew a policy seam. This module splits the bill
//! step behind the [`BillingBackend`] trait with two implementations:
//!
//! * [`ArithmeticBilling`] — today's path, the unchanged default: apply the
//!   allocation to the instance pool and charge the prorated hourly cost.
//! * [`DatacenterBilling`] — the same pool transaction and *bit-identical*
//!   cost, but the allocation additionally lands on a simulated
//!   [`Datacenter`]: instances are placed onto
//!   finite-capacity hosts under a deterministic policy, the slot's actual
//!   arrivals are scored against the capacity the *previous* forecast
//!   provisioned (the SLA signal), and host power is metered over the slot
//!   (the energy signal).
//!
//! The settlement result ([`SlotSettlement`]) carries cost plus the
//! SLA/energy/placement counters; callers fold it into their metrics. The
//! cost field is computed with the exact expression the arithmetic path
//! always used (`hourly_cost × slot_ms / 3 600 000`), so enabling the
//! datacenter backend cannot move a single bit of any cost, forecast or
//! prediction metric — the determinism suite in `mca-fleet` asserts this.

use crate::allocator::Allocation;
use mca_cloudsim::{
    Datacenter, DatacenterConfig, GroupDemand, InstancePool, PlacementError, SlaAssessment,
};
use mca_offload::AccelerationGroupId;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};

/// The outcome of settling one provisioning slot against a billing backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlotSettlement {
    /// Cost of the slot, USD — `hourly_cost × slot_length_ms / 3 600 000`,
    /// identical under every backend.
    pub cost: f64,
    /// Whether the pool accepted the allocation (the account cap can refuse
    /// it; the allocator normally never exceeds the cap it was built with).
    pub pool_applied: bool,
    /// Group-slots whose actual arrivals violated the SLA of the standing
    /// allocation (zero under [`ArithmeticBilling`]).
    pub sla_violations: usize,
    /// Users beyond the admission limit of their serving instances.
    pub sla_dropped_users: usize,
    /// Modeled worst-response latency summed over scored groups, ms.
    pub sla_latency_ms: f64,
    /// Energy the standing placement drew over the slot, watt-hours.
    pub energy_wh: f64,
    /// Instances placed onto hosts for the next slot.
    pub placements: usize,
    /// Placement transactions that failed (host exhaustion); the datacenter
    /// is cleared and the error retained for [`BillingEngine::placement_error`].
    pub placement_failures: usize,
}

/// Datacenter usage accumulated over a whole run — the rollup of every
/// slot's [`SlotSettlement`], reported by [`crate::SystemReport`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DatacenterUsage {
    /// Total SLA-violated group-slots.
    pub sla_violations: usize,
    /// Total users dropped beyond admission limits.
    pub sla_dropped_users: usize,
    /// Total modeled worst-response latency, ms.
    pub sla_latency_ms: f64,
    /// Total energy metered, watt-hours.
    pub energy_wh: f64,
    /// Total instance placements.
    pub placements: usize,
    /// Total failed placement transactions.
    pub placement_failures: usize,
}

impl DatacenterUsage {
    /// Folds one slot's settlement into the rollup.
    pub fn absorb(&mut self, settlement: &SlotSettlement) {
        self.sla_violations += settlement.sla_violations;
        self.sla_dropped_users += settlement.sla_dropped_users;
        self.sla_latency_ms += settlement.sla_latency_ms;
        self.energy_wh += settlement.energy_wh;
        self.placements += settlement.placements;
        self.placement_failures += settlement.placement_failures;
    }
}

/// A billing backend: how the bill stage turns an allocation into money —
/// and, depending on the backend, SLA and energy signals.
///
/// `observed` is the slot's actual per-group demand (the arrivals the slot
/// really brought), which the datacenter backend scores against the capacity
/// the *previous* settle provisioned. Backends must be deterministic pure
/// state machines: same call sequence, same results, on any thread.
pub trait BillingBackend: std::fmt::Debug {
    /// Settles one slot: applies `allocation` to `pool` at `now_ms` and
    /// returns the slot's cost and accounting signals.
    fn settle(
        &mut self,
        pool: &mut InstancePool,
        allocation: &Allocation,
        observed: &[(AccelerationGroupId, usize)],
        slot_length_ms: f64,
        now_ms: f64,
    ) -> SlotSettlement;

    /// Clears all standing state (tenant decommission / end of run).
    fn reset(&mut self);
}

/// The paper's arithmetic billing: pool transaction plus prorated hourly
/// cost, nothing else. The default backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArithmeticBilling;

impl BillingBackend for ArithmeticBilling {
    fn settle(
        &mut self,
        pool: &mut InstancePool,
        allocation: &Allocation,
        _observed: &[(AccelerationGroupId, usize)],
        slot_length_ms: f64,
        now_ms: f64,
    ) -> SlotSettlement {
        let pool_applied = pool.apply_allocation(&allocation.counts, now_ms).is_ok();
        SlotSettlement {
            cost: allocation.hourly_cost * slot_length_ms / 3_600_000.0,
            pool_applied,
            ..SlotSettlement::default()
        }
    }

    fn reset(&mut self) {}
}

/// Billing as a transaction against a simulated datacenter: the arithmetic
/// path's pool transaction and bit-identical cost, plus placement onto
/// finite hosts, SLA scoring of actual arrivals against the standing
/// capacity, and per-slot energy metering.
#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterBilling {
    datacenter: Datacenter,
    /// Capacity per group the standing allocation provisioned — what the
    /// next slot's arrivals are scored against (`None` until the first
    /// successful settle, or after a placement failure).
    standing_capacity: Option<Vec<(AccelerationGroupId, usize)>>,
    /// The most recent placement failure, if the standing transaction
    /// failed.
    last_error: Option<PlacementError>,
    /// The elapsed slot's demands, refilled by each assessment and left
    /// empty: a buffer, not state.
    demands: Vec<GroupDemand>,
}

impl DatacenterBilling {
    /// Builds the backend over an empty datacenter.
    pub fn new(config: &DatacenterConfig) -> Self {
        Self {
            datacenter: Datacenter::new(config),
            standing_capacity: None,
            last_error: None,
            demands: Vec::new(),
        }
    }

    /// The simulated datacenter (standing placement included).
    pub fn datacenter(&self) -> &Datacenter {
        &self.datacenter
    }

    /// The most recent placement failure, if the standing placement
    /// transaction failed.
    pub fn last_error(&self) -> Option<&PlacementError> {
        self.last_error.as_ref()
    }

    fn assess(&mut self, observed: &[(AccelerationGroupId, usize)]) -> SlaAssessment {
        match &self.standing_capacity {
            None => SlaAssessment::default(),
            Some(capacity) => {
                self.demands.extend(observed.iter().map(|&(group, demand)| {
                    GroupDemand {
                        group,
                        demand,
                        capacity: capacity
                            .iter()
                            .find(|(g, _)| *g == group)
                            .map(|(_, c)| *c)
                            .unwrap_or(0),
                    }
                }));
                let assessment = self.datacenter.assess(&self.demands);
                self.demands.clear();
                assessment
            }
        }
    }
}

impl BillingBackend for DatacenterBilling {
    fn settle(
        &mut self,
        pool: &mut InstancePool,
        allocation: &Allocation,
        observed: &[(AccelerationGroupId, usize)],
        slot_length_ms: f64,
        now_ms: f64,
    ) -> SlotSettlement {
        let mut settlement = SlotSettlement::default();
        // 1. score the slot that just elapsed against the standing placement
        let sla = self.assess(observed);
        settlement.sla_violations = sla.violations;
        settlement.sla_dropped_users = sla.dropped_users;
        settlement.sla_latency_ms = sla.latency_ms;
        // 2. meter the energy that placement drew over the slot
        settlement.energy_wh = self.datacenter.energy_wh(slot_length_ms / 3_600_000.0);
        // 3. the pool transaction the arithmetic path performs (account cap
        //    enforced atomically inside)
        settlement.pool_applied = pool.apply_allocation(&allocation.counts, now_ms).is_ok();
        // 4. place the new allocation for the next slot — transactionally
        match self.datacenter.place_allocation(&allocation.per_group) {
            Ok(placed) => {
                settlement.placements = placed;
                // refilled in place: the standing capacity keeps its buffer
                match &mut self.standing_capacity {
                    Some(standing) => standing.clone_from(&allocation.capacity_per_group),
                    None => self.standing_capacity = Some(allocation.capacity_per_group.clone()),
                }
                self.last_error = None;
            }
            Err(error) => {
                settlement.placement_failures = 1;
                self.datacenter.clear();
                self.standing_capacity = None;
                self.last_error = Some(error);
            }
        }
        // 5. the cost, with the exact arithmetic-path expression — enabling
        //    the datacenter must not move a bit of it
        settlement.cost = allocation.hourly_cost * slot_length_ms / 3_600_000.0;
        settlement
    }

    fn reset(&mut self) {
        self.datacenter.clear();
        self.standing_capacity = None;
        self.last_error = None;
    }
}

/// The clonable, serializable dispatch over the built-in backends — what
/// [`crate::SystemConfig::build_billing`] returns and what a fleet tenant
/// shard stores (shards are `Clone`, so a `Box<dyn BillingBackend>` would
/// not do; the enum gives static dispatch on the hot path as a bonus).
#[derive(Debug, Clone, PartialEq)]
pub enum BillingEngine {
    /// Arithmetic billing — the default.
    Arithmetic(ArithmeticBilling),
    /// Billing against a simulated datacenter.
    Datacenter(DatacenterBilling),
}

impl BillingEngine {
    /// Whether this backend scores observed demand (callers can skip
    /// collecting per-group demand for backends that ignore it).
    pub fn observes_demand(&self) -> bool {
        matches!(self, BillingEngine::Datacenter(_))
    }

    /// The simulated datacenter, when this engine bills against one.
    pub fn datacenter(&self) -> Option<&Datacenter> {
        match self {
            BillingEngine::Arithmetic(_) => None,
            BillingEngine::Datacenter(backend) => Some(backend.datacenter()),
        }
    }

    /// The standing placement failure, when the datacenter backend's most
    /// recent placement transaction failed.
    pub fn placement_error(&self) -> Option<&PlacementError> {
        match self {
            BillingEngine::Arithmetic(_) => None,
            BillingEngine::Datacenter(backend) => backend.last_error(),
        }
    }
}

impl Default for BillingEngine {
    fn default() -> Self {
        BillingEngine::Arithmetic(ArithmeticBilling)
    }
}

impl BillingBackend for BillingEngine {
    fn settle(
        &mut self,
        pool: &mut InstancePool,
        allocation: &Allocation,
        observed: &[(AccelerationGroupId, usize)],
        slot_length_ms: f64,
        now_ms: f64,
    ) -> SlotSettlement {
        match self {
            BillingEngine::Arithmetic(backend) => {
                backend.settle(pool, allocation, observed, slot_length_ms, now_ms)
            }
            BillingEngine::Datacenter(backend) => {
                backend.settle(pool, allocation, observed, slot_length_ms, now_ms)
            }
        }
    }

    fn reset(&mut self) {
        match self {
            BillingEngine::Arithmetic(backend) => backend.reset(),
            BillingEngine::Datacenter(backend) => backend.reset(),
        }
    }
}

impl Snapshot for DatacenterUsage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sla_violations.encode(out);
        self.sla_dropped_users.encode(out);
        self.sla_latency_ms.encode(out);
        self.energy_wh.encode(out);
        self.placements.encode(out);
        self.placement_failures.encode(out);
    }
}

impl Restore for DatacenterUsage {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            sla_violations: usize::decode(cur)?,
            sla_dropped_users: usize::decode(cur)?,
            sla_latency_ms: f64::decode(cur)?,
            energy_wh: f64::decode(cur)?,
            placements: usize::decode(cur)?,
            placement_failures: usize::decode(cur)?,
        })
    }
}

impl Snapshot for DatacenterBilling {
    fn encode(&self, out: &mut Vec<u8>) {
        self.datacenter.encode(out);
        self.standing_capacity.encode(out);
        self.last_error.encode(out);
    }
}

impl Restore for DatacenterBilling {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            datacenter: Datacenter::decode(cur)?,
            standing_capacity: Option::<Vec<(AccelerationGroupId, usize)>>::decode(cur)?,
            last_error: Option::<PlacementError>::decode(cur)?,
            demands: Vec::new(),
        })
    }
}

impl Snapshot for BillingEngine {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BillingEngine::Arithmetic(ArithmeticBilling) => 0u8.encode(out),
            BillingEngine::Datacenter(backend) => {
                1u8.encode(out);
                backend.encode(out);
            }
        }
    }
}

impl Restore for BillingEngine {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        match u8::decode(cur)? {
            0 => Ok(BillingEngine::Arithmetic(ArithmeticBilling)),
            1 => Ok(BillingEngine::Datacenter(DatacenterBilling::decode(cur)?)),
            _ => Err(SnapshotError::Malformed {
                context: "billing engine tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelerationGroups;
    use crate::allocator::ResourceAllocator;
    use crate::predictor::WorkloadForecast;
    use mca_cloudsim::PlacementKind;

    fn forecast(per_group: &[(u8, usize)]) -> WorkloadForecast {
        WorkloadForecast {
            per_group: per_group
                .iter()
                .map(|&(g, n)| (AccelerationGroupId(g), n))
                .collect(),
            matched_slot: None,
        }
    }

    fn allocation_for(per_group: &[(u8, usize)]) -> Allocation {
        ResourceAllocator::new(AccelerationGroups::paper_three_groups())
            .allocate(&forecast(per_group))
            .expect("small forecasts fit the cap")
    }

    #[test]
    fn both_backends_charge_the_same_bits_and_apply_the_pool() {
        let allocation = allocation_for(&[(1, 10), (2, 5), (3, 2)]);
        let observed = [(AccelerationGroupId(1), 10usize)];
        let mut arithmetic_pool = InstancePool::new();
        let mut datacenter_pool = InstancePool::new();
        let mut arithmetic = BillingEngine::default();
        let mut datacenter =
            BillingEngine::Datacenter(DatacenterBilling::new(&DatacenterConfig::paper_default()));

        let a = arithmetic.settle(&mut arithmetic_pool, &allocation, &observed, 60_000.0, 0.0);
        let d = datacenter.settle(&mut datacenter_pool, &allocation, &observed, 60_000.0, 0.0);
        assert_eq!(a.cost.to_bits(), d.cost.to_bits(), "cost must be identical");
        assert!(a.pool_applied && d.pool_applied);
        assert_eq!(arithmetic_pool, datacenter_pool);
        // the arithmetic backend carries no datacenter signals
        assert_eq!((a.sla_violations, a.placements, a.energy_wh), (0, 0, 0.0));
        // the datacenter backend placed every instance
        assert_eq!(d.placements, allocation.total_instances());
        assert_eq!(d.placement_failures, 0);
        assert!(datacenter.datacenter().unwrap().active_hosts() > 0);
    }

    #[test]
    fn sla_scores_the_previous_standing_allocation() {
        let allocation = allocation_for(&[(1, 10)]);
        let mut pool = InstancePool::new();
        let mut backend = DatacenterBilling::new(&DatacenterConfig::paper_default());
        // first settle: nothing standing yet, so nothing to score — but
        // energy of the empty datacenter is zero too
        let first = backend.settle(
            &mut pool,
            &allocation,
            &[(AccelerationGroupId(1), 50)],
            60_000.0,
            0.0,
        );
        assert_eq!(first.sla_violations, 0);
        assert_eq!(first.energy_wh, 0.0);
        // second settle: the observed demand is scored against the capacity
        // the first settle provisioned (10 users forecast), and the standing
        // placement drew energy over the slot
        let second = backend.settle(
            &mut pool,
            &allocation,
            &[(AccelerationGroupId(1), 500)],
            60_000.0,
            60_000.0,
        );
        assert!(second.sla_violations >= 1, "500 actual vs 10 forecast");
        assert!(second.energy_wh > 0.0);
        // within-capacity demand scores clean
        let third = backend.settle(
            &mut pool,
            &allocation,
            &[(AccelerationGroupId(1), 1)],
            60_000.0,
            120_000.0,
        );
        assert_eq!(third.sla_violations, 0);
    }

    #[test]
    fn placement_failure_is_counted_and_clears_standing_state() {
        let allocation = allocation_for(&[(1, 5), (2, 5), (3, 5)]);
        let mut pool = InstancePool::new();
        // a datacenter far too small for the m4.4xlarge group
        let config = DatacenterConfig::paper_default()
            .with_hosts(1, 2, 4.0)
            .with_placement(PlacementKind::BestFit);
        let mut engine = BillingEngine::Datacenter(DatacenterBilling::new(&config));
        let settlement = engine.settle(&mut pool, &allocation, &[], 60_000.0, 0.0);
        assert_eq!(settlement.placement_failures, 1);
        assert_eq!(settlement.placements, 0);
        assert!(settlement.pool_applied, "the pool transaction still lands");
        assert!(engine.placement_error().is_some());
        assert_eq!(engine.datacenter().unwrap().active_hosts(), 0);
        // cost is still the arithmetic prorate — the bill does not vanish
        assert!(settlement.cost > 0.0);
        engine.reset();
        assert!(engine.placement_error().is_none());
    }

    #[test]
    fn usage_rollup_absorbs_settlements() {
        let mut usage = DatacenterUsage::default();
        usage.absorb(&SlotSettlement {
            cost: 1.0,
            pool_applied: true,
            sla_violations: 2,
            sla_dropped_users: 3,
            sla_latency_ms: 40.0,
            energy_wh: 5.0,
            placements: 6,
            placement_failures: 1,
        });
        usage.absorb(&SlotSettlement::default());
        assert_eq!(usage.sla_violations, 2);
        assert_eq!(usage.sla_dropped_users, 3);
        assert_eq!(usage.sla_latency_ms, 40.0);
        assert_eq!(usage.energy_wh, 5.0);
        assert_eq!(usage.placements, 6);
        assert_eq!(usage.placement_failures, 1);
    }
}
