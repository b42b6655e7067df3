//! Dynamic resource allocation (§IV-C).
//!
//! Given the predicted workload `W = Σ W_{a_n}`, the allocator chooses how
//! many instances `x_s` of each type `s` to run during the next provisioning
//! interval so that (1) every acceleration group has enough capacity for its
//! predicted workload, (2) the total number of instances stays below the
//! cloud account cap `CC`, and (3) the total hourly cost `Σ x_s · c_s` is
//! minimal. The paper solves this Integer Linear Program with R's
//! `lpSolveAPI`; here it is solved exactly with `mca-lp`, and two baseline
//! policies (greedy and over-provisioning) are provided for the ablation
//! benchmarks.

use crate::accel::AccelerationGroups;
use crate::error::CoreError;
use crate::predictor::WorkloadForecast;
use mca_cloudsim::{InstanceType, Server};
use mca_lp::{LpError, Problem, Sense, Solution, SparseProblem, VarId, VarKind};
use mca_offload::AccelerationGroupId;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};

/// Which allocation policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// The paper's policy: exact cost minimization via Integer Linear
    /// Programming.
    #[default]
    IlpExact,
    /// Per group, allocate only the type with the best capacity-per-dollar
    /// ratio, rounding the count up. Cheap to compute, may over-pay when
    /// mixing types would be cheaper.
    GreedyCheapest,
    /// Allocate the most capable type of each group and add one spare
    /// instance — the "always safe" policy the paper argues against because
    /// it over-provisions.
    OverProvision,
}

/// Work counters of the solve that produced an [`Allocation`].
///
/// Zero for the closed-form policies (greedy / over-provision) and for
/// cache-served allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocationStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Simplex pivots across all node relaxations.
    pub pivots: usize,
    /// Nodes re-entered from a parent basis without running phase 1.
    pub phase1_skips: usize,
}

/// The chosen allocation for one provisioning interval.
///
/// Equality compares the *prescription* — instance counts, per-group
/// breakdown, cost and capacities — and deliberately ignores [`AllocationStats`],
/// so two solvers that chose the same instances produce equal allocations
/// regardless of how much work each spent.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Instances to run, per type (summed over groups).
    pub counts: Vec<(InstanceType, usize)>,
    /// Instances to run per acceleration group and type.
    pub per_group: Vec<(AccelerationGroupId, Vec<(InstanceType, usize)>)>,
    /// Hourly cost of the allocation, USD.
    pub hourly_cost: f64,
    /// Total capacity provided per group, in concurrent users.
    pub capacity_per_group: Vec<(AccelerationGroupId, usize)>,
    /// Solver work counters (ILP policy only).
    pub stats: AllocationStats,
}

impl PartialEq for Allocation {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
            && self.per_group == other.per_group
            && self.hourly_cost == other.hourly_cost
            && self.capacity_per_group == other.capacity_per_group
    }
}

impl Allocation {
    /// Total number of instances in the allocation.
    pub fn total_instances(&self) -> usize {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// Number of instances of one type.
    pub fn count_of(&self, instance_type: InstanceType) -> usize {
        self.counts
            .iter()
            .find(|(t, _)| *t == instance_type)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Capacity provided for one group, in concurrent users.
    pub fn capacity_of(&self, group: AccelerationGroupId) -> usize {
        self.capacity_per_group
            .iter()
            .find(|(g, _)| *g == group)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Returns `true` when the allocation provides at least the forecast
    /// workload in every group.
    pub fn covers(&self, forecast: &WorkloadForecast) -> bool {
        forecast
            .per_group
            .iter()
            .all(|(g, w)| self.capacity_of(*g) >= *w)
    }

    /// The instance counts per group for the instance pool
    /// (`mca_cloudsim::InstancePool::apply_allocation`).
    pub fn pool_allocation(&self) -> Vec<(InstanceType, usize)> {
        self.counts.clone()
    }
}

impl Snapshot for AllocationStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nodes.encode(out);
        self.pivots.encode(out);
        self.phase1_skips.encode(out);
    }
}

impl Restore for AllocationStats {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            nodes: usize::decode(cur)?,
            pivots: usize::decode(cur)?,
            phase1_skips: usize::decode(cur)?,
        })
    }
}

/// The stats travel on the wire even though equality ignores them: a restored
/// memo cache replays them into the shard metrics on a hit, exactly as the
/// uninterrupted run would have.
impl Snapshot for Allocation {
    fn encode(&self, out: &mut Vec<u8>) {
        self.counts.encode(out);
        self.per_group.encode(out);
        self.hourly_cost.encode(out);
        self.capacity_per_group.encode(out);
        self.stats.encode(out);
    }
}

impl Restore for Allocation {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            counts: Vec::<(InstanceType, usize)>::decode(cur)?,
            per_group: Vec::<(AccelerationGroupId, Vec<(InstanceType, usize)>)>::decode(cur)?,
            hourly_cost: f64::decode(cur)?,
            capacity_per_group: Vec::<(AccelerationGroupId, usize)>::decode(cur)?,
            stats: AllocationStats::decode(cur)?,
        })
    }
}

/// Instances kept running per group even when the predicted workload is
/// zero, so that a newly promoted device always has a server to land on.
const MIN_INSTANCES_PER_GROUP: usize = 1;

/// Typical task work the per-type capacities are derived for, work units.
const TYPICAL_WORK_UNITS: f64 = 65.0;

/// The dynamic resource allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceAllocator {
    groups: AccelerationGroups,
    policy: AllocationPolicy,
    /// Cloud account instance cap (`CC`).
    account_cap: usize,
    /// Per-type capacity under the response-time target, in concurrent users
    /// (the paper's `K_s`).
    capacities: Vec<(AccelerationGroupId, InstanceType, usize)>,
    /// The §IV-C program over the fields above, compiled once with every
    /// demand at zero: between two solves only the per-group demand
    /// right-hand sides differ. A pure function of the other fields, rebuilt
    /// by [`with_account_cap`](Self::with_account_cap); a program the solver
    /// refuses keeps its error here, and every ILP solve returns it.
    compiled: Result<SparseProblem, LpError>,
}

impl ResourceAllocator {
    /// Creates an allocator over the given groups with the paper's defaults
    /// (ILP policy, `CC = 20`, one instance minimum per group).
    pub fn new(groups: AccelerationGroups) -> Self {
        Self::with_policy(groups, AllocationPolicy::IlpExact)
    }

    /// Creates an allocator with an explicit policy.
    pub fn with_policy(groups: AccelerationGroups, policy: AllocationPolicy) -> Self {
        Self::configured(groups, policy, mca_cloudsim::DEFAULT_ACCOUNT_CAP)
    }

    /// [`with_policy`](Self::with_policy) and
    /// [`with_account_cap`](Self::with_account_cap) in one step, so that
    /// [`crate::SystemConfig::build_allocator`] — once per tenant, again at
    /// every restore — compiles the program once.
    pub(crate) fn configured(
        groups: AccelerationGroups,
        policy: AllocationPolicy,
        account_cap: usize,
    ) -> Self {
        let capacities = Self::derive_capacities(&groups);
        let compiled = Self::ilp_problem(&groups, &capacities, account_cap).compile();
        Self {
            groups,
            policy,
            account_cap,
            capacities,
            compiled,
        }
    }

    /// Overrides the account cap.
    pub fn with_account_cap(mut self, cap: usize) -> Self {
        self.account_cap = cap;
        self.compiled = Self::ilp_problem(&self.groups, &self.capacities, cap).compile();
        self
    }

    /// Cloud account instance cap (`CC`).
    pub fn account_cap(&self) -> usize {
        self.account_cap
    }

    /// The allocation policy in force.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// The acceleration groups the allocator provisions for.
    pub fn groups(&self) -> &AccelerationGroups {
        &self.groups
    }

    /// Capacity `K_s` of one instance of `instance_type` when serving
    /// `group`, in concurrent users.
    pub fn capacity_of(&self, group: AccelerationGroupId, instance_type: InstanceType) -> usize {
        self.capacities
            .iter()
            .find(|(g, t, _)| *g == group && *t == instance_type)
            .map(|(_, _, c)| *c)
            .unwrap_or(0)
    }

    fn derive_capacities(
        groups: &AccelerationGroups,
    ) -> Vec<(AccelerationGroupId, InstanceType, usize)> {
        let target = groups.response_target_ms;
        groups
            .groups()
            .iter()
            .flat_map(|g| {
                g.instance_types.iter().map(move |&t| {
                    let capacity = Server::new(t)
                        .capacity_under(TYPICAL_WORK_UNITS, target)
                        .max(1);
                    (g.id, t, capacity)
                })
            })
            .collect()
    }

    /// Computes the allocation for a forecast workload.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AllocationInfeasible`] when no allocation within
    /// the account cap can serve the forecast.
    pub fn allocate(&self, forecast: &WorkloadForecast) -> Result<Allocation, CoreError> {
        match self.policy {
            AllocationPolicy::IlpExact => self.allocate_ilp(forecast),
            AllocationPolicy::GreedyCheapest => self.allocate_greedy(forecast, false),
            AllocationPolicy::OverProvision => self.allocate_greedy(forecast, true),
        }
    }

    /// Row of the compiled program that carries the demand of the group at
    /// position `g` of `self.groups` (see [`Self::ilp_problem`]).
    const fn demand_row(g: usize) -> usize {
        2 * g
    }

    /// The §IV-C program with every demand at zero: one integer variable per
    /// (group, instance type) in group-then-type order — the order of
    /// `capacities`; per group a capacity row (at least the group's demand
    /// in users served) followed by a minimum-instances row; the account cap
    /// last.
    fn ilp_problem(
        groups: &AccelerationGroups,
        capacities: &[(AccelerationGroupId, InstanceType, usize)],
        account_cap: usize,
    ) -> Problem {
        let mut problem = Problem::minimize();
        let vars: Vec<(AccelerationGroupId, VarId, f64)> = capacities
            .iter()
            .map(|&(group, ty, capacity)| {
                let var = problem.add_var(
                    format!("{group}-{ty}"),
                    VarKind::Integer,
                    0.0,
                    Some(account_cap as f64),
                    ty.spec().cost_per_hour,
                );
                (group, var, capacity as f64)
            })
            .collect();
        for group in groups.groups() {
            let members = || vars.iter().filter(|(g, _, _)| *g == group.id);
            let capacity_terms: Vec<(VarId, f64)> = members()
                .map(|&(_, var, capacity)| (var, capacity))
                .collect();
            problem.add_constraint(
                format!("capacity-{}", group.id),
                &capacity_terms,
                Sense::Ge,
                0.0,
            );
            let count_terms: Vec<(VarId, f64)> = members().map(|&(_, var, _)| (var, 1.0)).collect();
            problem.add_constraint(
                format!("min-{}", group.id),
                &count_terms,
                Sense::Ge,
                MIN_INSTANCES_PER_GROUP as f64,
            );
        }
        let all_terms: Vec<(VarId, f64)> = vars.iter().map(|&(_, v, _)| (v, 1.0)).collect();
        problem.add_constraint("account-cap", &all_terms, Sense::Le, account_cap as f64);
        problem
    }

    fn allocate_ilp(&self, forecast: &WorkloadForecast) -> Result<Allocation, CoreError> {
        let solution = match &self.compiled {
            // the compiled program takes this forecast's demands and
            // nothing else
            Ok(compiled) => {
                let demands: Vec<(usize, f64)> = self
                    .groups
                    .groups()
                    .iter()
                    .enumerate()
                    .map(|(g, group)| (Self::demand_row(g), forecast.load_of(group.id) as f64))
                    .collect();
                compiled.solve_with_rhs(&demands)
            }
            Err(refused) => Err(refused.clone()),
        }
        .map_err(|e| CoreError::AllocationInfeasible {
            reason: e.to_string(),
        })?;
        Ok(self.allocation_of(&solution))
    }

    /// Reads a solution of [`Self::ilp_problem`] back into an allocation.
    fn allocation_of(&self, solution: &Solution) -> Allocation {
        let mut values = solution.values.iter();
        let per_group = self
            .groups
            .groups()
            .iter()
            .map(|group| {
                let counts: Vec<(InstanceType, usize)> = group
                    .instance_types
                    .iter()
                    .zip(&mut values)
                    .map(|(&ty, value)| (ty, (value.round() as i64).max(0) as usize))
                    .filter(|(_, n)| *n > 0)
                    .collect();
                (group.id, counts)
            })
            .collect();
        let mut allocation = self.build_allocation(per_group);
        allocation.stats = AllocationStats {
            nodes: solution.stats.nodes,
            pivots: solution.stats.pivots,
            phase1_skips: solution.stats.phase1_skips,
        };
        allocation
    }

    fn allocate_greedy(
        &self,
        forecast: &WorkloadForecast,
        over_provision: bool,
    ) -> Result<Allocation, CoreError> {
        let mut per_group: Vec<(AccelerationGroupId, Vec<(InstanceType, usize)>)> = Vec::new();
        for group in self.groups.groups() {
            let workload = forecast.load_of(group.id);
            let chosen = if over_provision {
                // most capable member
                group
                    .instance_types
                    .iter()
                    .copied()
                    .max_by_key(|&t| self.capacity_of(group.id, t))
            } else {
                // best capacity per dollar
                group.instance_types.iter().copied().max_by(|&a, &b| {
                    let ra = self.capacity_of(group.id, a) as f64 / a.spec().cost_per_hour;
                    let rb = self.capacity_of(group.id, b) as f64 / b.spec().cost_per_hour;
                    ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
                })
            }
            .ok_or_else(|| CoreError::AllocationInfeasible {
                reason: format!("group {} has no instance types", group.id),
            })?;
            let capacity = self.capacity_of(group.id, chosen).max(1);
            let mut count = workload.div_ceil(capacity).max(MIN_INSTANCES_PER_GROUP);
            if over_provision {
                count += 1;
            }
            per_group.push((group.id, vec![(chosen, count)]));
        }
        let allocation = self.build_allocation(per_group);
        if allocation.total_instances() > self.account_cap {
            return Err(CoreError::AllocationInfeasible {
                reason: format!(
                    "{} instances needed but the account cap is {}",
                    allocation.total_instances(),
                    self.account_cap
                ),
            });
        }
        Ok(allocation)
    }

    fn build_allocation(
        &self,
        per_group: Vec<(AccelerationGroupId, Vec<(InstanceType, usize)>)>,
    ) -> Allocation {
        let mut counts: Vec<(InstanceType, usize)> = Vec::new();
        let mut capacity_per_group = Vec::new();
        for (group, group_counts) in &per_group {
            let mut cap = 0usize;
            for (ty, n) in group_counts {
                cap += self.capacity_of(*group, *ty) * n;
                match counts.iter_mut().find(|(t, _)| t == ty) {
                    Some((_, total)) => *total += n,
                    None => counts.push((*ty, *n)),
                }
            }
            capacity_per_group.push((*group, cap));
        }
        let hourly_cost = counts
            .iter()
            .map(|(t, n)| t.spec().cost_per_hour * *n as f64)
            .sum::<f64>();
        Allocation {
            counts,
            per_group,
            hourly_cost,
            capacity_per_group,
            stats: AllocationStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::WorkloadForecast;

    fn forecast(loads: &[(u8, usize)]) -> WorkloadForecast {
        WorkloadForecast {
            per_group: loads
                .iter()
                .map(|&(g, n)| (AccelerationGroupId(g), n))
                .collect(),
            matched_slot: None,
        }
    }

    fn allocator(policy: AllocationPolicy) -> ResourceAllocator {
        ResourceAllocator::with_policy(AccelerationGroups::paper_three_groups(), policy)
    }

    #[test]
    fn ilp_allocation_covers_the_forecast_within_cap() {
        let alloc = allocator(AllocationPolicy::IlpExact);
        let f = forecast(&[(1, 60), (2, 120), (3, 40)]);
        let a = alloc.allocate(&f).unwrap();
        assert!(a.covers(&f), "{a:?}");
        assert!(a.total_instances() <= 20);
        assert!(a.hourly_cost > 0.0);
    }

    #[test]
    fn zero_workload_keeps_the_minimum_fleet() {
        let alloc = allocator(AllocationPolicy::IlpExact);
        let a = alloc
            .allocate(&forecast(&[(1, 0), (2, 0), (3, 0)]))
            .unwrap();
        assert_eq!(a.total_instances(), 3, "one instance per group");
        for group in [1u8, 2, 3] {
            assert!(a.capacity_of(AccelerationGroupId(group)) >= 1);
        }
    }

    #[test]
    fn ilp_never_costs_more_than_greedy_or_overprovisioning() {
        let f = forecast(&[(1, 150), (2, 300), (3, 100)]);
        let ilp = allocator(AllocationPolicy::IlpExact).allocate(&f).unwrap();
        let greedy = allocator(AllocationPolicy::GreedyCheapest)
            .allocate(&f)
            .unwrap();
        let over = allocator(AllocationPolicy::OverProvision)
            .allocate(&f)
            .unwrap();
        assert!(
            ilp.hourly_cost <= greedy.hourly_cost + 1e-9,
            "ilp {} greedy {}",
            ilp.hourly_cost,
            greedy.hourly_cost
        );
        assert!(
            ilp.hourly_cost <= over.hourly_cost + 1e-9,
            "ilp {} over {}",
            ilp.hourly_cost,
            over.hourly_cost
        );
        assert!(greedy.covers(&f));
        assert!(over.covers(&f));
    }

    #[test]
    fn growing_workload_increases_cost_monotonically() {
        let alloc = allocator(AllocationPolicy::IlpExact);
        let mut last_cost = 0.0;
        for load in [10usize, 100, 400, 800] {
            let a = alloc
                .allocate(&forecast(&[(1, load), (2, load), (3, load / 2)]))
                .unwrap();
            assert!(
                a.hourly_cost >= last_cost - 1e-9,
                "cost must not shrink as load grows"
            );
            last_cost = a.hourly_cost;
        }
    }

    #[test]
    fn infeasible_when_workload_exceeds_account_cap() {
        let alloc = allocator(AllocationPolicy::IlpExact).with_account_cap(2);
        // three groups with a minimum of one instance each cannot fit in 2
        let err = alloc
            .allocate(&forecast(&[(1, 1), (2, 1), (3, 1)]))
            .unwrap_err();
        assert!(matches!(err, CoreError::AllocationInfeasible { .. }));
    }

    #[test]
    fn greedy_reports_infeasible_over_cap() {
        let alloc = allocator(AllocationPolicy::GreedyCheapest).with_account_cap(3);
        let err = alloc
            .allocate(&forecast(&[(1, 100_000), (2, 0), (3, 0)]))
            .unwrap_err();
        assert!(matches!(err, CoreError::AllocationInfeasible { .. }));
    }

    #[test]
    fn overprovision_allocates_spares() {
        let f = forecast(&[(1, 10), (2, 10), (3, 10)]);
        let over = allocator(AllocationPolicy::OverProvision)
            .allocate(&f)
            .unwrap();
        let exact = allocator(AllocationPolicy::IlpExact).allocate(&f).unwrap();
        assert!(over.total_instances() > exact.total_instances());
        assert!(over.hourly_cost >= exact.hourly_cost);
    }

    #[test]
    fn capacities_grow_with_acceleration_level() {
        let alloc = allocator(AllocationPolicy::IlpExact);
        let c1 = alloc.capacity_of(AccelerationGroupId(1), mca_cloudsim::InstanceType::T2Nano);
        let c2 = alloc.capacity_of(AccelerationGroupId(2), mca_cloudsim::InstanceType::T2Large);
        let c3 = alloc.capacity_of(
            AccelerationGroupId(3),
            mca_cloudsim::InstanceType::M4_4XLarge,
        );
        assert!(c1 < c2 && c2 < c3, "{c1} {c2} {c3}");
        assert_eq!(
            alloc.capacity_of(AccelerationGroupId(1), mca_cloudsim::InstanceType::T2Large),
            0
        );
    }

    #[test]
    fn ilp_reports_solver_statistics() {
        let alloc = allocator(AllocationPolicy::IlpExact);
        let a = alloc
            .allocate(&forecast(&[(1, 60), (2, 120), (3, 40)]))
            .unwrap();
        assert!(a.stats.nodes >= 1, "{:?}", a.stats);
        assert!(a.stats.pivots >= 1, "{:?}", a.stats);
        // greedy policies do no solver work
        let g = allocator(AllocationPolicy::GreedyCheapest)
            .allocate(&forecast(&[(1, 60), (2, 120), (3, 40)]))
            .unwrap();
        assert_eq!(g.stats, AllocationStats::default());
    }

    #[test]
    fn pool_allocation_lists_every_type_once() {
        let f = forecast(&[(1, 200), (2, 50), (3, 10)]);
        let a = allocator(AllocationPolicy::IlpExact).allocate(&f).unwrap();
        let mut types: Vec<_> = a.pool_allocation().iter().map(|(t, _)| *t).collect();
        let before = types.len();
        types.dedup();
        assert_eq!(before, types.len());
    }
}
