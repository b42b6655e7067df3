//! The simulated datacenter behind the billing stage: hosts, placement,
//! SLA scoring and energy metering.
//!
//! The paper prices an allocation arithmetically — hourly rate × instance
//! count (§IV-C) — which silently assumes every instance lands on infinite,
//! uncontended capacity. This module supplies the missing substrate: a small
//! fleet of [`Host`]s with finite vCPU/memory capacity, a deterministic
//! [`PlacementPolicy`] that maps each allocated instance onto a host
//! ([`FirstFit`], [`BestFit`], [`WorstFit`]), an [`SlaModel`] that scores a
//! slot's *actual* arrivals against the capacity the tenant's forecast
//! provisioned (the processor-sharing server of [`crate::server`] supplies
//! the latency and drop signal, §V-B / Fig. 8), and a linear-interpolation
//! [`PowerModel`] metered per host per slot.
//!
//! Everything here is a pure function of its inputs — no clocks, no RNG, no
//! shared state — so a [`Datacenter`] embedded in a per-tenant billing
//! backend is bit-reproducible across runs, thread counts and live tenant
//! migrations. That determinism contract is what lets the fleet layer fold
//! SLA-violation and energy rollups in tenant-id order and assert bitwise
//! equality in its determinism suite (see `docs/datacenter.md`).

use crate::instance::{InstanceSpec, InstanceType};
use crate::server::Server;
use mca_offload::AccelerationGroupId;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::fmt;

/// One physical host of the simulated datacenter: fixed vCPU and memory
/// capacity, with resource accounting over the instances placed on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// The host's index in its datacenter.
    id: usize,
    /// vCPU capacity.
    vcpus: u32,
    /// Memory capacity, GiB.
    memory_gib: f64,
    /// vCPUs consumed by placed instances.
    used_vcpus: u32,
    /// Memory consumed by placed instances, GiB.
    used_memory_gib: f64,
}

impl Host {
    /// Creates an empty host with the given capacity.
    pub fn new(id: usize, vcpus: u32, memory_gib: f64) -> Self {
        Self {
            id,
            vcpus,
            memory_gib,
            used_vcpus: 0,
            used_memory_gib: 0.0,
        }
    }

    /// The host's index in its datacenter.
    pub fn id(&self) -> usize {
        self.id
    }

    /// vCPU capacity.
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// vCPUs consumed by placed instances.
    pub fn used_vcpus(&self) -> u32 {
        self.used_vcpus
    }

    /// vCPUs still free.
    pub fn free_vcpus(&self) -> u32 {
        self.vcpus.saturating_sub(self.used_vcpus)
    }

    /// Memory still free, GiB.
    pub fn free_memory_gib(&self) -> f64 {
        (self.memory_gib - self.used_memory_gib).max(0.0)
    }

    /// Whether an instance of `spec` fits in the remaining capacity.
    pub fn fits(&self, spec: &InstanceSpec) -> bool {
        self.free_vcpus() >= spec.vcpus && self.free_memory_gib() >= spec.memory_gib
    }

    /// CPU utilization in `[0, 1]`: placed vCPUs over capacity.
    pub fn utilization(&self) -> f64 {
        if self.vcpus == 0 {
            0.0
        } else {
            f64::from(self.used_vcpus) / f64::from(self.vcpus)
        }
    }

    /// Whether any instance is placed here (an idle host is powered off and
    /// draws nothing — see [`Datacenter::energy_wh`]).
    pub fn is_active(&self) -> bool {
        self.used_vcpus > 0
    }

    /// Accounts an instance of `spec` onto the host. Callers check
    /// [`Host::fits`] first; placement beyond capacity is a caller bug.
    fn place(&mut self, spec: &InstanceSpec) {
        debug_assert!(self.fits(spec), "placement beyond host capacity");
        self.used_vcpus += spec.vcpus;
        self.used_memory_gib += spec.memory_gib;
    }
}

/// A deterministic host-selection policy: given the current hosts and the
/// resource demand of one instance, pick the host to place it on.
///
/// Implementations must be pure functions of their arguments (no RNG, no
/// interior state), so that a placement sequence is reproducible across
/// runs, thread counts and tenant migrations. Ties break on the lowest host
/// index, which the provided policies guarantee by scanning in index order
/// and replacing the incumbent only on a strict improvement.
pub trait PlacementPolicy {
    /// The index of the host to place an instance of `spec` on, or `None`
    /// when no host has the capacity.
    fn choose(&self, hosts: &[Host], spec: &InstanceSpec) -> Option<usize>;
}

/// Places each instance on the lowest-indexed host with enough capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn choose(&self, hosts: &[Host], spec: &InstanceSpec) -> Option<usize> {
        hosts.iter().position(|h| h.fits(spec))
    }
}

/// Places each instance on the fitting host with the *least* free capacity
/// (tightest fit): consolidates instances onto few hosts, which minimizes
/// energy at the price of co-location contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn choose(&self, hosts: &[Host], spec: &InstanceSpec) -> Option<usize> {
        let mut best: Option<(u32, f64, usize)> = None;
        for (index, host) in hosts.iter().enumerate() {
            if !host.fits(spec) {
                continue;
            }
            let key = (host.free_vcpus(), host.free_memory_gib());
            match best {
                Some((vcpus, memory, _)) if (key.0, key.1) >= (vcpus, memory) => {}
                _ => best = Some((key.0, key.1, index)),
            }
        }
        best.map(|(_, _, index)| index)
    }
}

/// Places each instance on the fitting host with the *most* free capacity:
/// spreads instances across hosts, which minimizes co-location contention at
/// the price of keeping more hosts powered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorstFit;

impl PlacementPolicy for WorstFit {
    fn choose(&self, hosts: &[Host], spec: &InstanceSpec) -> Option<usize> {
        let mut best: Option<(u32, f64, usize)> = None;
        for (index, host) in hosts.iter().enumerate() {
            if !host.fits(spec) {
                continue;
            }
            let key = (host.free_vcpus(), host.free_memory_gib());
            match best {
                Some((vcpus, memory, _)) if (key.0, key.1) <= (vcpus, memory) => {}
                _ => best = Some((key.0, key.1, index)),
            }
        }
        best.map(|(_, _, index)| index)
    }
}

/// The serializable selector over the built-in placement policies — what a
/// `SystemConfig` carries (the [`PlacementPolicy`] trait itself is object
/// behaviour; this enum is its configuration-file form, the same split
/// `AllocationPolicy` uses in `mca-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementKind {
    /// [`FirstFit`].
    #[default]
    FirstFit,
    /// [`BestFit`].
    BestFit,
    /// [`WorstFit`].
    WorstFit,
}

impl PlacementKind {
    /// Every built-in policy, in sweep order.
    pub const ALL: [PlacementKind; 3] = [
        PlacementKind::FirstFit,
        PlacementKind::BestFit,
        PlacementKind::WorstFit,
    ];

    /// A short lowercase label (`first-fit`, `best-fit`, `worst-fit`).
    pub fn label(self) -> &'static str {
        match self {
            PlacementKind::FirstFit => "first-fit",
            PlacementKind::BestFit => "best-fit",
            PlacementKind::WorstFit => "worst-fit",
        }
    }
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl PlacementPolicy for PlacementKind {
    fn choose(&self, hosts: &[Host], spec: &InstanceSpec) -> Option<usize> {
        match self {
            PlacementKind::FirstFit => FirstFit.choose(hosts, spec),
            PlacementKind::BestFit => BestFit.choose(hosts, spec),
            PlacementKind::WorstFit => WorstFit.choose(hosts, spec),
        }
    }
}

/// A placement that could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// No host had capacity for an instance of this type. The datacenter is
    /// left exactly as it was before the failed transaction.
    NoHostFits {
        /// The instance type that could not be placed.
        instance_type: InstanceType,
        /// How many hosts the datacenter has.
        hosts: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoHostFits {
                instance_type,
                hosts,
            } => write!(
                f,
                "no host fits an instance of {} across {hosts} host(s)",
                instance_type.api_name()
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Linear-interpolation host power model: a powered host draws
/// `idle_watts` at zero utilization and `peak_watts` fully loaded, linear in
/// between — the standard SPECpower-style first-order model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Draw of a powered but idle host, watts.
    pub idle_watts: f64,
    /// Draw of a fully utilized host, watts.
    pub peak_watts: f64,
}

impl PowerModel {
    /// A model interpolating between the given idle and peak draws.
    pub fn linear(idle_watts: f64, peak_watts: f64) -> Self {
        Self {
            idle_watts,
            peak_watts,
        }
    }

    /// A typical dual-socket 2017 server: 160 W idle, 400 W at full load.
    pub fn paper_default() -> Self {
        Self::linear(160.0, 400.0)
    }

    /// Instantaneous draw at `utilization` (clamped to `[0, 1]`), watts.
    pub fn power_watts(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_watts + (self.peak_watts - self.idle_watts) * u
    }
}

/// The actual demand one acceleration group saw in a slot, against the
/// capacity the tenant's forecast provisioned for it — the input row of
/// [`SlaModel`] scoring (built by the billing backend from the allocation's
/// `capacity_per_group` and the slot's observed arrivals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupDemand {
    /// The acceleration group.
    pub group: AccelerationGroupId,
    /// Users the slot actually brought to the group.
    pub demand: usize,
    /// Concurrent users the standing allocation provisioned for the group.
    pub capacity: usize,
}

/// SLA scoring over one slot: violations when the forecast under-provisioned
/// against the actual arrivals, plus the latency/drop signal of the
/// processor-sharing server model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaModel {
    /// The response-time target a group counts as violated beyond, ms (the
    /// same target the acceleration groups' capacities were derived under).
    pub target_response_ms: f64,
    /// Typical task work used for the latency signal, work units (matches
    /// the allocator's capacity derivation).
    pub work_units: f64,
    /// Latency inflation per unit of co-located host utilization: an
    /// instance on a host whose *other* tenants' instances use fraction `f`
    /// of the vCPUs sees its response scaled by `1 + penalty × f`. This is
    /// the shared-EC2-host contention the paper measures in Fig. 6 —
    /// consolidation (best-fit) trades latency for energy through exactly
    /// this term.
    pub co_location_penalty: f64,
}

impl SlaModel {
    /// The paper-aligned defaults: 500 ms target, 65-unit typical task,
    /// 25 % worst-case co-location inflation.
    pub fn paper_default() -> Self {
        Self {
            target_response_ms: 500.0,
            work_units: 65.0,
            co_location_penalty: 0.25,
        }
    }
}

/// The outcome of scoring one slot against the standing placement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlaAssessment {
    /// Group-slots violated: demand exceeded the provisioned capacity, or
    /// the modeled worst response exceeded the target.
    pub violations: usize,
    /// Users beyond the admission limit of their instance
    /// ([`crate::server::ServerConfig::max_outstanding`]) — the drop signal.
    pub dropped_users: usize,
    /// Sum over groups of the worst modeled per-instance response, ms.
    pub latency_ms: f64,
}

/// Configuration of a simulated datacenter: host fleet shape, placement
/// policy, power and SLA models. Carried by `SystemConfig::with_datacenter`
/// the same way the index policy is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatacenterConfig {
    /// Number of hosts.
    pub hosts: usize,
    /// vCPU capacity per host.
    pub host_vcpus: u32,
    /// Memory capacity per host, GiB.
    pub host_memory_gib: f64,
    /// The placement policy.
    pub placement: PlacementKind,
    /// The per-host power model.
    pub power: PowerModel,
    /// The SLA scoring model.
    pub sla: SlaModel,
}

impl DatacenterConfig {
    /// The default fleet: eight dual-socket 48-vCPU/192-GiB hosts — enough
    /// to place any cap-respecting allocation of the EC2 catalogue, small
    /// enough that placement policy visibly changes consolidation.
    pub fn paper_default() -> Self {
        Self {
            hosts: 8,
            host_vcpus: 48,
            host_memory_gib: 192.0,
            placement: PlacementKind::default(),
            power: PowerModel::paper_default(),
            sla: SlaModel::paper_default(),
        }
    }

    /// Replaces the placement policy.
    pub fn with_placement(mut self, placement: PlacementKind) -> Self {
        self.placement = placement;
        self
    }

    /// Replaces the host fleet shape.
    pub fn with_hosts(mut self, hosts: usize, host_vcpus: u32, host_memory_gib: f64) -> Self {
        self.hosts = hosts;
        self.host_vcpus = host_vcpus;
        self.host_memory_gib = host_memory_gib;
        self
    }

    /// Replaces the power model.
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Replaces the SLA model.
    pub fn with_sla(mut self, sla: SlaModel) -> Self {
        self.sla = sla;
        self
    }
}

/// One instance placed on a host, in placement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedInstance {
    /// The acceleration group the instance serves.
    pub group: AccelerationGroupId,
    /// The instance type.
    pub instance_type: InstanceType,
    /// The host the instance landed on.
    pub host: usize,
}

/// A simulated datacenter: the host fleet, the standing placement and the
/// models that score it. One `Datacenter` serves one tenant (it lives inside
/// the tenant's billing backend and migrates with the tenant), which is what
/// makes its accounting thread-count-invariant by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Datacenter {
    hosts: Vec<Host>,
    placement: PlacementKind,
    power: PowerModel,
    sla: SlaModel,
    /// The standing placement, one entry per placed instance.
    placements: Vec<PlacedInstance>,
}

/// What the instances of one type serving one group's demand have in
/// common, whichever host each sits on.
#[derive(Clone, Copy)]
struct TypeShare {
    instance_type: InstanceType,
    vcpus: u32,
    /// Users each instance serves.
    share: usize,
    /// Modeled response to that share on a host of its own, ms.
    alone_ms: f64,
    /// Users an instance admits before it drops the rest.
    limit: usize,
}

impl Datacenter {
    /// Builds an empty datacenter from its configuration.
    pub fn new(config: &DatacenterConfig) -> Self {
        Self {
            hosts: (0..config.hosts)
                .map(|id| Host::new(id, config.host_vcpus, config.host_memory_gib))
                .collect(),
            placement: config.placement,
            power: config.power,
            sla: config.sla,
            placements: Vec::new(),
        }
    }

    /// The host fleet.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// The standing placement, in placement order.
    pub fn placements(&self) -> &[PlacedInstance] {
        &self.placements
    }

    /// The active placement policy.
    pub fn placement_kind(&self) -> PlacementKind {
        self.placement
    }

    /// Number of hosts with at least one instance placed.
    pub fn active_hosts(&self) -> usize {
        self.hosts.iter().filter(|h| h.is_active()).count()
    }

    /// Replaces the standing placement with `per_group` — the allocation's
    /// per-group instance counts, placed instance by instance (groups in
    /// order, types in catalogue order within each group) onto freshly
    /// emptied hosts under the policy. The transaction is atomic: on
    /// [`PlacementError`] the previous placement (hosts and instances) is
    /// left exactly as it was. Returns the number of instances placed.
    ///
    /// # Errors
    ///
    /// [`PlacementError::NoHostFits`] when some instance fits on no host.
    pub fn place_allocation(
        &mut self,
        per_group: &[(AccelerationGroupId, Vec<(InstanceType, usize)>)],
    ) -> Result<usize, PlacementError> {
        // the new placement goes onto the emptied hosts behind the standing
        // one, which it replaces once every instance has a host; a failure
        // drops it and places the standing one again, in its own order, so
        // every host's usage sums back to the same bits
        let standing = self.placements.len();
        self.empty_hosts();
        let placed = self.place_behind(per_group);
        if placed.is_ok() {
            self.placements.drain(..standing);
        } else {
            self.placements.truncate(standing);
            self.empty_hosts();
            for placed in &self.placements {
                self.hosts[placed.host].place(&placed.instance_type.spec());
            }
        }
        placed
    }

    /// Every host back to no usage; the placement list is left alone.
    fn empty_hosts(&mut self) {
        for host in &mut self.hosts {
            host.used_vcpus = 0;
            host.used_memory_gib = 0.0;
        }
    }

    /// Places `per_group` instance by instance onto the hosts, appending to
    /// the placement list; see [`Datacenter::place_allocation`]. Returns
    /// the instances placed.
    fn place_behind(
        &mut self,
        per_group: &[(AccelerationGroupId, Vec<(InstanceType, usize)>)],
    ) -> Result<usize, PlacementError> {
        let instances = per_group
            .iter()
            .flat_map(|(_, counts)| counts.iter().map(|&(_, count)| count))
            .sum();
        self.placements.reserve_exact(instances);
        for (group, counts) in per_group {
            for &(instance_type, count) in counts {
                let spec = instance_type.spec();
                for _ in 0..count {
                    let host = self.placement.choose(&self.hosts, &spec).ok_or(
                        PlacementError::NoHostFits {
                            instance_type,
                            hosts: self.hosts.len(),
                        },
                    )?;
                    self.hosts[host].place(&spec);
                    self.placements.push(PlacedInstance {
                        group: *group,
                        instance_type,
                        host,
                    });
                }
            }
        }
        Ok(instances)
    }

    /// Releases every placed instance (tenant decommission or a placement
    /// failure): all hosts return to empty and power off.
    pub fn clear(&mut self) {
        self.empty_hosts();
        self.placements.clear();
    }

    /// Energy drawn by the standing placement over `slot_hours`, watt-hours:
    /// each *active* host contributes its interpolated draw at its current
    /// utilization (idle hosts are powered off and contribute nothing —
    /// which is exactly why consolidating placements meter less energy than
    /// spreading ones at identical instance counts and cost).
    pub fn energy_wh(&self, slot_hours: f64) -> f64 {
        self.hosts
            .iter()
            .filter(|h| h.is_active())
            .map(|h| self.power.power_watts(h.utilization()) * slot_hours)
            .sum()
    }

    /// Scores one slot's actual per-group demand against the standing
    /// placement, per [`SlaModel`]: a group is violated when its demand
    /// exceeds the capacity its forecast provisioned or when the modeled
    /// worst response (processor-sharing contention, inflated by co-located
    /// host load) exceeds the target; users beyond an instance's admission
    /// limit count as dropped. Pure arithmetic over exact catalogue
    /// constants — bit-reproducible anywhere.
    pub fn assess(&self, demands: &[GroupDemand]) -> SlaAssessment {
        let mut out = SlaAssessment::default();
        for demand in demands {
            if demand.demand == 0 {
                continue;
            }
            // the group's instances, in placement order: instances of one
            // type sit next to each other
            let members = || self.placements.iter().filter(|p| p.group == demand.group);
            if members().next().is_none() {
                // nothing serves the group: every user is both violated and
                // dropped
                out.violations += 1;
                out.dropped_users += demand.demand;
                continue;
            }
            let total_weight: f64 = members()
                .map(|p| p.instance_type.spec().aggregate_throughput())
                .sum();
            let mut worst_response = 0.0f64;
            let mut of_type: Option<TypeShare> = None;
            for placed in members() {
                let TypeShare {
                    vcpus,
                    share,
                    alone_ms,
                    limit,
                    ..
                } = match of_type {
                    Some(known) if known.instance_type == placed.instance_type => known,
                    _ => {
                        let spec = placed.instance_type.spec();
                        // each instance serves its throughput-proportional
                        // share of the demand, rounded up (users are
                        // indivisible)
                        let share = (demand.demand as f64 * spec.aggregate_throughput()
                            / total_weight)
                            .ceil() as usize;
                        let server = Server::new(placed.instance_type);
                        *of_type.insert(TypeShare {
                            instance_type: placed.instance_type,
                            vcpus: spec.vcpus,
                            share,
                            alone_ms: server.expected_execution_ms(self.sla.work_units, share),
                            limit: server.config().max_outstanding,
                        })
                    }
                };
                let host = &self.hosts[placed.host];
                let foreign = host.used_vcpus.saturating_sub(vcpus);
                let co_location = 1.0
                    + self.sla.co_location_penalty * f64::from(foreign)
                        / f64::from(host.vcpus.max(1));
                worst_response = worst_response.max(alone_ms * co_location);
                out.dropped_users += share.saturating_sub(limit);
            }
            if demand.demand > demand.capacity || worst_response > self.sla.target_response_ms {
                out.violations += 1;
            }
            out.latency_ms += worst_response;
        }
        out
    }
}

impl Snapshot for PlacementError {
    fn encode(&self, out: &mut Vec<u8>) {
        let PlacementError::NoHostFits {
            instance_type,
            hosts,
        } = self;
        instance_type.encode(out);
        hosts.encode(out);
    }
}

impl Restore for PlacementError {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(PlacementError::NoHostFits {
            instance_type: InstanceType::decode(cur)?,
            hosts: usize::decode(cur)?,
        })
    }
}

impl Snapshot for Host {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.vcpus.encode(out);
        self.memory_gib.encode(out);
        self.used_vcpus.encode(out);
        self.used_memory_gib.encode(out);
    }
}

impl Restore for Host {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            id: usize::decode(cur)?,
            vcpus: u32::decode(cur)?,
            memory_gib: f64::decode(cur)?,
            used_vcpus: u32::decode(cur)?,
            used_memory_gib: f64::decode(cur)?,
        })
    }
}

impl Snapshot for PlacementKind {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            PlacementKind::FirstFit => 0,
            PlacementKind::BestFit => 1,
            PlacementKind::WorstFit => 2,
        };
        tag.encode(out);
    }
}

impl Restore for PlacementKind {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        match u8::decode(cur)? {
            0 => Ok(PlacementKind::FirstFit),
            1 => Ok(PlacementKind::BestFit),
            2 => Ok(PlacementKind::WorstFit),
            _ => Err(SnapshotError::Malformed {
                context: "placement kind tag",
            }),
        }
    }
}

impl Snapshot for PowerModel {
    fn encode(&self, out: &mut Vec<u8>) {
        self.idle_watts.encode(out);
        self.peak_watts.encode(out);
    }
}

impl Restore for PowerModel {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            idle_watts: f64::decode(cur)?,
            peak_watts: f64::decode(cur)?,
        })
    }
}

impl Snapshot for SlaModel {
    fn encode(&self, out: &mut Vec<u8>) {
        self.target_response_ms.encode(out);
        self.work_units.encode(out);
        self.co_location_penalty.encode(out);
    }
}

impl Restore for SlaModel {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            target_response_ms: f64::decode(cur)?,
            work_units: f64::decode(cur)?,
            co_location_penalty: f64::decode(cur)?,
        })
    }
}

impl Snapshot for PlacedInstance {
    fn encode(&self, out: &mut Vec<u8>) {
        self.group.encode(out);
        self.instance_type.encode(out);
        self.host.encode(out);
    }
}

impl Restore for PlacedInstance {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            group: AccelerationGroupId::decode(cur)?,
            instance_type: InstanceType::decode(cur)?,
            host: usize::decode(cur)?,
        })
    }
}

/// The datacenter checkpoints its full occupancy state — hosts with their
/// live vCPU/memory accounting and the standing placement — so a restored
/// billing backend meters energy and scores SLAs exactly as the
/// uninterrupted run would.
impl Snapshot for Datacenter {
    fn encode(&self, out: &mut Vec<u8>) {
        self.hosts.encode(out);
        self.placement.encode(out);
        self.power.encode(out);
        self.sla.encode(out);
        self.placements.encode(out);
    }
}

impl Restore for Datacenter {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let hosts = Vec::<Host>::decode(cur)?;
        let placement = PlacementKind::decode(cur)?;
        let power = PowerModel::decode(cur)?;
        let sla = SlaModel::decode(cur)?;
        let placements = Vec::<PlacedInstance>::decode(cur)?;
        if placements.iter().any(|p| p.host >= hosts.len()) {
            return Err(SnapshotError::Malformed {
                context: "placed instance on a host that does not exist",
            });
        }
        Ok(Self {
            hosts,
            placement,
            power,
            sla,
            placements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(id: u8) -> AccelerationGroupId {
        AccelerationGroupId(id)
    }

    fn nano_pair() -> Vec<(AccelerationGroupId, Vec<(InstanceType, usize)>)> {
        vec![(group(1), vec![(InstanceType::T2Nano, 2)])]
    }

    #[test]
    fn first_fit_packs_in_index_order() {
        let dc = Datacenter::new(&DatacenterConfig::paper_default());
        let spec = InstanceType::T2Nano.spec();
        assert_eq!(FirstFit.choose(dc.hosts(), &spec), Some(0));
    }

    #[test]
    fn best_fit_prefers_the_tightest_host_and_worst_fit_the_emptiest() {
        let mut hosts = vec![Host::new(0, 48, 192.0), Host::new(1, 48, 192.0)];
        hosts[0].place(&InstanceType::M4_4XLarge.spec()); // 16 vcpus used
        let spec = InstanceType::T2Nano.spec();
        assert_eq!(BestFit.choose(&hosts, &spec), Some(0), "tightest fits win");
        assert_eq!(WorstFit.choose(&hosts, &spec), Some(1), "emptiest wins");
        // a host too small for the demand is skipped by every policy
        let big = InstanceType::M4_10XLarge.spec();
        hosts[1].place(&InstanceType::M4_10XLarge.spec()); // 40 of 48 used
        assert_eq!(FirstFit.choose(&hosts, &big), None);
        assert_eq!(BestFit.choose(&hosts, &big), None);
        assert_eq!(WorstFit.choose(&hosts, &big), None);
    }

    #[test]
    fn ties_break_on_the_lowest_host_index() {
        let hosts = vec![Host::new(0, 48, 192.0), Host::new(1, 48, 192.0)];
        let spec = InstanceType::T2Small.spec();
        assert_eq!(BestFit.choose(&hosts, &spec), Some(0));
        assert_eq!(WorstFit.choose(&hosts, &spec), Some(0));
    }

    #[test]
    fn placement_is_transactional_on_host_exhaustion() {
        let config = DatacenterConfig::paper_default().with_hosts(1, 2, 4.0);
        let mut dc = Datacenter::new(&config);
        dc.place_allocation(&nano_pair()).expect("two nanos fit");
        assert_eq!(dc.placements().len(), 2);
        assert_eq!(dc.hosts()[0].used_vcpus(), 2);

        // a 16-vCPU instance fits nowhere: typed error, standing placement
        // untouched
        let too_big = vec![(group(3), vec![(InstanceType::M4_4XLarge, 1)])];
        let error = dc.place_allocation(&too_big).unwrap_err();
        assert_eq!(
            error,
            PlacementError::NoHostFits {
                instance_type: InstanceType::M4_4XLarge,
                hosts: 1
            }
        );
        assert!(error.to_string().contains("m4.4xlarge"));
        let _: &dyn std::error::Error = &error;
        assert_eq!(
            dc.placements().len(),
            2,
            "failed transaction changed nothing"
        );
        assert_eq!(dc.hosts()[0].used_vcpus(), 2);
    }

    #[test]
    fn consolidation_meters_less_energy_than_spreading_at_equal_instances() {
        let allocation = vec![
            (group(1), vec![(InstanceType::T2Nano, 1)]),
            (group(2), vec![(InstanceType::T2Large, 1)]),
            (group(3), vec![(InstanceType::M4_4XLarge, 1)]),
        ];
        let mut packed = Datacenter::new(
            &DatacenterConfig::paper_default().with_placement(PlacementKind::BestFit),
        );
        let mut spread = Datacenter::new(
            &DatacenterConfig::paper_default().with_placement(PlacementKind::WorstFit),
        );
        assert_eq!(packed.place_allocation(&allocation).unwrap(), 3);
        assert_eq!(spread.place_allocation(&allocation).unwrap(), 3);
        assert_eq!(packed.active_hosts(), 1, "best-fit consolidates");
        assert_eq!(spread.active_hosts(), 3, "worst-fit spreads");
        let packed_wh = packed.energy_wh(1.0);
        let spread_wh = spread.energy_wh(1.0);
        assert!(
            spread_wh > packed_wh,
            "idle draw per powered host: {spread_wh} <= {packed_wh}"
        );
    }

    #[test]
    fn under_provisioned_demand_is_a_violation_and_overload_drops() {
        let mut dc = Datacenter::new(&DatacenterConfig::paper_default());
        dc.place_allocation(&[(group(1), vec![(InstanceType::T2Nano, 1)])])
            .unwrap();
        // within capacity: no violation
        let ok = dc.assess(&[GroupDemand {
            group: group(1),
            demand: 5,
            capacity: 10,
        }]);
        assert_eq!(ok.violations, 0);
        assert!(ok.latency_ms > 0.0);
        // demand beyond the provisioned capacity: violated
        let violated = dc.assess(&[GroupDemand {
            group: group(1),
            demand: 11,
            capacity: 10,
        }]);
        assert_eq!(violated.violations, 1);
        assert!(violated.latency_ms > ok.latency_ms);
        // demand beyond the admission limit: users drop (t2.nano admits 60)
        let flooded = dc.assess(&[GroupDemand {
            group: group(1),
            demand: 100,
            capacity: 10,
        }]);
        assert_eq!(flooded.dropped_users, 40);
        // a group nothing serves: violated, everything dropped
        let unserved = dc.assess(&[GroupDemand {
            group: group(2),
            demand: 7,
            capacity: 0,
        }]);
        assert_eq!(unserved.violations, 1);
        assert_eq!(unserved.dropped_users, 7);
        // an empty slot scores nothing
        let idle = dc.assess(&[GroupDemand {
            group: group(1),
            demand: 0,
            capacity: 10,
        }]);
        assert_eq!(idle, SlaAssessment::default());
    }

    #[test]
    fn co_location_inflates_the_latency_signal() {
        let allocation = vec![
            (group(1), vec![(InstanceType::T2Nano, 1)]),
            (group(3), vec![(InstanceType::M4_4XLarge, 2)]),
        ];
        let mut packed = Datacenter::new(
            &DatacenterConfig::paper_default().with_placement(PlacementKind::BestFit),
        );
        let mut spread = Datacenter::new(
            &DatacenterConfig::paper_default().with_placement(PlacementKind::WorstFit),
        );
        packed.place_allocation(&allocation).unwrap();
        spread.place_allocation(&allocation).unwrap();
        let demand = [GroupDemand {
            group: group(1),
            demand: 8,
            capacity: 20,
        }];
        let packed_sla = packed.assess(&demand);
        let spread_sla = spread.assess(&demand);
        assert!(
            packed_sla.latency_ms > spread_sla.latency_ms,
            "co-located nano must read slower: {} <= {}",
            packed_sla.latency_ms,
            spread_sla.latency_ms
        );
    }

    #[test]
    fn energy_and_power_interpolate_linearly() {
        let power = PowerModel::linear(100.0, 300.0);
        assert_eq!(power.power_watts(0.0), 100.0);
        assert_eq!(power.power_watts(0.5), 200.0);
        assert_eq!(power.power_watts(1.0), 300.0);
        assert_eq!(power.power_watts(2.0), 300.0, "clamped above full load");

        let mut dc = Datacenter::new(
            &DatacenterConfig::paper_default()
                .with_hosts(2, 2, 8.0)
                .with_power(power),
        );
        assert_eq!(dc.energy_wh(1.0), 0.0, "empty hosts are powered off");
        dc.place_allocation(&nano_pair()).unwrap();
        // both nanos pack onto host 0 under first fit: one host at 100 %
        assert_eq!(dc.active_hosts(), 1);
        assert_eq!(dc.energy_wh(1.0), 300.0);
        assert_eq!(dc.energy_wh(0.5), 150.0);
        dc.clear();
        assert_eq!(dc.energy_wh(1.0), 0.0);
        assert!(dc.placements().is_empty());
    }

    #[test]
    fn placement_kind_labels_and_delegation() {
        assert_eq!(PlacementKind::FirstFit.to_string(), "first-fit");
        assert_eq!(PlacementKind::BestFit.to_string(), "best-fit");
        assert_eq!(PlacementKind::WorstFit.to_string(), "worst-fit");
        let hosts = vec![Host::new(0, 48, 192.0)];
        let spec = InstanceType::T2Nano.spec();
        for kind in PlacementKind::ALL {
            assert_eq!(kind.choose(&hosts, &spec), Some(0), "{kind}");
        }
    }
}
