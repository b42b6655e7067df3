//! The pool of running instances in the back-end.
//!
//! The back-end of Fig. 2 is "formed by multiple types of instances that are
//! allocated per hour"; the cloud account can run at most `CC` instances at
//! once (20 for a standard Amazon account, §IV-C). The pool tracks the running
//! instances, enforces the cap, and bills them through [`BillingMeter`].

use crate::billing::BillingMeter;
use crate::instance::InstanceType;
use crate::server::Server;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::fmt;

/// Default per-account instance cap (`CC` in the allocation model).
pub const DEFAULT_ACCOUNT_CAP: usize = 20;

/// Errors returned by pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Launching would exceed the account's instance cap.
    AccountCapReached {
        /// The cap in force.
        cap: usize,
    },
    /// The referenced instance id is not running.
    UnknownInstance {
        /// The offending id.
        id: u64,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::AccountCapReached { cap } => {
                write!(f, "cloud account cap of {cap} instances reached")
            }
            PoolError::UnknownInstance { id } => write!(f, "instance {id} is not running"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A running instance in the back-end.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningInstance {
    /// Pool-unique id of the instance.
    pub id: u64,
    /// The instance type.
    pub instance_type: InstanceType,
    /// Simulation time at which the instance was launched, ms.
    pub launched_at_ms: f64,
    /// The simulated server running on the instance.
    pub server: Server,
}

/// The back-end instance pool.
#[derive(Debug, Clone, PartialEq)]
pub struct InstancePool {
    instances: Vec<RunningInstance>,
    next_id: u64,
    account_cap: usize,
    billing: BillingMeter,
}

impl InstancePool {
    /// Creates an empty pool with the default 20-instance account cap.
    pub fn new() -> Self {
        Self::with_cap(DEFAULT_ACCOUNT_CAP)
    }

    /// Creates an empty pool with an explicit account cap.
    pub fn with_cap(account_cap: usize) -> Self {
        Self {
            instances: Vec::new(),
            next_id: 1,
            account_cap,
            billing: BillingMeter::new(),
        }
    }

    /// The account cap (`CC`).
    pub fn account_cap(&self) -> usize {
        self.account_cap
    }

    /// Number of running instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns `true` when no instance is running.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The running instances.
    pub fn instances(&self) -> &[RunningInstance] {
        &self.instances
    }

    /// Mutable access to a running instance's server.
    pub fn server_mut(&mut self, id: u64) -> Option<&mut Server> {
        self.instances
            .iter_mut()
            .find(|i| i.id == id)
            .map(|i| &mut i.server)
    }

    /// Billing accumulated so far.
    pub fn billing(&self) -> &BillingMeter {
        &self.billing
    }

    /// Launches one instance of `instance_type` at simulation time `now_ms`.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::AccountCapReached`] when the cap would be
    /// exceeded.
    pub fn launch(&mut self, instance_type: InstanceType, now_ms: f64) -> Result<u64, PoolError> {
        if self.instances.len() >= self.account_cap {
            return Err(PoolError::AccountCapReached {
                cap: self.account_cap,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.instances.push(RunningInstance {
            id,
            instance_type,
            launched_at_ms: now_ms,
            server: Server::new(instance_type),
        });
        Ok(id)
    }

    /// Terminates the instance with the given id at time `now_ms`, billing the
    /// elapsed (rounded-up) hours.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownInstance`] if no such instance is running.
    pub fn terminate(&mut self, id: u64, now_ms: f64) -> Result<(), PoolError> {
        let idx = self
            .instances
            .iter()
            .position(|i| i.id == id)
            .ok_or(PoolError::UnknownInstance { id })?;
        let instance = self.instances.remove(idx);
        let hours = (now_ms - instance.launched_at_ms).max(0.0) / 3_600_000.0;
        self.billing.bill(instance.instance_type, 1, hours);
        Ok(())
    }

    /// Replaces the whole fleet with the given allocation (counts per type),
    /// terminating instances that are no longer needed and launching the
    /// missing ones. This is what the resource allocator applies at the start
    /// of each provisioning interval. Returns the ids of newly launched
    /// instances.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::AccountCapReached`] if the requested allocation
    /// exceeds the cap (nothing is changed in that case).
    pub fn apply_allocation(
        &mut self,
        allocation: &[(InstanceType, usize)],
        now_ms: f64,
    ) -> Result<Vec<u64>, PoolError> {
        let total: usize = allocation.iter().map(|(_, n)| *n).sum();
        if total > self.account_cap {
            return Err(PoolError::AccountCapReached {
                cap: self.account_cap,
            });
        }
        // Terminate surplus instances per type.
        for &(ty, wanted) in allocation {
            let of_type = |i: &&RunningInstance| i.instance_type == ty;
            let running = self.instances.iter().filter(of_type).count();
            for _ in wanted..running {
                // the youngest goes first
                if let Some(id) = self.instances.iter().rev().find(of_type).map(|i| i.id) {
                    self.terminate(id, now_ms)?;
                }
            }
        }
        // Terminate instances of types not present in the allocation at all.
        let to_kill: Vec<u64> = self
            .instances
            .iter()
            .filter(|i| allocation.iter().all(|(t, _)| *t != i.instance_type))
            .map(|i| i.id)
            .collect();
        for id in to_kill {
            self.terminate(id, now_ms)?;
        }
        // Launch what is missing.
        let mut launched = Vec::new();
        for &(ty, wanted) in allocation {
            let have = self
                .instances
                .iter()
                .filter(|i| i.instance_type == ty)
                .count();
            for _ in have..wanted {
                launched.push(self.launch(ty, now_ms)?);
            }
        }
        Ok(launched)
    }

    /// Counts running instances per type.
    pub fn count_by_type(&self) -> Vec<(InstanceType, usize)> {
        let mut counts: Vec<(InstanceType, usize)> = Vec::new();
        for i in &self.instances {
            match counts.iter_mut().find(|(t, _)| *t == i.instance_type) {
                Some((_, n)) => *n += 1,
                None => counts.push((i.instance_type, 1)),
            }
        }
        counts
    }

    /// Terminates every running instance (end of the experiment), billing
    /// elapsed hours.
    pub fn terminate_all(&mut self, now_ms: f64) {
        let ids: Vec<u64> = self.instances.iter().map(|i| i.id).collect();
        for id in ids {
            let _ = self.terminate(id, now_ms);
        }
    }
}

impl Default for InstancePool {
    fn default() -> Self {
        Self::new()
    }
}

impl Snapshot for RunningInstance {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.instance_type.encode(out);
        self.launched_at_ms.encode(out);
        self.server.encode_state(out);
    }
}

impl Restore for RunningInstance {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            id: u64::decode(cur)?,
            instance_type: InstanceType::decode(cur)?,
            launched_at_ms: f64::decode(cur)?,
            server: Server::decode_state(cur)?,
        })
    }
}

impl Snapshot for InstancePool {
    fn encode(&self, out: &mut Vec<u8>) {
        self.instances.encode(out);
        self.next_id.encode(out);
        self.account_cap.encode(out);
        self.billing.encode(out);
    }
}

impl Restore for InstancePool {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let instances = Vec::<RunningInstance>::decode(cur)?;
        let next_id = u64::decode(cur)?;
        let account_cap = usize::decode(cur)?;
        let billing = BillingMeter::decode(cur)?;
        if instances.len() > account_cap {
            return Err(SnapshotError::Malformed {
                context: "pool over its account cap",
            });
        }
        if instances.iter().any(|i| i.id >= next_id) {
            return Err(SnapshotError::Malformed {
                context: "running instance id from the future",
            });
        }
        Ok(Self {
            instances,
            next_id,
            account_cap,
            billing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_and_cap() {
        let mut pool = InstancePool::with_cap(2);
        assert!(pool.is_empty());
        pool.launch(InstanceType::T2Nano, 0.0).unwrap();
        pool.launch(InstanceType::T2Large, 0.0).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(
            pool.launch(InstanceType::T2Nano, 0.0),
            Err(PoolError::AccountCapReached { cap: 2 })
        );
    }

    #[test]
    fn default_cap_matches_amazon_standard_account() {
        assert_eq!(InstancePool::new().account_cap(), 20);
    }

    #[test]
    fn terminate_bills_rounded_hours() {
        let mut pool = InstancePool::new();
        let id = pool.launch(InstanceType::T2Medium, 0.0).unwrap();
        pool.terminate(id, 90.0 * 60_000.0).unwrap(); // 1.5 h -> billed 2 h
        assert_eq!(pool.billing().hours_for(InstanceType::T2Medium), 2.0);
        assert!(pool.is_empty());
        assert_eq!(
            pool.terminate(id, 0.0),
            Err(PoolError::UnknownInstance { id })
        );
    }

    #[test]
    fn apply_allocation_converges_to_target() {
        let mut pool = InstancePool::new();
        pool.apply_allocation(
            &[(InstanceType::T2Nano, 3), (InstanceType::T2Large, 1)],
            0.0,
        )
        .unwrap();
        assert_eq!(pool.len(), 4);
        // shrink nano, grow large, drop nothing else
        pool.apply_allocation(
            &[(InstanceType::T2Nano, 1), (InstanceType::T2Large, 2)],
            3_600_000.0,
        )
        .unwrap();
        let mut counts = pool.count_by_type();
        counts.sort_by_key(|(t, _)| *t);
        assert_eq!(
            counts,
            vec![(InstanceType::T2Nano, 1), (InstanceType::T2Large, 2)]
        );
        // the two terminated nanos were billed one hour each
        assert_eq!(pool.billing().hours_for(InstanceType::T2Nano), 2.0);
    }

    #[test]
    fn apply_allocation_removes_types_not_listed() {
        let mut pool = InstancePool::new();
        pool.apply_allocation(&[(InstanceType::T2Small, 2)], 0.0)
            .unwrap();
        pool.apply_allocation(&[(InstanceType::M4_4XLarge, 1)], 1_000.0)
            .unwrap();
        assert_eq!(pool.count_by_type(), vec![(InstanceType::M4_4XLarge, 1)]);
    }

    #[test]
    fn apply_allocation_respects_cap_atomically() {
        let mut pool = InstancePool::with_cap(3);
        pool.apply_allocation(&[(InstanceType::T2Nano, 2)], 0.0)
            .unwrap();
        let err = pool
            .apply_allocation(
                &[(InstanceType::T2Nano, 2), (InstanceType::T2Large, 2)],
                1.0,
            )
            .unwrap_err();
        assert_eq!(err, PoolError::AccountCapReached { cap: 3 });
        // nothing changed
        assert_eq!(pool.count_by_type(), vec![(InstanceType::T2Nano, 2)]);
    }

    #[test]
    fn terminate_all_empties_the_pool_and_bills_everything() {
        let mut pool = InstancePool::new();
        pool.launch(InstanceType::T2Nano, 0.0).unwrap();
        pool.launch(InstanceType::C4_8XLarge, 0.0).unwrap();
        pool.terminate_all(30.0 * 60_000.0);
        assert!(pool.is_empty());
        assert_eq!(pool.billing().total_hours(), 2.0);
        assert!(pool.billing().total_cost() > 1.9);
    }

    #[test]
    fn server_mut_gives_access_to_running_server() {
        let mut pool = InstancePool::new();
        let id = pool.launch(InstanceType::T2Small, 0.0).unwrap();
        assert!(pool.server_mut(id).is_some());
        assert!(pool.server_mut(999).is_none());
    }

    #[test]
    fn terminate_on_an_exact_hour_boundary_bills_one_hour() {
        // eleven 1/11-hour provisioning slots accumulate float residue: the
        // sum is 3_600_000.000000001 ms, a hair past the hour. A tenant
        // decommissioned on that boundary owes one hour, not two.
        let boundary: f64 = (0..11).map(|_| 3_600_000.0f64 / 11.0).sum();
        assert!(boundary > 3_600_000.0, "the test needs the residue");
        let mut pool = InstancePool::new();
        let id = pool.launch(InstanceType::T2Large, 0.0).unwrap();
        pool.terminate(id, boundary).unwrap();
        assert_eq!(pool.billing().hours_for(InstanceType::T2Large), 1.0);
    }

    #[test]
    fn pool_errors_display_and_implement_error() {
        let cap = PoolError::AccountCapReached { cap: 20 };
        assert_eq!(cap.to_string(), "cloud account cap of 20 instances reached");
        let unknown = PoolError::UnknownInstance { id: 7 };
        assert_eq!(unknown.to_string(), "instance 7 is not running");
        // both pool and placement errors present the std error interface
        let _: &dyn std::error::Error = &cap;
        let _: &dyn std::error::Error = &unknown;
        let placement = crate::datacenter::PlacementError::NoHostFits {
            instance_type: InstanceType::T2Nano,
            hosts: 0,
        };
        let _: &dyn std::error::Error = &placement;
    }

    #[test]
    fn cap_hit_leaves_pool_and_placement_unchanged() {
        use crate::datacenter::{Datacenter, DatacenterConfig};
        // the pool transaction and the placement transaction fail the same
        // way: typed error, state exactly as before
        let mut pool = InstancePool::with_cap(3);
        let mut dc = Datacenter::new(&DatacenterConfig::paper_default());
        let modest = vec![(
            mca_offload::AccelerationGroupId(1),
            vec![(InstanceType::T2Nano, 2)],
        )];
        pool.apply_allocation(&[(InstanceType::T2Nano, 2)], 0.0)
            .unwrap();
        dc.place_allocation(&modest).unwrap();
        let placed_before = dc.placements().to_vec();

        // 21 instances break the pool cap before any placement is attempted
        let oversized = [(InstanceType::T2Nano, 21)];
        let err = pool.apply_allocation(&oversized, 1.0).unwrap_err();
        assert_eq!(err, PoolError::AccountCapReached { cap: 3 });
        assert_eq!(pool.count_by_type(), vec![(InstanceType::T2Nano, 2)]);
        assert_eq!(pool.billing().total_hours(), 0.0, "no spurious billing");
        assert_eq!(dc.placements(), placed_before.as_slice());
    }
}
