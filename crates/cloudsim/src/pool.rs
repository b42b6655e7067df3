//! The pool of running instances in the back-end.
//!
//! The back-end of Fig. 2 is "formed by multiple types of instances that are
//! allocated per hour"; the cloud account can run at most `CC` instances at
//! once (20 for a standard Amazon account, §IV-C). The pool tracks the running
//! instances, enforces the cap, and bills them through [`BillingMeter`].

use crate::billing::BillingMeter;
use crate::instance::InstanceType;
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

/// A running instance in the back-end: what its hourly bill needs.
#[derive(Debug, Clone, PartialEq)]
struct RunningInstance {
    /// Pool-unique id of the instance.
    id: u64,
    /// The instance type.
    instance_type: InstanceType,
    /// Simulation time at which the instance was launched, ms.
    launched_at_ms: f64,
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
            billing: BillingMeter::default(),
        }
    }

    /// Number of running instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns `true` when no instance is running.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
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
    fn launch(&mut self, instance_type: InstanceType, now_ms: f64) -> Result<u64, PoolError> {
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
        });
        Ok(id)
    }

    /// Terminates the instance with the given id at time `now_ms`, billing the
    /// elapsed (rounded-up) hours.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownInstance`] if no such instance is running.
    fn terminate(&mut self, id: u64, now_ms: f64) -> Result<(), PoolError> {
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
    }
}

impl Restore for RunningInstance {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            id: u64::decode(cur)?,
            instance_type: InstanceType::decode(cur)?,
            launched_at_ms: f64::decode(cur)?,
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

    /// Running instances per type, in order of first launch.
    fn count_by_type(pool: &InstancePool) -> Vec<(InstanceType, usize)> {
        let mut counts: Vec<(InstanceType, usize)> = Vec::new();
        for i in &pool.instances {
            match counts.iter_mut().find(|(t, _)| *t == i.instance_type) {
                Some((_, n)) => *n += 1,
                None => counts.push((i.instance_type, 1)),
            }
        }
        counts
    }

    /// A meter holding `hours` billed hours of each listed type.
    fn billed(hours: &[(InstanceType, f64)]) -> BillingMeter {
        let mut meter = BillingMeter::default();
        for &(instance_type, hours) in hours {
            meter.bill(instance_type, 1, hours);
        }
        meter
    }

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
        assert_eq!(InstancePool::new().account_cap, 20);
        assert_eq!(
            InstancePool::new(),
            InstancePool::with_cap(DEFAULT_ACCOUNT_CAP)
        );
    }

    #[test]
    fn terminate_bills_rounded_hours() {
        let mut pool = InstancePool::new();
        let id = pool.launch(InstanceType::T2Medium, 0.0).unwrap();
        pool.terminate(id, 90.0 * 60_000.0).unwrap(); // 1.5 h -> billed 2 h
        assert_eq!(pool.billing(), &billed(&[(InstanceType::T2Medium, 2.0)]));
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
        let mut counts = count_by_type(&pool);
        counts.sort_by_key(|(t, _)| *t);
        assert_eq!(
            counts,
            vec![(InstanceType::T2Nano, 1), (InstanceType::T2Large, 2)]
        );
        // the two terminated nanos were billed one hour each
        assert_eq!(pool.billing(), &billed(&[(InstanceType::T2Nano, 2.0)]));
    }

    #[test]
    fn apply_allocation_removes_types_not_listed() {
        let mut pool = InstancePool::new();
        pool.apply_allocation(&[(InstanceType::T2Small, 2)], 0.0)
            .unwrap();
        pool.apply_allocation(&[(InstanceType::M4_4XLarge, 1)], 1_000.0)
            .unwrap();
        assert_eq!(count_by_type(&pool), vec![(InstanceType::M4_4XLarge, 1)]);
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
        assert_eq!(count_by_type(&pool), vec![(InstanceType::T2Nano, 2)]);
    }

    #[test]
    fn terminate_all_empties_the_pool_and_bills_everything() {
        let mut pool = InstancePool::new();
        pool.launch(InstanceType::T2Nano, 0.0).unwrap();
        pool.launch(InstanceType::C4_8XLarge, 0.0).unwrap();
        pool.terminate_all(30.0 * 60_000.0);
        assert!(pool.is_empty());
        let both = billed(&[(InstanceType::T2Nano, 1.0), (InstanceType::C4_8XLarge, 1.0)]);
        assert_eq!(pool.billing(), &both);
        assert!(pool.billing().total_cost() > 1.9);
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
        assert_eq!(pool.billing(), &billed(&[(InstanceType::T2Large, 1.0)]));
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
        let placed_before = dc.clone();

        // 21 instances break the pool cap before any placement is attempted
        let oversized = [(InstanceType::T2Nano, 21)];
        let err = pool.apply_allocation(&oversized, 1.0).unwrap_err();
        assert_eq!(err, PoolError::AccountCapReached { cap: 3 });
        assert_eq!(count_by_type(&pool), vec![(InstanceType::T2Nano, 2)]);
        assert_eq!(
            pool.billing(),
            &BillingMeter::default(),
            "no spurious billing"
        );
        assert_eq!(dc, placed_before);
    }

    /// A version-9 pool payload: its running instances as
    /// `(id, type tag, launched at)`, then the id counter, the cap and an
    /// empty meter — the layout `Snapshot for InstancePool` writes.
    fn pool_payload(instances: &[(u64, u8, f64)], next_id: u64, cap: usize) -> Vec<u8> {
        let mut out = Vec::new();
        instances.len().encode(&mut out);
        for &(id, tag, launched_at_ms) in instances {
            id.encode(&mut out);
            tag.encode(&mut out);
            launched_at_ms.encode(&mut out);
        }
        next_id.encode(&mut out);
        cap.encode(&mut out);
        BillingMeter::default().encode(&mut out);
        out
    }

    fn restore(payload: &[u8]) -> Result<InstancePool, SnapshotError> {
        InstancePool::decode(&mut Cursor::new(payload))
    }

    #[test]
    fn restore_reads_the_layout_a_checkpoint_writes() {
        let mut pool = InstancePool::with_cap(3);
        pool.apply_allocation(
            &[(InstanceType::T2Nano, 1), (InstanceType::C4_8XLarge, 1)],
            5.0,
        )
        .unwrap();
        let tags = (InstanceType::T2Nano as u8, InstanceType::C4_8XLarge as u8);
        let payload = pool_payload(&[(1, tags.0, 5.0), (2, tags.1, 5.0)], 3, 3);
        let mut written = Vec::new();
        pool.encode(&mut written);
        assert_eq!(written, payload);
        assert_eq!(restore(&payload).unwrap(), pool);
        // 17 bytes per running instance: id, type tag, launch time
        assert_eq!(payload.len(), pool_payload(&[], 3, 3).len() + 2 * 17);
    }

    #[test]
    fn restore_refuses_a_pool_over_its_account_cap() {
        let payload = pool_payload(&[(1, 0, 0.0), (2, 0, 0.0)], 3, 1);
        let refused = restore(&payload);
        assert!(
            matches!(
                refused,
                Err(SnapshotError::Malformed {
                    context: "pool over its account cap"
                })
            ),
            "{refused:?}"
        );
    }

    #[test]
    fn restore_refuses_an_instance_id_from_the_future() {
        let payload = pool_payload(&[(1, 0, 0.0), (3, 0, 0.0)], 3, 20);
        let refused = restore(&payload);
        assert!(
            matches!(
                refused,
                Err(SnapshotError::Malformed {
                    context: "running instance id from the future"
                })
            ),
            "{refused:?}"
        );
    }

    #[test]
    fn restore_refuses_an_unknown_instance_type_tag() {
        let tag = InstanceType::ALL.len() as u8;
        let payload = pool_payload(&[(1, tag, 0.0)], 2, 20);
        let refused = restore(&payload);
        assert!(
            matches!(
                refused,
                Err(SnapshotError::Malformed {
                    context: "instance type tag"
                })
            ),
            "{refused:?}"
        );
    }
}
