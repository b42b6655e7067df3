//! Batched slot ingest.
//!
//! The front-end hands the fleet one flat batch of `(tenant, group, user)`
//! records per provisioning slot, in arrival order — which interleaves
//! tenants and user ids arbitrarily. Feeding such a stream through
//! [`mca_core::TimeSlot::assign`] pays an ordered insert per record
//! (`O(n)` per out-of-order user); the engine instead walks the batch once,
//! looks every record's tenant up in a `RouteTable` and hands it to that
//! tenant's [`mca_core::TimeSlotBuilder`]. A record inside the frame the
//! tenant's last slot left sets its bit there; any other is kept as a key.
//! The slot is built once — read off the frame, or sorted and deduplicated
//! — identical in result to the per-record path. A tenant the table does
//! not hold is unknown: its records are dropped and counted.

use crate::router::ShardRouter;
use mca_offload::{AccelerationGroupId, TenantId, UserId};
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::collections::BTreeSet;

/// One observed assignment: `user` of `tenant` was active in `group` during
/// the current slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRecord {
    /// The tenant the user belongs to.
    pub tenant: TenantId,
    /// The acceleration group that served the user.
    pub group: AccelerationGroupId,
    /// The user.
    pub user: UserId,
}

impl SlotRecord {
    /// Convenience constructor.
    pub fn new(tenant: TenantId, group: AccelerationGroupId, user: UserId) -> Self {
        Self {
            tenant,
            group,
            user,
        }
    }
}

impl Snapshot for SlotRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tenant.encode(out);
        self.group.encode(out);
        self.user.encode(out);
    }
}

impl Restore for SlotRecord {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            tenant: TenantId::decode(cur)?,
            group: AccelerationGroupId::decode(cur)?,
            user: UserId::decode(cur)?,
        })
    }
}

/// Tenant → `(shard, position in the shard's tenant list)`: the table the
/// engine refills every slot and looks up once per record. Open addressing
/// with linear probing over a power-of-two slot array at most half full — a
/// lookup is one multiplication and, nearly always, one slot read, where the
/// standard `HashMap` costs about as much as the append it routes.
#[derive(Debug)]
pub(crate) struct RouteTable {
    /// `(tenant, shard, position)`; a [`VACANT`] shard marks a free slot.
    slots: Vec<(TenantId, usize, usize)>,
}

const VACANT: usize = usize::MAX;

impl RouteTable {
    /// A table with room for no tenant.
    pub(crate) fn new() -> Self {
        let mut table = Self { slots: Vec::new() };
        table.reset(0);
        table
    }

    /// Empties the table and sizes it for up to `tenants` entries.
    pub(crate) fn reset(&mut self, tenants: usize) {
        self.slots.clear();
        let slots = (2 * tenants).next_power_of_two().max(2);
        self.slots.resize(slots, (TenantId(0), VACANT, 0));
    }

    /// The slot `tenant` probes first: the top bits of a golden-ratio
    /// product (Fibonacci hashing), which spreads sequential ids evenly.
    fn home(&self, tenant: TenantId) -> usize {
        let hash = u64::from(tenant.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Routes `tenant`, not yet in the table, to `shard` at `at`.
    pub(crate) fn insert(&mut self, tenant: TenantId, shard: usize, at: usize) {
        let mut slot = self.home(tenant);
        while self.slots[slot].1 != VACANT {
            slot = (slot + 1) & (self.slots.len() - 1);
        }
        self.slots[slot] = (tenant, shard, at);
    }

    /// Where `tenant` was routed to, if it was.
    pub(crate) fn get(&self, tenant: TenantId) -> Option<(usize, usize)> {
        let mut slot = self.home(tenant);
        loop {
            match self.slots[slot] {
                (_, VACANT, _) => return None,
                (key, shard, at) if key == tenant => return Some((shard, at)),
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
    }
}

/// Buckets a flat arrival-order batch into one vector per shard, preserving
/// the batch's relative order within each bucket (one linear pass).
///
/// This is the **reference** routing: the engine does not call it — it
/// scatters records straight into per-tenant builders — but counts every
/// record against the shard this function buckets it to, and the property
/// tests and the benchmark's layer replay rebuild slots from these buckets to
/// check the engine against. Every tenant routes whole, by its placement.
///
/// Records of tenants listed in `user_sharded` route by **user** hash
/// ([`ShardRouter::shard_of_user`]) instead. The engine hosts no such
/// tenant and every caller passes an empty set; the parameter is frozen
/// until the benchmark's layer replay goes (ROADMAP item 1(b)).
pub fn bucket_by_shard(
    records: &[SlotRecord],
    router: &ShardRouter,
    user_sharded: &BTreeSet<TenantId>,
) -> Vec<Vec<SlotRecord>> {
    let mut buckets: Vec<Vec<SlotRecord>> = vec![Vec::new(); router.shards()];
    for &record in records {
        let shard = if user_sharded.contains(&record.tenant) {
            router.shard_of_user(record.user)
        } else {
            router.shard_of_tenant(record.tenant)
        };
        buckets[shard].push(record);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_table_finds_what_was_inserted_and_nothing_else() {
        let mut table = RouteTable::new();
        assert_eq!(table.get(TenantId(0)), None);
        // sequential ids, ids a power of two apart (equal low bits) and the
        // extremes, refilled at several sizes
        for tenants in [1usize, 2, 3, 64, 65, 1000] {
            let ids: Vec<TenantId> = (0..tenants as u32)
                .map(|i| TenantId(if i % 3 == 2 { i << 12 } else { i }))
                .chain([TenantId(u32::MAX), TenantId(u32::MAX - 1)])
                .collect();
            table.reset(ids.len());
            for (at, &id) in ids.iter().enumerate() {
                table.insert(id, at % 7, at);
            }
            for (at, &id) in ids.iter().enumerate() {
                assert_eq!(table.get(id), Some((at % 7, at)), "{id:?} of {tenants}");
            }
            assert_eq!(table.get(TenantId(u32::MAX - 2)), None);
            assert_eq!(table.get(TenantId(1 << 30)), None);
        }
        table.reset(0);
        assert_eq!(table.get(TenantId(1)), None, "a reset forgets every route");
    }

    #[test]
    fn bucketing_routes_every_record_and_keeps_relative_order() {
        let router = ShardRouter::new(4);
        let records: Vec<SlotRecord> = (0..100u32)
            .map(|i| {
                SlotRecord::new(
                    TenantId(i % 7),
                    AccelerationGroupId((i % 3 + 1) as u8),
                    UserId(i),
                )
            })
            .collect();
        let buckets = bucket_by_shard(&records, &router, &BTreeSet::new());
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        for (shard, bucket) in buckets.iter().enumerate() {
            // every record landed on its tenant's shard …
            assert!(bucket
                .iter()
                .all(|r| router.shard_of_tenant(r.tenant) == shard));
            // … and user ids of one tenant stay in batch order
            for tenant in 0..7u32 {
                let users: Vec<u32> = bucket
                    .iter()
                    .filter(|r| r.tenant == TenantId(tenant))
                    .map(|r| r.user.0)
                    .collect();
                assert!(users.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn listed_tenants_route_by_user_and_others_by_tenant() {
        let router = ShardRouter::new(5);
        let listed = TenantId(3);
        let records: Vec<SlotRecord> = (0..200u32)
            .map(|i| SlotRecord::new(TenantId(i % 4), AccelerationGroupId(1), UserId(i)))
            .collect();
        let buckets = bucket_by_shard(&records, &router, &[listed].into());
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 200);
        for (shard, bucket) in buckets.iter().enumerate() {
            for r in bucket {
                if r.tenant == listed {
                    assert_eq!(router.shard_of_user(r.user), shard);
                } else {
                    assert_eq!(router.shard_of_tenant(r.tenant), shard);
                }
            }
        }
        // the listed tenant's population actually spreads over several shards
        let occupied = buckets
            .iter()
            .filter(|b| b.iter().any(|r| r.tenant == listed))
            .count();
        assert!(occupied >= 3, "50 users should land on most of 5 shards");
    }
}
