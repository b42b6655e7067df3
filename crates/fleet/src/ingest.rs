//! Batched slot ingest.
//!
//! The front-end hands the fleet one flat batch of `(tenant, group, user)`
//! records per provisioning slot, in arrival order — which interleaves
//! tenants and user ids arbitrarily. Feeding such a stream through
//! [`mca_core::TimeSlot::assign`] pays an ordered insert per record
//! (`O(n)` per out-of-order user); the engine instead walks the batch once
//! through a `LaneTable`. At the top of every slot each hosted tenant's
//! [`mca_core::TimeSlotBuilder`] lends out its [`mca_core::SlotLane`] — a
//! copy of its frame's geometry and borrows of the frame's words and the
//! key buffer — and the table keeps each lane beside its tenant id in one
//! cache line. A record then costs one hash probe, one range check and one
//! bit set: inside the frame the tenant's last slot left it sets its bit,
//! outside it is kept as a key. The slot is built once — read off the
//! frame, or sorted and deduplicated — identical in result to the
//! per-record path. A tenant the table does not hold is unknown: its
//! records are dropped and counted.

use crate::router::ShardRouter;
use mca_core::SlotLane;
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

/// One tenant's entry in a [`LaneTable`]: the tenant and its builder's
/// lane, together one cache line.
#[derive(Debug)]
#[repr(align(64))]
struct Entry<'a> {
    tenant: TenantId,
    lane: SlotLane<'a>,
}

/// Tenant → the [`SlotLane`] of the tenant's slot builder: the table the
/// engine fills at the top of every slot and looks up once per record. Open
/// addressing with linear probing over a power-of-two array at most half
/// full, each entry one cache line holding the tenant and a copy of its
/// frame's geometry — a record costs one multiplication, nearly always one
/// entry read, a range check and one bit set, with no pointer chased
/// through the shard to the builder.
#[derive(Debug)]
pub(crate) struct LaneTable<'a> {
    /// `None` marks a free entry.
    entries: Vec<Option<Entry<'a>>>,
    /// `64 − log2(entries.len())`: the shift that keeps a hash's top bits.
    shift: u32,
}

impl<'a> LaneTable<'a> {
    /// An empty table with room for `tenants` lanes.
    pub(crate) fn with_capacity(tenants: usize) -> Self {
        let len = (2 * tenants).next_power_of_two().max(2);
        let mut entries = Vec::with_capacity(len);
        entries.resize_with(len, || None);
        Self {
            entries,
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The entry `tenant` probes first: the top bits of a golden-ratio
    /// product (Fibonacci hashing), which spreads sequential ids evenly.
    #[inline]
    fn home(&self, tenant: TenantId) -> usize {
        (u64::from(tenant.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Adds the lane of `tenant`, which has none in the table yet.
    pub(crate) fn insert(&mut self, tenant: TenantId, lane: SlotLane<'a>) {
        let mask = self.entries.len() - 1;
        let mut at = self.home(tenant);
        while self.entries[at].is_some() {
            at = (at + 1) & mask;
        }
        self.entries[at] = Some(Entry { tenant, lane });
    }

    /// The lane of `tenant`, if it has one.
    #[inline]
    pub(crate) fn get(&mut self, tenant: TenantId) -> Option<&mut SlotLane<'a>> {
        let mask = self.entries.len() - 1;
        let mut at = self.home(tenant);
        loop {
            match &self.entries[at] {
                None => return None,
                Some(entry) if entry.tenant == tenant => break,
                Some(_) => at = (at + 1) & mask,
            }
        }
        self.entries[at].as_mut().map(|entry| &mut entry.lane)
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
    fn lane_table_finds_what_was_inserted_and_nothing_else() {
        assert_eq!(std::mem::size_of::<Option<Entry<'_>>>(), 64, "one line");
        assert!(LaneTable::with_capacity(0).get(TenantId(0)).is_none());
        // sequential ids, ids a power of two apart (equal low bits) and the
        // extremes, at several sizes
        for tenants in [1usize, 2, 3, 64, 65, 1000] {
            let ids: Vec<TenantId> = (0..tenants as u32)
                .map(|i| TenantId(if i % 3 == 2 { i << 12 } else { i }))
                .chain([TenantId(u32::MAX), TenantId(u32::MAX - 1)])
                .collect();
            let mut builders = vec![mca_core::TimeSlotBuilder::default(); ids.len()];
            let mut table = LaneTable::with_capacity(ids.len());
            for (&id, builder) in ids.iter().zip(&mut builders) {
                table.insert(id, builder.lane());
            }
            // each lane records into its own tenant's builder
            for (at, &id) in ids.iter().enumerate() {
                let lane = table
                    .get(id)
                    .unwrap_or_else(|| panic!("{id:?} of {tenants}"));
                lane.assign(AccelerationGroupId(1), UserId(at as u32));
            }
            assert!(table.get(TenantId(u32::MAX - 2)).is_none());
            assert!(table.get(TenantId(1 << 30)).is_none());
            drop(table);
            for (at, builder) in builders.iter_mut().enumerate() {
                assert_eq!(builder.len(), 1, "{:?} of {tenants}", ids[at]);
                let slot = builder.finish(0);
                assert_eq!(slot.users_in(AccelerationGroupId(1)), [UserId(at as u32)]);
            }
        }
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
