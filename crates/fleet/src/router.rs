//! Shard routing: which shard owns which tenant.
//!
//! Routing must be a pure function of the router's state — any front-end
//! instance, any ingest thread and any replay must agree on the owning shard
//! without coordination. Ids are mixed through SplitMix64 before the modulo
//! so that sequentially assigned tenant ids (0, 1, 2, …) spread over shards
//! instead of landing on consecutive ones.
//!
//! The hash fixes each tenant's **home** shard, but placement is allowed to
//! diverge from it: the router carries an indirection table of per-tenant
//! overrides ([`ShardRouter::place`]) so the rebalancer can move a hot
//! tenant off its home shard without breaking record routing — every lookup
//! goes through [`ShardRouter::shard_of_tenant`], which consults the
//! overrides first. An empty table keeps the lookup on the pure-hash fast
//! path, and placing a tenant back on its home shard removes its entry, so
//! a fleet that never rebalances pays nothing. Offboarding a tenant places
//! it back home, so no override outlives the tenant it moved.

use mca_offload::{TenantId, UserId};
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::collections::BTreeMap;

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes tenant ids onto a fixed number of shards, with an
/// indirection table for tenants whose placement has diverged from the
/// hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
    /// Per-tenant placement overrides; tenants absent from the table live on
    /// their hash home shard.
    overrides: BTreeMap<TenantId, usize>,
}

impl ShardRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        Self {
            shards,
            overrides: BTreeMap::new(),
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The tenant's **home** shard: the pure hash placement, independent of
    /// any override.
    pub fn home_shard_of_tenant(&self, tenant: TenantId) -> usize {
        (splitmix64(u64::from(tenant.0)) % self.shards as u64) as usize
    }

    /// The shard owning `tenant`: the override when one stands, the hash
    /// home otherwise.
    pub fn shard_of_tenant(&self, tenant: TenantId) -> usize {
        if self.overrides.is_empty() {
            return self.home_shard_of_tenant(tenant);
        }
        match self.overrides.get(&tenant) {
            Some(&shard) => shard,
            None => self.home_shard_of_tenant(tenant),
        }
    }

    /// Places `tenant` on `shard`, overriding the hash. Placing a tenant
    /// back on its home shard removes the override, so the table only holds
    /// genuine divergences.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn place(&mut self, tenant: TenantId, shard: usize) {
        assert!(
            shard < self.shards,
            "shard {shard} is out of range for {} shards",
            self.shards
        );
        if shard == self.home_shard_of_tenant(tenant) {
            self.overrides.remove(&tenant);
        } else {
            self.overrides.insert(tenant, shard);
        }
    }

    /// Whether `tenant` currently lives away from its hash home.
    pub fn is_displaced(&self, tenant: TenantId) -> bool {
        self.overrides.contains_key(&tenant)
    }

    /// Number of tenants placed away from their hash home.
    pub fn displaced_tenants(&self) -> usize {
        self.overrides.len()
    }

    /// The shard a bare user id hashes to, never overridden. Only
    /// [`crate::ingest::bucket_by_shard`]'s frozen third parameter reaches
    /// it; both go with the benchmark's layer replay (ROADMAP item 1(b)).
    pub fn shard_of_user(&self, user: UserId) -> usize {
        (splitmix64(u64::from(user.0) ^ 0xA076_1D64_78BD_642F) % self.shards as u64) as usize
    }
}

impl Snapshot for ShardRouter {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shards.encode(out);
        self.overrides.encode(out);
    }
}

impl Restore for ShardRouter {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let shards = usize::decode(cur)?;
        if shards == 0 {
            return Err(SnapshotError::Malformed {
                context: "router over zero shards",
            });
        }
        let overrides = BTreeMap::<TenantId, usize>::decode(cur)?;
        if overrides.values().any(|&shard| shard >= shards) {
            return Err(SnapshotError::Malformed {
                context: "router override onto a missing shard",
            });
        }
        Ok(Self { shards, overrides })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let router = ShardRouter::new(7);
        for t in 0..200u32 {
            let shard = router.shard_of_tenant(TenantId(t));
            assert!(shard < 7);
            assert_eq!(shard, router.shard_of_tenant(TenantId(t)), "stable");
            assert_eq!(shard, router.home_shard_of_tenant(TenantId(t)));
        }
        for u in 0..200u32 {
            assert!(router.shard_of_user(UserId(u)) < 7);
        }
    }

    #[test]
    fn sequential_tenants_spread_over_shards() {
        let router = ShardRouter::new(8);
        let mut counts = [0usize; 8];
        for t in 0..64u32 {
            counts[router.shard_of_tenant(TenantId(t))] += 1;
        }
        let occupied = counts.iter().filter(|&&c| c > 0).count();
        assert!(occupied >= 6, "64 tenants should occupy most of 8 shards");
        assert!(counts.iter().all(|&c| c <= 16), "no pathological pile-up");
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = ShardRouter::new(1);
        assert_eq!(router.shard_of_tenant(TenantId(42)), 0);
        assert_eq!(router.shard_of_user(UserId(42)), 0);
    }

    #[test]
    fn overrides_divert_one_tenant_and_leave_the_rest_on_their_home() {
        let mut router = ShardRouter::new(5);
        let tenant = TenantId(3);
        let home = router.home_shard_of_tenant(tenant);
        let away = (home + 1) % 5;
        router.place(tenant, away);
        assert_eq!(router.shard_of_tenant(tenant), away);
        assert!(router.is_displaced(tenant));
        assert_eq!(router.displaced_tenants(), 1);
        assert_eq!(router.home_shard_of_tenant(tenant), home, "home unchanged");
        for t in 0..50u32 {
            if TenantId(t) != tenant {
                assert_eq!(
                    router.shard_of_tenant(TenantId(t)),
                    router.home_shard_of_tenant(TenantId(t)),
                    "tenant {t} must stay on its home shard"
                );
            }
        }
    }

    #[test]
    fn placing_a_tenant_back_home_clears_its_override() {
        let mut router = ShardRouter::new(4);
        let tenant = TenantId(9);
        let home = router.home_shard_of_tenant(tenant);
        router.place(tenant, (home + 2) % 4);
        assert!(router.is_displaced(tenant));
        router.place(tenant, home);
        assert!(!router.is_displaced(tenant));
        assert_eq!(router.displaced_tenants(), 0);
        assert_eq!(router.shard_of_tenant(tenant), home);
    }

    #[test]
    fn user_routing_ignores_tenant_overrides() {
        let mut router = ShardRouter::new(6);
        let before: Vec<usize> = (0..100u32)
            .map(|u| router.shard_of_user(UserId(u)))
            .collect();
        router.place(TenantId(1), 0);
        router.place(TenantId(2), 5);
        let after: Vec<usize> = (0..100u32)
            .map(|u| router.shard_of_user(UserId(u)))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardRouter::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn placing_on_a_missing_shard_panics() {
        let mut router = ShardRouter::new(2);
        router.place(TenantId(1), 2);
    }
}
