//! Multi-tenant workload mixes.
//!
//! The paper models a single operator; a production-scale deployment serves
//! many tenants at once, each with its own user population and its own load
//! shape. A [`TenantMix`] assigns one of three generator modes to every
//! tenant — a **steady** subscriber base, a linear **ramp** (up or down,
//! [`RampScenario`]) and a **doubling** load in the spirit of the Fig. 8b
//! arrival-rate-doubling schedule — and produces each tenant's per-slot
//! `(group, user)` assignments deterministically.
//!
//! Determinism is the load-bearing property: churn is drawn from a
//! caller-owned **per-tenant RNG stream** (canonically derived with
//! [`TenantMix::stream_for`]), so the records of tenant `t` are a pure
//! function of the mix seed and that tenant's own slot sequence — never of
//! the order *other* tenants are generated in. `mca-fleet`'s
//! `TenantMixSource` keeps one stream per tenant and relies on this to feed
//! the sharded engine identical records no matter how tenants are
//! partitioned across shards or threads. [`TenantMix::stream_for`] is the
//! one place the per-tenant stream derivation is written down.

use crate::scenario::RampScenario;
use mca_offload::{AccelerationGroupId, TenantId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stride of the per-tenant user-id space: tenant `t` owns ids
/// `[t * STRIDE, (t + 1) * STRIDE)`, so tenant populations never collide.
/// The 32-bit user-id space therefore holds [`MAX_TENANTS`] tenants.
const USER_ID_STRIDE: u32 = 1 << 20;

/// Maximum tenants a mix can hold before tenant id ranges would wrap the
/// 32-bit user-id space.
pub const MAX_TENANTS: usize = (u32::MAX / USER_ID_STRIDE) as usize; // 4095

/// The load shape assigned to one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantScenario {
    /// A stable subscriber base: the same users every slot.
    Steady {
        /// Active users per slot.
        users: usize,
    },
    /// A linearly growing or shrinking population whose user-id window also
    /// drifts over time (churn: old users leave, new users join).
    Ramp(RampScenario),
    /// The population doubles every `slots_per_step` slots, from
    /// `start_users` up to `start_users << doublings`, then holds — the
    /// slot-level analogue of the arrival-rate-doubling schedule of Fig. 8b.
    Doubling {
        /// Users in the first step.
        start_users: usize,
        /// Number of doublings before the load plateaus.
        doublings: u32,
        /// Slots per step.
        slots_per_step: usize,
    },
}

impl TenantScenario {
    /// Number of active users in slot `index`.
    pub fn users_in_slot(&self, index: usize) -> usize {
        match *self {
            TenantScenario::Steady { users } => users,
            TenantScenario::Ramp(ramp) => ramp.users_in_slot(index),
            TenantScenario::Doubling {
                start_users,
                doublings,
                slots_per_step,
            } => {
                let step = (index / slots_per_step.max(1)).min(doublings as usize) as u32;
                start_users << step
            }
        }
    }
}

/// A heterogeneous population of tenants, each with its own [`TenantScenario`]
/// and a disjoint user-id range.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    seed: u64,
    groups: Vec<AccelerationGroupId>,
    scenarios: Vec<TenantScenario>,
}

impl TenantMix {
    /// Creates a mix from explicit per-tenant scenarios.
    ///
    /// # Panics
    ///
    /// Panics if the mix exceeds [`MAX_TENANTS`] tenants (the 32-bit
    /// user-id space would wrap and tenant populations would collide).
    pub fn new(
        seed: u64,
        groups: Vec<AccelerationGroupId>,
        scenarios: Vec<TenantScenario>,
    ) -> Self {
        assert!(
            scenarios.len() <= MAX_TENANTS,
            "a mix holds at most {MAX_TENANTS} tenants"
        );
        Self {
            seed,
            groups,
            scenarios,
        }
    }

    /// A heterogeneous mix of `tenants` tenants over `groups`, cycling
    /// through steady / ramp-up / ramp-down / doubling shapes with
    /// seed-dependent magnitudes around `nominal_users`.
    pub fn heterogeneous(
        tenants: usize,
        nominal_users: usize,
        groups: Vec<AccelerationGroupId>,
        seed: u64,
    ) -> Self {
        assert!(tenants > 0, "a mix needs at least one tenant");
        assert!(nominal_users > 0, "tenants need at least one user");
        let scenarios = (0..tenants)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                let users = nominal_users.max(2);
                let jitter = rng.gen_range(0..users / 2 + 1);
                match t % 4 {
                    0 => TenantScenario::Steady {
                        users: users / 2 + jitter,
                    },
                    1 => TenantScenario::Ramp(RampScenario {
                        start_users: (users / 4).max(1),
                        end_users: users + jitter,
                        slots: rng.gen_range(16..64usize),
                    }),
                    2 => TenantScenario::Ramp(RampScenario {
                        start_users: users + jitter,
                        end_users: (users / 4).max(1),
                        slots: rng.gen_range(16..64usize),
                    }),
                    _ => TenantScenario::Doubling {
                        start_users: (users / 8).max(1),
                        doublings: 3,
                        slots_per_step: rng.gen_range(4..16usize),
                    },
                }
            })
            .collect();
        Self::new(seed, groups, scenarios)
    }

    /// A heavy-tailed mix: tenant `t` carries a Zipf-sized population
    /// `max_users / (t + 1)^s` (rounded, floored at one user), so tenant 0
    /// dominates and the tail thins by the skew exponent `s` — the realistic
    /// skewed-tenant regime the elastic rebalancer is benchmarked against.
    /// Every tenant runs a flat [`TenantScenario::Ramp`] (constant
    /// population on the churn/drift path), so populations stay fixed in
    /// size while ~2 % of each tenant's users churn per slot from the
    /// tenant's own deterministic stream.
    pub fn zipf(
        tenants: usize,
        max_users: usize,
        s: f64,
        groups: Vec<AccelerationGroupId>,
        seed: u64,
    ) -> Self {
        assert!(tenants > 0, "a mix needs at least one tenant");
        assert!(max_users > 0, "the heaviest tenant needs at least one user");
        let scenarios = (0..tenants)
            .map(|t| {
                let users = ((max_users as f64) / ((t + 1) as f64).powf(s))
                    .round()
                    .max(1.0) as usize;
                // a flat ramp keeps the population constant but on the
                // churn/drift generation path, unlike Steady
                TenantScenario::Ramp(RampScenario {
                    start_users: users,
                    end_users: users,
                    slots: 1,
                })
            })
            .collect();
        Self::new(seed, groups, scenarios)
    }

    /// Number of tenants in the mix.
    pub fn tenants(&self) -> usize {
        self.scenarios.len()
    }

    /// The tenant ids of the mix, in increasing order.
    pub fn tenant_ids(&self) -> impl Iterator<Item = TenantId> + '_ {
        (0..self.scenarios.len() as u32).map(TenantId)
    }

    /// The acceleration groups tenant users are assigned to.
    pub fn groups(&self) -> &[AccelerationGroupId] {
        &self.groups
    }

    /// The scenario assigned to `tenant`.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not part of the mix.
    pub fn scenario_of(&self, tenant: TenantId) -> &TenantScenario {
        &self.scenarios[tenant.0 as usize]
    }

    /// Number of active users of `tenant` in slot `slot`.
    pub fn users_in_slot(&self, tenant: TenantId, slot: usize) -> usize {
        self.scenario_of(tenant).users_in_slot(slot)
    }

    /// The canonical RNG stream of `tenant`: feed it to
    /// [`TenantMix::slot_records`] for that tenant's slots **in slot order**
    /// to reproduce the tenant's workload exactly. Each tenant's stream is
    /// independent, so tenants can be generated on different shards or
    /// threads without perturbing each other.
    pub fn stream_for(&self, tenant: TenantId) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (u64::from(tenant.0).wrapping_mul(0xBF58_476D_1CE4_E5B9)))
    }

    /// The `(group, user)` assignments of `tenant` in slot `slot`, drawing
    /// churn from the tenant's own stream (see [`TenantMix::stream_for`]).
    ///
    /// Users are spread over the mix's groups in a fixed 60/25/15-style
    /// split (earlier groups take the larger shares; with fewer groups the
    /// remainder folds into the last one). Steady tenants keep the same user
    /// ids every slot and never touch the stream; ramp and doubling tenants
    /// drift their id window and churn ~2 % of ids per slot, so consecutive
    /// slots share most users — the regime the predictor's edit distance is
    /// designed for.
    pub fn slot_records<R: Rng + ?Sized>(
        &self,
        tenant: TenantId,
        slot: usize,
        rng: &mut R,
    ) -> Vec<(AccelerationGroupId, UserId)> {
        let scenario = self.scenario_of(tenant);
        let users = scenario.users_in_slot(slot);
        let base = tenant.0 * USER_ID_STRIDE;
        let mut records = Vec::with_capacity(users);
        let (drift, churn) = match scenario {
            TenantScenario::Steady { .. } => (0, false),
            // ~2% of the window per slot, like real subscriber churn; the
            // drift wraps at half the id stride so very long runs stay
            // inside the tenant's id range
            _ => (
                ((slot * (users / 50).max(1)) % (USER_ID_STRIDE / 2) as usize) as u32,
                true,
            ),
        };
        for u in 0..users as u32 {
            let id = if churn && rng.gen_bool(0.02) {
                base + drift + users as u32 + rng.gen_range(1u32..50)
            } else {
                base + drift + u
            };
            let group = self.group_of(u as usize, users);
            records.push((group, UserId(id)));
        }
        records
    }

    /// The group user index `u` of `users` falls into under the fixed split.
    fn group_of(&self, u: usize, users: usize) -> AccelerationGroupId {
        debug_assert!(!self.groups.is_empty(), "a mix needs at least one group");
        // cumulative shares of the 60/25/15 split, scaled to the user count
        let first = (users * 60).div_ceil(100);
        let second = first + (users * 25) / 100;
        let position = match self.groups.len() {
            1 => 0,
            2 => usize::from(u >= first),
            _ => {
                if u < first {
                    0
                } else if u < second {
                    1
                } else {
                    2.min(self.groups.len() - 1)
                }
            }
        };
        self.groups[position]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GROUPS: [AccelerationGroupId; 3] = [
        AccelerationGroupId(1),
        AccelerationGroupId(2),
        AccelerationGroupId(3),
    ];

    fn mix(tenants: usize, seed: u64) -> TenantMix {
        TenantMix::heterogeneous(tenants, 24, GROUPS.to_vec(), seed)
    }

    #[test]
    fn heterogeneous_mix_cycles_the_three_shapes() {
        let m = mix(8, 11);
        assert_eq!(m.tenants(), 8);
        assert!(matches!(
            m.scenario_of(TenantId(0)),
            TenantScenario::Steady { .. }
        ));
        assert!(matches!(
            m.scenario_of(TenantId(1)),
            TenantScenario::Ramp(_)
        ));
        assert!(matches!(
            m.scenario_of(TenantId(3)),
            TenantScenario::Doubling { .. }
        ));
        assert_eq!(m.tenant_ids().count(), 8);
    }

    /// Replays `slots` slots of one tenant from its canonical stream.
    fn replay(
        m: &TenantMix,
        tenant: TenantId,
        slots: usize,
    ) -> Vec<Vec<(AccelerationGroupId, UserId)>> {
        let mut rng = m.stream_for(tenant);
        (0..slots)
            .map(|s| m.slot_records(tenant, s, &mut rng))
            .collect()
    }

    #[test]
    fn slot_records_are_deterministic_per_seed_and_tenant_stream() {
        let a = mix(6, 42);
        let b = mix(6, 42);
        for t in a.tenant_ids() {
            assert_eq!(replay(&a, t, 32), replay(&b, t, 32));
        }
        // a different seed changes the scenarios or the records
        let c = mix(6, 43);
        assert_ne!(replay(&a, TenantId(1), 32), replay(&c, TenantId(1), 32));
    }

    #[test]
    fn tenant_streams_are_independent_of_each_other() {
        let m = mix(6, 42);
        // generating tenant 1 alone produces the same records as generating
        // it interleaved with every other tenant
        let alone = replay(&m, TenantId(1), 16);
        let mut streams: Vec<_> = m.tenant_ids().map(|t| m.stream_for(t)).collect();
        let mut interleaved = Vec::new();
        for slot in 0..16 {
            for t in m.tenant_ids() {
                let records = m.slot_records(t, slot, &mut streams[t.0 as usize]);
                if t == TenantId(1) {
                    interleaved.push(records);
                }
            }
        }
        assert_eq!(alone, interleaved);
    }

    #[test]
    fn steady_tenants_repeat_the_same_population() {
        let m = mix(4, 9);
        let slots = replay(&m, TenantId(0), 64);
        assert_eq!(slots.first(), slots.last());
        assert!(!slots[0].is_empty());
    }

    #[test]
    fn doubling_tenants_double_then_plateau() {
        let scenario = TenantScenario::Doubling {
            start_users: 3,
            doublings: 2,
            slots_per_step: 4,
        };
        assert_eq!(scenario.users_in_slot(0), 3);
        assert_eq!(scenario.users_in_slot(4), 6);
        assert_eq!(scenario.users_in_slot(8), 12);
        assert_eq!(scenario.users_in_slot(100), 12, "plateaus after doublings");
    }

    #[test]
    fn tenant_user_populations_are_disjoint() {
        let m = mix(5, 3);
        let of = |t: u32| -> Vec<u32> {
            replay(&m, TenantId(t), 3)
                .concat()
                .iter()
                .map(|(_, u)| u.0)
                .collect()
        };
        for t in 0..4u32 {
            let max_t = of(t).into_iter().max().unwrap();
            let min_next = of(t + 1).into_iter().min().unwrap();
            assert!(max_t < min_next, "tenant {t} overlaps tenant {}", t + 1);
        }
    }

    #[test]
    fn records_follow_the_scenario_count_and_cover_groups() {
        let m = mix(4, 17);
        for t in m.tenant_ids() {
            for (slot, records) in replay(&m, t, 41).iter().enumerate() {
                assert_eq!(records.len(), m.users_in_slot(t, slot));
                // the 60% share always populates the first group
                assert!(records.iter().any(|(g, _)| *g == GROUPS[0]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenant_mix_panics() {
        let _ = TenantMix::heterogeneous(0, 10, GROUPS.to_vec(), 1);
    }

    #[test]
    fn zipf_mix_sizes_follow_the_power_law() {
        let m = TenantMix::zipf(8, 800, 1.0, GROUPS.to_vec(), 5);
        let users: Vec<usize> = (0..8).map(|t| m.users_in_slot(TenantId(t), 0)).collect();
        assert_eq!(users[0], 800, "tenant 0 carries the full max");
        assert_eq!(users[1], 400);
        assert_eq!(users[3], 200);
        assert!(users.windows(2).all(|w| w[0] >= w[1]), "monotone tail");
        assert!(users.iter().all(|&u| u >= 1), "no empty tenants");
        // the population stays constant across slots (flat ramp)
        assert_eq!(m.users_in_slot(TenantId(0), 100), 800);
    }

    #[test]
    fn zipf_mix_replays_deterministically_with_per_slot_churn() {
        let a = TenantMix::zipf(6, 200, 0.8, GROUPS.to_vec(), 7);
        let b = TenantMix::zipf(6, 200, 0.8, GROUPS.to_vec(), 7);
        for t in a.tenant_ids() {
            assert_eq!(replay(&a, t, 24), replay(&b, t, 24));
        }
        // churn and drift make consecutive slots overlap without matching
        let slots = replay(&a, TenantId(0), 4);
        assert_ne!(slots[0], slots[1], "the id window drifts between slots");
        assert_eq!(slots[0].len(), slots[1].len(), "sizes stay Zipf-fixed");
    }
}
