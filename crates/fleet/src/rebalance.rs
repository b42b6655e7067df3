//! Hot-shard rebalancing: the elastic placement policy of the fleet.
//!
//! Static hash placement freezes each tenant on `SplitMix64(tenant) % N`
//! forever, so under skewed tenant sizes the parallel tick runs only as fast
//! as the hottest shard. The [`Rebalancer`] closes that gap: between slots
//! the engine hands it the per-shard load view (each shard's hosted-tenant
//! [`crate::TenantShard::load_ewma`] sums) and the rebalancer plans live
//! migrations — whole [`crate::TenantShard`]s moved between shards with
//! their slot history, index, RNG stream, allocation memo cache, standing
//! forecast and metrics intact, routed thereafter through the
//! [`crate::ShardRouter`] indirection table.
//!
//! Both halves of the policy are **deterministic**:
//!
//! * *whether* to act — the check fires when `max(shard load) / mean(shard
//!   load)` reaches [`RebalancerConfig::ratio`];
//! * *what* to move — the heaviest movable tenant leaves the hottest shard
//!   for the coldest, with every tie broken by the lowest shard index and
//!   the lowest tenant id, and only moves that strictly shrink the hottest
//!   shard's load (`cold + tenant < hot`), so the greedy loop terminates.
//!
//! Every input is a pure function of the observed record counts (the load
//! EWMAs are count-derived and run in every telemetry mode), so the same
//! drive produces the same migration schedule at any thread count — which is
//! what keeps forecasts and [`crate::FleetMetrics`] bit-identical to the
//! static fleet: migrations move state, they never mutate it.

use mca_offload::TenantId;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};

/// Migrations kept in the rebalancer's recent-activity log (oldest dropped
/// first). Telemetry only — the counters are never capped.
const MIGRATION_LOG_CAP: usize = 32;

/// Configuration of the between-slots rebalance check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalancerConfig {
    /// The check fires when the hottest shard carries at least `ratio` times
    /// the mean shard load. `1.0` fires on any imbalance; higher values
    /// tolerate more skew before moving anyone.
    pub ratio: f64,
    /// Slots to wait before the first check, so every tenant's load EWMA has
    /// seeded (an unseeded EWMA reads 0 and would make fresh tenants look
    /// free to stack anywhere).
    pub warmup_slots: usize,
    /// Run the check every this many slots (1 = before every slot).
    pub check_interval: usize,
    /// Migrations allowed per firing check. Each move pays a router override
    /// and a shard-vec splice, so the default moves one tenant per slot and
    /// lets the next check continue the drain.
    pub max_moves_per_check: usize,
}

impl Default for RebalancerConfig {
    fn default() -> Self {
        Self {
            ratio: 1.25,
            warmup_slots: 4,
            check_interval: 1,
            max_moves_per_check: 1,
        }
    }
}

impl RebalancerConfig {
    /// Sets the max/mean trigger ratio.
    pub fn with_ratio(mut self, ratio: f64) -> Self {
        self.ratio = ratio;
        self
    }

    /// Evaluates the trigger on the per-shard loads: returns the observed
    /// max/mean ratio and whether the check fires. A fleet with no
    /// measurable load never fires.
    fn evaluate(&self, loads: &[f64]) -> (f64, bool) {
        let total: f64 = loads.iter().sum();
        if loads.is_empty() || total <= 0.0 {
            return (0.0, false);
        }
        let mean = total / loads.len() as f64;
        let max = loads.iter().cloned().fold(0.0f64, f64::max);
        let observed = max / mean;
        (observed, observed >= self.ratio)
    }

    /// Sets the warmup, in slots.
    pub fn with_warmup_slots(mut self, slots: usize) -> Self {
        self.warmup_slots = slots;
        self
    }

    /// Sets the check interval, in slots (clamped to at least 1).
    pub fn with_check_interval(mut self, slots: usize) -> Self {
        self.check_interval = slots.max(1);
        self
    }

    /// Sets the per-check migration budget.
    pub fn with_max_moves_per_check(mut self, moves: usize) -> Self {
        self.max_moves_per_check = moves;
        self
    }
}

/// One executed migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRecord {
    /// The slot index the migration ran before.
    pub slot: usize,
    /// The tenant that moved.
    pub tenant: TenantId,
    /// The shard it left.
    pub from: usize,
    /// The shard it landed on.
    pub to: usize,
    /// The tenant's load EWMA at decision time.
    pub load: f64,
}

/// The rebalancer's activity, as surfaced in [`crate::FleetTelemetry`] and
/// the metrics registry. Everything here is derived from count-based load
/// EWMAs, so a `Logical`-mode snapshot comparison across thread counts
/// doubles as proof the migration schedule itself is thread-independent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RebalanceSnapshot {
    /// Rebalance checks run.
    pub checks: u64,
    /// Checks whose trigger fired.
    pub triggers: u64,
    /// Migrations performed.
    pub migrations: u64,
    /// The max/mean load ratio the most recent check observed.
    pub last_ratio: f64,
    /// Per-shard loads before the moves of the last check that planned one
    /// (a trigger the improvement guard answers with no move leaves it).
    pub loads_before: Vec<f64>,
    /// Per-shard loads after the moves of that check.
    pub loads_after: Vec<f64>,
    /// The most recent migrations, oldest first (capped).
    pub recent: Vec<MigrationRecord>,
}

/// The between-slots rebalancing policy plus its activity counters.
#[derive(Debug, Clone)]
pub struct Rebalancer {
    config: RebalancerConfig,
    checks: u64,
    triggers: u64,
    migrations: u64,
    last_ratio: f64,
    loads_before: Vec<f64>,
    loads_after: Vec<f64>,
    log: Vec<MigrationRecord>,
}

impl Rebalancer {
    /// A rebalancer running `config`.
    pub fn new(config: RebalancerConfig) -> Self {
        Self {
            config,
            checks: 0,
            triggers: 0,
            migrations: 0,
            last_ratio: 0.0,
            loads_before: Vec::new(),
            loads_after: Vec::new(),
            log: Vec::new(),
        }
    }

    /// The configuration the rebalancer runs.
    pub fn config(&self) -> &RebalancerConfig {
        &self.config
    }

    /// Whether the periodic check is due before `slot` ticks.
    pub(crate) fn due(&self, slot: usize) -> bool {
        slot >= self.config.warmup_slots && slot.is_multiple_of(self.config.check_interval.max(1))
    }

    /// Runs one check over the fleet's load view and plans the migrations to
    /// execute before the next slot. `loads[s]` is shard `s`'s total hosted
    /// load; `movable[s]` lists shard `s`'s tenants with their loads, in any
    /// order. Both views are
    /// updated in place as moves are planned, so a multi-move budget
    /// accounts for its own earlier moves.
    pub(crate) fn check(
        &mut self,
        slot: usize,
        loads: &mut [f64],
        movable: &mut [Vec<(TenantId, f64)>],
    ) -> Vec<MigrationRecord> {
        self.checks += 1;
        let (ratio, fires) = self.config.evaluate(loads);
        self.last_ratio = ratio;
        if !fires || loads.len() < 2 {
            return Vec::new();
        }
        self.triggers += 1;
        let before = loads.to_vec();
        let mut moves = Vec::new();
        for _ in 0..self.config.max_moves_per_check {
            let Some(record) = self.plan_one(slot, loads, movable) else {
                break;
            };
            moves.push(record);
        }
        if moves.is_empty() {
            return moves;
        }
        self.loads_before = before;
        self.loads_after = loads.to_vec();
        self.migrations += moves.len() as u64;
        self.log.extend(moves.iter().copied());
        if self.log.len() > MIGRATION_LOG_CAP {
            self.log.drain(..self.log.len() - MIGRATION_LOG_CAP);
        }
        moves
    }

    /// Plans one migration — the heaviest movable tenant off the hottest
    /// shard onto the coldest — mutating the views, or `None` when no
    /// strictly improving move exists.
    fn plan_one(
        &self,
        slot: usize,
        loads: &mut [f64],
        movable: &mut [Vec<(TenantId, f64)>],
    ) -> Option<MigrationRecord> {
        // hottest and coldest shard, ties to the lowest index
        let (hot, _) = loads
            .iter()
            .enumerate()
            .fold(
                (0usize, f64::MIN),
                |(bi, bl), (i, &l)| {
                    if l > bl {
                        (i, l)
                    } else {
                        (bi, bl)
                    }
                },
            );
        let (cold, _) = loads
            .iter()
            .enumerate()
            .fold(
                (0usize, f64::MAX),
                |(bi, bl), (i, &l)| {
                    if l < bl {
                        (i, l)
                    } else {
                        (bi, bl)
                    }
                },
            );
        if hot == cold {
            return None;
        }
        // heaviest movable tenant on the hot shard whose move strictly
        // shrinks the hot shard's load; ties break to the lowest tenant id
        let candidate = movable[hot]
            .iter()
            .enumerate()
            .filter(|(_, &(_, load))| load > 0.0 && loads[cold] + load < loads[hot])
            .max_by(|(_, a), (_, b)| {
                a.1.partial_cmp(&b.1)
                    .expect("load EWMAs are finite")
                    .then(b.0.cmp(&a.0))
            });
        let (at, &(tenant, load)) = candidate?;
        movable[hot].remove(at);
        movable[cold].push((tenant, load));
        loads[hot] -= load;
        loads[cold] += load;
        Some(MigrationRecord {
            slot,
            tenant,
            from: hot,
            to: cold,
            load,
        })
    }

    /// The rebalancer's activity snapshot.
    pub fn snapshot(&self) -> RebalanceSnapshot {
        RebalanceSnapshot {
            checks: self.checks,
            triggers: self.triggers,
            migrations: self.migrations,
            last_ratio: self.last_ratio,
            loads_before: self.loads_before.clone(),
            loads_after: self.loads_after.clone(),
            recent: self.log.clone(),
        }
    }
}

impl Snapshot for RebalancerConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ratio.encode(out);
        self.warmup_slots.encode(out);
        self.check_interval.encode(out);
        self.max_moves_per_check.encode(out);
    }
}

impl Restore for RebalancerConfig {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            ratio: f64::decode(cur)?,
            warmup_slots: usize::decode(cur)?,
            check_interval: usize::decode(cur)?,
            max_moves_per_check: usize::decode(cur)?,
        })
    }
}

impl Snapshot for MigrationRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slot.encode(out);
        self.tenant.encode(out);
        self.from.encode(out);
        self.to.encode(out);
        self.load.encode(out);
    }
}

impl Restore for MigrationRecord {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            slot: usize::decode(cur)?,
            tenant: TenantId::decode(cur)?,
            from: usize::decode(cur)?,
            to: usize::decode(cur)?,
            load: f64::decode(cur)?,
        })
    }
}

/// The rebalancer section is self-contained: its policy configuration is not
/// part of [`mca_core::SystemConfig`], so the checkpoint carries it along
/// with the activity counters and the recent-migration log.
impl Snapshot for Rebalancer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.config.encode(out);
        self.checks.encode(out);
        self.triggers.encode(out);
        self.migrations.encode(out);
        self.last_ratio.encode(out);
        self.loads_before.encode(out);
        self.loads_after.encode(out);
        self.log.encode(out);
    }
}

impl Restore for Rebalancer {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            config: RebalancerConfig::decode(cur)?,
            checks: u64::decode(cur)?,
            triggers: u64::decode(cur)?,
            migrations: u64::decode(cur)?,
            last_ratio: f64::decode(cur)?,
            loads_before: Vec::<f64>::decode(cur)?,
            loads_after: Vec::<f64>::decode(cur)?,
            log: Vec::<MigrationRecord>::decode(cur)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movable_of(loads: &[Vec<f64>]) -> Vec<Vec<(TenantId, f64)>> {
        // tenant ids numbered shard-major so tie-break tests are readable
        let mut next = 0u32;
        loads
            .iter()
            .map(|shard| {
                shard
                    .iter()
                    .map(|&l| {
                        let t = TenantId(next);
                        next += 1;
                        (t, l)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn trigger_measures_max_over_mean() {
        let trigger = RebalancerConfig::default().with_ratio(1.5);
        let (ratio, fires) = trigger.evaluate(&[30.0, 10.0, 20.0]);
        assert!((ratio - 1.5).abs() < 1e-12);
        assert!(fires);
        let (_, fires) = trigger.evaluate(&[21.0, 19.0, 20.0]);
        assert!(!fires);
        let (ratio, fires) = trigger.evaluate(&[0.0, 0.0]);
        assert_eq!(ratio, 0.0);
        assert!(!fires, "an unloaded fleet never rebalances");
    }

    #[test]
    fn check_moves_the_heaviest_tenant_from_hottest_to_coldest() {
        let mut rebalancer = Rebalancer::new(RebalancerConfig::default().with_ratio(1.2));
        let per_shard = vec![vec![50.0, 30.0], vec![10.0], vec![20.0]];
        let mut movable = movable_of(&per_shard);
        let mut loads: Vec<f64> = per_shard.iter().map(|s| s.iter().sum()).collect();
        let moves = rebalancer.check(7, &mut loads, &mut movable);
        assert_eq!(moves.len(), 1);
        let m = moves[0];
        assert_eq!(m.slot, 7);
        assert_eq!((m.from, m.to), (0, 1));
        // 50 would overshoot (10 + 50 < 80 holds, so the heaviest DOES move)
        assert_eq!(m.tenant, TenantId(0));
        assert_eq!(loads, vec![30.0, 60.0, 20.0]);
        let snapshot = rebalancer.snapshot();
        assert_eq!(snapshot.checks, 1);
        assert_eq!(snapshot.triggers, 1);
        assert_eq!(snapshot.migrations, 1);
        assert_eq!(snapshot.loads_before, vec![80.0, 10.0, 20.0]);
        assert_eq!(snapshot.loads_after, vec![30.0, 60.0, 20.0]);
        assert_eq!(snapshot.recent.len(), 1);
    }

    #[test]
    fn improvement_guard_skips_moves_that_would_overshoot() {
        // the heaviest tenant (90) would land the cold shard past the hot
        // one's current load (40 + 90 > 120), so the lighter one (30) moves
        let mut rebalancer = Rebalancer::new(RebalancerConfig::default().with_ratio(1.0));
        let per_shard = vec![vec![90.0, 30.0], vec![40.0]];
        let mut movable = movable_of(&per_shard);
        let mut loads: Vec<f64> = per_shard.iter().map(|s| s.iter().sum()).collect();
        let moves = rebalancer.check(0, &mut loads, &mut movable);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].tenant, TenantId(1));
        assert_eq!(loads, vec![90.0, 70.0]);
    }

    #[test]
    fn no_improving_move_means_no_migration() {
        // one giant immovable-in-effect tenant per shard: every move overshoots
        let mut rebalancer = Rebalancer::new(RebalancerConfig::default().with_ratio(1.0));
        let per_shard = vec![vec![100.0], vec![10.0]];
        let mut movable = movable_of(&per_shard);
        let mut loads: Vec<f64> = per_shard.iter().map(|s| s.iter().sum()).collect();
        let moves = rebalancer.check(0, &mut loads, &mut movable);
        assert!(
            moves.is_empty(),
            "100 onto 10 would just swap the hot shard"
        );
        let snapshot = rebalancer.snapshot();
        assert_eq!(snapshot.triggers, 1, "the trigger fired");
        assert_eq!(snapshot.migrations, 0, "but nothing improved");
    }

    #[test]
    fn a_trigger_without_a_move_keeps_the_last_real_before_and_after() {
        let mut rebalancer = Rebalancer::new(RebalancerConfig::default().with_ratio(1.0));
        let per_shard = vec![vec![50.0, 30.0], vec![10.0]];
        let mut movable = movable_of(&per_shard);
        let mut loads = vec![80.0, 10.0];
        assert_eq!(rebalancer.check(0, &mut loads, &mut movable).len(), 1);
        let moved = rebalancer.snapshot();
        assert_eq!(moved.loads_before, vec![80.0, 10.0]);
        assert_eq!(moved.loads_after, vec![30.0, 60.0]);

        // 30 onto 60 would only swap the hot shard: the trigger fires, the
        // guard plans nothing
        let mut loads = vec![60.0, 30.0];
        let mut movable = movable_of(&[vec![60.0], vec![30.0]]);
        assert!(rebalancer.check(1, &mut loads, &mut movable).is_empty());
        let idle = rebalancer.snapshot();
        assert_eq!((idle.checks, idle.triggers, idle.migrations), (2, 2, 1));
        assert_eq!(idle.loads_before, moved.loads_before);
        assert_eq!(idle.loads_after, moved.loads_after);
    }

    #[test]
    fn ties_break_to_the_lowest_tenant_id() {
        let mut rebalancer = Rebalancer::new(RebalancerConfig::default().with_ratio(1.0));
        let per_shard = vec![vec![20.0, 20.0, 20.0], vec![5.0]];
        let mut movable = movable_of(&per_shard);
        let mut loads: Vec<f64> = per_shard.iter().map(|s| s.iter().sum()).collect();
        let moves = rebalancer.check(0, &mut loads, &mut movable);
        assert_eq!(moves[0].tenant, TenantId(0), "equal loads: lowest id wins");
    }

    #[test]
    fn multi_move_budget_accounts_for_its_own_moves() {
        let mut rebalancer = Rebalancer::new(
            RebalancerConfig::default()
                .with_ratio(1.0)
                .with_max_moves_per_check(8),
        );
        let per_shard = vec![vec![40.0, 30.0, 20.0, 10.0], vec![0.0], vec![0.0]];
        let mut movable = movable_of(&per_shard);
        let mut loads: Vec<f64> = per_shard.iter().map(|s| s.iter().sum()).collect();
        let moves = rebalancer.check(0, &mut loads, &mut movable);
        assert!(moves.len() >= 2, "the budget keeps draining the hot shard");
        let max = loads.iter().cloned().fold(0.0f64, f64::max);
        assert!(max < 100.0, "the hot shard shrank: {loads:?}");
        // every planned move strictly improved at plan time, so the loop
        // terminated before the budget if nothing improved further
        assert!(moves.len() <= 8);
    }

    #[test]
    fn checkpoint_bytes_are_ratio_warmup_interval_budget_then_the_counters() {
        let config = RebalancerConfig::default()
            .with_ratio(1.5)
            .with_warmup_slots(4)
            .with_check_interval(3)
            .with_max_moves_per_check(2);
        // what every version-5 writer has produced: no tag for the trigger
        // or the chooser, the ratio's bits and three little-endian u64s
        let mut expected = vec![0, 0, 0, 0, 0, 0, 0xF8, 0x3F];
        for field in [4u64, 3, 2] {
            expected.extend(field.to_le_bytes());
        }
        // a fresh rebalancer: three counters, the last ratio (0.0) and three
        // empty lists, eight zero bytes each
        expected.extend([0u8; 56]);

        let mut bytes = Vec::new();
        Rebalancer::new(config).encode(&mut bytes);
        assert_eq!(bytes, expected);

        let mut cur = Cursor::new(&expected);
        let restored = Rebalancer::decode(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(restored.config(), &config);
        assert_eq!(restored.snapshot(), RebalanceSnapshot::default());
    }

    #[test]
    fn due_respects_warmup_and_interval() {
        let rebalancer = Rebalancer::new(
            RebalancerConfig::default()
                .with_warmup_slots(4)
                .with_check_interval(3),
        );
        assert!(!rebalancer.due(0));
        assert!(!rebalancer.due(3), "inside warmup");
        assert!(!rebalancer.due(4), "past warmup but off the interval");
        assert!(rebalancer.due(6));
        assert!(rebalancer.due(9));
    }
}
