//! The provisioning control loop of Fig. 2, closed once per slot: score the
//! standing forecast → learn the observed slot → predict the next one →
//! allocate for the prediction → bill the allocation.
//!
//! [`ControlLoop`] owns everything one closed loop owns — the knowledge
//! base, the allocator, the instance pool, the billing backend, the
//! standing forecast and the allocation memo — and
//! [`ControlLoop::close_slot`] is the only place the sequence and its skip
//! rules exist: no forecast, nothing provisioned; an infeasible allocation,
//! nothing billed and the pool left as it stood. The single-operator
//! [`crate::System`] closes its slots through one `ControlLoop`; a fleet
//! runs one per tenant.

use crate::allocator::{Allocation, ResourceAllocator};
use crate::billing::{BillingBackend, BillingEngine, SlotSettlement};
use crate::config::SystemConfig;
use crate::error::CoreError;
use crate::metrics::accuracy;
use crate::predictor::{WorkloadForecast, WorkloadPredictor};
use crate::timeslot::{SlotHistory, TimeSlot};
use mca_cloudsim::InstancePool;
use mca_offload::AccelerationGroupId;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::collections::{HashMap, VecDeque};

/// Upper bound on memoized allocations per loop. Steady workloads cycle
/// through a handful of workload vectors, so the cap is generous; a loop
/// that exceeds it evicts one entry per new insertion, oldest first (FIFO
/// by insertion order), so the recent working set keeps serving hits and
/// the just-inserted vector is never the victim. Eviction depends only on
/// the loop's own forecast sequence, so it is deterministic across runs,
/// shard layouts and thread counts.
pub const ALLOC_CACHE_CAP: usize = 1024;

/// The timed stages of [`ControlLoop::close_slot`], in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `observe_and_predict`: folding the slot into the knowledge base and
    /// forecasting the next one. Once per closed slot.
    Predict,
    /// Serving the allocation for the forecast (memo hit or solve). Once per
    /// produced forecast, feasible or not.
    Allocate,
    /// Settling the allocation against the pool and the billing backend.
    /// Once per feasible allocation.
    Bill,
}

/// Observes the loop's stage boundaries — how a caller times predict,
/// allocate and bill without the loop knowing any clock. `()` observes
/// nothing.
pub trait StageObserver {
    /// What [`StageObserver::begin`] hands to [`StageObserver::end`].
    type Mark;

    /// A stage is about to start.
    fn begin(&mut self) -> Self::Mark;

    /// `stage`, begun at `mark`, has finished.
    fn end(&mut self, stage: Stage, mark: Self::Mark);
}

impl StageObserver for () {
    type Mark = ();

    fn begin(&mut self) {}

    fn end(&mut self, _stage: Stage, _mark: ()) {}
}

/// A feasible allocation, settled: what [`ControlLoop::provision`] bought.
#[derive(Debug, Clone, PartialEq)]
pub struct Provisioned {
    /// The allocation that now stands in the pool (when the pool took it).
    pub allocation: Allocation,
    /// What settling it cost and signalled.
    pub settlement: SlotSettlement,
    /// Whether the memo served the allocation; `false` means the allocator
    /// ran, and `allocation.stats` is that solve's work.
    pub memo_hit: bool,
    /// Whether memoizing the fresh allocation evicted the oldest entry.
    pub memo_evicted: bool,
}

/// What closing one slot did.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome {
    /// Distinct users the slot observed.
    pub observed_users: usize,
    /// Accuracy of the forecast that stood for this slot, when one did.
    pub forecast_accuracy: Option<f64>,
    /// The provisioning for the next slot: `None` when the predictor
    /// produced no forecast, `Err` when the allocation was infeasible (a
    /// memo miss by construction — only feasible allocations are memoized).
    pub provision: Option<Result<Provisioned, CoreError>>,
}

/// One closed provisioning loop.
#[derive(Debug, Clone)]
pub struct ControlLoop {
    predictor: WorkloadPredictor,
    allocator: ResourceAllocator,
    pool: InstancePool,
    /// The bill stage's backend: pure arithmetic by default, a transaction
    /// against a simulated datacenter when the configuration enabled one.
    /// Lives inside the loop, so a tenant migration carries the standing
    /// placement with it.
    billing: BillingEngine,
    /// Forecast produced at the end of the previous slot, scored against the
    /// next observed slot.
    standing_forecast: Option<WorkloadForecast>,
    slot_length_ms: f64,
    /// Memoized allocations keyed by the forecast workload vector: steady
    /// workloads re-predict the same per-group loads slot after slot, so the
    /// ILP re-solve is skipped entirely on repeats. The allocator is a pure
    /// function of the forecast, which makes the memo exact.
    memo: HashMap<Vec<(AccelerationGroupId, usize)>, Allocation>,
    /// Insertion order of the memoized workload vectors (front = oldest):
    /// the FIFO eviction queue behind [`ALLOC_CACHE_CAP`]. Always in sync
    /// with `memo` — entries enter and leave both together.
    memo_order: VecDeque<Vec<(AccelerationGroupId, usize)>>,
}

impl ControlLoop {
    /// Builds the loop's parts from the shared system configuration:
    /// groups, strategies, caps, history window and billing backend.
    pub fn new(config: &SystemConfig) -> Self {
        Self {
            predictor: config.build_predictor(),
            allocator: config.build_allocator(),
            pool: config.build_pool(),
            billing: config.build_billing(),
            standing_forecast: None,
            slot_length_ms: config.slot_length_ms,
            memo: HashMap::new(),
            memo_order: VecDeque::new(),
        }
    }

    /// The forecast standing for the *next* slot, if one was produced.
    pub fn forecast(&self) -> Option<&WorkloadForecast> {
        self.standing_forecast.as_ref()
    }

    /// The knowledge base.
    pub fn predictor(&self) -> &WorkloadPredictor {
        &self.predictor
    }

    /// The instance pool.
    pub fn pool(&self) -> &InstancePool {
        &self.pool
    }

    /// The billing engine.
    pub fn billing(&self) -> &BillingEngine {
        &self.billing
    }

    /// Number of distinct workload vectors currently memoized.
    pub fn cached_allocations(&self) -> usize {
        self.memo.len()
    }

    /// Closes the observed `slot`: scores the standing forecast against it,
    /// moves it into the knowledge base, forecasts the next slot, provisions
    /// for that forecast and bills one slot length. `now_ms` is the closing
    /// slot boundary. The timed and untimed loops are the same code — `()`
    /// for `stages` observes nothing — so the outcome is bit-identical
    /// however it is watched.
    pub fn close_slot<S: StageObserver>(
        &mut self,
        slot: TimeSlot,
        now_ms: f64,
        stages: &mut S,
    ) -> SlotOutcome {
        let groups = self.predictor.groups();
        // the datacenter backend scores the slot's actual per-group arrivals
        // against the standing capacity; captured here because the predict
        // stage consumes the slot. Arithmetic billing skips the collection.
        let observed_demand: Vec<(AccelerationGroupId, usize)> = if self.billing.observes_demand() {
            groups.iter().map(|g| (*g, slot.load_of(*g))).collect()
        } else {
            Vec::new()
        };
        let observed_users = slot.total_users();
        let forecast_accuracy = self
            .standing_forecast
            .as_ref()
            .map(|forecast| accuracy(forecast, &slot, groups).overall);

        // the slot moves into the knowledge base (no clone) and the forecast
        // comes from the observe-and-predict fast path — identical to
        // `observe_slot` + `predict` on the same slot
        let mark = stages.begin();
        let forecast = self.predictor.observe_and_predict(slot).ok();
        stages.end(Stage::Predict, mark);
        let provision = forecast
            .as_ref()
            .map(|forecast| self.provision(forecast, &observed_demand, now_ms, stages));
        self.standing_forecast = forecast;
        SlotOutcome {
            observed_users,
            forecast_accuracy,
            provision,
        }
    }

    /// Allocates for `forecast` — from the memo when this workload vector
    /// was allocated before, solving (and memoizing) it otherwise — and
    /// settles the allocation at `now_ms`, scoring `observed` against the
    /// standing placement under datacenter billing. Memo-served allocations
    /// are clones of the original solve's result, so the loop behaves
    /// bit-identically with and without the memo.
    ///
    /// # Errors
    ///
    /// [`CoreError::AllocationInfeasible`] when the forecast cannot be
    /// served within the account cap: nothing is memoized, billed or
    /// applied, and the pool keeps the allocation it had.
    pub fn provision<S: StageObserver>(
        &mut self,
        forecast: &WorkloadForecast,
        observed: &[(AccelerationGroupId, usize)],
        now_ms: f64,
        stages: &mut S,
    ) -> Result<Provisioned, CoreError> {
        let mark = stages.begin();
        let memoized = self.memo.get(&forecast.per_group).cloned();
        let memo_hit = memoized.is_some();
        let allocated = match memoized {
            Some(hit) => Ok(hit),
            None => self.allocator.allocate(forecast),
        };
        let memo_evicted = match &allocated {
            Ok(allocation) if !memo_hit => self.memoize(&forecast.per_group, allocation),
            _ => false,
        };
        stages.end(Stage::Allocate, mark);
        let allocation = allocated?;

        let mark = stages.begin();
        // the backend applies the pool transaction (the allocator respects
        // the same account cap the pool enforces) and — under datacenter
        // billing — scores the elapsed slot, meters energy and re-places.
        // The settled cost is the same arithmetic expression under every
        // backend, so it is bit-identical across them.
        let settlement = self.billing.settle(
            &mut self.pool,
            &allocation,
            observed,
            self.slot_length_ms,
            now_ms,
        );
        stages.end(Stage::Bill, mark);
        Ok(Provisioned {
            allocation,
            settlement,
            memo_hit,
            memo_evicted,
        })
    }

    /// Memoizes a fresh `allocation` under its workload vector, which must
    /// not be memoized yet; returns whether the oldest entry was evicted to
    /// make room. The hot key can never be its own victim.
    fn memoize(&mut self, key: &[(AccelerationGroupId, usize)], allocation: &Allocation) -> bool {
        let evict = self.memo.len() >= ALLOC_CACHE_CAP;
        if evict {
            if let Some(oldest) = self.memo_order.pop_front() {
                self.memo.remove(&oldest);
            }
        }
        self.memo.insert(key.to_vec(), allocation.clone());
        self.memo_order.push_back(key.to_vec());
        evict
    }

    /// Ends a run at `now_ms`: the standing forecast is dropped, the
    /// instance pool terminated and the billing backend reset. The knowledge
    /// base and the memo stay.
    pub fn stand_down(&mut self, now_ms: f64) {
        self.standing_forecast = None;
        self.pool.terminate_all(now_ms);
        self.billing.reset();
    }

    /// [`ControlLoop::stand_down`], then hands the slot history out without
    /// copying (offboarding, or migration to another loop) and clears the
    /// memo.
    pub fn decommission(&mut self, now_ms: f64) -> SlotHistory {
        self.stand_down(now_ms);
        self.memo.clear();
        self.memo_order.clear();
        self.predictor.take_history()
    }

    /// Rebuilds a loop from its [`Snapshot`] bytes and the shared system
    /// configuration, which supplies the allocator and slot length exactly
    /// as [`ControlLoop::new`] takes them.
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotError`] on truncated or malformed state, a memo
    /// over its cap or naming a workload vector twice.
    pub fn decode(cur: &mut Cursor<'_>, config: &SystemConfig) -> Result<Self, SnapshotError> {
        let predictor = WorkloadPredictor::decode(cur)?;
        let pool = InstancePool::decode(cur)?;
        let billing = BillingEngine::decode(cur)?;
        let standing_forecast = Option::<WorkloadForecast>::decode(cur)?;
        let entries = usize::decode(cur)?;
        if entries > ALLOC_CACHE_CAP {
            return Err(SnapshotError::Malformed {
                context: "allocation memo cache over its cap",
            });
        }
        let mut memo = HashMap::with_capacity(entries);
        let mut memo_order = VecDeque::with_capacity(entries);
        for _ in 0..entries {
            let key = Vec::<(AccelerationGroupId, usize)>::decode(cur)?;
            let allocation = Allocation::decode(cur)?;
            if memo.insert(key.clone(), allocation).is_some() {
                return Err(SnapshotError::Malformed {
                    context: "duplicate workload vector in the memo cache",
                });
            }
            memo_order.push_back(key);
        }
        Ok(Self {
            predictor,
            allocator: config.build_allocator(),
            pool,
            billing,
            standing_forecast,
            slot_length_ms: config.slot_length_ms,
            memo,
            memo_order,
        })
    }
}

/// The loop's full state for a checkpoint: knowledge base, instance pool,
/// billing backend (standing datacenter placement included), the standing
/// forecast and the memo **in FIFO insertion order** (so the restored memo
/// evicts the same victims). The allocator and slot length are not on the
/// wire — both are pure functions of the [`SystemConfig`] that
/// [`ControlLoop::decode`] receives.
impl Snapshot for ControlLoop {
    fn encode(&self, out: &mut Vec<u8>) {
        self.predictor.encode(out);
        self.pool.encode(out);
        self.billing.encode(out);
        self.standing_forecast.encode(out);
        // the HashMap is rebuilt from the FIFO queue: one pass, exact order
        self.memo_order.len().encode(out);
        for key in &self.memo_order {
            key.encode(out);
            self.memo[key].encode(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_offload::UserId;

    fn slot(index: usize, users: u32) -> TimeSlot {
        TimeSlot::from_assignments(
            index,
            (0..users).map(|u| (AccelerationGroupId(1), UserId(u))),
        )
    }

    fn config() -> SystemConfig {
        SystemConfig::paper_three_groups().with_slot_length_ms(3_600_000.0)
    }

    /// Counts stage boundaries the way a clock would be read.
    #[derive(Default)]
    struct Counts {
        begun: usize,
        ended: Vec<Stage>,
    }

    impl StageObserver for Counts {
        type Mark = usize;

        fn begin(&mut self) -> usize {
            self.begun += 1;
            self.begun
        }

        fn end(&mut self, stage: Stage, mark: usize) {
            assert_eq!(mark, self.begun, "stages never nest");
            self.ended.push(stage);
        }
    }

    #[test]
    fn close_slot_runs_every_stage_once_and_reports_what_it_did() {
        let mut control = ControlLoop::new(&config());
        let mut stages = Counts::default();
        let first = control.close_slot(slot(0, 10), 3_600_000.0, &mut stages);
        assert_eq!(stages.ended, [Stage::Predict, Stage::Allocate, Stage::Bill]);
        assert_eq!(first.observed_users, 10);
        assert_eq!(first.forecast_accuracy, None, "nothing stood to score");
        let bought = first.provision.unwrap().unwrap();
        assert!(!bought.memo_hit && !bought.memo_evicted);
        assert!(bought.settlement.pool_applied && bought.settlement.cost > 0.0);
        assert_eq!(control.pool().len(), bought.allocation.total_instances());

        let second = control.close_slot(slot(1, 10), 7_200_000.0, &mut ());
        assert_eq!(second.forecast_accuracy, Some(1.0));
        assert!(second.provision.unwrap().unwrap().memo_hit);
        assert_eq!(control.cached_allocations(), 1);
    }

    #[test]
    fn an_infeasible_allocation_bills_nothing_and_keeps_the_pool() {
        // three groups need three instances; a cap of two admits none
        let mut config = config();
        config.account_cap = 2;
        let mut control = ControlLoop::new(&config);
        let mut stages = Counts::default();
        let outcome = control.close_slot(slot(0, 10), 3_600_000.0, &mut stages);
        assert!(matches!(
            outcome.provision,
            Some(Err(CoreError::AllocationInfeasible { .. }))
        ));
        assert_eq!(stages.ended, [Stage::Predict, Stage::Allocate]);
        assert!(control.pool().is_empty());
        assert_eq!(control.cached_allocations(), 0);
        assert!(control.forecast().is_some(), "the forecast still stands");
    }

    #[test]
    fn checkpointed_loops_resume_bit_identically() {
        let config = config();
        let mut control = ControlLoop::new(&config);
        for i in 0..4 {
            control.close_slot(slot(i, 6 + i as u32), (i + 1) as f64 * 3_600_000.0, &mut ());
        }
        let mut bytes = Vec::new();
        control.encode(&mut bytes);
        let mut cur = Cursor::new(&bytes);
        let mut restored = ControlLoop::decode(&mut cur, &config).unwrap();
        assert!(cur.is_empty());
        assert_eq!(restored.forecast(), control.forecast());
        assert_eq!(restored.cached_allocations(), control.cached_allocations());
        let a = control.close_slot(slot(4, 9), 5.0 * 3_600_000.0, &mut ());
        let b = restored.close_slot(slot(4, 9), 5.0 * 3_600_000.0, &mut ());
        assert_eq!(a, b);
        let mut again = Vec::new();
        restored.encode(&mut again);
        bytes.clear();
        control.encode(&mut bytes);
        assert_eq!(bytes, again);
    }
}
