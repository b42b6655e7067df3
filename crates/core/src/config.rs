//! System configuration.

use crate::accel::AccelerationGroups;
use crate::allocator::{AllocationPolicy, ResourceAllocator};
use crate::billing::{ArithmeticBilling, BillingEngine, DatacenterBilling};
use crate::index::IndexPolicy;
use crate::predictor::{PredictionStrategy, WorkloadPredictor};
use mca_cloudsim::DatacenterConfig;
use mca_mobile::{DeviceClass, PromotionPolicy};
use mca_network::{CellularNetwork, Operator, Technology};

/// Full configuration of the closed-loop system (Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The acceleration groups offered as a service.
    pub groups: AccelerationGroups,
    /// Provisioning slot length, ms (instances are billed and re-allocated at
    /// this granularity; the paper supports any fraction of an hour).
    pub slot_length_ms: f64,
    /// Client-side promotion policy applied by every device's moderator.
    pub promotion_policy: PromotionPolicy,
    /// Device class of the emulated handsets.
    pub device_class: DeviceClass,
    /// Constant background load per back-end server, in concurrent users
    /// (the 8-hour experiment induces 50 concurrent users per server).
    pub background_load: usize,
    /// Access network between the devices and the SDN front-end.
    pub network: CellularNetwork,
    /// Mean SDN routing overhead (`T2`), ms (§VI-B: ≈150 ms).
    pub routing_overhead_ms: f64,
    /// Cloud account instance cap (`CC`).
    pub account_cap: usize,
    /// Allocation policy.
    pub allocation_policy: AllocationPolicy,
    /// Prediction strategy.
    pub prediction_strategy: PredictionStrategy,
    /// Maximum number of slots the predictor's knowledge base retains
    /// (`None` = unbounded). Bounding the window keeps the per-interval
    /// nearest-neighbour scan and the history's memory footprint constant
    /// for long-running deployments.
    pub history_window: Option<usize>,
    /// Whether the predictor keeps the block-summary tree over its retained
    /// slots' signatures (linear by default; forecasts are identical either
    /// way, so this is purely a throughput knob, the one that makes
    /// million-slot knowledge bases sublinear per predict).
    pub index_policy: IndexPolicy,
    /// Size of the downlink result payload, bytes.
    pub result_bytes: usize,
    /// Hour of day at which the experiment starts (affects network latency).
    pub start_hour_of_day: f64,
    /// When set, the bill stage settles against a simulated datacenter
    /// (placement + SLA + energy) instead of pure arithmetic. Forecasts,
    /// allocations and costs are bit-identical either way — the datacenter
    /// only *adds* accounting signals (see `docs/datacenter.md`).
    pub datacenter: Option<DatacenterConfig>,
}

impl SystemConfig {
    /// The configuration of the paper's 8-hour experiment (§VI-C-1): three
    /// acceleration groups served by t2.nano / t2.large / m4.4xlarge, the
    /// static 1/50 promotion probability, a 50-user background load per
    /// server, LTE access and hourly provisioning.
    pub fn paper_three_groups() -> Self {
        Self {
            groups: AccelerationGroups::paper_three_groups(),
            slot_length_ms: 3_600_000.0,
            promotion_policy: PromotionPolicy::paper_default(),
            device_class: DeviceClass::MidRange,
            background_load: 50,
            network: CellularNetwork::new(Operator::Beta, Technology::Lte),
            routing_overhead_ms: 150.0,
            account_cap: 20,
            allocation_policy: AllocationPolicy::IlpExact,
            prediction_strategy: PredictionStrategy::NearestSlot,
            history_window: None,
            index_policy: IndexPolicy::linear(),
            result_bytes: 256,
            start_hour_of_day: 9.0,
            datacenter: None,
        }
    }

    /// The five-group catalogue (levels 0–4) with otherwise paper defaults.
    pub fn paper_five_groups() -> Self {
        Self {
            groups: AccelerationGroups::paper_five_groups(),
            ..Self::paper_three_groups()
        }
    }

    /// Overrides the provisioning slot length.
    pub fn with_slot_length_ms(mut self, slot_length_ms: f64) -> Self {
        self.slot_length_ms = slot_length_ms;
        self
    }

    /// Caps the predictor's knowledge base at the `window` most recent
    /// slots.
    pub fn with_history_window(mut self, window: usize) -> Self {
        self.history_window = Some(window);
        self
    }

    /// Overrides the promotion policy.
    pub fn with_promotion_policy(mut self, policy: PromotionPolicy) -> Self {
        self.promotion_policy = policy;
        self
    }

    /// Overrides the background load per server.
    pub fn with_background_load(mut self, background_load: usize) -> Self {
        self.background_load = background_load;
        self
    }

    /// Overrides the allocation policy.
    pub fn with_allocation_policy(mut self, policy: AllocationPolicy) -> Self {
        self.allocation_policy = policy;
        self
    }

    /// Overrides the prediction strategy.
    pub fn with_prediction_strategy(mut self, strategy: PredictionStrategy) -> Self {
        self.prediction_strategy = strategy;
        self
    }

    /// Turns on the predictor's block-summary tree with the default build
    /// threshold (see [`IndexPolicy::indexed`]).
    pub fn with_indexed_scan(mut self) -> Self {
        self.index_policy = IndexPolicy::indexed();
        self
    }

    /// Overrides the full summary-tree policy.
    pub fn with_index_policy(mut self, index_policy: IndexPolicy) -> Self {
        self.index_policy = index_policy;
        self
    }

    /// Bills against a simulated datacenter: the allocation is placed onto
    /// finite-capacity hosts under `datacenter.placement`, actual arrivals
    /// are scored against the forecast capacity (SLA), and host power is
    /// metered per slot (energy).
    pub fn with_datacenter(mut self, datacenter: DatacenterConfig) -> Self {
        self.datacenter = Some(datacenter);
        self
    }

    /// Builds a workload predictor configured exactly as [`crate::System`]
    /// would build its own: same groups, strategy, index policy and history
    /// window. A multi-tenant deployment (`mca-fleet`) constructs one per
    /// tenant shard from a shared configuration.
    pub fn build_predictor(&self) -> WorkloadPredictor {
        let mut predictor = WorkloadPredictor::new(self.groups.ids(), self.slot_length_ms)
            .with_strategy(self.prediction_strategy)
            .with_index_policy(self.index_policy);
        predictor.set_window(self.history_window);
        predictor
    }

    /// Builds a resource allocator configured exactly as [`crate::System`]
    /// would build its own: same groups, policy and account cap.
    pub fn build_allocator(&self) -> ResourceAllocator {
        ResourceAllocator::configured(
            self.groups.clone(),
            self.allocation_policy,
            self.account_cap,
        )
    }

    /// Builds an instance pool capped at this configuration's account cap.
    pub fn build_pool(&self) -> mca_cloudsim::InstancePool {
        mca_cloudsim::InstancePool::with_cap(self.account_cap)
    }

    /// Builds the billing engine this configuration selects: arithmetic by
    /// default, a datacenter-backed settlement when
    /// [`with_datacenter`](Self::with_datacenter) was given.
    pub fn build_billing(&self) -> BillingEngine {
        match &self.datacenter {
            None => BillingEngine::Arithmetic(ArithmeticBilling),
            Some(datacenter) => BillingEngine::Datacenter(DatacenterBilling::new(datacenter)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_cloudsim::{Datacenter, InstancePool};

    #[test]
    fn paper_defaults_match_the_evaluation_setup() {
        let c = SystemConfig::paper_three_groups();
        assert_eq!(c.groups.len(), 3);
        assert_eq!(c.background_load, 50);
        assert_eq!(c.account_cap, 20);
        assert_eq!(c.routing_overhead_ms, 150.0);
        assert_eq!(c.slot_length_ms, 3_600_000.0);
        assert_eq!(
            c.promotion_policy,
            PromotionPolicy::Probabilistic { probability: 0.02 }
        );
    }

    #[test]
    fn builder_overrides_work() {
        let c = SystemConfig::paper_three_groups()
            .with_slot_length_ms(1_800_000.0)
            .with_background_load(0)
            .with_promotion_policy(PromotionPolicy::Never)
            .with_allocation_policy(AllocationPolicy::GreedyCheapest)
            .with_prediction_strategy(PredictionStrategy::LastValue);
        assert_eq!(c.slot_length_ms, 1_800_000.0);
        assert_eq!(c.background_load, 0);
        assert_eq!(c.promotion_policy, PromotionPolicy::Never);
        assert_eq!(c.allocation_policy, AllocationPolicy::GreedyCheapest);
        assert_eq!(c.prediction_strategy, PredictionStrategy::LastValue);
    }

    #[test]
    fn built_components_mirror_the_configuration() {
        let c = SystemConfig::paper_three_groups()
            .with_history_window(5)
            .with_allocation_policy(AllocationPolicy::GreedyCheapest)
            .with_prediction_strategy(PredictionStrategy::SuccessorOfNearest);
        let predictor = c.build_predictor();
        assert_eq!(predictor.strategy(), PredictionStrategy::SuccessorOfNearest);
        assert_eq!(predictor.groups(), c.groups.ids());
        assert_eq!(predictor.history().window(), Some(5));
        let allocator = c.build_allocator();
        assert_eq!(allocator.policy(), AllocationPolicy::GreedyCheapest);
        assert_eq!(allocator.account_cap(), c.account_cap);
        assert_eq!(c.build_pool(), InstancePool::with_cap(c.account_cap));
        // billing defaults to arithmetic; the datacenter knob switches the
        // engine and threads the placement policy through
        assert!(!c.build_billing().observes_demand());
        let best_fit =
            DatacenterConfig::paper_default().with_placement(mca_cloudsim::PlacementKind::BestFit);
        let billing = c.with_datacenter(best_fit).build_billing();
        assert!(billing.observes_demand());
        assert_eq!(billing.datacenter(), Some(&Datacenter::new(&best_fit)));
    }

    #[test]
    fn index_policy_knob_reaches_the_built_predictor() {
        let c = SystemConfig::paper_three_groups();
        assert_eq!(c.index_policy, IndexPolicy::linear());
        assert_eq!(c.build_predictor().index_policy(), IndexPolicy::linear());

        let c = c.with_indexed_scan();
        assert_eq!(c.index_policy, IndexPolicy::indexed());
        assert_eq!(c.build_predictor().index_policy(), IndexPolicy::indexed());

        let custom = IndexPolicy::indexed().with_min_indexed_slots(64);
        let c = c.with_index_policy(custom);
        assert_eq!(c.build_predictor().index_policy(), custom);
    }

    #[test]
    fn five_group_config_has_level_zero_to_four() {
        let c = SystemConfig::paper_five_groups();
        assert_eq!(c.groups.len(), 5);
    }
}
