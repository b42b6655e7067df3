//! # mobile-code-acceleration
//!
//! Umbrella crate for the reproduction of *Modeling Mobile Code Acceleration
//! in the Cloud* (Flores et al., ICDCS 2017). It re-exports the workspace
//! crates under stable module names so that examples and downstream users can
//! depend on a single crate:
//!
//! * [`core`] (`mca-core`) — acceleration groups, edit-distance workload
//!   prediction, ILP resource allocation, the SDN-accelerator and the
//!   closed-loop [`core::System`].
//! * [`cloudsim`] (`mca-cloudsim`) — the EC2-like cloud substrate simulator.
//! * [`fleet`] (`mca-fleet`) — the multi-tenant sharded prediction/allocation
//!   engine: per-tenant knowledge bases, a parallel provisioning tick and
//!   the unified streaming ingestion API ([`fleet::FleetDriver`] over
//!   trace-, log-, mix- and stream-backed record sources).
//! * [`telemetry`] (`mca-telemetry`) — the instrumentation core the fleet
//!   measures itself with: stage timers over pluggable clocks, fixed-bucket
//!   latency histograms with exact tail quantiles, and the
//!   Prometheus-text / versioned-JSON metrics exposition pipeline.
//! * [`offload`] (`mca-offload`) — user, tenant, request and acceleration-group
//!   identifiers, offloading requests, trace records and the computational
//!   task pool with its work model.
//! * [`mobile`] (`mca-mobile`) — device profiles, batteries, the client-side
//!   promotion moderator and the paper's inter-arrival sampler.
//! * [`network`] (`mca-network`) — 3G/LTE latency models, NetRadar-style
//!   campaigns and payload transfer times.
//! * [`workload`] (`mca-workload`) — concurrent and inter-arrival workload
//!   generation.
//! * [`lp`] (`mca-lp`) — the simplex + branch-and-bound ILP solver.
//! * [`snapshot`] (`mca-snapshot`) — the versioned, CRC-guarded checkpoint
//!   wire format behind durable fleet sessions
//!   ([`fleet::FleetEngine::checkpoint`] / restore).
//!
//! # Quick start
//!
//! ```
//! use mobile_code_acceleration::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut system = System::new(SystemConfig::paper_three_groups());
//! let workload = WorkloadGenerator::inter_arrival(
//!     10,
//!     TaskPool::static_load(TaskSpec::paper_static_minimax()),
//! )
//! .generate(5.0 * 60_000.0, &mut rng);
//! let report = system.run(&workload, &mut rng);
//! assert!(report.mean_response_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mca_cloudsim as cloudsim;
pub use mca_core as core;
pub use mca_fleet as fleet;
pub use mca_lp as lp;
pub use mca_mobile as mobile;
pub use mca_network as network;
pub use mca_offload as offload;
pub use mca_snapshot as snapshot;
pub use mca_telemetry as telemetry;
pub use mca_workload as workload;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use mca_cloudsim::{
        BillingMeter, Datacenter, DatacenterConfig, InstanceBenchmark, InstancePool, InstanceType,
        LevelClassification, PlacementError, PlacementKind, PowerModel, Server, SlaModel,
    };
    pub use mca_core::{
        accuracy, cross_validate, AccelerationGroups, Allocation, AllocationPolicy, BillingBackend,
        BillingEngine, DatacenterUsage, IndexPolicy, PredictionStrategy, ResourceAllocator,
        SdnAccelerator, SlotHistory, System, SystemConfig, SystemReport, TimeSlot,
        WorkloadPredictor,
    };
    pub use mca_fleet::{
        DriveReport, FleetDriver, FleetEngine, FleetError, FleetMetrics, FleetTelemetry,
        RecordSource, ShardRouter, SlotRecord, SourceBatch, TelemetryMode, TenantShard,
    };
    pub use mca_mobile::{DeviceClass, DeviceProfile, Moderator, PromotionPolicy};
    pub use mca_network::{CellularNetwork, NetRadarCampaign, Operator, Technology};
    pub use mca_offload::{
        AccelerationGroupId, OffloadRequest, TaskKind, TaskPool, TaskSpec, TenantId, UserId,
    };
    pub use mca_snapshot::{Restore, Snapshot, SnapshotError, SnapshotStats};
    pub use mca_workload::{ArrivalTrace, DoublingRateScenario, TenantMix, WorkloadGenerator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        let config = SystemConfig::paper_three_groups();
        assert_eq!(config.groups.len(), 3);
        let pool = TaskPool::paper_default();
        assert_eq!(pool.len(), 10);
        assert_eq!(InstanceType::ALL.len(), 8);
        // the cloudsim billing/datacenter surface is reachable flat
        let meter = BillingMeter::default();
        assert_eq!(meter.total_cost(), 0.0);
        let datacenter = Datacenter::new(&DatacenterConfig::paper_default());
        let first_fit = DatacenterConfig::paper_default().with_placement(PlacementKind::FirstFit);
        assert_eq!(datacenter, Datacenter::new(&first_fit));
        assert_eq!(PlacementKind::ALL.len(), 3);
    }
}
