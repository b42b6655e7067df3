//! # mca-fleet — multi-tenant sharded prediction/allocation engine
//!
//! The paper's closed loop (Fig. 2) models **one** operator: one slot
//! history, one predictor, one allocator, one instance pool. A
//! production-scale acceleration service hosts *many* operators at once —
//! the per-user elastic clouds of ThinkAir and the per-device clones of
//! CloneCloud are the canonical settings — and each tenant's workload must
//! be predicted and provisioned from that tenant's **own** knowledge base:
//! merging histories would let one tenant's churn poison every neighbour's
//! nearest-slot matches. This crate shards the closed loop:
//!
//! * [`router`] — [`ShardRouter`]: a pure SplitMix64 hash from tenant id to
//!   shard index, so every front-end and every replay agrees on placement
//!   without coordination.
//! * [`shard`] — [`TenantShard`]: one tenant's [`mca_core::ControlLoop`]
//!   (predictor, allocator, instance pool, billing, allocation memo) plus
//!   the tenant's accounting; its `tick` is the same
//!   `ControlLoop::close_slot` — score→learn→predict→allocate→bill — the
//!   single-operator [`mca_core::System`] calls.
//! * [`ingest`] — batched slot ingest: one flat arrival-order record batch
//!   per slot, scattered in one pass into each tenant's
//!   [`mca_core::TimeSlotBuilder`], which sets most records' bits in the
//!   frame its last slot left and builds the slot once, instead of a
//!   per-record ordered insert.
//! * [`source`] — the unified streaming ingestion surface:
//!   [`RecordSource`], a source-agnostic stream of per-slot
//!   [`SourceBatch`]es, with adapters for every workload shape — recorded
//!   arrival traces ([`ArrivalTraceSource`]), SDN-accelerator request logs
//!   ([`TraceLogSource`]), synthetic tenant mixes ([`TenantMixSource`]),
//!   replayable batch lists and push-fed live streams
//!   ([`SlotBatchSource`], [`StreamSource`]). Timestamped sources window
//!   their events with [`mca_core::SlotWindower`].
//! * [`driver`] — [`FleetDriver`]: multiplexes many sources, drives the
//!   engine slot by slot and reports a [`DriveReport`] (forecasts, rollup,
//!   late/dropped-record accounting). Misuse surfaces as a typed
//!   [`FleetError`] instead of a panic.
//! * [`engine`] — [`FleetEngine`]: owns the shards and runs every shard's
//!   tick concurrently — one contiguous chunk of shards per thread
//!   ([`shard_chunks`]), the calling thread ticking the last chunk and a
//!   scoped thread each of the others. Every tenant lives whole on exactly
//!   one shard. Per-tenant forecasts are bit-identical to running each
//!   tenant alone, whatever the shard count or thread count, because
//!   shards share no state, the engine is a pure function of the records
//!   it is fed and the nearest-neighbour tie-break stays first-minimum.
//! * [`metrics`] — [`TenantMetrics`] / [`FleetMetrics`]: per-tenant
//!   accuracy, spend, allocation volume and — under datacenter billing —
//!   SLA, energy and placement accounting, folded (in tenant-id order, so
//!   bitwise reproducibly) into fleet-wide rollups. Each shard can bill
//!   against a simulated datacenter ([`mca_core::BillingEngine`] wrapping
//!   [`mca_cloudsim::Datacenter`]); the datacenter migrates with the tenant,
//!   and [`FleetEngine::placement_health`] surfaces host exhaustion as a
//!   typed [`FleetError::Placement`] instead of a panic (see
//!   `docs/datacenter.md`).
//! * [`rebalance`] — the elastic placement layer: [`Rebalancer`] runs
//!   between slots off each tenant's deterministic users-per-tick load
//!   EWMA, and when the hottest shard's load reaches
//!   [`RebalancerConfig::ratio`] times the mean it live-migrates the
//!   heaviest tenants onto the coldest shard (deterministic
//!   tie-breaks). Migration moves the whole [`TenantShard`] —
//!   history, nearest-slot index, warm allocation memo cache,
//!   standing forecast, pool, metrics — and records follow through the
//!   router's indirection table, so forecasts and [`FleetMetrics`] stay
//!   bit-identical to a never-rebalanced fleet under any migration
//!   schedule.
//! * [`telemetry`] — the observability layer over [`mca_telemetry`]: every
//!   engine instruments itself by default ([`TelemetryMode::Monotonic`]),
//!   histogramming the per-slot ingest+tick latency and each tenant's
//!   windowing → predict → allocate → bill stages, and tracking per-shard
//!   load/latency EWMAs. [`FleetEngine::telemetry`] returns the
//!   [`FleetTelemetry`] snapshot (also on [`DriveReport`]);
//!   [`FleetEngine::telemetry_registry`] assembles the full metric registry
//!   for Prometheus-text / JSON exposition. Instrumentation never perturbs
//!   forecasts or metrics, and under [`TelemetryMode::Logical`] the
//!   snapshot itself is bit-identical at any thread count (see
//!   `tests/determinism.rs` and `docs/observability.md`).
//!
//! # Quick start
//!
//! ```
//! use mca_core::SystemConfig;
//! use mca_fleet::{FleetDriver, FleetEngine};
//! use mca_workload::TenantMix;
//!
//! let config = SystemConfig::paper_three_groups().with_history_window(64);
//! let mix = TenantMix::heterogeneous(8, 16, config.groups.ids(), 7);
//! let mut engine = FleetEngine::new(config, 4, 7);
//! engine.add_tenants(mix.tenant_ids());
//! let mut driver = FleetDriver::new(engine).with_mix(&mix).unwrap();
//! let report = driver.run(12).unwrap();
//! assert_eq!(report.metrics.tenants, 8);
//! assert!(report.metrics.mean_accuracy.unwrap() > 0.0);
//! assert_eq!(report.late_records + report.dropped_records, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod engine;
pub mod error;
pub mod ingest;
pub mod metrics;
pub mod rebalance;
pub mod router;
pub mod shard;
pub mod source;
pub mod telemetry;

pub use driver::{DriveReport, FleetDriver};
pub use engine::{shard_chunks, FleetEngine};
pub use error::FleetError;
pub use ingest::SlotRecord;
pub use metrics::{FleetMetrics, TenantMetrics};
pub use rebalance::{MigrationRecord, RebalanceSnapshot, Rebalancer, RebalancerConfig};
pub use router::ShardRouter;
pub use shard::TenantShard;
pub use source::{
    ArrivalTraceSource, RecordSource, SlotBatchHandle, SlotBatchSource, SourceBatch, StreamHandle,
    StreamSource, TenantMixSource, TraceLogSource,
};
pub use telemetry::{FleetTelemetry, ShardLoad, ShardTelemetry, StageHistograms, TelemetryMode};
