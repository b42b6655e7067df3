//! # mca-core — software-defined code acceleration
//!
//! The primary contribution of *Modeling Mobile Code Acceleration in the
//! Cloud* (ICDCS 2017): an SDN-style front-end that routes mobile code
//! offloading requests to **acceleration groups** of cloud instances, plus an
//! **adaptive model** that (a) predicts the per-group workload of the next
//! provisioning interval from the history of time slots using an edit
//! distance, and (b) allocates the cheapest combination of instances able to
//! serve the predicted workload through Integer Linear Programming.
//!
//! Crate layout (matching §IV–§V of the paper):
//!
//! * [`accel`] — acceleration groups `A = {a_1 … a_N}`: which instance types
//!   provide which level of acceleration, with what capacity.
//! * [`logs`] — the request log (the paper's MySQL trace store).
//! * [`timeslot`] — time slots `T = {t_i}`: per-slot assignment of users to
//!   acceleration groups, built from the log. A slot is two columns — its
//!   group runs and one users column holding every run's sorted,
//!   deduplicated ids back to back — so [`TimeSlot::users_in`] hands out a
//!   borrowed `&[UserId]` (zero-copy);
//!   [`SlotHistory`] optionally retains only a sliding window of recent
//!   slots, and checkpoints them as columns with each run's ids
//!   gap-encoded.
//! * [`distance`] — the one distance metric of §IV-B-1: per-group set edit
//!   distance `δ` and slot distance `Δ` as allocation-free linear merges
//!   over the sorted runs, their `*_bounded` early exits and the
//!   crate-private `*_naive` references.
//! * [`index`] — the block-summary tree over the predictor's per-slot
//!   signatures: per-block count/id-range envelopes refute whole stretches
//!   of a 100k+ slot history per query, maintained incrementally alongside
//!   the signatures.
//! * [`predictor`] — workload prediction (§IV-B): pruned nearest-neighbour
//!   search over the slot history (cached per-slot count signatures give an
//!   `O(groups)` lower bound that skips most candidates), with alternative
//!   strategies for ablation and the naive full scan as baseline.
//! * [`metrics`] — prediction accuracy (the paper's 87.5 % headline metric)
//!   and k-fold cross-validation.
//! * [`window`] — [`SlotWindower`]: folds timestamped
//!   events (log records, trace arrivals, live streams) into
//!   provisioning-slot batches — out-of-order tolerance within a slot,
//!   empty slots for gaps, deterministic boundary assignment, late-event
//!   accounting. The bridge every ingestion path shares.
//! * [`allocator`] — dynamic resource allocation (§IV-C): the ILP and two
//!   baseline policies (greedy, over-provisioning).
//! * [`billing`] — the bill stage behind the [`billing::BillingBackend`]
//!   trait: pure arithmetic (the default) or a transaction against a
//!   simulated datacenter with placement, SLA and energy accounting.
//! * [`sdn`] — the SDN-accelerator front-end: request handler, code
//!   offloader/router, per-component timing `T1`/`T2`/`T_cloud` (Fig. 7a).
//! * [`control`] — [`ControlLoop`]: the score → learn → predict → allocate →
//!   bill cycle closed once per provisioning slot, with the allocation memo
//!   beside it. The one spelling of the loop: [`System`] closes its slots
//!   through it, a fleet runs one per tenant.
//! * [`system`] — the closed-loop system of Fig. 2: workload →
//!   SDN-accelerator → back-end pool, re-provisioned every interval by its
//!   [`ControlLoop`], with client-side promotions.
//! * [`config`] — system configuration builder.
//!
//! # Quick start
//!
//! ```
//! use mca_core::{AccelerationGroups, SystemConfig, System};
//! use mca_workload::WorkloadGenerator;
//! use mca_offload::{TaskPool, TaskSpec};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let config = SystemConfig::paper_three_groups();
//! let mut system = System::new(config);
//! let workload = WorkloadGenerator::inter_arrival(
//!     20,
//!     TaskPool::static_load(TaskSpec::paper_static_minimax()),
//! )
//! .generate(10.0 * 60_000.0, &mut rng);
//! let report = system.run(&workload, &mut rng);
//! assert!(report.records.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod allocator;
pub mod billing;
pub mod config;
pub mod control;
pub mod distance;
pub mod error;
pub mod index;
pub mod logs;
pub mod metrics;
pub mod predictor;
pub mod sdn;
pub mod system;
pub mod timeslot;
pub mod window;

pub use accel::{AccelerationGroup, AccelerationGroups};
pub use allocator::{Allocation, AllocationPolicy, AllocationStats, ResourceAllocator};
pub use billing::{
    ArithmeticBilling, BillingBackend, BillingEngine, DatacenterBilling, DatacenterUsage,
    SlotSettlement,
};
pub use config::SystemConfig;
pub use control::{ControlLoop, Provisioned, SlotOutcome, Stage, StageObserver};
pub use error::CoreError;
pub use index::IndexPolicy;
pub use logs::TraceLog;
pub use metrics::{
    accuracy, cross_validate, learning_curve, CrossValidationReport, PredictionQuality,
};
pub use predictor::{
    PredictionStrategy, PredictorStats, PredictorStatsSnapshot, WorkloadForecast, WorkloadPredictor,
};
pub use sdn::{RoutedRequest, SdnAccelerator};
pub use system::{PromotionEvent, SlotObservation, System, SystemReport, UserPerception};
pub use timeslot::{SlotHistory, TimeSlot, TimeSlotBuilder};
pub use window::SlotWindower;
