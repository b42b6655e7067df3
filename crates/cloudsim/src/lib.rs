//! # mca-cloudsim — cloud substrate simulator
//!
//! The paper's evaluation runs on Amazon EC2 general-purpose instances
//! (t2.nano … t2.large, m4.4xlarge, m4.10xlarge, plus a c4.8xlarge added in
//! §VI-B) carrying a custom Dalvik-x86 surrogate. None of that infrastructure
//! is available to a reproduction, so this crate simulates it:
//!
//! * [`instance`] — the EC2-like instance catalogue: vCPUs, memory, hourly
//!   price and per-core execution speed for every instance type the paper
//!   uses. Per-core speed is expressed relative to the level-1 reference core
//!   of the task work model, which is how the Fig. 5 acceleration ratios
//!   (≈1.25×, ≈1.36×, ≈1.73×) are encoded.
//! * [`credits`] — the CPU-credit (burst) mechanism of t2 instances plus the
//!   free-tier contention factor that reproduces the t2.nano / t2.micro
//!   anomaly of Fig. 6.
//! * [`server`] — a processor-sharing server model: the execution time of a
//!   request grows with the number of concurrently served requests, flattening
//!   for larger instances (Fig. 4), and an event-driven open-loop simulation
//!   that reproduces the saturation knee and request drops of Fig. 8b/8c.
//! * [`billing`] and [`pool`] — per-hour billing and the instance pool with
//!   the 20-instances-per-account cap (`CC` in the allocation model).
//! * [`datacenter`] — the simulated substrate *under* the billing stage:
//!   finite-capacity hosts, deterministic placement policies (first/best/
//!   worst fit), an SLA model scoring actual arrivals against forecast
//!   capacity, and a linear-interpolation power model metered per host per
//!   slot.
//! * [`benchmark`] — the concurrent-mode characterization harness of §VI-A
//!   that stresses each instance with 1–100 concurrent users and classifies
//!   instances into acceleration levels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod billing;
pub mod credits;
pub mod datacenter;
pub mod instance;
pub mod pool;
pub mod server;

pub use benchmark::{
    AccelerationLevel, CharacterizationPoint, InstanceBenchmark, LevelClassification,
};
pub use billing::BillingMeter;
pub use credits::CpuCreditModel;
pub use datacenter::{
    BestFit, Datacenter, DatacenterConfig, FirstFit, GroupDemand, Host, PlacedInstance,
    PlacementError, PlacementKind, PlacementPolicy, PowerModel, SlaAssessment, SlaModel, WorstFit,
};
pub use instance::{InstanceSpec, InstanceType};
pub use pool::{InstancePool, PoolError, RunningInstance};
pub use server::{ClosedLoopResult, OpenLoopResult, Server, ServerConfig};
