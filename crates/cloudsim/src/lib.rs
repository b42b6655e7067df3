//! # mca-cloudsim — cloud substrate simulator
//!
//! The paper's evaluation runs on Amazon EC2 general-purpose instances
//! (t2.nano … t2.large, m4.4xlarge, m4.10xlarge, plus a c4.8xlarge added in
//! §VI-B) carrying a custom Dalvik-x86 surrogate. None of that infrastructure
//! is available to a reproduction, so this crate simulates it:
//!
//! * [`InstanceType`] — the EC2-like instance catalogue: vCPUs, memory,
//!   hourly price and per-core execution speed for every instance type the
//!   paper uses. Per-core speed is expressed relative to the level-1
//!   reference core of the task work model, which is how the Fig. 5
//!   acceleration ratios (≈1.25×, ≈1.36×, ≈1.73×) are encoded.
//! * [`Server`] — a processor-sharing server model: the execution time of a
//!   request grows with the number of concurrently served requests,
//!   flattening for larger instances (Fig. 4), and an event-driven open-loop
//!   simulation that reproduces the saturation knee and request drops of
//!   Fig. 8b/8c. A t2 server carries the CPU-credit (burst) mechanism and
//!   the free-tier contention factor behind the t2.nano / t2.micro anomaly
//!   of Fig. 6.
//! * [`InstancePool`] and [`BillingMeter`] — the running instances, billed
//!   per started hour, under the 20-instances-per-account cap
//!   ([`DEFAULT_ACCOUNT_CAP`], `CC` in the allocation model).
//! * [`Datacenter`] — the simulated substrate *under* the billing stage:
//!   finite-capacity hosts, a deterministic [`PlacementKind`] (first, best
//!   or worst fit), an [`SlaModel`] scoring actual arrivals against forecast
//!   capacity, and a linear-interpolation [`PowerModel`] metered per host
//!   per slot.
//! * [`InstanceBenchmark`] and [`LevelClassification`] — the
//!   concurrent-mode characterization harness of §VI-A that stresses each
//!   instance with 1–100 concurrent users and classifies instances into
//!   acceleration levels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod benchmark;
mod billing;
mod credits;
mod datacenter;
mod instance;
mod pool;
mod server;

pub use benchmark::{
    AccelerationLevel, CharacterizationPoint, InstanceBenchmark, LevelClassification,
};
pub use billing::BillingMeter;
pub use datacenter::{
    Datacenter, DatacenterConfig, GroupDemand, PlacementError, PlacementKind, PowerModel,
    SlaAssessment, SlaModel,
};
pub use instance::{InstanceSpec, InstanceType};
pub use pool::{InstancePool, PoolError, DEFAULT_ACCOUNT_CAP};
pub use server::{ClosedLoopResult, OpenLoopResult, Server};
