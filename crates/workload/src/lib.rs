//! # mca-workload — workload generation
//!
//! The paper's evaluation drives the system with a simulator that "creates
//! workload in two different operational modes, 1) concurrent and 2)
//! inter-arrival rate" (§V):
//!
//! * the **concurrent** mode spawns `n` simultaneous emulated devices and is
//!   used to benchmark the cloud instances (Fig. 4–7),
//! * the **inter-arrival** mode takes a number of devices, the inter-arrival
//!   time between offloading requests and an active duration, and is used to
//!   produce the realistic time-varying workload of the 8-hour and 16-hour
//!   experiments (Fig. 9–10) — with inter-arrival times derived from the
//!   3-month smartphone usage study (100–5000 ms, `mca-mobile`).
//!
//! This crate turns those modes into explicit arrival traces:
//!
//! * [`WorkloadGenerator`] — the two generation modes ([`GenerationMode`]),
//!   producing [`ArrivalTrace`]s: time-ordered [`Arrival`]s,
//! * [`DoublingRateScenario`] — the arrival-rate-doubling schedule of
//!   Fig. 8b (1 Hz → 1024 Hz, doubling every five minutes), and
//!   [`RampScenario`], a user population growing or shrinking over slots,
//! * [`TenantMix`] — multi-tenant mixes: heterogeneous per-tenant load
//!   shapes ([`TenantScenario`]: steady / ramp / doubling) with
//!   deterministic per-slot record generation, feeding the sharded fleet
//!   engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod generator;
mod scenario;
mod tenant;
mod trace;

pub use generator::{GenerationMode, WorkloadGenerator};
pub use scenario::{DoublingRateScenario, RampScenario, RateStep};
pub use tenant::{TenantMix, TenantScenario};
pub use trace::{Arrival, ArrivalTrace};
