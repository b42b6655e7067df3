//! # mca-offload — code offloading runtime
//!
//! The building blocks of the mobile code offloading architecture from
//! *Modeling Mobile Code Acceleration in the Cloud* (ICDCS 2017):
//!
//! * [`task`] — the pool of computational tasks used by the paper's workload
//!   simulator (minimax, n-queens, quicksort, bubblesort, …), with both a
//!   deterministic *work model* (how many abstract work units a task costs)
//!   and real, executable Rust implementations used to validate results.
//! * [`request`] — offloading requests and the trace record schema
//!   `<timestamp, user-id, acceleration-group, battery-level, round-trip-time>`
//!   stored by the SDN-accelerator (§IV-A).
//! * [`decision`] — the classic offload-or-execute-locally rule: delegate a
//!   task if and only if the effort of delegating is smaller than the effort
//!   of computing it locally (§II-A).
//! * [`profiler`] — method-level execution-time instrumentation used by the
//!   client-side moderator to detect response-time degradation.
//!
//! Work is measured in abstract **work units**; one work unit is calibrated as
//! one millisecond of execution on a reference acceleration-level-1 cloud
//! core. Every other component (mobile devices, cloud instances) expresses its
//! speed as a multiple of that reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod error;
pub mod profiler;
pub mod request;
pub mod task;

pub use decision::{DecisionEngine, DecisionInput, OffloadDecision};
pub use error::OffloadError;
pub use profiler::{MethodProfile, Profiler};
pub use request::{AccelerationGroupId, OffloadRequest, RequestId, TenantId, TraceRecord, UserId};
pub use task::{TaskKind, TaskOutput, TaskPool, TaskSpec};
