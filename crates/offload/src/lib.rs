//! # mca-offload — tasks, requests and trace records
//!
//! The vocabulary every other crate of the reproduction of *Modeling Mobile
//! Code Acceleration in the Cloud* (ICDCS 2017) speaks:
//!
//! * the identifiers of users, tenants, requests and acceleration groups
//!   ([`UserId`], [`TenantId`], [`RequestId`], [`AccelerationGroupId`]), with
//!   their checkpoint codec;
//! * the pool of computational tasks used by the paper's workload simulator
//!   (minimax, n-queens, quicksort, bubblesort, …) and its deterministic
//!   *work model* ([`TaskPool`], [`TaskSpec`], [`TaskKind`]);
//! * offloading requests ([`OffloadRequest`]) and the trace record schema
//!   `<timestamp, user-id, acceleration-group, battery-level, round-trip-time>`
//!   stored by the SDN-accelerator (§IV-A, [`TraceRecord`]).
//!
//! Work is measured in abstract **work units**; one work unit is calibrated as
//! one millisecond of execution on a reference acceleration-level-1 cloud
//! core. Every cloud instance expresses its speed as a multiple of that
//! reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod request;
mod task;

pub use request::{AccelerationGroupId, OffloadRequest, RequestId, TenantId, TraceRecord, UserId};
pub use task::{TaskKind, TaskPool, TaskSpec};
