//! Offloading requests and the trace record schema of the SDN-accelerator.
//!
//! Every request processed by the system is logged as a trace containing the
//! key-value pairs `<timestamp, user-id, acceleration-group, battery-level,
//! round-trip-time>` (§IV-A). Those traces are the evidence the workload
//! predictor learns from.

use crate::task::TaskSpec;
use mca_snapshot::{decode_le_run, encode_le_run, Cursor, Restore, Snapshot, SnapshotError};
use std::fmt;

/// Identifier of a mobile user (device) in the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct UserId(pub u32);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Identifier of a tenant: one operator (application provider) with its own
/// user population, slot history and cloud account. The paper models a single
/// operator; a production deployment serves many, each predicted and
/// provisioned independently (`mca-fleet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of an individual offloading request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of an acceleration group (level), `a_n` in the paper's model.
///
/// Group ids are small integers ordered by increasing acceleration; group 0 is
/// the lowest level (the demoted t2.micro group in the paper), group 1 the
/// default entry level, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AccelerationGroupId(pub u8);

impl AccelerationGroupId {
    /// The next-higher acceleration group (promotion target).
    pub fn promoted(self) -> Self {
        Self(self.0.saturating_add(1))
    }

    /// The next-lower acceleration group, saturating at 0.
    pub fn demoted(self) -> Self {
        Self(self.0.saturating_sub(1))
    }
}

impl fmt::Display for AccelerationGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

macro_rules! impl_id_snapshot {
    ($($id:ident => $repr:ty),*) => {$(
        impl Snapshot for $id {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                encode_le_run(items, out, |id| id.0.to_le_bytes());
            }
        }
        impl Restore for $id {
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
                Ok(Self(<$repr>::decode(cur)?))
            }
            fn decode_many(cur: &mut Cursor<'_>, len: usize) -> Result<Vec<Self>, SnapshotError> {
                decode_le_run(cur, len, stringify!($id), |word| {
                    Self(<$repr>::from_le_bytes(word))
                })
            }
        }
    )*};
}

impl_id_snapshot!(UserId => u32, TenantId => u32, RequestId => u64, AccelerationGroupId => u8);

/// A single code-offloading request travelling from a mobile device to the
/// SDN-accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadRequest {
    /// Unique request id assigned by the client.
    pub id: RequestId,
    /// The user (device) issuing the request.
    pub user: UserId,
    /// Acceleration group the device currently requests.
    pub group: AccelerationGroupId,
    /// The method/task to execute remotely.
    pub task: TaskSpec,
    /// Device battery level in percent at submission time.
    pub battery_level: f64,
    /// Simulation time at which the request left the device, in milliseconds.
    pub submitted_at_ms: f64,
    /// Size in bytes of the serialized application state sent uplink.
    pub payload_bytes: usize,
}

impl OffloadRequest {
    /// Convenience constructor that fills the payload size from the task's
    /// state model.
    pub fn new(
        id: RequestId,
        user: UserId,
        group: AccelerationGroupId,
        task: TaskSpec,
        battery_level: f64,
        submitted_at_ms: f64,
    ) -> Self {
        Self {
            id,
            user,
            group,
            task,
            battery_level,
            submitted_at_ms,
            payload_bytes: task.state_bytes(),
        }
    }
}

/// One processed request as stored in the system log (the paper's MySQL
/// trace): `<timestamp, user-id, acceleration-group, battery-level, rtt>`,
/// extended with the timing decomposition used in Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Completion timestamp (simulation time, milliseconds).
    pub timestamp_ms: f64,
    /// The user that issued the request.
    pub user: UserId,
    /// Acceleration group that served the request.
    pub group: AccelerationGroupId,
    /// Device battery level in percent when the request was issued.
    pub battery_level: f64,
    /// End-to-end round-trip time perceived by the device, milliseconds.
    pub round_trip_ms: f64,
    /// Mobile ↔ front-end communication time T1 (both directions), ms.
    pub t1_ms: f64,
    /// Front-end ↔ back-end routing time T2 (both directions), ms.
    pub t2_ms: f64,
    /// Execution time in the cloud instance, ms.
    pub t_cloud_ms: f64,
    /// Whether the request completed successfully (false = dropped).
    pub success: bool,
}

impl TraceRecord {
    /// Total response time reconstructed from the decomposition,
    /// `T_response = T1 + T2 + T_cloud` (Fig. 7a).
    pub fn decomposed_response_ms(&self) -> f64 {
        self.t1_ms + self.t2_ms + self.t_cloud_ms
    }

    /// Returns `true` if the stored round-trip time is consistent with the
    /// component decomposition within `tol` milliseconds. Dropped requests
    /// are exempt (their T_cloud is the time spent before the drop).
    pub fn is_consistent(&self, tol: f64) -> bool {
        !self.success || (self.round_trip_ms - self.decomposed_response_ms()).abs() <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, TaskSpec};

    #[test]
    fn promotion_and_demotion_saturate() {
        let g = AccelerationGroupId(1);
        assert_eq!(g.promoted(), AccelerationGroupId(2));
        assert_eq!(g.demoted(), AccelerationGroupId(0));
        assert_eq!(AccelerationGroupId(0).demoted(), AccelerationGroupId(0));
        assert_eq!(
            AccelerationGroupId(255).promoted(),
            AccelerationGroupId(255)
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(UserId(32).to_string(), "u32");
        assert_eq!(RequestId(7).to_string(), "r7");
        assert_eq!(AccelerationGroupId(3).to_string(), "a3");
    }

    #[test]
    fn request_payload_follows_task() {
        let task = TaskSpec::new(TaskKind::MergeSort, 500);
        let req = OffloadRequest::new(
            RequestId(1),
            UserId(8),
            AccelerationGroupId(1),
            task,
            88.0,
            1000.0,
        );
        assert_eq!(req.payload_bytes, task.state_bytes());
    }

    #[test]
    fn trace_consistency() {
        let rec = TraceRecord {
            timestamp_ms: 5000.0,
            user: UserId(1),
            group: AccelerationGroupId(2),
            battery_level: 75.0,
            round_trip_ms: 700.0,
            t1_ms: 80.0,
            t2_ms: 150.0,
            t_cloud_ms: 470.0,
            success: true,
        };
        assert!(rec.is_consistent(1e-6));
        assert_eq!(rec.decomposed_response_ms(), 700.0);
        let bad = TraceRecord {
            round_trip_ms: 900.0,
            ..rec.clone()
        };
        assert!(!bad.is_consistent(1.0));
        let dropped = TraceRecord {
            success: false,
            round_trip_ms: 123.0,
            ..rec
        };
        assert!(dropped.is_consistent(1e-6));
    }
}
