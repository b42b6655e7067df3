//! The request log of the SDN-accelerator.
//!
//! "The CO also logs information about each request processed into a MySQL
//! database" (§V); "the logs store information about each request processed
//! by the system as a trace, which contains … `<timestamp, user-id,
//! acceleration-group, battery-level, round-trip-time>`" (§IV-A). The log is
//! the evidence the predictor learns from.

use mca_offload::{AccelerationGroupId, TraceRecord, UserId};

/// In-memory, append-only store of processed-request traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record. Records are expected (and kept) in roughly
    /// chronological order; queries sort lazily where needed.
    pub fn append(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records whose timestamp falls in `[from_ms, to_ms)`.
    pub fn range(&self, from_ms: f64, to_ms: f64) -> Vec<&TraceRecord> {
        self.records
            .iter()
            .filter(|r| r.timestamp_ms >= from_ms && r.timestamp_ms < to_ms)
            .collect()
    }

    /// Records belonging to one user.
    pub fn for_user(&self, user: UserId) -> Vec<&TraceRecord> {
        self.records.iter().filter(|r| r.user == user).collect()
    }

    /// Records served by one acceleration group.
    pub fn for_group(&self, group: AccelerationGroupId) -> Vec<&TraceRecord> {
        self.records.iter().filter(|r| r.group == group).collect()
    }

    /// Mean round-trip time of successful requests, ms (0 when none).
    pub fn mean_response_ms(&self) -> f64 {
        let ok: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.success)
            .map(|r| r.round_trip_ms)
            .collect();
        if ok.is_empty() {
            0.0
        } else {
            ok.iter().sum::<f64>() / ok.len() as f64
        }
    }

    /// Fraction of requests that completed successfully (1.0 for an empty
    /// log).
    pub fn success_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.success).count() as f64 / self.records.len() as f64
    }

    /// Bridges the log into timestamped `(group, user)` assignment events —
    /// the form the slot windower ([`crate::SlotWindower`]) and the fleet
    /// ingestion layer consume when replaying a recorded log into per-slot
    /// record batches.
    pub fn assignments(&self) -> impl Iterator<Item = (f64, AccelerationGroupId, UserId)> + '_ {
        self.records
            .iter()
            .map(|r| (r.timestamp_ms, r.group, r.user))
    }

    /// The distinct users that appear in the log.
    pub fn users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.records.iter().map(|r| r.user).collect();
        users.sort();
        users.dedup();
        users
    }
}

impl Extend<TraceRecord> for TraceLog {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl FromIterator<TraceRecord> for TraceLog {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Self {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: f64, user: u32, group: u8, rtt: f64, success: bool) -> TraceRecord {
        TraceRecord {
            timestamp_ms: t,
            user: UserId(user),
            group: AccelerationGroupId(group),
            battery_level: 80.0,
            round_trip_ms: rtt,
            t1_ms: 40.0,
            t2_ms: 150.0,
            t_cloud_ms: rtt - 190.0,
            success,
        }
    }

    #[test]
    fn append_and_query_by_range_user_group() {
        let mut log = TraceLog::new();
        log.append(record(100.0, 1, 1, 500.0, true));
        log.append(record(200.0, 2, 2, 700.0, true));
        log.append(record(5_000.0, 1, 1, 600.0, false));
        assert_eq!(log.len(), 3);
        assert_eq!(log.range(0.0, 1_000.0).len(), 2);
        assert_eq!(log.for_user(UserId(1)).len(), 2);
        assert_eq!(log.for_group(AccelerationGroupId(2)).len(), 1);
        assert_eq!(log.users(), vec![UserId(1), UserId(2)]);
    }

    #[test]
    fn mean_response_ignores_failures() {
        let log: TraceLog = vec![
            record(1.0, 1, 1, 400.0, true),
            record(2.0, 1, 1, 600.0, true),
            record(3.0, 1, 1, 10_000.0, false),
        ]
        .into_iter()
        .collect();
        assert_eq!(log.mean_response_ms(), 500.0);
        assert!((log.success_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_log_defaults() {
        let log = TraceLog::new();
        assert!(log.is_empty());
        assert_eq!(log.mean_response_ms(), 0.0);
        assert_eq!(log.success_ratio(), 1.0);
        assert!(log.users().is_empty());
    }

    #[test]
    fn extend_appends() {
        let mut log = TraceLog::new();
        log.extend(vec![
            record(1.0, 1, 1, 100.0, true),
            record(2.0, 2, 1, 100.0, true),
        ]);
        assert_eq!(log.len(), 2);
    }
}
