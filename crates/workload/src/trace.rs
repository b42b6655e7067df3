//! Arrival traces: the output of the workload generator.

use mca_offload::{TaskSpec, UserId};

/// One offloading request arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival time at the SDN-accelerator, simulation milliseconds.
    pub time_ms: f64,
    /// The device issuing the request.
    pub user: UserId,
    /// The task the device wants to offload.
    pub task: TaskSpec,
}

/// A chronologically ordered sequence of arrivals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

impl ArrivalTrace {
    /// Creates a trace from arrivals, sorting them by time in the total
    /// order of `f64` (a NaN or infinite timestamp sorts, it does not panic;
    /// the windower downstream decides what such an arrival counts as).
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
        Self { arrivals }
    }

    /// Number of arrivals in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Returns `true` when the trace holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Iterates over the arrivals in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &Arrival> {
        self.arrivals.iter()
    }

    /// Number of distinct users appearing in the trace.
    pub fn distinct_users(&self) -> usize {
        let mut users: Vec<u32> = self.arrivals.iter().map(|a| a.user.0).collect();
        users.sort_unstable();
        users.dedup();
        users.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_offload::TaskKind;

    fn arrival(t: f64, user: u32) -> Arrival {
        Arrival {
            time_ms: t,
            user: UserId(user),
            task: TaskSpec::new(TaskKind::Minimax, 7),
        }
    }

    #[test]
    fn new_sorts_by_time() {
        let trace = ArrivalTrace::new(vec![arrival(30.0, 1), arrival(10.0, 2), arrival(20.0, 1)]);
        let times: Vec<f64> = trace.iter().map(|a| a.time_ms).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0]);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.distinct_users(), 2);
        // non-finite timestamps sort in the total order instead of panicking
        let odd = ArrivalTrace::new(vec![
            arrival(f64::NAN, 1),
            arrival(5.0, 2),
            arrival(f64::NEG_INFINITY, 3),
        ]);
        let users: Vec<u32> = odd.iter().map(|a| a.user.0).collect();
        assert_eq!(users, vec![3, 2, 1]);
    }

    #[test]
    fn empty_trace_defaults() {
        let trace = ArrivalTrace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.len(), 0);
        assert_eq!(trace.distinct_users(), 0);
        assert_eq!(trace.iter().count(), 0);
    }
}
