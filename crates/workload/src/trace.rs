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
    /// Creates a trace from arrivals, sorting them by time.
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).expect("times are finite"));
        Self { arrivals }
    }

    /// The arrivals in chronological order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of arrivals in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Returns `true` when the trace holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Iterates over the arrivals.
    pub fn iter(&self) -> impl Iterator<Item = &Arrival> {
        self.arrivals.iter()
    }

    /// Duration spanned by the trace (first to last arrival), ms.
    pub fn span_ms(&self) -> f64 {
        match (self.arrivals.first(), self.arrivals.last()) {
            (Some(first), Some(last)) => last.time_ms - first.time_ms,
            _ => 0.0,
        }
    }

    /// Number of distinct users appearing in the trace.
    pub fn distinct_users(&self) -> usize {
        let mut users: Vec<u32> = self.arrivals.iter().map(|a| a.user.0).collect();
        users.sort_unstable();
        users.dedup();
        users.len()
    }

    /// Mean offered arrival rate over the trace's span, in requests per
    /// second (0 for traces spanning no time).
    pub fn mean_rate_hz(&self) -> f64 {
        let span = self.span_ms();
        if span <= 0.0 {
            0.0
        } else {
            (self.arrivals.len() as f64 - 1.0).max(0.0) / span * 1_000.0
        }
    }

    /// Counts arrivals per consecutive time slot of `slot_ms` starting at 0.
    /// The returned vector covers every slot up to the last arrival.
    pub fn arrivals_per_slot(&self, slot_ms: f64) -> Vec<usize> {
        assert!(slot_ms > 0.0, "slot length must be positive");
        let Some(last) = self.arrivals.last() else {
            return Vec::new();
        };
        let slots = (last.time_ms / slot_ms).floor() as usize + 1;
        let mut counts = vec![0usize; slots];
        for a in &self.arrivals {
            let idx = (a.time_ms / slot_ms).floor() as usize;
            counts[idx.min(slots - 1)] += 1;
        }
        counts
    }

    /// Counts the distinct users that appear in each consecutive time slot.
    pub fn users_per_slot(&self, slot_ms: f64) -> Vec<usize> {
        assert!(slot_ms > 0.0, "slot length must be positive");
        let Some(last) = self.arrivals.last() else {
            return Vec::new();
        };
        let slots = (last.time_ms / slot_ms).floor() as usize + 1;
        let mut per_slot: Vec<Vec<u32>> = vec![Vec::new(); slots];
        for a in &self.arrivals {
            let idx = ((a.time_ms / slot_ms).floor() as usize).min(slots - 1);
            per_slot[idx].push(a.user.0);
        }
        per_slot
            .into_iter()
            .map(|mut users| {
                users.sort_unstable();
                users.dedup();
                users.len()
            })
            .collect()
    }

    /// Merges another trace into this one, keeping chronological order.
    ///
    /// Both traces are already sorted (every constructor sorts), so a single
    /// linear two-way merge suffices — `O(n + m)` instead of the
    /// `O((n + m) log(n + m))` re-sort of the full concatenation. Ties keep
    /// this trace's arrivals before `other`'s, exactly as the previous
    /// concatenate-and-stable-sort did.
    pub fn merge(&mut self, other: ArrivalTrace) {
        if other.arrivals.is_empty() {
            return;
        }
        if self.arrivals.is_empty() {
            self.arrivals = other.arrivals;
            return;
        }
        let left = std::mem::take(&mut self.arrivals);
        let mut merged = Vec::with_capacity(left.len() + other.arrivals.len());
        let mut a = left.into_iter().peekable();
        let mut b = other.arrivals.into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.time_ms <= y.time_ms {
                        merged.push(a.next().expect("peeked"));
                    } else {
                        merged.push(b.next().expect("peeked"));
                    }
                }
                (Some(_), None) => {
                    merged.extend(a);
                    break;
                }
                (None, _) => {
                    merged.extend(b);
                    break;
                }
            }
        }
        self.arrivals = merged;
    }
}

impl FromIterator<Arrival> for ArrivalTrace {
    fn from_iter<I: IntoIterator<Item = Arrival>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl Extend<Arrival> for ArrivalTrace {
    fn extend<I: IntoIterator<Item = Arrival>>(&mut self, iter: I) {
        self.arrivals.extend(iter);
        self.arrivals
            .sort_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).expect("times are finite"));
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
        assert_eq!(trace.span_ms(), 20.0);
    }

    #[test]
    fn empty_trace_defaults() {
        let trace = ArrivalTrace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.span_ms(), 0.0);
        assert_eq!(trace.mean_rate_hz(), 0.0);
        assert!(trace.arrivals_per_slot(1000.0).is_empty());
    }

    #[test]
    fn mean_rate_is_requests_per_second() {
        // 11 arrivals over 10 seconds -> 1 Hz
        let trace: ArrivalTrace = (0..11).map(|i| arrival(i as f64 * 1_000.0, i)).collect();
        assert!((trace.mean_rate_hz() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn arrivals_per_slot_counts_each_request_once() {
        let trace = ArrivalTrace::new(vec![
            arrival(100.0, 1),
            arrival(900.0, 2),
            arrival(1_500.0, 1),
            arrival(2_999.0, 3),
        ]);
        let counts = trace.arrivals_per_slot(1_000.0);
        assert_eq!(counts, vec![2, 1, 1]);
        assert_eq!(counts.iter().sum::<usize>(), trace.len());
    }

    #[test]
    fn users_per_slot_deduplicates_users() {
        let trace = ArrivalTrace::new(vec![
            arrival(100.0, 1),
            arrival(200.0, 1),
            arrival(300.0, 2),
            arrival(1_100.0, 1),
        ]);
        assert_eq!(trace.users_per_slot(1_000.0), vec![2, 1]);
    }

    #[test]
    fn merge_preserves_order() {
        let mut a = ArrivalTrace::new(vec![arrival(10.0, 1), arrival(30.0, 1)]);
        let b = ArrivalTrace::new(vec![arrival(20.0, 2)]);
        a.merge(b);
        let times: Vec<f64> = a.iter().map(|x| x.time_ms).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn merge_with_empty_traces_is_identity() {
        let mut a = ArrivalTrace::new(vec![arrival(10.0, 1)]);
        a.merge(ArrivalTrace::default());
        assert_eq!(a.len(), 1);
        let mut empty = ArrivalTrace::default();
        empty.merge(a.clone());
        assert_eq!(empty, a);
    }

    #[test]
    fn merge_ties_keep_self_before_other() {
        // the stable-sort behaviour the linear merge must reproduce: on equal
        // timestamps, self's arrivals come first, each side in its own order
        let mut a = ArrivalTrace::new(vec![arrival(10.0, 1), arrival(10.0, 2)]);
        let b = ArrivalTrace::new(vec![arrival(10.0, 3), arrival(10.0, 4)]);
        a.merge(b);
        let users: Vec<u32> = a.iter().map(|x| x.user.0).collect();
        assert_eq!(users, vec![1, 2, 3, 4]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The linear merge is bit-identical to the previous implementation
        /// (concatenate, then stable-sort by time) on arbitrary trace pairs —
        /// timestamps drawn from a tiny range so ties are common.
        #[test]
        fn linear_merge_equals_concat_and_stable_sort(
            left in proptest::collection::vec((0u32..40, 0u32..8), 0..32),
            right in proptest::collection::vec((0u32..40, 0u32..8), 0..32),
        ) {
            let build = |pairs: &[(u32, u32)]| {
                ArrivalTrace::new(
                    pairs
                        .iter()
                        .map(|&(t, u)| arrival(f64::from(t) * 0.5, u))
                        .collect(),
                )
            };
            let mut merged = build(&left);
            merged.merge(build(&right));

            // the old behaviour, reproduced verbatim as the reference
            let mut reference: Vec<Arrival> = build(&left)
                .iter()
                .chain(build(&right).iter())
                .copied()
                .collect();
            reference
                .sort_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).expect("times are finite"));
            proptest::prop_assert_eq!(merged.arrivals(), reference.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "slot length must be positive")]
    fn zero_slot_panics() {
        let trace = ArrivalTrace::new(vec![arrival(1.0, 1)]);
        let _ = trace.arrivals_per_slot(0.0);
    }
}
