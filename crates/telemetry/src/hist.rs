//! Fixed-bucket log-linear latency histograms with exact tail-quantile
//! extraction.
//!
//! The bucket layout is the classic HDR-style log2-with-sub-buckets scheme:
//! values below `2^SUB_BITS` land in exact unit-width buckets; above that,
//! every power-of-two octave is split into `2^SUB_BITS` equal sub-buckets.
//! With `SUB_BITS = 5` the worst-case relative error of any reported quantile
//! is `1/32 ≈ 3.1%`, the table is a fixed 1 920 slots (15 KiB of `u64`s), and
//! both recording and quantile extraction are branch-light integer code —
//! no floating point, no allocation after the first record.

use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: u32 = 5;

const SUB_COUNT: usize = 1 << SUB_BITS; // 32
/// Total number of buckets: one exact unit bucket per value below
/// `2^SUB_BITS`, then `SUB_COUNT` sub-buckets for each octave `5..=63`.
pub const BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT; // 1920

/// A log-linear latency histogram over `u64` nanosecond values.
///
/// The bucket table is allocated lazily on the first [`record`], so a
/// disabled-telemetry histogram costs 5 machine words and never touches the
/// allocator. All operations are deterministic functions of the recorded
/// values, which lets the determinism suite compare whole histograms built
/// under a logical clock across thread counts.
///
/// [`record`]: LatencyHistogram::record
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Index of the bucket holding `value`.
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        value as usize
    } else {
        let h = 63 - value.leading_zeros(); // floor(log2(value)), >= SUB_BITS
        let sub = (value >> (h - SUB_BITS)) as usize - SUB_COUNT;
        SUB_COUNT + (h - SUB_BITS) as usize * SUB_COUNT + sub
    }
}

/// Inclusive `(lower, upper)` value bounds of bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_COUNT {
        (index as u64, index as u64)
    } else {
        let octave = (index - SUB_COUNT) / SUB_COUNT; // h - SUB_BITS
        let sub = ((index - SUB_COUNT) % SUB_COUNT) as u64;
        let width = 1u64 << octave;
        let lower = (SUB_COUNT as u64 + sub) << octave;
        (lower, lower + (width - 1))
    }
}

impl LatencyHistogram {
    /// An empty histogram. Does not allocate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `value` nanoseconds.
    ///
    /// Allocates the fixed bucket table on the first call; every subsequent
    /// call is a counter increment.
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile: the value at rank `ceil(q · count)`.
    ///
    /// Returns the *upper bound* of the bucket containing that rank, clamped
    /// to the recorded maximum — so the result never under-reports a tail and
    /// over-reports by at most the 1/32 bucket width. Values below
    /// `2^SUB_BITS` are exact. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterate the non-empty buckets as `(upper_bound, count)` pairs in
    /// ascending value order — the shape Prometheus-style exposition wants.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(index, &n)| (bucket_bounds(index).1, n))
    }

    /// Reset to the empty state, releasing the bucket table.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

/// The wire form is sparse — `count, sum, min, max` then the non-empty
/// `(bucket index, count)` pairs — so an idle histogram costs a few bytes
/// instead of 15 KiB. The bucket table is re-allocated dense on decode
/// whenever `count > 0`, matching what [`LatencyHistogram::record`] would
/// have built.
impl Snapshot for LatencyHistogram {
    fn encode(&self, out: &mut Vec<u8>) {
        self.count.encode(out);
        self.sum.encode(out);
        self.min.encode(out);
        self.max.encode(out);
        // a `Vec<(u32, u64)>` on the wire, written without building one
        let nonzero = || self.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
        nonzero().count().encode(out);
        for (index, &n) in nonzero() {
            (index as u32).encode(out);
            n.encode(out);
        }
    }
}

impl Restore for LatencyHistogram {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let count = u64::decode(cur)?;
        let sum = u64::decode(cur)?;
        let min = u64::decode(cur)?;
        let max = u64::decode(cur)?;
        let nonzero = Vec::<(u32, u64)>::decode(cur)?;
        if count == 0 {
            if sum != 0 || !nonzero.is_empty() {
                return Err(SnapshotError::Malformed {
                    context: "empty histogram with nonzero buckets",
                });
            }
            return Ok(Self::default());
        }
        let mut buckets = vec![0u64; BUCKETS];
        let mut total = 0u64;
        let mut last_index = None;
        for (index, n) in nonzero {
            if last_index.is_some_and(|last| index <= last) {
                return Err(SnapshotError::Malformed {
                    context: "histogram bucket indices not strictly increasing",
                });
            }
            last_index = Some(index);
            let slot = buckets
                .get_mut(index as usize)
                .ok_or(SnapshotError::Malformed {
                    context: "histogram bucket index out of range",
                })?;
            *slot = n;
            total = total.saturating_add(n);
        }
        if total != count {
            return Err(SnapshotError::Malformed {
                context: "histogram bucket counts disagree with total",
            });
        }
        Ok(Self {
            buckets,
            count,
            sum,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_in_range_and_bounds_contain_the_value() {
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v.saturating_sub(1), v, v.saturating_add(1), v + v / 3] {
                let index = bucket_index(probe);
                assert!(index < BUCKETS, "index {index} out of range for {probe}");
                let (lower, upper) = bucket_bounds(index);
                assert!(lower <= probe && probe <= upper, "{probe} not in bucket");
            }
        }
        // Monotonicity sweep over a dense low range covering the
        // unit-bucket / octave-bucket boundary.
        let mut last = 0;
        for v in 0..100_000u64 {
            let index = bucket_index(v);
            assert!(index >= last);
            last = index;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut hist = LatencyHistogram::new();
        for v in 0..32u64 {
            hist.record(v);
        }
        assert_eq!(hist.quantile(0.0), 0);
        assert_eq!(hist.quantile(1.0), 31);
        assert_eq!(hist.count(), 32);
        assert_eq!(hist.sum(), (0..32).sum::<u64>());
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut hist = LatencyHistogram::new();
        // A deterministic skewed distribution spanning several octaves.
        let mut values: Vec<u64> = Vec::new();
        let mut x = 37u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            values.push(1 + (x >> 40));
        }
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = hist.quantile(q);
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            let error = (approx - exact) as f64 / exact.max(1) as f64;
            assert!(error <= 1.0 / 32.0 + 1e-9, "q={q}: error {error}");
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in 0..500u64 {
            let scaled = v * v + 17;
            if v % 2 == 0 {
                left.record(scaled);
            } else {
                right.record(scaled);
            }
            both.record(scaled);
        }
        left.merge(&right);
        assert_eq!(left, both);
    }

    #[test]
    fn empty_histogram_reports_zeros_without_allocating() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.p50(), 0);
        assert_eq!(hist.p999(), 0);
        assert_eq!(hist.min(), 0);
        assert_eq!(hist.max(), 0);
        assert!(hist.nonzero_buckets().next().is_none());
    }

    #[test]
    fn max_value_does_not_panic() {
        let mut hist = LatencyHistogram::new();
        hist.record(u64::MAX);
        hist.record(0);
        assert_eq!(hist.max(), u64::MAX);
        assert_eq!(hist.quantile(1.0), u64::MAX);
    }
}
