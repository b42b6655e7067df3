//! The computational task pool used to generate offloading workload.
//!
//! The paper's simulator is "equipped with a pool of 10 independent tasks for
//! creating computational workload" drawn from "common algorithms found in
//! apps, e.g., quicksort, bubblesort" plus the decision-making algorithms
//! named in the introduction (minimax, n-queens). This module provides those
//! ten algorithms with:
//!
//! * a **work model** ([`TaskSpec::work_units`]) — the deterministic number of
//!   abstract work units a task costs, used by the cloud and mobile
//!   simulators to compute execution time, and
//! * a **real implementation** ([`TaskSpec::execute`]) — an actual Rust
//!   implementation that produces a verifiable [`TaskOutput`], so that the
//!   offloading runtime is exercised end-to-end rather than only in the
//!   abstract.
//!
//! One work unit is calibrated to one millisecond on a reference
//! acceleration-level-1 cloud core.

use crate::error::OffloadError;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// The ten algorithms in the workload pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// Game-tree minimax search (the paper's static benchmarking task).
    Minimax,
    /// N-queens backtracking solver.
    NQueens,
    /// Quicksort over a pseudo-random integer array.
    QuickSort,
    /// Bubblesort over a pseudo-random integer array.
    BubbleSort,
    /// Mergesort over a pseudo-random integer array.
    MergeSort,
    /// Iterative Fibonacci with big-number-free modular arithmetic.
    Fibonacci,
    /// Dense matrix multiplication.
    MatrixMultiply,
    /// Sieve of Eratosthenes prime counting.
    PrimeSieve,
    /// 0/1 knapsack dynamic program.
    Knapsack,
    /// Towers of Hanoi move counting (recursive).
    Hanoi,
}

impl TaskKind {
    /// All task kinds, in pool order.
    pub const ALL: [TaskKind; 10] = [
        TaskKind::Minimax,
        TaskKind::NQueens,
        TaskKind::QuickSort,
        TaskKind::BubbleSort,
        TaskKind::MergeSort,
        TaskKind::Fibonacci,
        TaskKind::MatrixMultiply,
        TaskKind::PrimeSieve,
        TaskKind::Knapsack,
        TaskKind::Hanoi,
    ];

    /// Short identifier used in traces and logs.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Minimax => "minimax",
            TaskKind::NQueens => "nqueens",
            TaskKind::QuickSort => "quicksort",
            TaskKind::BubbleSort => "bubblesort",
            TaskKind::MergeSort => "mergesort",
            TaskKind::Fibonacci => "fibonacci",
            TaskKind::MatrixMultiply => "matmul",
            TaskKind::PrimeSieve => "primesieve",
            TaskKind::Knapsack => "knapsack",
            TaskKind::Hanoi => "hanoi",
        }
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-specified computational task: which algorithm and how much input.
///
/// The meaning of `input_size` is algorithm specific (search depth, board
/// size, array length, matrix dimension, …); see [`TaskSpec::work_units`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskSpec {
    /// Which algorithm to run.
    pub kind: TaskKind,
    /// Algorithm-specific input size.
    pub input_size: u32,
}

/// Result of actually executing a task implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskOutput {
    /// The task that produced this output.
    pub spec: TaskSpec,
    /// Algorithm-specific scalar result (e.g. best minimax score, number of
    /// n-queens solutions, checksum of the sorted array).
    pub result: i64,
    /// Number of elementary operations the implementation actually performed;
    /// used in tests to validate the work model's scaling behaviour.
    pub operations: u64,
}

impl TaskSpec {
    /// Creates a task specification.
    pub fn new(kind: TaskKind, input_size: u32) -> Self {
        Self { kind, input_size }
    }

    /// The static minimax task used throughout the paper's evaluation
    /// (acceleration-level characterization and the 8-hour experiment).
    pub fn paper_static_minimax() -> Self {
        Self::new(TaskKind::Minimax, 9)
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::InvalidTask`] if the input size is zero or
    /// large enough to make the work model overflow.
    pub fn validate(&self) -> Result<(), OffloadError> {
        if self.input_size == 0 {
            return Err(OffloadError::InvalidTask {
                reason: "input size must be positive".into(),
            });
        }
        if self.work_units() > 1e12 {
            return Err(OffloadError::InvalidTask {
                reason: format!("task {self:?} exceeds the supported work range"),
            });
        }
        Ok(())
    }

    /// Deterministic cost of the task in abstract work units.
    ///
    /// One work unit is one millisecond on a reference acceleration-level-1
    /// cloud core. The shapes follow the asymptotic complexity of each
    /// algorithm, scaled so that the pool spans roughly 10–1000 work units for
    /// the default input sizes — matching the 10–1000 ms response-time band of
    /// Fig. 4 in the paper.
    pub fn work_units(&self) -> f64 {
        let n = f64::from(self.input_size);
        match self.kind {
            // branching factor 3, depth n
            TaskKind::Minimax => 0.02 * 3f64.powf(n.min(16.0)),
            // roughly n! pruned; use exponential fit
            TaskKind::NQueens => 0.004 * 2.6f64.powf(n.min(14.0)),
            TaskKind::QuickSort => 0.0006 * n * n.max(2.0).log2(),
            TaskKind::BubbleSort => 0.00004 * n * n,
            TaskKind::MergeSort => 0.0005 * n * n.max(2.0).log2(),
            TaskKind::Fibonacci => 0.000_08 * n * n,
            TaskKind::MatrixMultiply => 0.000_02 * n * n * n,
            TaskKind::PrimeSieve => 0.000_25 * n * n.max(2.0).ln().max(1.0),
            TaskKind::Knapsack => 0.000_3 * n * n,
            TaskKind::Hanoi => 0.01 * 2f64.powf(n.min(24.0)),
        }
    }

    /// Size in bytes of the application state transferred when this task is
    /// offloaded under the homogeneous model (input parameters plus captured
    /// method state). The paper assumes transfer size adds no meaningful
    /// overhead over LTE; we keep it small but non-zero so the network model
    /// is exercised.
    pub fn state_bytes(&self) -> usize {
        let n = self.input_size as usize;
        match self.kind {
            TaskKind::Minimax | TaskKind::NQueens | TaskKind::Hanoi | TaskKind::Fibonacci => {
                256 + 16 * n
            }
            TaskKind::QuickSort | TaskKind::BubbleSort | TaskKind::MergeSort => 128 + 4 * n,
            TaskKind::MatrixMultiply => 128 + 8 * n * n,
            TaskKind::PrimeSieve => 64,
            TaskKind::Knapsack => 128 + 8 * n,
        }
    }

    /// Executes the real algorithm and returns its verifiable output.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::InvalidTask`] for specifications rejected by
    /// [`TaskSpec::validate`].
    pub fn execute(&self) -> Result<TaskOutput, OffloadError> {
        self.validate()?;
        let (result, operations) = match self.kind {
            TaskKind::Minimax => minimax(self.input_size.min(12)),
            TaskKind::NQueens => nqueens(self.input_size.min(10)),
            TaskKind::QuickSort => sort_checksum(self.input_size, SortAlgo::Quick),
            TaskKind::BubbleSort => sort_checksum(self.input_size.min(4000), SortAlgo::Bubble),
            TaskKind::MergeSort => sort_checksum(self.input_size, SortAlgo::Merge),
            TaskKind::Fibonacci => fibonacci_mod(self.input_size),
            TaskKind::MatrixMultiply => matmul_checksum(self.input_size.min(220)),
            TaskKind::PrimeSieve => prime_count(self.input_size),
            TaskKind::Knapsack => knapsack(self.input_size.min(4000)),
            TaskKind::Hanoi => hanoi(self.input_size.min(22)),
        };
        Ok(TaskOutput {
            spec: *self,
            result,
            operations,
        })
    }
}

impl fmt::Display for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(n={})", self.kind, self.input_size)
    }
}

/// The pool of tasks the workload simulator draws from.
///
/// The paper's simulator picks a random task from a pool of ten algorithms and
/// a random amount of processing per request (§VI-A-1).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPool {
    tasks: Vec<TaskSpec>,
}

impl TaskPool {
    /// The default ten-task pool with input sizes chosen so that the work
    /// spans roughly 20–130 work units (mean ≈ 65). With that calibration a
    /// single request lands in the 10–100 ms band of Fig. 4 on an unloaded
    /// level-1 instance, and a two-core level-2 instance saturates between
    /// 32 Hz and 64 Hz of offered load, the knee reported in Fig. 8b.
    pub fn paper_default() -> Self {
        Self {
            tasks: vec![
                TaskSpec::new(TaskKind::Minimax, 7),
                TaskSpec::new(TaskKind::NQueens, 9),
                TaskSpec::new(TaskKind::QuickSort, 15_000),
                TaskSpec::new(TaskKind::BubbleSort, 1_200),
                TaskSpec::new(TaskKind::MergeSort, 15_000),
                TaskSpec::new(TaskKind::Fibonacci, 800),
                TaskSpec::new(TaskKind::MatrixMultiply, 120),
                TaskSpec::new(TaskKind::PrimeSieve, 40_000),
                TaskSpec::new(TaskKind::Knapsack, 500),
                TaskSpec::new(TaskKind::Hanoi, 12),
            ],
        }
    }

    /// Creates a pool from explicit tasks.
    pub fn from_tasks(tasks: Vec<TaskSpec>) -> Self {
        Self { tasks }
    }

    /// Creates a pool containing a single task repeated (the "static load"
    /// configuration used for Fig. 5 and the 8-hour experiment).
    pub fn static_load(task: TaskSpec) -> Self {
        Self { tasks: vec![task] }
    }

    /// Number of tasks in the pool.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// All tasks in the pool.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Returns the task at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::UnknownTask`] when `index` is out of range.
    pub fn get(&self, index: usize) -> Result<TaskSpec, OffloadError> {
        self.tasks
            .get(index)
            .copied()
            .ok_or(OffloadError::UnknownTask {
                index,
                pool_size: self.tasks.len(),
            })
    }

    /// Draws a uniformly random task, with a random processing scale applied
    /// to the input (the paper draws both the task and its processing amount
    /// at random).
    ///
    /// For the polynomial-cost algorithms the input size is scaled by
    /// 50 %–150 %; the exponential-cost algorithms (minimax, n-queens, Hanoi)
    /// keep their configured depth, because a ±50 % depth change would swing
    /// the work by several orders of magnitude and no real application varies
    /// its search depth per call.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> TaskSpec {
        let base = *self.tasks.choose(rng).expect("task pool must not be empty");
        match base.kind {
            TaskKind::Minimax | TaskKind::NQueens | TaskKind::Hanoi => base,
            _ => {
                // Scale the input by 50%–150% to model the random amount of
                // processing required per request.
                let scale = rng.gen_range(0.5..1.5);
                let size = ((f64::from(base.input_size) * scale).round() as u32).max(1);
                TaskSpec::new(base.kind, size)
            }
        }
    }

    /// Mean work units across the pool (with unscaled inputs).
    pub fn mean_work_units(&self) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.tasks.iter().map(TaskSpec::work_units).sum::<f64>() / self.tasks.len() as f64
    }
}

impl Default for TaskPool {
    fn default() -> Self {
        Self::paper_default()
    }
}

// ----------------------------------------------------------------------------
// Real algorithm implementations
// ----------------------------------------------------------------------------

enum SortAlgo {
    Quick,
    Bubble,
    Merge,
}

/// Deterministic xorshift generator so task outputs are reproducible without
/// threading an RNG through the execution path.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn minimax(depth: u32) -> (i64, u64) {
    // Minimax over a synthetic ternary game tree with deterministic leaf
    // scores. Returns the root minimax value and the number of visited nodes.
    fn search(node: u64, depth: u32, maximizing: bool, ops: &mut u64) -> i64 {
        *ops += 1;
        if depth == 0 {
            // deterministic leaf score in [-50, 50]
            return ((node.wrapping_mul(2654435761) >> 16) % 101) as i64 - 50;
        }
        let mut best = if maximizing { i64::MIN } else { i64::MAX };
        for child in 0..3u64 {
            let v = search(
                node.wrapping_mul(31).wrapping_add(child),
                depth - 1,
                !maximizing,
                ops,
            );
            best = if maximizing { best.max(v) } else { best.min(v) };
        }
        best
    }
    let mut ops = 0;
    let score = search(1, depth, true, &mut ops);
    (score, ops)
}

fn nqueens(n: u32) -> (i64, u64) {
    fn place(row: u32, n: u32, cols: u32, diag1: u64, diag2: u64, ops: &mut u64) -> u64 {
        *ops += 1;
        if row == n {
            return 1;
        }
        let mut count = 0;
        for col in 0..n {
            let d1 = (row + col) as u64;
            let d2 = (row + n - col) as u64;
            if cols & (1 << col) == 0 && diag1 & (1 << d1) == 0 && diag2 & (1 << d2) == 0 {
                count += place(
                    row + 1,
                    n,
                    cols | (1 << col),
                    diag1 | (1 << d1),
                    diag2 | (1 << d2),
                    ops,
                );
            }
        }
        count
    }
    let mut ops = 0;
    let solutions = place(0, n, 0, 0, 0, &mut ops);
    (solutions as i64, ops)
}

fn random_array(len: u32) -> Vec<i64> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| (xorshift(&mut state) % 1_000_000) as i64)
        .collect()
}

fn sort_checksum(len: u32, algo: SortAlgo) -> (i64, u64) {
    let mut data = random_array(len);
    let mut ops: u64 = 0;
    match algo {
        SortAlgo::Quick => {
            // Lomuto partition with a middle pivot; the pivot is excluded from
            // both recursive calls so the recursion always terminates.
            fn quicksort(a: &mut [i64], ops: &mut u64) {
                if a.len() <= 1 {
                    return;
                }
                let last = a.len() - 1;
                a.swap(a.len() / 2, last);
                let pivot = a[last];
                let mut store = 0usize;
                for i in 0..last {
                    *ops += 1;
                    if a[i] < pivot {
                        a.swap(i, store);
                        store += 1;
                    }
                }
                a.swap(store, last);
                let (left, right) = a.split_at_mut(store);
                quicksort(left, ops);
                quicksort(&mut right[1..], ops);
            }
            quicksort(&mut data, &mut ops);
        }
        SortAlgo::Bubble => {
            let n = data.len();
            for i in 0..n {
                for j in 0..n.saturating_sub(i + 1) {
                    ops += 1;
                    if data[j] > data[j + 1] {
                        data.swap(j, j + 1);
                    }
                }
            }
        }
        SortAlgo::Merge => {
            fn mergesort(a: &[i64], ops: &mut u64) -> Vec<i64> {
                if a.len() <= 1 {
                    return a.to_vec();
                }
                let mid = a.len() / 2;
                let left = mergesort(&a[..mid], ops);
                let right = mergesort(&a[mid..], ops);
                let mut out = Vec::with_capacity(a.len());
                let (mut i, mut j) = (0, 0);
                while i < left.len() && j < right.len() {
                    *ops += 1;
                    if left[i] <= right[j] {
                        out.push(left[i]);
                        i += 1;
                    } else {
                        out.push(right[j]);
                        j += 1;
                    }
                }
                out.extend_from_slice(&left[i..]);
                out.extend_from_slice(&right[j..]);
                out
            }
            data = mergesort(&data, &mut ops);
        }
    }
    debug_assert!(
        data.windows(2).all(|w| w[0] <= w[1]),
        "sorted output must be ordered"
    );
    // Order-sensitive checksum of the sorted array.
    let checksum = data.iter().enumerate().fold(0i64, |acc, (i, &v)| {
        acc.wrapping_mul(31).wrapping_add(v ^ i as i64)
    });
    (checksum, ops)
}

fn fibonacci_mod(n: u32) -> (i64, u64) {
    const MODULUS: u64 = 1_000_000_007;
    let (mut a, mut b) = (0u64, 1u64);
    let mut ops = 0;
    for _ in 0..n {
        let next = (a + b) % MODULUS;
        a = b;
        b = next;
        ops += 1;
    }
    (a as i64, ops)
}

fn matmul_checksum(n: u32) -> (i64, u64) {
    let n = n as usize;
    let mut state = 42u64;
    let a: Vec<i64> = (0..n * n)
        .map(|_| (xorshift(&mut state) % 100) as i64)
        .collect();
    let b: Vec<i64> = (0..n * n)
        .map(|_| (xorshift(&mut state) % 100) as i64)
        .collect();
    let mut c = vec![0i64; n * n];
    let mut ops = 0u64;
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
                ops += 1;
            }
        }
    }
    let checksum = c
        .iter()
        .fold(0i64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v));
    (checksum, ops)
}

fn prime_count(limit: u32) -> (i64, u64) {
    let limit = limit as usize;
    let mut sieve = vec![true; limit + 1];
    let mut ops = 0u64;
    if limit >= 1 {
        sieve[0] = false;
        if limit >= 1 {
            sieve[1] = false;
        }
    }
    let mut i = 2usize;
    while i * i <= limit {
        if sieve[i] {
            let mut j = i * i;
            while j <= limit {
                sieve[j] = false;
                ops += 1;
                j += i;
            }
        }
        i += 1;
    }
    let count = sieve.iter().filter(|&&p| p).count();
    (count as i64, ops.max(1))
}

fn knapsack(n: u32) -> (i64, u64) {
    // 0/1 knapsack with n items of deterministic weights/values, capacity n/2.
    let n = n as usize;
    let capacity = n / 2 + 1;
    let mut state = 7u64;
    let weights: Vec<usize> = (0..n)
        .map(|_| (xorshift(&mut state) % 10 + 1) as usize)
        .collect();
    let values: Vec<i64> = (0..n)
        .map(|_| (xorshift(&mut state) % 100 + 1) as i64)
        .collect();
    let mut dp = vec![0i64; capacity + 1];
    let mut ops = 0u64;
    for i in 0..n {
        for w in (weights[i]..=capacity).rev() {
            dp[w] = dp[w].max(dp[w - weights[i]] + values[i]);
            ops += 1;
        }
    }
    (dp[capacity], ops.max(1))
}

fn hanoi(n: u32) -> (i64, u64) {
    fn solve(n: u32, ops: &mut u64) {
        if n == 0 {
            return;
        }
        solve(n - 1, ops);
        *ops += 1;
        solve(n - 1, ops);
    }
    let mut ops = 0;
    solve(n, &mut ops);
    (ops as i64, ops.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pool_has_ten_tasks() {
        let pool = TaskPool::paper_default();
        assert_eq!(pool.len(), 10);
        assert!(!pool.is_empty());
        let kinds: std::collections::HashSet<_> = pool.tasks().iter().map(|t| t.kind).collect();
        assert_eq!(kinds.len(), 10, "all pool tasks use distinct algorithms");
    }

    #[test]
    fn default_pool_work_in_expected_band() {
        // Individual pool tasks stay light (tens of work units) so that an
        // unloaded level-1 instance answers within the 10–200 ms band of
        // Fig. 4, and the pool mean sits near 65 work units so that a
        // two-core level-2 instance saturates between 32 and 64 Hz (Fig. 8b).
        let pool = TaskPool::paper_default();
        for t in pool.tasks() {
            let w = t.work_units();
            assert!(w > 5.0 && w < 200.0, "{t} has work {w}");
        }
        let mean = pool.mean_work_units();
        assert!(mean > 40.0 && mean < 90.0, "pool mean work {mean}");
    }

    #[test]
    fn work_units_monotone_in_input_size() {
        for kind in TaskKind::ALL {
            let small = TaskSpec::new(kind, 6).work_units();
            let large = TaskSpec::new(kind, 12).work_units();
            assert!(large > small, "{kind}: {large} <= {small}");
        }
    }

    #[test]
    fn zero_input_rejected() {
        let err = TaskSpec::new(TaskKind::QuickSort, 0).execute().unwrap_err();
        assert!(matches!(err, OffloadError::InvalidTask { .. }));
    }

    #[test]
    fn nqueens_known_solution_counts() {
        assert_eq!(
            TaskSpec::new(TaskKind::NQueens, 4)
                .execute()
                .unwrap()
                .result,
            2
        );
        assert_eq!(
            TaskSpec::new(TaskKind::NQueens, 6)
                .execute()
                .unwrap()
                .result,
            4
        );
        assert_eq!(
            TaskSpec::new(TaskKind::NQueens, 8)
                .execute()
                .unwrap()
                .result,
            92
        );
    }

    #[test]
    fn fibonacci_known_values() {
        assert_eq!(
            TaskSpec::new(TaskKind::Fibonacci, 10)
                .execute()
                .unwrap()
                .result,
            55
        );
        assert_eq!(
            TaskSpec::new(TaskKind::Fibonacci, 20)
                .execute()
                .unwrap()
                .result,
            6765
        );
    }

    #[test]
    fn prime_counts_are_correct() {
        assert_eq!(
            TaskSpec::new(TaskKind::PrimeSieve, 10)
                .execute()
                .unwrap()
                .result,
            4
        );
        assert_eq!(
            TaskSpec::new(TaskKind::PrimeSieve, 100)
                .execute()
                .unwrap()
                .result,
            25
        );
        assert_eq!(
            TaskSpec::new(TaskKind::PrimeSieve, 1000)
                .execute()
                .unwrap()
                .result,
            168
        );
    }

    #[test]
    fn hanoi_move_count_is_exact() {
        assert_eq!(
            TaskSpec::new(TaskKind::Hanoi, 5).execute().unwrap().result,
            31
        );
        assert_eq!(
            TaskSpec::new(TaskKind::Hanoi, 10).execute().unwrap().result,
            1023
        );
    }

    #[test]
    fn sorting_algorithms_agree_on_checksum() {
        let quick = TaskSpec::new(TaskKind::QuickSort, 2000).execute().unwrap();
        let merge = TaskSpec::new(TaskKind::MergeSort, 2000).execute().unwrap();
        let bubble = TaskSpec::new(TaskKind::BubbleSort, 2000).execute().unwrap();
        assert_eq!(quick.result, merge.result);
        assert_eq!(quick.result, bubble.result);
    }

    #[test]
    fn execution_is_deterministic() {
        let a = TaskSpec::new(TaskKind::MatrixMultiply, 50)
            .execute()
            .unwrap();
        let b = TaskSpec::new(TaskKind::MatrixMultiply, 50)
            .execute()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn minimax_score_within_leaf_range() {
        let out = TaskSpec::new(TaskKind::Minimax, 6).execute().unwrap();
        assert!(out.result >= -50 && out.result <= 50);
        // ternary tree of depth 6 visits (3^7 - 1) / 2 = 1093 nodes
        assert_eq!(out.operations, 1093);
    }

    #[test]
    fn operations_scale_with_input() {
        let small = TaskSpec::new(TaskKind::Knapsack, 100)
            .execute()
            .unwrap()
            .operations;
        let large = TaskSpec::new(TaskKind::Knapsack, 400)
            .execute()
            .unwrap()
            .operations;
        assert!(
            large > 4 * small,
            "knapsack ops should scale super-linearly: {small} {large}"
        );
    }

    #[test]
    fn pool_draw_scales_input() {
        let pool = TaskPool::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let t = pool.draw(&mut rng);
            assert!(t.input_size >= 1);
            let base = pool.tasks().iter().find(|b| b.kind == t.kind).unwrap();
            let ratio = f64::from(t.input_size) / f64::from(base.input_size);
            assert!(ratio > 0.45 && ratio < 1.55, "ratio {ratio}");
        }
    }

    #[test]
    fn static_pool_always_draws_same_kind() {
        let pool = TaskPool::static_load(TaskSpec::paper_static_minimax());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(pool.draw(&mut rng).kind, TaskKind::Minimax);
        }
    }

    #[test]
    fn pool_get_out_of_range() {
        let pool = TaskPool::paper_default();
        assert!(pool.get(3).is_ok());
        assert!(matches!(
            pool.get(99),
            Err(OffloadError::UnknownTask {
                index: 99,
                pool_size: 10
            })
        ));
    }

    #[test]
    fn state_bytes_positive_and_scale() {
        for kind in TaskKind::ALL {
            let small = TaskSpec::new(kind, 10).state_bytes();
            assert!(small > 0);
        }
        assert!(
            TaskSpec::new(TaskKind::QuickSort, 1000).state_bytes()
                > TaskSpec::new(TaskKind::QuickSort, 10).state_bytes()
        );
    }
}
