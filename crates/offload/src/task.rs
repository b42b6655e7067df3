//! The computational task pool used to generate offloading workload.
//!
//! The paper's simulator is "equipped with a pool of 10 independent tasks for
//! creating computational workload" drawn from "common algorithms found in
//! apps, e.g., quicksort, bubblesort" plus the decision-making algorithms
//! named in the introduction (minimax, n-queens). This module names those
//! ten algorithms and gives each a **work model** ([`TaskSpec::work_units`]):
//! the deterministic number of abstract work units a task costs, from which
//! the cloud simulator computes execution time.
//!
//! One work unit is calibrated to one millisecond on a reference
//! acceleration-level-1 cloud core.

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
    /// Iterative Fibonacci.
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
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
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
        })
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
