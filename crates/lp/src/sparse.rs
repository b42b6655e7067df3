//! Sparse revised simplex over a shared CSR/CSC problem representation.
//!
//! A dense tableau (the oracle this crate's tests compare against,
//! `simplex.rs`) rebuilds an `m × n` matrix per branch-and-bound node and
//! turns every variable bound into an extra row. This module keeps the
//! problem in **bounded-variable standard form** instead:
//!
//! * one [`SparseProblem`] is compiled per [`Problem`] — or once for a whole
//!   family of problems that differ in their right-hand sides only
//!   ([`SparseProblem::solve_with_rhs`]) — and shared, immutable, by every
//!   branch-and-bound node (CSR rows for activities, CSC columns for
//!   pricing, the integer set for branching),
//! * variable bounds — including the single-variable bounds branch-and-bound
//!   imposes — are handled natively by the simplex instead of as rows, so
//!   the basis dimension is the number of structural constraints only,
//! * the basis inverse is maintained in factorized form (dense inverse of
//!   the refactorization point plus product-form eta updates) rather than by
//!   full tableau pivots,
//! * the optimal [`Basis`] of a node **warm-starts** the solve of a
//!   neighbouring problem (same rows, tighter bounds) through dual-simplex
//!   re-entry, skipping phase 1 entirely, and
//! * every buffer the iterations touch lives in one [`Workspace`] that a
//!   branch-and-bound search reuses from node to node: a pivot allocates
//!   nothing.
//!
//! Entering/leaving choices use Bland's smallest-index rule throughout, as
//! the dense oracle does, which guarantees termination of the primal
//! iterations and keeps every run deterministic.

use crate::branch_bound::{self, MAX_NODES};
use crate::error::LpError;
use crate::model::{Objective, Problem, Sense, Solution, VarKind};
use crate::VarId;

const TOL: f64 = 1e-9;
/// Phase-1 infeasibility threshold — identical to the dense oracle's.
const PHASE1_TOL: f64 = 1e-7;
const INF: f64 = f64::INFINITY;

/// Where a column currently sits relative to the basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColState {
    /// In the basis; its value is determined by the basic solve.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
}

/// A basis of the bounded-variable simplex: which column is basic in each
/// row, plus the bound each nonbasic column rests on.
///
/// The optimal `Basis` of a node warm-starts its branch-and-bound children —
/// the same problem with one variable bound tightened: the solver re-enters
/// through the dual simplex from this basis instead of running phase 1.
///
/// A `Basis` is a **per-solve** artifact and is deliberately not part of
/// the durable-session wire format (`docs/snapshot.md`): restored fleets
/// rebuild their warm starts from the memoized allocation inputs on the
/// next solve, so serializing the basis would pin the solver's internals
/// into the snapshot version for no resume benefit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Basis {
    /// Basic column per row, `basic[i]` is the column basic in row `i`.
    basic: Vec<usize>,
    /// State of every persistent column (structural then slack).
    state: Vec<ColState>,
}

/// The optimal basis of a branching node beside its dense inverse. Both
/// children re-enter from the same basis, and the inverse is a pure function
/// of the basic column list, so it is factorized once and copied twice.
#[derive(Debug)]
pub(crate) struct WarmStart {
    basis: Basis,
    /// Row-major `B⁻¹` of `basis`, as [`Workspace::refactorize`] builds it.
    binv: Vec<f64>,
}

/// How one relaxation ended inside a [`Workspace`]: the optimal values stay
/// in [`Workspace::values`] and the basis in the workspace, to be copied out
/// only by a caller that needs them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Relaxed {
    Optimal {
        /// Objective value in the original problem's direction.
        objective: f64,
        pivots: usize,
        /// Whether the warm dual-simplex re-entry completed the solve (not
        /// so for a cold solve, the cold fallback of a stalled one included).
        warm_started: bool,
    },
    Infeasible,
    Unbounded,
}

/// A [`Problem`] compiled into sparse bounded-variable form, shared by every
/// branch-and-bound node: CSR rows, CSC columns, per-column bounds,
/// minimization costs and the integer set. Columns are `[structural | one
/// slack per row]`; a row's sense is encoded in its slack's bounds (`<=` →
/// `[0, ∞)`, `>=` → `(-∞, 0]`, `==` → `[0, 0]`), so negative right-hand
/// sides need no normalization pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseProblem {
    n_struct: usize,
    m: usize,
    /// CSR over structural entries.
    row_starts: Vec<usize>,
    row_cols: Vec<usize>,
    row_vals: Vec<f64>,
    /// CSC over structural entries.
    col_starts: Vec<usize>,
    col_rows: Vec<usize>,
    col_vals: Vec<f64>,
    rhs: Vec<f64>,
    /// Minimization-direction cost per structural column.
    cost: Vec<f64>,
    /// Original-direction objective per structural column (reporting).
    objective: Vec<f64>,
    /// Base bounds per column (structural + slack).
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Structural columns that must take integer values.
    integers: Vec<usize>,
    maximize: bool,
    /// Pivots per relaxation (20,000) and nodes per search ([`MAX_NODES`]);
    /// only the crate's tests set anything else.
    max_iterations: usize,
    pub(crate) max_nodes: usize,
}

impl SparseProblem {
    /// Builds the shared sparse representation of `problem`, which
    /// [`Problem::compile`] — the one way in from outside the crate — has
    /// validated: every [`VarId`] the problem's own, every number finite.
    pub(crate) fn from_problem(problem: &Problem) -> Self {
        let n = problem.num_vars();
        let m = problem.constraints().len();
        let maximize = problem.objective_sense() == Objective::Maximize;

        let mut row_starts = Vec::with_capacity(m + 1);
        let mut row_cols = Vec::new();
        let mut row_vals = Vec::new();
        let mut rhs = Vec::with_capacity(m);
        row_starts.push(0);
        for c in problem.constraints() {
            for (v, a) in c.expr.iter() {
                if a != 0.0 {
                    row_cols.push(v.index());
                    row_vals.push(a);
                }
            }
            row_starts.push(row_cols.len());
            rhs.push(c.rhs);
        }

        // transpose CSR → CSC
        let mut col_counts = vec![0usize; n];
        for &j in &row_cols {
            col_counts[j] += 1;
        }
        let mut col_starts = vec![0usize; n + 1];
        for j in 0..n {
            col_starts[j + 1] = col_starts[j] + col_counts[j];
        }
        let mut cursor = col_starts.clone();
        let mut col_rows = vec![0usize; row_cols.len()];
        let mut col_vals = vec![0.0f64; row_cols.len()];
        for i in 0..m {
            for k in row_starts[i]..row_starts[i + 1] {
                let j = row_cols[k];
                col_rows[cursor[j]] = i;
                col_vals[cursor[j]] = row_vals[k];
                cursor[j] += 1;
            }
        }

        let objective: Vec<f64> = problem.variables().iter().map(|v| v.objective).collect();
        let cost: Vec<f64> = objective
            .iter()
            .map(|&c| if maximize { -c } else { c })
            .collect();
        let mut lower: Vec<f64> = problem.variables().iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = problem
            .variables()
            .iter()
            .map(|v| v.upper.unwrap_or(INF))
            .collect();
        for c in problem.constraints() {
            let (lo, up) = match c.sense {
                Sense::Le => (0.0, INF),
                Sense::Ge => (-INF, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(up);
        }
        let integers = problem
            .variables()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Integer)
            .map(|(j, _)| j)
            .collect();

        Self {
            n_struct: n,
            m,
            row_starts,
            row_cols,
            row_vals,
            col_starts,
            col_rows,
            col_vals,
            rhs,
            cost,
            objective,
            lower,
            upper,
            integers,
            maximize,
            max_iterations: 20_000,
            max_nodes: MAX_NODES,
        }
    }

    /// A pivot budget small enough to stall a warm re-entry.
    #[cfg(test)]
    pub(crate) fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = iterations;
        self
    }

    /// A node budget small enough to reach [`LpError::NodeLimit`].
    #[cfg(test)]
    pub(crate) fn with_max_nodes(mut self, nodes: usize) -> Self {
        self.max_nodes = nodes;
        self
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.n_struct
    }

    /// Number of constraint rows (= basis dimension).
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Persistent column count (structural + slack).
    fn ncols(&self) -> usize {
        self.n_struct + self.m
    }

    /// Structural columns that must take integer values, ascending.
    pub(crate) fn integers(&self) -> &[usize] {
        &self.integers
    }

    /// Whether the compiled problem maximizes.
    pub(crate) fn maximizes(&self) -> bool {
        self.maximize
    }

    /// Objective of `values` in the original problem's direction.
    pub(crate) fn objective_value(&self, values: &[f64]) -> f64 {
        dot(&self.objective, values)
    }

    /// Solves the compiled problem, integer variables included, with the
    /// right-hand side of each listed `(row, value)` replaced — rows count
    /// in [`Problem::add_constraint`] order. A caller that re-solves one
    /// structure under changing demands compiles once and pays neither the
    /// rebuild nor the re-validation per solve: the outcome is the one a
    /// [`Problem`] freshly built with those right-hand sides would return,
    /// to the bit and to the pivot.
    ///
    /// # Errors
    ///
    /// As [`Problem::solve`]; [`LpError::UnknownRow`] for a row the problem
    /// does not have and [`LpError::NonFiniteInput`] for a non-finite value.
    pub fn solve_with_rhs(&self, rhs: &[(usize, f64)]) -> Result<Solution, LpError> {
        branch_bound::solve(self, rhs, &mut Workspace::default())
    }

    /// Entries of persistent or artificial column `j`: the CSC slice of a
    /// structural column, the unit entry of a slack, or the signed unit
    /// entry of artificial `j - ncols` (`art_signs[k]` in row `art_rows[k]`).
    fn col_entries<'a>(
        &'a self,
        art_rows: &[usize],
        art_signs: &[f64],
        j: usize,
    ) -> ColEntries<'a> {
        if j < self.n_struct {
            ColEntries::Struct {
                rows: &self.col_rows[self.col_starts[j]..self.col_starts[j + 1]],
                vals: &self.col_vals[self.col_starts[j]..self.col_starts[j + 1]],
                at: 0,
            }
        } else if j < self.ncols() {
            ColEntries::Unit {
                row: j - self.n_struct,
                sign: 1.0,
                done: false,
            }
        } else {
            ColEntries::Unit {
                row: art_rows[j - self.ncols()],
                sign: art_signs[j - self.ncols()],
                done: false,
            }
        }
    }
}

/// Iterator over the `(row, value)` entries of one column.
enum ColEntries<'a> {
    Struct {
        rows: &'a [usize],
        vals: &'a [f64],
        at: usize,
    },
    Unit {
        row: usize,
        sign: f64,
        done: bool,
    },
}

impl Iterator for ColEntries<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            ColEntries::Struct { rows, vals, at } => {
                let i = *at;
                if i < rows.len() {
                    *at = i + 1;
                    Some((rows[i], vals[i]))
                } else {
                    None
                }
            }
            ColEntries::Unit { row, sign, done } => {
                if *done {
                    None
                } else {
                    *done = true;
                    Some((*row, *sign))
                }
            }
        }
    }
}

/// How the primal iterations ended.
enum PrimalEnd {
    Optimal,
    Unbounded,
}

/// How the dual iterations ended.
enum DualEnd {
    Optimal,
    Infeasible,
    /// Iteration budget hit before primal feasibility — caller restarts cold.
    Stalled,
}

/// Every buffer the revised simplex works in: the solve's right-hand sides,
/// the node's bounds, values and basis, the factorized inverse and the
/// iteration scratch. One workspace serves every node of a branch-and-bound
/// search, and may go on to serve the next search over a problem of any
/// other shape: each buffer is sized by [`begin`](Self::begin) or rewritten
/// in full before it is read, so nothing carries over but capacity.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Right-hand sides of the solve in progress: the compiled problem's,
    /// with the caller's replacements applied.
    rhs: Vec<f64>,
    /// Bounds of the node in progress, per persistent column; a cold solve
    /// appends its artificial columns to these and to `x` and `state`.
    lower: Vec<f64>,
    upper: Vec<f64>,
    x: Vec<f64>,
    state: Vec<ColState>,
    basic: Vec<usize>,
    /// Artificial k is column `ncols + k`: a single `art_signs[k]` entry in
    /// row `art_rows[k]`.
    art_rows: Vec<usize>,
    art_signs: Vec<f64>,
    /// Dense inverse of the basis at the last refactorization, row-major.
    binv: Vec<f64>,
    /// Gauss-Jordan scratch: the basis matrix being reduced and the inverse
    /// being built, swapped into `binv` only when the reduction succeeds.
    gj_basis: Vec<f64>,
    gj_inverse: Vec<f64>,
    /// Product-form eta updates applied since the last refactorization:
    /// update `k` pivoted on row `eta_rows[k]` with the direction vector
    /// `eta_vals[k * m..(k + 1) * m]`.
    eta_rows: Vec<usize>,
    eta_vals: Vec<f64>,
    /// `m`-vectors: the input of a transform (`c_B`, a unit vector, a dense
    /// column, a residual), the duals `y`, the pricing row `ρ` and the
    /// direction `w`.
    input: Vec<f64>,
    y: Vec<f64>,
    rho: Vec<f64>,
    w: Vec<f64>,
    /// Cost vector of the phase in progress, over all current columns.
    cost: Vec<f64>,
    /// Cleaned structural values of the last optimal relaxation.
    pub(crate) values: Vec<f64>,
    pivots: usize,
    iters: usize,
}

/// Clears `v` and refills it with `len` copies of `value`, within capacity
/// once the workspace is warm.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// Clears `v` and refills it from `source`.
fn reload<T: Clone>(v: &mut Vec<T>, source: &[T]) {
    v.clear();
    v.extend_from_slice(source);
}

impl Workspace {
    /// Opens a solve of `sp` with the listed right-hand sides replaced, and
    /// sizes the buffers whose shape only the problem decides.
    ///
    /// # Errors
    ///
    /// [`LpError::UnknownRow`] and [`LpError::NonFiniteInput`], see
    /// [`SparseProblem::solve_with_rhs`].
    pub(crate) fn begin(
        &mut self,
        sp: &SparseProblem,
        rhs: &[(usize, f64)],
    ) -> Result<(), LpError> {
        reload(&mut self.rhs, &sp.rhs);
        for &(row, value) in rhs {
            if !value.is_finite() {
                return Err(LpError::NonFiniteInput {
                    what: format!("right-hand side of row {row}"),
                });
            }
            *self
                .rhs
                .get_mut(row)
                .ok_or(LpError::UnknownRow { index: row })? = value;
        }
        let m = sp.m;
        for v in [&mut self.input, &mut self.y, &mut self.rho, &mut self.w] {
            refill(v, m, 0.0);
        }
        for v in [&mut self.binv, &mut self.gj_basis, &mut self.gj_inverse] {
            refill(v, m * m, 0.0);
        }
        self.eta_rows.clear();
        self.eta_vals.clear();
        self.eta_vals.reserve((Self::eta_limit(m) + 1) * m);
        Ok(())
    }

    /// Eta updates tolerated before the inverse is rebuilt.
    fn eta_limit(m: usize) -> usize {
        (2 * m).max(20)
    }

    /// Solves one relaxation of `sp` under the extra single-variable
    /// `bounds` (`var sense rhs`), warm from a basis — and its inverse, when
    /// the caller kept one — or cold. A warm attempt that stalls, or whose
    /// basis is singular, restarts cold on the same bounds.
    ///
    /// # Errors
    ///
    /// [`LpError::IterationLimit`] when the cold solve exhausts its pivot
    /// budget, [`LpError::Numerical`] when the arithmetic broke down.
    pub(crate) fn relax(
        &mut self,
        sp: &SparseProblem,
        bounds: impl Iterator<Item = (VarId, Sense, f64)>,
        warm: Option<(&Basis, Option<&[f64]>)>,
    ) -> Result<Relaxed, LpError> {
        if !self.load_bounds(sp, bounds) {
            return Ok(Relaxed::Infeasible);
        }
        if sp.m == 0 {
            return Ok(self.solve_unconstrained(sp));
        }
        if let Some((basis, binv)) = warm {
            debug_assert_eq!(basis.basic.len(), sp.m);
            debug_assert_eq!(basis.state.len(), sp.ncols());
            if self.start_warm(sp, basis, binv) {
                if let Some(end) = self.run_warm(sp)? {
                    return Ok(end);
                }
            }
        }
        self.start_cold(sp)?;
        self.run_cold(sp)
    }

    /// Writes the node's effective per-column bounds: the problem's, with
    /// `extra` applied. `false` when a variable's bounds cross (immediately
    /// infeasible).
    fn load_bounds(
        &mut self,
        sp: &SparseProblem,
        extra: impl Iterator<Item = (VarId, Sense, f64)>,
    ) -> bool {
        reload(&mut self.lower, &sp.lower);
        reload(&mut self.upper, &sp.upper);
        for (var, sense, rhs) in extra {
            let j = var.index();
            match sense {
                Sense::Le => self.upper[j] = self.upper[j].min(rhs),
                Sense::Ge => self.lower[j] = self.lower[j].max(rhs),
                Sense::Eq => {
                    self.lower[j] = self.lower[j].max(rhs);
                    self.upper[j] = self.upper[j].min(rhs);
                }
            }
        }
        !self
            .lower
            .iter()
            .zip(&self.upper)
            .any(|(&l, &u)| l > u + TOL)
    }

    /// Optimum of a problem with no rows: every variable sits on the bound
    /// its cost prefers.
    fn solve_unconstrained(&mut self, sp: &SparseProblem) -> Relaxed {
        self.basic.clear();
        self.state.clear();
        self.values.clear();
        for j in 0..sp.n_struct {
            if sp.cost[j] < -TOL {
                if self.upper[j] == INF {
                    return Relaxed::Unbounded;
                }
                self.values.push(self.upper[j]);
                self.state.push(ColState::AtUpper);
            } else {
                self.values.push(self.lower[j]);
                self.state.push(ColState::AtLower);
            }
        }
        for v in &mut self.values {
            if v.abs() < TOL {
                *v = 0.0;
            }
        }
        Relaxed::Optimal {
            objective: dot(&sp.objective, &self.values),
            pivots: 0,
            warm_started: false,
        }
    }

    /// Cold start on the loaded bounds: structural columns at their lower
    /// bound, slack basis, one artificial per row whose slack start violates
    /// the slack bounds.
    fn start_cold(&mut self, sp: &SparseProblem) -> Result<(), LpError> {
        let ncols = sp.ncols();
        debug_assert_eq!(self.lower.len(), ncols);
        refill(&mut self.x, ncols, 0.0);
        refill(&mut self.state, ncols, ColState::AtLower);
        self.x[..sp.n_struct].copy_from_slice(&self.lower[..sp.n_struct]);
        // slack start: d_i = rhs_i - A_i·x
        let d = &mut self.input;
        d.copy_from_slice(&self.rhs);
        for (i, di) in d.iter_mut().enumerate() {
            for k in sp.row_starts[i]..sp.row_starts[i + 1] {
                *di -= sp.row_vals[k] * self.x[sp.row_cols[k]];
            }
        }
        self.basic.clear();
        self.art_rows.clear();
        self.art_signs.clear();
        for (i, &di) in d.iter().enumerate() {
            let s = sp.n_struct + i;
            if di >= self.lower[s] - TOL && di <= self.upper[s] + TOL {
                // slack basic at its start value
                self.state[s] = ColState::Basic;
                self.x[s] = di;
                self.basic.push(s);
            } else {
                // slack rests on its nearest bound, an artificial column
                // carries the violation into the basis
                let clamped = di.clamp(self.lower[s], self.upper[s]);
                self.state[s] = if di < self.lower[s] {
                    ColState::AtLower
                } else {
                    ColState::AtUpper
                };
                self.x[s] = clamped;
                let sign = if di > clamped { 1.0 } else { -1.0 };
                self.basic.push(ncols + self.art_rows.len());
                self.art_rows.push(i);
                self.art_signs.push(sign);
                self.lower.push(0.0);
                self.upper.push(INF);
                self.x.push((di - clamped) * sign);
            }
        }
        self.state.resize(self.x.len(), ColState::Basic);
        self.pivots = 0;
        self.iters = 0;
        self.factorize_start(sp)
    }

    /// Factorizes the start basis of a cold solve. It is a signed identity
    /// by construction, so a singular one is broken arithmetic, not a
    /// property of the problem.
    fn factorize_start(&mut self, sp: &SparseProblem) -> Result<(), LpError> {
        if self.refactorize(sp) {
            Ok(())
        } else {
            Err(LpError::Numerical {
                context: "singular start basis",
            })
        }
    }

    /// Warm start on the loaded bounds from a prior basis; `binv` is that
    /// basis's inverse when the caller already factorized it. Returns
    /// `false` when the basis matrix is singular.
    fn start_warm(&mut self, sp: &SparseProblem, basis: &Basis, binv: Option<&[f64]>) -> bool {
        let ncols = sp.ncols();
        refill(&mut self.x, ncols, 0.0);
        for j in 0..ncols {
            match basis.state[j] {
                ColState::Basic => {}
                ColState::AtLower => self.x[j] = self.lower[j],
                ColState::AtUpper => self.x[j] = self.upper[j],
            }
        }
        reload(&mut self.state, &basis.state);
        reload(&mut self.basic, &basis.basic);
        self.art_rows.clear();
        self.art_signs.clear();
        self.pivots = 0;
        self.iters = 0;
        match binv {
            Some(binv) => {
                self.binv.copy_from_slice(binv);
                self.eta_rows.clear();
                self.eta_vals.clear();
            }
            None => {
                if !self.refactorize(sp) {
                    return false;
                }
            }
        }
        self.compute_basics(sp);
        true
    }

    /// The optimal basis just reached together with its inverse, for the
    /// children of a branching node; the workspace's own factorization is
    /// spent on it. `None` when an artificial column stayed basic or the
    /// basis does not factorize: the children then solve cold.
    pub(crate) fn warm_start(&mut self, sp: &SparseProblem) -> Option<WarmStart> {
        let basis = self.basis(sp)?;
        if sp.m > 0 && !self.refactorize(sp) {
            return None;
        }
        Some(WarmStart {
            basis,
            binv: self.binv.clone(),
        })
    }

    /// The basis just reached, reusable when no artificial column is left
    /// in it.
    fn basis(&self, sp: &SparseProblem) -> Option<Basis> {
        let ncols = sp.ncols();
        self.basic.iter().all(|&b| b < ncols).then(|| Basis {
            basic: self.basic.clone(),
            state: self.state[..ncols].to_vec(),
        })
    }

    /// `column_j · y`.
    fn col_dot(&self, sp: &SparseProblem, j: usize, y: &[f64]) -> f64 {
        sp.col_entries(&self.art_rows, &self.art_signs, j)
            .map(|(i, a)| a * y[i])
            .sum()
    }

    /// Writes column `j` as a dense vector into the transform input.
    fn load_column(&mut self, sp: &SparseProblem, j: usize) {
        self.input.fill(0.0);
        for (i, a) in sp.col_entries(&self.art_rows, &self.art_signs, j) {
            self.input[i] += a;
        }
    }

    /// Writes the unit vector of row `r` into the transform input.
    fn load_unit(&mut self, r: usize) {
        self.input.fill(0.0);
        self.input[r] = 1.0;
    }

    /// Writes the basic costs `c_B` into the transform input.
    fn load_basic_costs(&mut self) {
        for (slot, &b) in self.input.iter_mut().zip(&self.basic) {
            *slot = self.cost[b];
        }
    }

    /// Rebuilds the dense basis inverse from the current basic columns and
    /// clears the eta file. Returns `false`, leaving both as they were, when
    /// the basis is singular.
    fn refactorize(&mut self, sp: &SparseProblem) -> bool {
        let m = sp.m;
        // Gauss-Jordan with partial pivoting on [B | I]
        let b = &mut self.gj_basis;
        let inv = &mut self.gj_inverse;
        b.fill(0.0);
        for (i, &j) in self.basic.iter().enumerate() {
            for (row, a) in sp.col_entries(&self.art_rows, &self.art_signs, j) {
                b[row * m + i] += a;
            }
        }
        inv.fill(0.0);
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // the largest entry of the column at or below the diagonal, the
            // last one of equals
            let mut pivot_row = col;
            for r in col + 1..m {
                let ahead = b[pivot_row * m + col]
                    .abs()
                    .partial_cmp(&b[r * m + col].abs());
                if ahead != Some(std::cmp::Ordering::Greater) {
                    pivot_row = r;
                }
            }
            let p = b[pivot_row * m + col];
            if p.abs() < 1e-11 {
                return false;
            }
            if pivot_row != col {
                for k in 0..m {
                    b.swap(pivot_row * m + k, col * m + k);
                    inv.swap(pivot_row * m + k, col * m + k);
                }
            }
            let inv_p = 1.0 / p;
            for k in 0..m {
                b[col * m + k] *= inv_p;
                inv[col * m + k] *= inv_p;
            }
            for r in 0..m {
                if r != col {
                    let f = b[r * m + col];
                    if f != 0.0 {
                        for k in 0..m {
                            b[r * m + k] -= f * b[col * m + k];
                            inv[r * m + k] -= f * inv[col * m + k];
                        }
                    }
                }
            }
        }
        std::mem::swap(&mut self.binv, &mut self.gj_inverse);
        self.eta_rows.clear();
        self.eta_vals.clear();
        true
    }

    /// Recomputes the basic values from the nonbasic ones:
    /// `x_B = B⁻¹ (rhs − A_N x_N)`.
    fn compute_basics(&mut self, sp: &SparseProblem) {
        self.input.copy_from_slice(&self.rhs);
        for j in 0..self.x.len() {
            if self.state[j] != ColState::Basic && self.x[j] != 0.0 {
                for (i, a) in sp.col_entries(&self.art_rows, &self.art_signs, j) {
                    self.input[i] -= a * self.x[j];
                }
            }
        }
        self.ftran(sp.m);
        for (&b, &value) in self.basic.iter().zip(&self.w) {
            self.x[b] = value;
        }
    }

    /// `w = B⁻¹ input`: dense inverse of the refactorization point, then
    /// the eta file in application order.
    fn ftran(&mut self, m: usize) {
        let w = &mut self.w;
        for (row, wi) in w.iter_mut().enumerate() {
            *wi = self.binv[row * m..(row + 1) * m]
                .iter()
                .zip(&self.input)
                .map(|(b, vk)| b * vk)
                .sum();
        }
        for (&r, e) in self.eta_rows.iter().zip(self.eta_vals.chunks_exact(m)) {
            let t = w[r] / e[r];
            w[r] = t;
            if t != 0.0 {
                for (i, (wi, ei)) in w.iter_mut().zip(e).enumerate() {
                    if i != r && *ei != 0.0 {
                        *wi -= ei * t;
                    }
                }
            }
        }
    }

    /// `B⁻ᵀ input`, consuming the input: eta transposes in reverse order,
    /// then the dense inverse transposed. The result lands in `ρ` when
    /// `pricing_row` is set and in the duals `y` otherwise.
    fn btran(&mut self, m: usize, pricing_row: bool) {
        let v = &mut self.input;
        for (&r, e) in self
            .eta_rows
            .iter()
            .zip(self.eta_vals.chunks_exact(m))
            .rev()
        {
            let mut acc = v[r];
            for (i, (vi, ei)) in v.iter().zip(e).enumerate() {
                if i != r && *ei != 0.0 {
                    acc -= ei * vi;
                }
            }
            v[r] = acc / e[r];
        }
        let y = if pricing_row {
            &mut self.rho
        } else {
            &mut self.y
        };
        y.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            if vi != 0.0 {
                for (yk, b) in y.iter_mut().zip(&self.binv[i * m..(i + 1) * m]) {
                    *yk += b * vi;
                }
            }
        }
    }

    /// Replaces the basic column of row `r` with column `j` (direction
    /// vector `w = B⁻¹ A_j`), records the eta update and refactorizes when
    /// the eta file has grown past its threshold.
    fn apply_pivot(&mut self, sp: &SparseProblem, r: usize, j: usize) {
        self.basic[r] = j;
        self.state[j] = ColState::Basic;
        self.eta_rows.push(r);
        self.eta_vals.extend_from_slice(&self.w);
        self.pivots += 1;
        if self.eta_rows.len() > Self::eta_limit(sp.m) && self.refactorize(sp) {
            self.compute_basics(sp);
        }
    }

    /// Bounded-variable primal simplex on the phase's cost vector, Bland's
    /// rule for entering and leaving choices.
    fn primal(&mut self, sp: &SparseProblem) -> Result<PrimalEnd, LpError> {
        let m = sp.m;
        loop {
            if self.iters >= sp.max_iterations {
                return Err(LpError::IterationLimit);
            }
            self.iters += 1;
            self.load_basic_costs();
            self.btran(m, false);
            // entering: smallest-index nonbasic with an improving reduced cost
            let mut entering = None;
            for (j, &cj) in self.cost.iter().enumerate() {
                if self.state[j] == ColState::Basic || self.lower[j] >= self.upper[j] {
                    continue;
                }
                let d = cj - self.col_dot(sp, j, &self.y);
                let improves = match self.state[j] {
                    ColState::AtLower => d < -TOL,
                    ColState::AtUpper => d > TOL,
                    ColState::Basic => false,
                };
                if improves {
                    entering = Some(j);
                    break;
                }
            }
            let Some(q) = entering else {
                return Ok(PrimalEnd::Optimal);
            };
            let dir = if self.state[q] == ColState::AtLower {
                1.0
            } else {
                -1.0
            };
            self.load_column(sp, q);
            self.ftran(m);
            // ratio test over the basic bounds, Bland tie-break
            let mut limit = INF;
            let mut leave: Option<(usize, bool)> = None; // (row, hits lower)
            for (i, (&wi, &b)) in self.w.iter().zip(&self.basic).enumerate() {
                let a = dir * wi;
                let (ratio, to_lower) = if a > TOL {
                    (((self.x[b] - self.lower[b]) / a).max(0.0), true)
                } else if a < -TOL {
                    if self.upper[b] == INF {
                        continue;
                    }
                    (((self.upper[b] - self.x[b]) / -a).max(0.0), false)
                } else {
                    continue;
                };
                let tighter = match leave {
                    None => ratio < limit,
                    Some((lr, _)) => {
                        ratio < limit - TOL || ((ratio - limit).abs() <= TOL && b < self.basic[lr])
                    }
                };
                if tighter {
                    limit = ratio;
                    leave = Some((i, to_lower));
                }
            }
            let flip = self.upper[q] - self.lower[q];
            if limit == INF && flip == INF {
                return Ok(PrimalEnd::Unbounded);
            }
            if flip < limit {
                // bound flip: no basis change
                for (&b, &wi) in self.basic.iter().zip(&self.w) {
                    self.x[b] -= dir * flip * wi;
                }
                self.x[q] = if dir > 0.0 {
                    self.upper[q]
                } else {
                    self.lower[q]
                };
                self.state[q] = if dir > 0.0 {
                    ColState::AtUpper
                } else {
                    ColState::AtLower
                };
                continue;
            }
            // a finite limit names its row; only a NaN ratio or span gets here
            // without one
            let Some((r, to_lower)) = leave else {
                return Err(LpError::Numerical {
                    context: "ratio test found no leaving row",
                });
            };
            let entering_value = self.x[q] + dir * limit;
            for (&b, &wi) in self.basic.iter().zip(&self.w) {
                self.x[b] -= dir * limit * wi;
            }
            let lv = self.basic[r];
            if to_lower {
                self.x[lv] = self.lower[lv];
                self.state[lv] = ColState::AtLower;
            } else {
                self.x[lv] = self.upper[lv];
                self.state[lv] = ColState::AtUpper;
            }
            self.x[q] = entering_value;
            self.apply_pivot(sp, r, q);
        }
    }

    /// Bounded-variable dual simplex on the phase's cost vector: repairs
    /// primal feasibility while preserving dual feasibility. Used for
    /// warm-started re-entry after bounds tighten.
    fn dual(&mut self, sp: &SparseProblem) -> DualEnd {
        let m = sp.m;
        loop {
            if self.iters >= sp.max_iterations {
                return DualEnd::Stalled;
            }
            self.iters += 1;
            // leaving: most-violated basic, smallest variable index on ties
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below lower)
            for i in 0..m {
                let b = self.basic[i];
                let (viol, below) = if self.x[b] < self.lower[b] - TOL {
                    (self.lower[b] - self.x[b], true)
                } else if self.x[b] > self.upper[b] + TOL {
                    (self.x[b] - self.upper[b], false)
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    Some((lr, lv, _)) => {
                        viol > lv + TOL || ((viol - lv).abs() <= TOL && b < self.basic[lr])
                    }
                };
                if better {
                    leave = Some((i, viol, below));
                }
            }
            let Some((r, _, below)) = leave else {
                return DualEnd::Optimal;
            };
            self.load_basic_costs();
            self.btran(m, false);
            self.load_unit(r);
            self.btran(m, true);
            // entering: dual ratio test, smallest |d/α|, smallest index on ties
            let mut best: Option<(usize, f64)> = None;
            for (j, &cj) in self.cost.iter().enumerate() {
                if self.state[j] == ColState::Basic || self.lower[j] >= self.upper[j] {
                    continue;
                }
                let alpha = self.col_dot(sp, j, &self.rho);
                let eligible = if below {
                    // leaving variable must increase to its lower bound
                    (self.state[j] == ColState::AtLower && alpha < -TOL)
                        || (self.state[j] == ColState::AtUpper && alpha > TOL)
                } else {
                    (self.state[j] == ColState::AtLower && alpha > TOL)
                        || (self.state[j] == ColState::AtUpper && alpha < -TOL)
                };
                if !eligible {
                    continue;
                }
                let d = cj - self.col_dot(sp, j, &self.y);
                let ratio = (d / alpha).abs();
                let better = match best {
                    None => true,
                    Some((bj, br)) => ratio < br - TOL || ((ratio - br).abs() <= TOL && j < bj),
                };
                if better {
                    best = Some((j, ratio));
                }
            }
            let Some((q, _)) = best else {
                return DualEnd::Infeasible;
            };
            self.load_column(sp, q);
            self.ftran(m);
            let alpha = self.w[r];
            if alpha.abs() <= TOL {
                // the eta-updated direction disagrees with the pricing row:
                // numerically degenerate, restart cold
                return DualEnd::Stalled;
            }
            let lv = self.basic[r];
            let target = if below {
                self.lower[lv]
            } else {
                self.upper[lv]
            };
            let delta = (self.x[lv] - target) / alpha;
            let entering_value = self.x[q] + delta;
            for (&b, &wi) in self.basic.iter().zip(&self.w) {
                self.x[b] -= delta * wi;
            }
            self.x[lv] = target;
            self.state[lv] = if below {
                ColState::AtLower
            } else {
                ColState::AtUpper
            };
            self.x[q] = entering_value;
            self.apply_pivot(sp, r, q);
        }
    }

    /// Loads the phase-2 cost vector over all current columns.
    fn load_phase2_cost(&mut self, sp: &SparseProblem) {
        refill(&mut self.cost, self.x.len(), 0.0);
        self.cost[..sp.n_struct].copy_from_slice(&sp.cost);
    }

    /// Cold solve: phase 1 when artificials exist, then phase 2.
    fn run_cold(&mut self, sp: &SparseProblem) -> Result<Relaxed, LpError> {
        let ncols = sp.ncols();
        let total = self.x.len();
        // phase 1 runs when the cold start needed an artificial column
        if !self.art_rows.is_empty() {
            refill(&mut self.cost, total, 0.0);
            for c in self.cost.iter_mut().skip(ncols) {
                *c = 1.0;
            }
            match self.primal(sp)? {
                PrimalEnd::Optimal => {}
                // phase 1 is bounded below by zero
                PrimalEnd::Unbounded => {
                    return Err(LpError::Numerical {
                        context: "unbounded phase 1",
                    })
                }
            }
            let infeasibility: f64 = self.x[ncols..].iter().sum();
            if infeasibility > PHASE1_TOL {
                return Ok(Relaxed::Infeasible);
            }
            // pin artificials to zero and drive basic ones out where possible
            for j in ncols..total {
                self.lower[j] = 0.0;
                self.upper[j] = 0.0;
                if self.state[j] != ColState::Basic {
                    self.x[j] = 0.0;
                }
            }
            self.expel_artificials(sp);
        }
        self.load_phase2_cost(sp);
        match self.primal(sp)? {
            PrimalEnd::Optimal => Ok(self.extract(sp, false)),
            PrimalEnd::Unbounded => Ok(Relaxed::Unbounded),
        }
    }

    /// Warm solve: dual re-entry, then a primal polish. `Ok(None)` signals
    /// the caller to restart cold — including when either warm phase runs
    /// out of iterations, so the cold path gets its own fresh budget.
    fn run_warm(&mut self, sp: &SparseProblem) -> Result<Option<Relaxed>, LpError> {
        self.load_phase2_cost(sp);
        match self.dual(sp) {
            DualEnd::Optimal => {}
            DualEnd::Infeasible => return Ok(Some(Relaxed::Infeasible)),
            DualEnd::Stalled => return Ok(None),
        }
        // polish: repair any residual dual infeasibility (usually a no-op)
        match self.primal(sp) {
            Ok(PrimalEnd::Optimal) => Ok(Some(self.extract(sp, true))),
            Ok(PrimalEnd::Unbounded) => Ok(Some(Relaxed::Unbounded)),
            Err(LpError::IterationLimit) => Ok(None),
            Err(other) => Err(other),
        }
    }

    /// Pivots basic artificial columns out of the basis where a persistent
    /// column can replace them (mirrors the dense solver's post-phase-1
    /// cleanup; rows that stay artificial are redundant and keep a
    /// zero-fixed artificial basic).
    fn expel_artificials(&mut self, sp: &SparseProblem) {
        let m = sp.m;
        let ncols = sp.ncols();
        for r in 0..m {
            if self.basic[r] < ncols {
                continue;
            }
            self.load_unit(r);
            self.btran(m, true);
            let candidate = (0..ncols).find(|&j| {
                self.state[j] != ColState::Basic && self.col_dot(sp, j, &self.rho).abs() > TOL
            });
            if let Some(j) = candidate {
                self.load_column(sp, j);
                self.ftran(m);
                let art = self.basic[r];
                // the artificial sits at zero, so the swap moves nothing
                self.x[art] = 0.0;
                self.state[art] = ColState::AtLower;
                self.state[j] = ColState::Basic;
                self.apply_pivot(sp, r, j);
                // entering keeps its bound value; it is now basic at it
            }
        }
    }

    /// Reports the optimum: cleaned structural values into `values`, the
    /// original-direction objective into the outcome.
    fn extract(&mut self, sp: &SparseProblem, warm_started: bool) -> Relaxed {
        reload(&mut self.values, &self.x[..sp.n_struct]);
        for v in &mut self.values {
            if v.abs() < TOL {
                *v = 0.0;
            }
        }
        Relaxed::Optimal {
            objective: dot(&sp.objective, &self.values),
            pivots: self.pivots,
            warm_started,
        }
    }
}

impl WarmStart {
    /// The pair [`Workspace::relax`] re-enters from.
    pub(crate) fn as_warm(&self) -> (&Basis, Option<&[f64]>) {
        (&self.basis, Some(&self.binv))
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, VarKind};
    use crate::simplex::{SimplexOutcome, SimplexSolver};

    /// One relaxation solved in a workspace of its own, copied out.
    #[derive(Debug, PartialEq)]
    struct SparseSolution {
        objective: f64,
        values: Vec<f64>,
        /// Whether phase 1 ran (false for successful warm-started re-entries).
        used_phase1: bool,
        warm_started: bool,
        /// `None` in the rare case an artificial column stayed basic.
        basis: Option<Basis>,
    }

    #[derive(Debug, PartialEq)]
    enum SparseOutcome {
        Optimal(SparseSolution),
        Infeasible,
        Unbounded,
    }

    impl SparseProblem {
        /// The relaxation under the `extra` bounds, solved from scratch.
        fn solve_cold(&self, extra: &[(VarId, Sense, f64)]) -> Result<SparseOutcome, LpError> {
            self.solve_alone(extra, None)
        }

        /// The same, re-entered from `basis` — the parent node's optimal
        /// basis, `extra` tightening a bound — through the dual simplex.
        fn solve_warm(
            &self,
            extra: &[(VarId, Sense, f64)],
            basis: &Basis,
        ) -> Result<SparseOutcome, LpError> {
            self.solve_alone(extra, Some((basis, None)))
        }

        fn solve_alone(
            &self,
            extra: &[(VarId, Sense, f64)],
            warm: Option<(&Basis, Option<&[f64]>)>,
        ) -> Result<SparseOutcome, LpError> {
            let mut ws = Workspace::default();
            ws.begin(self, &[])?;
            Ok(match ws.relax(self, extra.iter().copied(), warm)? {
                Relaxed::Optimal {
                    objective,
                    warm_started,
                    ..
                } => SparseOutcome::Optimal(SparseSolution {
                    objective,
                    basis: ws.basis(self),
                    // a warm start clears the artificials, a cold one keeps
                    // those its phase 1 ran over
                    used_phase1: !ws.art_rows.is_empty(),
                    values: ws.values,
                    warm_started,
                }),
                Relaxed::Infeasible => SparseOutcome::Infeasible,
                Relaxed::Unbounded => SparseOutcome::Unbounded,
            })
        }
    }

    fn optimal(outcome: SparseOutcome) -> SparseSolution {
        match outcome {
            SparseOutcome::Optimal(sol) => sol,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    use crate::test_rng::XorShift;

    #[test]
    fn simple_maximization_matches_dense() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 3.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, None, 5.0);
        p.add_constraint("c1", &[(x, 1.0)], Sense::Le, 4.0);
        p.add_constraint("c2", &[(y, 2.0)], Sense::Le, 12.0);
        p.add_constraint("c3", &[(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let sol = optimal(SparseProblem::from_problem(&p).solve_cold(&[]).unwrap());
        assert!((sol.objective - 36.0).abs() < 1e-6);
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 6.0).abs() < 1e-6);
        assert!(!sol.used_phase1, "an all-<= problem needs no phase 1");
    }

    #[test]
    fn ge_constraints_run_phase_one() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 2.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, None, 3.0);
        p.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.add_constraint("c2", &[(x, 1.0)], Sense::Ge, 3.0);
        let sol = optimal(SparseProblem::from_problem(&p).solve_cold(&[]).unwrap());
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert!((sol.values[0] - 10.0).abs() < 1e-6);
        assert!(sol.used_phase1);
    }

    #[test]
    fn infeasible_and_unbounded_classification() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("lo", &[(x, 1.0)], Sense::Ge, 5.0);
        p.add_constraint("hi", &[(x, 1.0)], Sense::Le, 2.0);
        assert_eq!(
            SparseProblem::from_problem(&p).solve_cold(&[]).unwrap(),
            SparseOutcome::Infeasible
        );

        let mut p = Problem::maximize();
        let _x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, None, 0.0);
        p.add_constraint("c", &[(y, 1.0)], Sense::Le, 4.0);
        assert_eq!(
            SparseProblem::from_problem(&p).solve_cold(&[]).unwrap(),
            SparseOutcome::Unbounded
        );
    }

    #[test]
    fn a_singular_start_basis_is_a_numerical_error() {
        // no cold start builds one — its basis is a signed identity — so the
        // factorization is handed the same column twice
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("a", &[(x, 1.0)], Sense::Ge, 1.0);
        p.add_constraint("b", &[(x, 2.0)], Sense::Ge, 1.0);
        let sp = SparseProblem::from_problem(&p);
        let mut ws = Workspace::default();
        ws.begin(&sp, &[]).unwrap();
        ws.basic = vec![0, 0];
        let err = ws.factorize_start(&sp).unwrap_err();
        assert_eq!(
            err,
            LpError::Numerical {
                context: "singular start basis"
            }
        );
        assert_ne!(
            err,
            LpError::IterationLimit,
            "what it used to be reported as"
        );
        // and a proper start basis goes through
        ws.basic = vec![1, 2];
        assert_eq!(ws.factorize_start(&sp), Ok(()));
    }

    #[test]
    fn negative_rhs_needs_no_normalization() {
        // x >= 3 written as -x <= -3: the dense path flips the row sign and
        // re-derives the sense (`effective_sense`); the sparse path encodes
        // the sense in the slack bounds and must agree without any flip.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("c", &[(x, -1.0)], Sense::Le, -3.0);
        let sol = optimal(SparseProblem::from_problem(&p).solve_cold(&[]).unwrap());
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert!(sol.used_phase1, "a negative-rhs <= row starts infeasible");
    }

    #[test]
    fn negative_rhs_of_every_sense_matches_dense() {
        // one case per sense with a negative right-hand side, checked
        // against the dense solver's `effective_sense` normalization
        for (sense, rhs) in [(Sense::Le, -3.0), (Sense::Ge, -8.0), (Sense::Eq, -5.0)] {
            let mut p = Problem::minimize();
            let x = p.add_var("x", VarKind::Continuous, 0.0, Some(20.0), 1.0);
            let y = p.add_var("y", VarKind::Continuous, 0.0, Some(20.0), 2.0);
            p.add_constraint("neg", &[(x, -1.0), (y, -1.0)], sense, rhs);
            assert_relaxation_agrees_with_dense(&p, &format!("{sense:?}"));
        }
    }

    #[test]
    fn extra_bounds_fold_into_column_bounds() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, Some(10.0), 1.0);
        let sp = SparseProblem::from_problem(&p);
        let sol = optimal(sp.solve_cold(&[(x, Sense::Le, 3.5)]).unwrap());
        assert!((sol.objective - 3.5).abs() < 1e-6);
        // crossing bounds are infeasible without any simplex work
        assert_eq!(
            sp.solve_cold(&[(x, Sense::Ge, 4.0), (x, Sense::Le, 2.0)])
                .unwrap(),
            SparseOutcome::Infeasible
        );
    }

    #[test]
    fn warm_start_agrees_with_cold_start_after_tightening() {
        // the branch-and-bound child relation: solve, tighten one bound,
        // re-enter from the parent basis
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, Some(8.0), 1.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, Some(8.0), 3.0);
        p.add_constraint("cover", &[(x, 2.0), (y, 5.0)], Sense::Ge, 19.0);
        p.add_constraint("cc", &[(x, 1.0), (y, 1.0)], Sense::Le, 8.0);
        let sp = SparseProblem::from_problem(&p);
        let root = optimal(sp.solve_cold(&[]).unwrap());
        let basis = root.basis.clone().expect("reusable basis");
        for bounds in [
            vec![(x, Sense::Le, 3.0)],
            vec![(x, Sense::Ge, 4.0)],
            vec![(y, Sense::Le, 2.0)],
            vec![(y, Sense::Ge, 4.0), (x, Sense::Le, 6.0)],
        ] {
            let warm = sp.solve_warm(&bounds, &basis).unwrap();
            let cold = sp.solve_cold(&bounds).unwrap();
            match (warm, cold) {
                (SparseOutcome::Optimal(w), SparseOutcome::Optimal(c)) => {
                    assert!(
                        (w.objective - c.objective).abs() < 1e-6,
                        "{bounds:?}: warm {} vs cold {}",
                        w.objective,
                        c.objective
                    );
                    assert!(!w.used_phase1, "warm re-entry must skip phase 1");
                    assert!(w.warm_started, "completed through the warm path");
                }
                (SparseOutcome::Infeasible, SparseOutcome::Infeasible) => {}
                (w, c) => panic!("{bounds:?}: warm {w:?} vs cold {c:?}"),
            }
        }
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, Some(10.0), 1.0);
        p.add_constraint("lo", &[(x, 1.0)], Sense::Ge, 6.0);
        let sp = SparseProblem::from_problem(&p);
        let root = optimal(sp.solve_cold(&[]).unwrap());
        let basis = root.basis.expect("reusable basis");
        assert_eq!(
            sp.solve_warm(&[(x, Sense::Le, 5.0)], &basis).unwrap(),
            SparseOutcome::Infeasible
        );
    }

    #[test]
    fn unconstrained_problems_sit_on_their_preferred_bounds() {
        let mut p = Problem::minimize();
        let _x = p.add_var("x", VarKind::Continuous, 2.0, None, 5.0);
        let _y = p.add_var("y", VarKind::Continuous, 0.0, Some(7.5), -1.0);
        let sol = optimal(SparseProblem::from_problem(&p).solve_cold(&[]).unwrap());
        assert!((sol.values[0] - 2.0).abs() < 1e-9);
        assert!((sol.values[1] - 7.5).abs() < 1e-9);

        let mut p = Problem::minimize();
        let _x = p.add_var("x", VarKind::Continuous, 0.0, None, -1.0);
        assert_eq!(
            SparseProblem::from_problem(&p).solve_cold(&[]).unwrap(),
            SparseOutcome::Unbounded
        );
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut p = Problem::maximize();
        let x1 = p.add_var("x1", VarKind::Continuous, 0.0, None, 10.0);
        let x2 = p.add_var("x2", VarKind::Continuous, 0.0, None, -57.0);
        let x3 = p.add_var("x3", VarKind::Continuous, 0.0, None, -9.0);
        let x4 = p.add_var("x4", VarKind::Continuous, 0.0, None, -24.0);
        p.add_constraint(
            "c1",
            &[(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(
            "c2",
            &[(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint("c3", &[(x1, 1.0)], Sense::Le, 1.0);
        let sol = optimal(SparseProblem::from_problem(&p).solve_cold(&[]).unwrap());
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    /// The sparse cold solve of `p` must classify like the dense tableau and
    /// match its optimal objective.
    fn assert_relaxation_agrees_with_dense(p: &Problem, what: &str) {
        let dense = SimplexSolver::from_problem(p, &[]).solve_dense();
        let sparse = SparseProblem::from_problem(p).solve_cold(&[]);
        match (dense, sparse) {
            (
                Ok(SimplexOutcome::Optimal { objective: od, .. }),
                Ok(SparseOutcome::Optimal(sol)),
            ) => {
                assert!(
                    (od - sol.objective).abs() < 1e-5,
                    "{what}: dense {od} vs sparse {}",
                    sol.objective
                );
            }
            (Ok(SimplexOutcome::Infeasible), Ok(SparseOutcome::Infeasible)) => {}
            (Ok(SimplexOutcome::Unbounded), Ok(SparseOutcome::Unbounded)) => {}
            // iteration-limit blowups must at least agree on erroring
            (Err(_), Err(_)) => {}
            (d, s) => panic!("{what}: dense {d:?} vs sparse {s:?}"),
        }
    }

    fn random_sense(rng: &mut XorShift) -> Sense {
        match rng.below(3) {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        }
    }

    #[test]
    fn randomized_relaxations_agree_with_dense() {
        // 120 random LPs over mixed senses, signs and bounds, rows that skip
        // a variable in four
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        for case in 0..120 {
            let nvars = 1 + rng.below(4);
            let nrows = 1 + rng.below(4);
            let maximize = rng.below(2) == 0;
            let mut p = if maximize {
                Problem::maximize()
            } else {
                Problem::minimize()
            };
            let vars: Vec<VarId> = (0..nvars)
                .map(|i| {
                    let lower = rng.uniform(0.0, 3.0);
                    let upper = if rng.below(2) == 0 {
                        Some(lower + rng.uniform(0.0, 10.0))
                    } else {
                        None
                    };
                    p.add_var(
                        format!("x{i}"),
                        VarKind::Continuous,
                        lower,
                        upper,
                        rng.uniform(-4.0, 4.0),
                    )
                })
                .collect();
            for r in 0..nrows {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &v in &vars {
                    if rng.below(4) != 0 {
                        terms.push((v, rng.uniform(-5.0, 5.0)));
                    }
                }
                let sense = random_sense(&mut rng);
                p.add_constraint(format!("c{r}"), &terms, sense, rng.uniform(-20.0, 20.0));
            }
            assert_relaxation_agrees_with_dense(&p, &format!("case {case}"));
        }

        // 120 more, every lower bound at zero: minimizations under one to
        // three rows, each a dense prefix of the variables, about half the
        // variables unbounded above
        for case in 0..120 {
            let nvars = 1 + rng.below(4);
            let mut p = Problem::minimize();
            let vars: Vec<VarId> = (0..nvars)
                .map(|i| {
                    let draw = rng.uniform(-12.0, 12.0);
                    let upper = (draw > 0.5).then_some(draw);
                    let cost = rng.uniform(-3.0, 3.0);
                    p.add_var(format!("x{i}"), VarKind::Continuous, 0.0, upper, cost)
                })
                .collect();
            for r in 0..1 + rng.below(3) {
                let terms: Vec<(VarId, f64)> = vars[..1 + rng.below(nvars)]
                    .iter()
                    .map(|&v| (v, rng.uniform(-5.0, 5.0)))
                    .collect();
                let sense = random_sense(&mut rng);
                p.add_constraint(format!("c{r}"), &terms, sense, rng.uniform(-15.0, 15.0));
            }
            assert_relaxation_agrees_with_dense(&p, &format!("zero-lower case {case}"));
        }
    }

    #[test]
    fn randomized_warm_starts_agree_with_cold() {
        // random covering problems, random bound tightenings from the root
        // basis: warm re-entry must match the cold objective every time
        let mut rng = XorShift(0xD1B54A32D192ED03);
        let mut skips = 0usize;
        for case in 0..80 {
            let nvars = 2 + rng.below(4);
            let mut p = Problem::minimize();
            let vars: Vec<VarId> = (0..nvars)
                .map(|i| {
                    p.add_var(
                        format!("x{i}"),
                        VarKind::Continuous,
                        0.0,
                        Some(10.0),
                        rng.uniform(0.1, 3.0),
                    )
                })
                .collect();
            let terms: Vec<(VarId, f64)> =
                vars.iter().map(|&v| (v, rng.uniform(1.0, 8.0))).collect();
            p.add_constraint("cover", &terms, Sense::Ge, rng.uniform(5.0, 40.0));
            let count: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint("cc", &count, Sense::Le, rng.uniform(4.0, 20.0));
            let sp = SparseProblem::from_problem(&p);
            let SparseOutcome::Optimal(root) = sp.solve_cold(&[]).unwrap() else {
                continue;
            };
            let basis = root.basis.expect("reusable basis");
            for _ in 0..4 {
                let v = vars[rng.below(nvars)];
                let bound = rng.uniform(0.0, 9.0).floor();
                let bounds = if rng.below(2) == 0 {
                    vec![(v, Sense::Le, bound)]
                } else {
                    vec![(v, Sense::Ge, bound)]
                };
                let warm = sp.solve_warm(&bounds, &basis).unwrap();
                let cold = sp.solve_cold(&bounds).unwrap();
                match (warm, cold) {
                    (SparseOutcome::Optimal(w), SparseOutcome::Optimal(c)) => {
                        assert!(
                            (w.objective - c.objective).abs() < 1e-5,
                            "case {case} {bounds:?}: warm {} vs cold {}",
                            w.objective,
                            c.objective
                        );
                        if w.warm_started {
                            skips += 1;
                        }
                    }
                    (SparseOutcome::Infeasible, SparseOutcome::Infeasible) => {}
                    (w, c) => panic!("case {case} {bounds:?}: warm {w:?} vs cold {c:?}"),
                }
            }
        }
        assert!(
            skips > 50,
            "warm starts should usually skip phase 1: {skips}"
        );
    }
}
