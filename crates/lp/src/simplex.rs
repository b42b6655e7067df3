//! Two-phase dense primal simplex: the **oracle** of this crate's tests,
//! compiled under `cfg(test)` only. The agreement tests of `sparse.rs`,
//! `branch_bound.rs` and `torture.rs` compare the revised simplex that ships
//! against it, relaxation by relaxation ([`SimplexSolver::solve_dense`]) or
//! through the branch-and-bound search that ships ([`solve_ilp`]).
//!
//! The implementation follows the classic tableau method:
//!
//! 1. every variable is shifted so that its lower bound becomes zero,
//! 2. upper bounds and branch-and-bound bounds become ordinary rows,
//! 3. rows are normalized to a non-negative right-hand side and augmented
//!    with slack, surplus and artificial columns,
//! 4. phase one minimizes the sum of artificials (infeasibility certificate),
//! 5. phase two minimizes the user objective with artificials barred from
//!    entering the basis.
//!
//! Bland's anti-cycling rule is used for both the entering and leaving
//! variable choices, which guarantees termination at the price of a few more
//! pivots — irrelevant at the problem sizes produced by the resource
//! allocator (tens of columns).

use crate::branch_bound::{self, Node, Relaxation};
use crate::error::LpError;
use crate::model::{Objective, Problem, Sense, Solution};
use crate::sparse::{Relaxed, SparseProblem, Workspace};
use crate::VarId;

const TOL: f64 = 1e-9;

/// Result of running the simplex method on an LP relaxation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplexOutcome {
    /// An optimal basic feasible solution was found.
    Optimal {
        /// Objective value in the original problem's direction.
        objective: f64,
        /// Values of the structural (user) variables.
        values: Vec<f64>,
        /// Number of pivots performed across both phases.
        pivots: usize,
    },
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

#[derive(Debug, Clone, Copy)]
struct Row {
    sense: Sense,
    rhs: f64,
}

/// Dense two-phase primal simplex solver.
///
/// Construct with [`SimplexSolver::from_problem`], optionally passing extra
/// single-variable bounds (used by branch-and-bound), then call
/// [`SimplexSolver::solve_dense`].
#[derive(Debug, Clone)]
pub struct SimplexSolver {
    /// Objective coefficients over structural variables (original direction).
    objective: Vec<f64>,
    maximize: bool,
    rows: Vec<Row>,
    /// Row-major `rows.len() × n_struct` constraint coefficients, one flat
    /// allocation for all rows.
    coeffs: Vec<f64>,
    lowers: Vec<f64>,
    n_struct: usize,
    max_iterations: usize,
}

impl SimplexSolver {
    /// Builds a solver for the LP relaxation of `problem`, with additional
    /// single-variable bounds `extra_bounds` (each `(var, sense, rhs)` is the
    /// constraint `var sense rhs`), as imposed by branch-and-bound.
    pub fn from_problem(problem: &Problem, extra_bounds: &[(VarId, Sense, f64)]) -> Self {
        let n = problem.num_vars();
        let lowers: Vec<f64> = problem.variables().iter().map(|v| v.lower).collect();
        let objective: Vec<f64> = problem.variables().iter().map(|v| v.objective).collect();
        let maximize = problem.objective_sense() == Objective::Maximize;

        // one allocation for all rows and one for all coefficients, instead
        // of a fresh `vec![0.0; n]` per row
        let upper_bound_count = problem
            .variables()
            .iter()
            .filter(|v| v.upper.is_some())
            .count();
        let row_count = problem.constraints().len() + upper_bound_count + extra_bounds.len();
        let mut rows = Vec::with_capacity(row_count);
        let mut coeffs = vec![0.0; row_count * n];
        fn coeff_row(coeffs: &mut [f64], n: usize, row: usize) -> &mut [f64] {
            &mut coeffs[row * n..(row + 1) * n]
        }

        // user constraints, shifted by lower bounds
        for c in problem.constraints() {
            let row = coeff_row(&mut coeffs, n, rows.len());
            let mut shift = 0.0;
            for (v, a) in c.expr.iter() {
                row[v.index()] = a;
                shift += a * lowers[v.index()];
            }
            rows.push(Row {
                sense: c.sense,
                rhs: c.rhs - shift,
            });
        }
        // upper bounds as rows
        for (j, v) in problem.variables().iter().enumerate() {
            if let Some(up) = v.upper {
                coeff_row(&mut coeffs, n, rows.len())[j] = 1.0;
                rows.push(Row {
                    sense: Sense::Le,
                    rhs: up - lowers[j],
                });
            }
        }
        // branch-and-bound bounds as rows
        for &(var, sense, rhs) in extra_bounds {
            coeff_row(&mut coeffs, n, rows.len())[var.index()] = 1.0;
            rows.push(Row {
                sense,
                rhs: rhs - lowers[var.index()],
            });
        }
        debug_assert_eq!(rows.len(), row_count);

        Self {
            objective,
            maximize,
            rows,
            coeffs,
            lowers,
            n_struct: n,
            max_iterations: 20_000,
        }
    }

    /// Runs the two-phase **dense tableau** simplex: the reference the
    /// sparse revised simplex ([`crate::SparseProblem`]) is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the pivot budget is exhausted
    /// (which indicates numerical trouble for well-posed inputs).
    pub fn solve_dense(&self) -> Result<SimplexOutcome, LpError> {
        let n = self.n_struct;
        let m = self.rows.len();
        if m == 0 {
            // No constraints: optimum is at the (shifted) origin unless a
            // negative cost direction is unbounded above.
            let min_costs: Vec<f64> = self
                .objective
                .iter()
                .map(|&c| if self.maximize { -c } else { c })
                .collect();
            if min_costs.iter().any(|&c| c < -TOL) {
                return Ok(SimplexOutcome::Unbounded);
            }
            let values = self.lowers.clone();
            let objective = dot(&self.objective, &values);
            return Ok(SimplexOutcome::Optimal {
                objective,
                values,
                pivots: 0,
            });
        }

        // Column layout: [structural | slack/surplus | artificial]
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for r in &self.rows {
            let rhs_nonneg = r.rhs >= 0.0;
            let sense = effective_sense(r.sense, rhs_nonneg);
            match sense {
                Sense::Le => n_slack += 1,
                Sense::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Sense::Eq => n_art += 1,
            }
        }
        let ncols = n + n_slack + n_art;
        let mut tableau = vec![vec![0.0; ncols + 1]; m];
        let mut basis = vec![0usize; m];
        let mut slack_cursor = n;
        let mut art_cursor = n + n_slack;
        let mut artificial_cols = Vec::new();

        for (i, r) in self.rows.iter().enumerate() {
            let flip = r.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            let coeffs = &self.coeffs[i * n..(i + 1) * n];
            for (cell, &coeff) in tableau[i].iter_mut().zip(coeffs) {
                *cell = sign * coeff;
            }
            tableau[i][ncols] = sign * r.rhs;
            let sense = effective_sense(r.sense, !flip);
            match sense {
                Sense::Le => {
                    tableau[i][slack_cursor] = 1.0;
                    basis[i] = slack_cursor;
                    slack_cursor += 1;
                }
                Sense::Ge => {
                    tableau[i][slack_cursor] = -1.0;
                    slack_cursor += 1;
                    tableau[i][art_cursor] = 1.0;
                    basis[i] = art_cursor;
                    artificial_cols.push(art_cursor);
                    art_cursor += 1;
                }
                Sense::Eq => {
                    tableau[i][art_cursor] = 1.0;
                    basis[i] = art_cursor;
                    artificial_cols.push(art_cursor);
                    art_cursor += 1;
                }
            }
        }

        let is_artificial = |col: usize| col >= n + n_slack;
        let mut pivots = 0usize;

        // ----- Phase 1: minimize sum of artificials -----
        if n_art > 0 {
            let mut obj_row = vec![0.0; ncols + 1];
            for &c in &artificial_cols {
                obj_row[c] = 1.0;
            }
            // price out basic artificials
            for i in 0..m {
                if is_artificial(basis[i]) {
                    for j in 0..=ncols {
                        obj_row[j] -= tableau[i][j];
                    }
                }
            }
            pivots += self.iterate(&mut tableau, &mut obj_row, &mut basis, ncols, |_| true)?;
            let phase1_value = -obj_row[ncols];
            if phase1_value > 1e-7 {
                return Ok(SimplexOutcome::Infeasible);
            }
            // Drive artificials out of the basis where possible so that they
            // can never re-enter with a positive value during phase 2.
            for i in 0..m {
                if is_artificial(basis[i]) {
                    if let Some(j) = (0..n + n_slack).find(|&j| tableau[i][j].abs() > TOL) {
                        pivot(&mut tableau, &mut basis, i, j, ncols);
                        pivots += 1;
                    }
                }
            }
        }

        // ----- Phase 2: minimize the user objective -----
        let min_costs: Vec<f64> = self
            .objective
            .iter()
            .map(|&c| if self.maximize { -c } else { c })
            .collect();
        let mut obj_row = vec![0.0; ncols + 1];
        obj_row[..n].copy_from_slice(&min_costs);
        for i in 0..m {
            let b = basis[i];
            let cb = if b < n { min_costs[b] } else { 0.0 };
            if cb != 0.0 {
                for j in 0..=ncols {
                    obj_row[j] -= cb * tableau[i][j];
                }
            }
        }
        let allowed = |col: usize| !is_artificial(col);
        match self.iterate_checked(&mut tableau, &mut obj_row, &mut basis, ncols, allowed) {
            Ok(p) => pivots += p,
            Err(IterateError::Unbounded) => return Ok(SimplexOutcome::Unbounded),
            Err(IterateError::IterationLimit) => return Err(LpError::IterationLimit),
        }

        // Extract structural values (shift lower bounds back in).
        let mut values = vec![0.0; n];
        for i in 0..m {
            if basis[i] < n {
                values[basis[i]] = tableau[i][ncols];
            }
        }
        for (j, v) in values.iter_mut().enumerate() {
            *v += self.lowers[j];
            if v.abs() < TOL {
                *v = 0.0;
            }
        }
        let objective = dot(&self.objective, &values);
        Ok(SimplexOutcome::Optimal {
            objective,
            values,
            pivots,
        })
    }

    fn iterate(
        &self,
        tableau: &mut [Vec<f64>],
        obj_row: &mut [f64],
        basis: &mut [usize],
        ncols: usize,
        allowed: impl Fn(usize) -> bool,
    ) -> Result<usize, LpError> {
        match self.iterate_checked(tableau, obj_row, basis, ncols, allowed) {
            Ok(p) => Ok(p),
            // Phase 1 can never be unbounded (objective bounded below by 0);
            // map it to an iteration-limit style failure defensively.
            Err(IterateError::Unbounded) => Err(LpError::IterationLimit),
            Err(IterateError::IterationLimit) => Err(LpError::IterationLimit),
        }
    }

    fn iterate_checked(
        &self,
        tableau: &mut [Vec<f64>],
        obj_row: &mut [f64],
        basis: &mut [usize],
        ncols: usize,
        allowed: impl Fn(usize) -> bool,
    ) -> Result<usize, IterateError> {
        let m = tableau.len();
        for pivots in 0..self.max_iterations {
            // Bland's rule: smallest index with negative reduced cost.
            let entering = (0..ncols).find(|&j| allowed(j) && obj_row[j] < -TOL);
            let Some(col) = entering else {
                return Ok(pivots);
            };
            // Ratio test with Bland tie-breaking on the basis index.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..m {
                let a = tableau[i][col];
                if a > TOL {
                    let ratio = tableau[i][ncols] / a;
                    match best {
                        None => best = Some((i, ratio)),
                        Some((bi, br)) => {
                            if ratio < br - TOL
                                || ((ratio - br).abs() <= TOL && basis[i] < basis[bi])
                            {
                                best = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = best else {
                return Err(IterateError::Unbounded);
            };
            pivot_with_obj(tableau, obj_row, basis, row, col, ncols);
        }
        Err(IterateError::IterationLimit)
    }
}

enum IterateError {
    Unbounded,
    IterationLimit,
}

/// The oracle behind the search's hook: every node's tableau is rebuilt from
/// the [`Problem`] (the compiled form cannot give one back, so it sees no
/// replaced right-hand side), each branching bound an extra row, solved cold.
struct DenseOracle<'a>(&'a Problem);

impl Relaxation for DenseOracle<'_> {
    fn relax(
        &self,
        _sp: &SparseProblem,
        node: &Node,
        ws: &mut Workspace,
    ) -> Result<Relaxed, LpError> {
        // the tableau takes each bound as a row, in root-to-node order
        let mut bounds: Vec<(VarId, Sense, f64)> = node.bounds().collect();
        bounds.reverse();
        Ok(
            match SimplexSolver::from_problem(self.0, &bounds).solve_dense()? {
                SimplexOutcome::Optimal {
                    objective,
                    values,
                    pivots,
                } => {
                    ws.values = values;
                    Relaxed::Optimal {
                        objective,
                        pivots,
                        warm_started: false,
                    }
                }
                SimplexOutcome::Infeasible => Relaxed::Infeasible,
                SimplexOutcome::Unbounded => Relaxed::Unbounded,
            },
        )
    }
}

/// `problem`, integer variables included, solved by the search that ships
/// with the dense tableau at every node.
pub(crate) fn solve_ilp(problem: &Problem) -> Result<Solution, LpError> {
    let compiled = problem.compile()?;
    let mut ws = Workspace::default();
    branch_bound::search(&compiled, &[], &mut ws, &DenseOracle(problem))
}

fn effective_sense(sense: Sense, rhs_nonneg: bool) -> Sense {
    if rhs_nonneg {
        sense
    } else {
        match sense {
            Sense::Le => Sense::Ge,
            Sense::Ge => Sense::Le,
            Sense::Eq => Sense::Eq,
        }
    }
}

fn pivot(tableau: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, ncols: usize) {
    let p = tableau[row][col];
    for cell in tableau[row].iter_mut().take(ncols + 1) {
        *cell /= p;
    }
    let (above, rest) = tableau.split_at_mut(row);
    let (pivot_row, below) = rest.split_first_mut().expect("pivot row exists");
    for other in above.iter_mut().chain(below.iter_mut()) {
        let factor = other[col];
        if factor.abs() > 0.0 {
            for (cell, &pivot_cell) in other.iter_mut().zip(pivot_row.iter()).take(ncols + 1) {
                *cell -= factor * pivot_cell;
            }
        }
    }
    basis[row] = col;
}

fn pivot_with_obj(
    tableau: &mut [Vec<f64>],
    obj_row: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    ncols: usize,
) {
    pivot(tableau, basis, row, col, ncols);
    let factor = obj_row[col];
    if factor.abs() > 0.0 {
        for (cell, &pivot_cell) in obj_row.iter_mut().zip(tableau[row].iter()).take(ncols + 1) {
            *cell -= factor * pivot_cell;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, VarKind};

    fn optimal(outcome: SimplexOutcome) -> (f64, Vec<f64>) {
        match outcome {
            SimplexOutcome::Optimal {
                objective, values, ..
            } => (objective, values),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> obj 36 at (2, 6)
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 3.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, None, 5.0);
        p.add_constraint("c1", &[(x, 1.0)], Sense::Le, 4.0);
        p.add_constraint("c2", &[(y, 2.0)], Sense::Le, 12.0);
        p.add_constraint("c3", &[(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let (obj, vals) = optimal(SimplexSolver::from_problem(&p, &[]).solve_dense().unwrap());
        assert!((obj - 36.0).abs() < 1e-6);
        assert!((vals[0] - 2.0).abs() < 1e-6);
        assert!((vals[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_need_phase_one() {
        // min 2x + 3y s.t. x + y >= 10, x >= 3 -> (10, 0)? check: x+y>=10, x>=3.
        // cost 2x+3y minimized by taking all x: x=10,y=0 -> 20.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 2.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, None, 3.0);
        p.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.add_constraint("c2", &[(x, 1.0)], Sense::Ge, 3.0);
        let (obj, vals) = optimal(SimplexSolver::from_problem(&p, &[]).solve_dense().unwrap());
        assert!((obj - 20.0).abs() < 1e-6);
        assert!((vals[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_system() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("lo", &[(x, 1.0)], Sense::Ge, 5.0);
        p.add_constraint("hi", &[(x, 1.0)], Sense::Le, 2.0);
        assert_eq!(
            SimplexSolver::from_problem(&p, &[]).solve_dense().unwrap(),
            SimplexOutcome::Infeasible
        );
    }

    #[test]
    fn unbounded_maximization() {
        let mut p = Problem::maximize();
        let _x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, None, 0.0);
        p.add_constraint("c", &[(y, 1.0)], Sense::Le, 4.0);
        // x does not appear in any constraint -> unbounded above
        assert_eq!(
            SimplexSolver::from_problem(&p, &[]).solve_dense().unwrap(),
            SimplexOutcome::Unbounded
        );
    }

    #[test]
    fn no_constraints_origin_optimum() {
        let mut p = Problem::minimize();
        let _x = p.add_var("x", VarKind::Continuous, 2.0, None, 5.0);
        let (obj, vals) = optimal(SimplexSolver::from_problem(&p, &[]).solve_dense().unwrap());
        assert!((vals[0] - 2.0).abs() < 1e-9);
        assert!((obj - 10.0).abs() < 1e-9);
    }

    #[test]
    fn no_constraints_unbounded_min() {
        let mut p = Problem::minimize();
        let _x = p.add_var("x", VarKind::Continuous, 0.0, None, -1.0);
        assert_eq!(
            SimplexSolver::from_problem(&p, &[]).solve_dense().unwrap(),
            SimplexOutcome::Unbounded
        );
    }

    #[test]
    fn equality_and_lower_bound_shift() {
        // min x + 4y s.t. x + y = 8, lower bounds x>=1, y>=2 -> x=6, y=2, obj 14
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 1.0, None, 1.0);
        let y = p.add_var("y", VarKind::Continuous, 2.0, None, 4.0);
        p.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Sense::Eq, 8.0);
        let (obj, vals) = optimal(SimplexSolver::from_problem(&p, &[]).solve_dense().unwrap());
        assert!((obj - 14.0).abs() < 1e-6, "obj={obj}");
        assert!((vals[0] - 6.0).abs() < 1e-6);
        assert!((vals[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn extra_bounds_constrain_solution() {
        // max x s.t. x <= 10, extra bound x <= 3.5
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, Some(10.0), 1.0);
        let solver = SimplexSolver::from_problem(&p, &[(x, Sense::Le, 3.5)]);
        let (obj, _) = optimal(solver.solve_dense().unwrap());
        assert!((obj - 3.5).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP; Bland's rule must terminate.
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
        let (obj, _) = optimal(SimplexSolver::from_problem(&p, &[]).solve_dense().unwrap());
        assert!((obj - 1.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x >= 3 written as -x <= -3
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("c", &[(x, -1.0)], Sense::Le, -3.0);
        let (obj, _) = optimal(SimplexSolver::from_problem(&p, &[]).solve_dense().unwrap());
        assert!((obj - 3.0).abs() < 1e-6);
    }
}
