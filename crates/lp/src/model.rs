//! The problem-building API: variables, constraints, objectives, solutions.

use crate::error::LpError;
use crate::expr::{LinearExpr, VarId};
use crate::sparse::{Relaxed, SparseProblem, Workspace};

/// Whether a variable must take integer values in the final solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable (solved via branch-and-bound).
    Integer,
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize the objective expression.
    Minimize,
    /// Maximize the objective expression.
    Maximize,
}

/// A decision variable: bounds, kind and objective coefficient.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Human-readable name used in error messages and debugging output.
    pub name: String,
    /// Integrality requirement.
    pub kind: VarKind,
    /// Lower bound (must be finite and non-negative for the simplex form used
    /// here; the paper's allocation variables are counts, so this is not a
    /// practical restriction).
    pub lower: f64,
    /// Optional upper bound.
    pub upper: Option<f64>,
    /// Coefficient of this variable in the objective.
    pub objective: f64,
}

/// A linear constraint `expr (<=|>=|==) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Human-readable name.
    pub name: String,
    /// Left-hand-side linear expression.
    pub expr: LinearExpr,
    /// Direction.
    pub sense: Sense,
    /// Right-hand-side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Returns `true` when `assignment` satisfies this constraint within
    /// tolerance `tol`.
    pub fn is_satisfied(&self, assignment: &[f64], tol: f64) -> bool {
        let lhs = self.expr.evaluate(assignment);
        match self.sense {
            Sense::Le => lhs <= self.rhs + tol,
            Sense::Ge => lhs >= self.rhs - tol,
            Sense::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// Counters describing the work performed while solving a [`Problem`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored (1 for a pure LP).
    pub nodes: usize,
    /// Total simplex pivots across all LP relaxations.
    pub pivots: usize,
    /// Nodes re-entered from a parent basis without running phase 1
    /// (warm-started dual-simplex re-entries).
    pub phase1_skips: usize,
}

/// The result of a successful solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal objective value in the problem's own direction.
    pub objective: f64,
    /// Values of all variables, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Work counters.
    pub stats: SolveStats,
}

impl Solution {
    /// Value assigned to `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Value of `var` rounded to the nearest integer, useful for integer
    /// variables whose LP value carries floating-point noise.
    pub fn value_rounded(&self, var: VarId) -> i64 {
        self.value(var).round() as i64
    }
}

/// A linear or mixed-integer linear program.
///
/// Build the problem with [`Problem::add_var`] and
/// [`Problem::add_constraint`], then call [`Problem::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    objective: Objective,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty minimization problem.
    pub fn minimize() -> Self {
        Self::new(Objective::Minimize)
    }

    /// Creates an empty maximization problem.
    pub fn maximize() -> Self {
        Self::new(Objective::Maximize)
    }

    /// Creates an empty problem with the given optimization direction.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            variables: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Optimization direction of the problem.
    pub fn objective_sense(&self) -> Objective {
        self.objective
    }

    /// Adds a decision variable and returns its handle.
    ///
    /// `lower` must be finite and non-negative; `upper`, when present, must be
    /// at least `lower`. Violations are reported by [`Problem::solve`] rather
    /// than here so that the builder stays infallible.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: Option<f64>,
        objective: f64,
    ) -> VarId {
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            kind,
            lower,
            upper,
            objective,
        });
        id
    }

    /// Adds the linear constraint `sum coeff_j x_j  sense  rhs`.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: &[(VarId, f64)],
        sense: Sense,
        rhs: f64,
    ) -> &mut Self {
        let expr: LinearExpr = terms.iter().copied().collect();
        self.add_constraint_expr(name, expr, sense, rhs)
    }

    /// Adds a constraint from an already-built [`LinearExpr`].
    pub fn add_constraint_expr(
        &mut self,
        name: impl Into<String>,
        expr: LinearExpr,
        sense: Sense,
        rhs: f64,
    ) -> &mut Self {
        self.constraints.push(Constraint {
            name: name.into(),
            expr,
            sense,
            rhs,
        });
        self
    }

    /// The variables added so far, in insertion order.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The constraints added so far, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` when `assignment` satisfies every constraint and every
    /// variable bound within tolerance `tol`.
    pub fn is_feasible(&self, assignment: &[f64], tol: f64) -> bool {
        if assignment.len() != self.variables.len() {
            return false;
        }
        for (v, &x) in self.variables.iter().zip(assignment) {
            if x < v.lower - tol {
                return false;
            }
            if let Some(up) = v.upper {
                if x > up + tol {
                    return false;
                }
            }
            if v.kind == VarKind::Integer && (x - x.round()).abs() > tol {
                return false;
            }
        }
        self.constraints
            .iter()
            .all(|c| c.is_satisfied(assignment, tol))
    }

    /// Evaluates the objective for an assignment (in the problem's own
    /// direction, i.e. larger is better for maximization).
    pub fn objective_value(&self, assignment: &[f64]) -> f64 {
        self.variables
            .iter()
            .enumerate()
            .map(|(j, v)| v.objective * assignment.get(j).copied().unwrap_or(0.0))
            .sum()
    }

    fn validate(&self) -> Result<(), LpError> {
        for v in &self.variables {
            if !v.lower.is_finite() || !v.objective.is_finite() {
                return Err(LpError::NonFiniteInput {
                    what: format!("variable `{}`", v.name),
                });
            }
            if let Some(up) = v.upper {
                if !up.is_finite() {
                    return Err(LpError::NonFiniteInput {
                        what: format!("upper bound of `{}`", v.name),
                    });
                }
                if up < v.lower {
                    return Err(LpError::InvalidBounds {
                        name: v.name.clone(),
                    });
                }
            }
        }
        for c in &self.constraints {
            if !c.rhs.is_finite() || !c.expr.is_finite() {
                return Err(LpError::NonFiniteInput {
                    what: format!("constraint `{}`", c.name),
                });
            }
            for (var, _) in c.expr.iter() {
                if var.index() >= self.variables.len() {
                    return Err(LpError::UnknownVariable { index: var.index() });
                }
            }
        }
        Ok(())
    }

    /// Solves the problem, integer variables included: compile, then the
    /// solve [`SparseProblem::solve_with_rhs`] runs.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Infeasible`] or [`LpError::Unbounded`] when the
    /// model has no optimum, input-validation errors for malformed models,
    /// and [`LpError::NodeLimit`] when the node budget is exhausted before
    /// the search completes.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.compile()?.solve_with_rhs(&[])
    }

    /// Validates the problem and compiles it into the sparse form every
    /// solve works from. A caller that re-solves one structure under
    /// changing right-hand sides keeps the compiled form and calls
    /// [`SparseProblem::solve_with_rhs`].
    ///
    /// # Errors
    ///
    /// Input-validation errors for malformed models.
    pub fn compile(&self) -> Result<SparseProblem, LpError> {
        self.validate()?;
        Ok(SparseProblem::from_problem(self))
    }

    /// Solves only the LP relaxation (integrality requirements dropped).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Infeasible`] / [`LpError::Unbounded`] like
    /// [`Problem::solve`].
    pub fn solve_relaxation(&self) -> Result<Solution, LpError> {
        let compiled = self.compile()?;
        let mut ws = Workspace::default();
        ws.begin(&compiled, &[])?;
        match ws.relax(&compiled, std::iter::empty(), None)? {
            Relaxed::Optimal {
                objective, pivots, ..
            } => Ok(Solution {
                objective,
                values: ws.values,
                stats: SolveStats {
                    nodes: 1,
                    pivots,
                    phase1_skips: 0,
                },
            }),
            Relaxed::Infeasible => Err(LpError::Infeasible),
            Relaxed::Unbounded => Err(LpError::Unbounded),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_lp_maximization() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 3.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, None, 2.0);
        p.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        p.add_constraint("c2", &[(x, 1.0), (y, 3.0)], Sense::Le, 6.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 12.0).abs() < 1e-6);
        assert!((sol.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraint() {
        // min x + y s.t. x + y = 5, x >= 2 -> obj 5
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 2.0, None, 1.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Sense::Eq, 5.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!(sol.value(x) >= 2.0 - 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, Some(1.0), 1.0);
        p.add_constraint("c", &[(x, 1.0)], Sense::Ge, 10.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("c", &[(x, 1.0)], Sense::Ge, 1.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn invalid_bounds_detected() {
        let mut p = Problem::minimize();
        p.add_var("x", VarKind::Continuous, 5.0, Some(1.0), 1.0);
        assert!(matches!(p.solve(), Err(LpError::InvalidBounds { .. })));
    }

    #[test]
    fn non_finite_rejected() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, f64::NAN);
        p.add_constraint("c", &[(x, 1.0)], Sense::Ge, 1.0);
        assert!(matches!(p.solve(), Err(LpError::NonFiniteInput { .. })));
        assert!(matches!(p.compile(), Err(LpError::NonFiniteInput { .. })));
        // a non-finite coefficient, which only the row carries
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("c", &[(x, f64::INFINITY)], Sense::Ge, 1.0);
        assert!(matches!(p.compile(), Err(LpError::NonFiniteInput { .. })));
    }

    #[test]
    fn empty_problem_solves_trivially() {
        let p = Problem::minimize();
        let sol = p.solve().unwrap();
        assert_eq!(sol.objective, 0.0);
        assert!(sol.values.is_empty());
    }

    #[test]
    fn integer_knapsack_style() {
        // max 5a + 4b s.t. 6a + 4b <= 24, a + 2b <= 6, integer -> a=4,b=0 -> 20? check:
        // 6*4=24 ok, 4 <= 6 ok, obj 20. Alternative a=3,b=1: 22 <= 24, 5 <= 6, obj 19.
        let mut p = Problem::maximize();
        let a = p.add_var("a", VarKind::Integer, 0.0, None, 5.0);
        let b = p.add_var("b", VarKind::Integer, 0.0, None, 4.0);
        p.add_constraint("c1", &[(a, 6.0), (b, 4.0)], Sense::Le, 24.0);
        p.add_constraint("c2", &[(a, 1.0), (b, 2.0)], Sense::Le, 6.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert_eq!(sol.value_rounded(a), 4);
        assert_eq!(sol.value_rounded(b), 0);
    }

    #[test]
    fn integer_solution_differs_from_relaxation() {
        // max x s.t. 2x <= 5 -> relaxation 2.5, integer 2
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Integer, 0.0, None, 1.0);
        p.add_constraint("c", &[(x, 2.0)], Sense::Le, 5.0);
        let relaxed = p.solve_relaxation().unwrap();
        assert!((relaxed.objective - 2.5).abs() < 1e-6);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn is_feasible_checks_bounds_and_integrality() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.0, Some(10.0), 1.0);
        p.add_constraint("c", &[(x, 1.0)], Sense::Ge, 2.0);
        assert!(p.is_feasible(&[3.0], 1e-9));
        assert!(!p.is_feasible(&[1.0], 1e-9)); // violates constraint
        assert!(!p.is_feasible(&[3.5], 1e-9)); // fractional integer
        assert!(!p.is_feasible(&[11.0], 1e-9)); // above upper bound
        assert!(!p.is_feasible(&[], 1e-9)); // wrong arity
    }

    #[test]
    fn upper_bounds_respected() {
        // min -x (i.e. max x) with x <= 7.5 upper bound
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, Some(7.5), -1.0);
        let sol = p.solve().unwrap();
        assert!((sol.value(x) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn unknown_variable_rejected() {
        let mut donor = Problem::minimize();
        let _a = donor.add_var("a", VarKind::Continuous, 0.0, None, 1.0);
        let foreign = VarId(5);
        let mut p = Problem::minimize();
        let _x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("bad", &[(foreign, 1.0)], Sense::Le, 1.0);
        assert!(matches!(
            p.solve(),
            Err(LpError::UnknownVariable { index: 5 })
        ));
        // the one public way to build a `SparseProblem` refuses it too,
        // where an unvalidated transpose would index past its columns
        assert!(matches!(
            p.compile(),
            Err(LpError::UnknownVariable { index: 5 })
        ));
    }

    #[test]
    fn negative_rhs_handled() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
        p.add_constraint("c", &[(x, -1.0)], Sense::Le, -3.0);
        let sol = p.solve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }
}
