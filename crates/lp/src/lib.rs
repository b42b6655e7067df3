//! # mca-lp — linear and integer linear programming substrate
//!
//! The resource-allocation model of *Modeling Mobile Code Acceleration in the
//! Cloud* (ICDCS 2017, §IV-C) minimizes the hourly cost of the cloud instances
//! allocated to serve a predicted offloading workload, subject to per
//! acceleration-group capacity constraints and the cloud account instance cap.
//! The authors solved this with R's `lpSolveAPI`; this crate provides an
//! equivalent, dependency-free solver:
//!
//! * [`Problem`] — a small modelling API (continuous and integer variables,
//!   linear constraints, minimize/maximize objectives),
//! * a sparse **revised simplex** with a factorized basis and warm-started
//!   re-entry — the one LP engine. A [`Problem`] is compiled into a
//!   [`SparseProblem`] once ([`Problem::compile`]); a caller that re-solves
//!   one structure under changing right-hand sides keeps the compiled form
//!   ([`SparseProblem::solve_with_rhs`]), and every solve runs in one reused
//!   workspace, so its pivots allocate nothing, and
//! * **branch-and-bound** for integrality: every child node warm-starts from
//!   its parent's optimal basis instead of solving cold, and the two
//!   children of a node share one factorization of it.
//!
//! There is nothing to set: the node and pivot budgets, the integrality
//! tolerance and the pruning gap are constants. The two-phase dense tableau
//! this crate started from is the oracle of its own tests (`simplex.rs`,
//! under `cfg(test)`), driven through the same branch-and-bound search by
//! the search's private relaxation hook; `torture.rs` is the suite.
//!
//! The allocation instances produced by the paper's model grow with the
//! instance-type catalogue (one variable per group × type); the revised
//! simplex keeps the basis at the size of the constraint system so the
//! per-node cost does not scale with the variable count.
//!
//! # Example
//!
//! Minimize `3x + 5y` subject to `x + 2y >= 8`, `x + y <= 6`, integer `x, y`:
//!
//! ```
//! use mca_lp::{Problem, Sense, VarKind};
//!
//! # fn main() -> Result<(), mca_lp::LpError> {
//! let mut p = Problem::minimize();
//! let x = p.add_var("x", VarKind::Integer, 0.0, None, 3.0);
//! let y = p.add_var("y", VarKind::Integer, 0.0, None, 5.0);
//! p.add_constraint("cap", &[(x, 1.0), (y, 2.0)], Sense::Ge, 8.0);
//! p.add_constraint("cc", &[(x, 1.0), (y, 1.0)], Sense::Le, 6.0);
//! let sol = p.solve()?;
//! assert!((sol.objective - 20.0).abs() < 1e-6); // x = 0, y = 4
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// the library returns typed errors; only its tests may panic on a `None`
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod branch_bound;
mod error;
mod expr;
mod model;
#[cfg(test)]
mod simplex;
mod sparse;
#[cfg(test)]
pub(crate) mod test_rng;
#[cfg(test)]
mod torture;

pub use error::LpError;
pub use expr::{LinearExpr, VarId};
pub use model::{Constraint, Objective, Problem, Sense, Solution, SolveStats, VarKind, Variable};
pub use sparse::SparseProblem;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_example_solves() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.0, None, 3.0);
        let y = p.add_var("y", VarKind::Integer, 0.0, None, 5.0);
        p.add_constraint("cap", &[(x, 1.0), (y, 2.0)], Sense::Ge, 8.0);
        p.add_constraint("cc", &[(x, 1.0), (y, 1.0)], Sense::Le, 6.0);
        let sol = p.solve().expect("feasible");
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert!((sol.value(x) - 0.0).abs() < 1e-6);
        assert!((sol.value(y) - 4.0).abs() < 1e-6);
    }
}
