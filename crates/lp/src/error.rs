//! Error type shared by the LP/ILP solver.

use std::error::Error;
use std::fmt;

/// Errors produced while building or solving a [`crate::Problem`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded in the direction of optimization.
    Unbounded,
    /// A coefficient, bound, or right-hand side was not finite.
    NonFiniteInput {
        /// Human readable location of the offending value.
        what: String,
    },
    /// A variable id referenced a variable that does not belong to the problem.
    UnknownVariable {
        /// The raw index carried by the offending [`crate::VarId`].
        index: usize,
    },
    /// The branch-and-bound search exceeded its node budget before proving
    /// optimality.
    NodeLimit {
        /// Number of nodes explored before giving up.
        explored: usize,
    },
    /// A right-hand-side replacement named a row that does not belong to the
    /// problem.
    UnknownRow {
        /// The offending row index.
        index: usize,
    },
    /// The simplex iteration limit was exceeded.
    IterationLimit,
    /// The arithmetic reached a state no valid problem leads to (a singular
    /// start basis, an unbounded phase 1, a ratio test over NaNs).
    Numerical {
        /// What broke down.
        context: &'static str,
    },
    /// A variable's lower bound exceeds its upper bound.
    InvalidBounds {
        /// Name of the variable with inconsistent bounds.
        name: String,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "problem is infeasible"),
            LpError::Unbounded => write!(f, "objective is unbounded"),
            LpError::NonFiniteInput { what } => {
                write!(f, "non-finite input encountered in {what}")
            }
            LpError::UnknownVariable { index } => {
                write!(f, "variable id {index} does not belong to this problem")
            }
            LpError::NodeLimit { explored } => {
                write!(
                    f,
                    "branch-and-bound node limit reached after {explored} nodes"
                )
            }
            LpError::UnknownRow { index } => {
                write!(f, "row {index} does not belong to this problem")
            }
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::Numerical { context } => write!(f, "numerical breakdown: {context}"),
            LpError::InvalidBounds { name } => {
                write!(
                    f,
                    "variable `{name}` has lower bound greater than upper bound"
                )
            }
        }
    }
}

impl Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errors = [
            LpError::Infeasible,
            LpError::Unbounded,
            LpError::NonFiniteInput {
                what: "objective".into(),
            },
            LpError::UnknownVariable { index: 3 },
            LpError::NodeLimit { explored: 10 },
            LpError::UnknownRow { index: 9 },
            LpError::IterationLimit,
            LpError::Numerical {
                context: "singular start basis",
            },
            LpError::InvalidBounds { name: "x".into() },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LpError>();
    }
}
