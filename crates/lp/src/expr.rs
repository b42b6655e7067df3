//! Variable handles and linear expressions.

use std::collections::BTreeMap;
use std::ops::{Add, AddAssign, Mul};

/// Opaque handle to a decision variable owned by a [`crate::Problem`].
///
/// `VarId`s are only meaningful for the problem that created them; using a
/// handle with a different problem yields [`crate::LpError::UnknownVariable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw column index of the variable inside its owning problem.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A linear expression `sum_j c_j * x_j` over problem variables.
///
/// Terms referring to the same variable are merged. The expression is used to
/// build constraints and objectives incrementally.
///
/// ```
/// use mca_lp::{LinearExpr, Problem, VarKind};
/// let mut p = Problem::minimize();
/// let x = p.add_var("x", VarKind::Continuous, 0.0, None, 1.0);
/// let y = p.add_var("y", VarKind::Continuous, 0.0, None, 1.0);
/// let expr = LinearExpr::term(x, 2.0) + LinearExpr::term(y, 3.0);
/// assert_eq!(expr.coefficient(x), 2.0);
/// assert_eq!(expr.coefficient(y), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearExpr {
    terms: BTreeMap<VarId, f64>,
}

impl LinearExpr {
    /// Creates the empty expression (all coefficients zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an expression consisting of a single term `coeff * var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let mut e = Self::new();
        e.add_term(var, coeff);
        e
    }

    /// Adds `coeff * var` to the expression, merging with an existing term.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        *self.terms.entry(var).or_insert(0.0) += coeff;
        self
    }

    /// Returns the coefficient of `var` (zero when absent).
    pub fn coefficient(&self, var: VarId) -> f64 {
        self.terms.get(&var).copied().unwrap_or(0.0)
    }

    /// Iterates over `(variable, coefficient)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, *c))
    }

    /// Number of distinct variables with a stored coefficient.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the expression has no stored terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression against a dense assignment indexed by
    /// [`VarId::index`].
    ///
    /// Variables whose index falls outside `assignment` contribute zero.
    pub fn evaluate(&self, assignment: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|(v, c)| c * assignment.get(v.0).copied().unwrap_or(0.0))
            .sum()
    }

    /// Returns `true` if every stored coefficient is finite.
    pub fn is_finite(&self) -> bool {
        self.terms.values().all(|c| c.is_finite())
    }
}

impl FromIterator<(VarId, f64)> for LinearExpr {
    fn from_iter<I: IntoIterator<Item = (VarId, f64)>>(iter: I) -> Self {
        let mut e = Self::new();
        for (v, c) in iter {
            e.add_term(v, c);
        }
        e
    }
}

impl Extend<(VarId, f64)> for LinearExpr {
    fn extend<I: IntoIterator<Item = (VarId, f64)>>(&mut self, iter: I) {
        for (v, c) in iter {
            self.add_term(v, c);
        }
    }
}

impl Add for LinearExpr {
    type Output = LinearExpr;

    fn add(mut self, rhs: LinearExpr) -> LinearExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self
    }
}

impl AddAssign for LinearExpr {
    fn add_assign(&mut self, rhs: LinearExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
    }
}

impl Mul<f64> for LinearExpr {
    type Output = LinearExpr;

    fn mul(mut self, rhs: f64) -> LinearExpr {
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId(i)
    }

    #[test]
    fn term_merging() {
        let mut e = LinearExpr::new();
        e.add_term(v(0), 1.5);
        e.add_term(v(0), 2.5);
        e.add_term(v(1), -1.0);
        assert_eq!(e.coefficient(v(0)), 4.0);
        assert_eq!(e.coefficient(v(1)), -1.0);
        assert_eq!(e.coefficient(v(2)), 0.0);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn evaluate_uses_assignment() {
        let e: LinearExpr = [(v(0), 2.0), (v(2), 3.0)].into_iter().collect();
        assert_eq!(e.evaluate(&[1.0, 10.0, 4.0]), 2.0 + 12.0);
        // out-of-range variables contribute zero
        assert_eq!(e.evaluate(&[1.0]), 2.0);
    }

    #[test]
    fn add_and_scale() {
        let a = LinearExpr::term(v(0), 1.0) + LinearExpr::term(v(1), 2.0);
        let b = a.clone() * 3.0;
        assert_eq!(b.coefficient(v(0)), 3.0);
        assert_eq!(b.coefficient(v(1)), 6.0);
        let mut c = a.clone();
        c += b;
        assert_eq!(c.coefficient(v(0)), 4.0);
    }

    #[test]
    fn empty_expression_evaluates_to_zero() {
        let e = LinearExpr::new();
        assert!(e.is_empty());
        assert_eq!(e.evaluate(&[1.0, 2.0]), 0.0);
        assert!(e.is_finite());
    }

    #[test]
    fn non_finite_detected() {
        let e = LinearExpr::term(v(0), f64::NAN);
        assert!(!e.is_finite());
    }
}
