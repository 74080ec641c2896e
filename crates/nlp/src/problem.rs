//! Structured NLP problem representation.

use crate::barrier::PINNED_FEAS_TOL;
use crate::term::ScalarFn;

/// A constraint `g(x) <= 0` of the structured form
/// `Σ linear_j·x_j + Σ φ_v(x_v) + constant <= 0`.
#[derive(Debug, Clone, Default)]
pub struct ConstraintFn {
    /// Sparse linear part: `(variable index, coefficient)`.
    pub linear: Vec<(usize, f64)>,
    /// Univariate nonlinear parts: `(variable index, φ)`.
    pub nonlinear: Vec<(usize, ScalarFn)>,
    /// Additive constant.
    pub constant: f64,
    /// Optional label for diagnostics.
    pub name: String,
}

impl ConstraintFn {
    /// Empty constraint (`0 <= 0`).
    pub fn new(name: impl Into<String>) -> Self {
        ConstraintFn {
            name: name.into(),
            ..ConstraintFn::default()
        }
    }

    /// Adds a linear term.
    pub fn linear_term(mut self, var: usize, coeff: f64) -> Self {
        self.linear.push((var, coeff));
        self
    }

    /// Adds a univariate nonlinear term.
    pub fn nonlinear_term(mut self, var: usize, f: ScalarFn) -> Self {
        if !f.is_zero() {
            self.nonlinear.push((var, f));
        }
        self
    }

    /// Sets the additive constant.
    pub fn with_constant(mut self, c: f64) -> Self {
        self.constant = c;
        self
    }

    /// Whether the row holds at `x` as a row whose columns are all pinned
    /// there: `g(x)` at most `PINNED_FEAS_TOL` (1e-7) times
    /// `1 + Σ|a_j·x_j| + |constant|`. Such a row is checked once instead of
    /// being enforced, because it may sit exactly on its boundary (a
    /// saturated capacity row), where no strict interior exists.
    pub fn holds_pinned(&self, x: &[f64]) -> bool {
        let size: f64 = self.linear.iter().map(|&(v, co)| (co * x[v]).abs()).sum();
        self.eval(x) <= PINNED_FEAS_TOL * (1.0 + size + self.constant.abs())
    }

    /// Whether a term with a nonzero coefficient sits on a free variable.
    pub(crate) fn touches_free(&self, is_free: &[bool]) -> bool {
        self.linear
            .iter()
            .any(|&(v, co)| is_free[v] && !hslb_linalg::approx::exactly_zero(co))
            || self
                .nonlinear
                .iter()
                .any(|(v, f)| is_free[*v] && !f.is_zero())
    }

    /// The free columns (`col_of` maps a free variable to its column) any
    /// term sits on, increasing and distinct.
    pub(crate) fn free_support(
        &self,
        col_of: &std::collections::HashMap<usize, usize>,
    ) -> Vec<usize> {
        let mut support: Vec<usize> = self
            .linear
            .iter()
            .map(|&(v, _)| v)
            .chain(self.nonlinear.iter().map(|(v, _)| *v))
            .filter_map(|v| col_of.get(&v).copied())
            .collect();
        support.sort_unstable();
        support.dedup();
        support
    }

    /// Evaluates `g(x)`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let lin: f64 = self.linear.iter().map(|&(v, c)| c * x[v]).sum();
        let nln: f64 = self.nonlinear.iter().map(|(v, f)| f.eval(x[*v])).sum();
        lin + nln + self.constant
    }

    /// Accumulates `∇g(x)` into a dense gradient vector.
    pub fn add_gradient(&self, x: &[f64], grad: &mut [f64], scale: f64) {
        for &(v, c) in &self.linear {
            grad[v] += scale * c;
        }
        for (v, f) in &self.nonlinear {
            grad[*v] += scale * f.d1(x[*v]);
        }
    }

    /// Dense gradient (convenience).
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; x.len()];
        self.add_gradient(x, &mut g, 1.0);
        g
    }

    /// Diagonal of `∇²g(x)` accumulated into `diag` with a scale factor.
    /// (The Hessian of a structured constraint is diagonal because every
    /// nonlinear term is univariate.)
    pub fn add_hessian_diag(&self, x: &[f64], diag: &mut [f64], scale: f64) {
        for (v, f) in &self.nonlinear {
            diag[*v] += scale * f.d2(x[*v]);
        }
    }

    /// Whether this constraint is convex (all terms convex).
    pub fn is_convex(&self) -> bool {
        self.nonlinear.iter().all(|(_, f)| f.is_convex())
    }

    /// Whether the constraint has no nonlinear part.
    pub fn is_linear(&self) -> bool {
        self.nonlinear.is_empty()
    }

    /// The outer-approximation linearization of this constraint around `x0`:
    /// returns `(coefficients, rhs)` such that `coeffs·x <= rhs` is valid
    /// for every `x` with `g(x) <= 0` **when the constraint is convex**
    /// (first-order underestimation: `g(x) >= g(x0) + ∇g(x0)ᵀ(x - x0)`).
    pub fn linearize(&self, x0: &[f64]) -> (Vec<(usize, f64)>, f64) {
        let g0 = self.eval(x0);
        let grad = self.gradient(x0);
        let mut coeffs = Vec::new();
        let mut grad_dot_x0 = 0.0;
        for (v, gv) in grad.iter().enumerate() {
            if !hslb_linalg::approx::exactly_zero(*gv) {
                coeffs.push((v, *gv));
                grad_dot_x0 += gv * x0[v];
            }
        }
        // g(x0) + ∇gᵀ(x - x0) <= 0  ⇔  ∇gᵀ x <= ∇gᵀ x0 - g(x0)
        (coeffs, grad_dot_x0 - g0)
    }
}

/// A linear equality `Σ coeffs·x = rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearEq {
    pub coeffs: Vec<(usize, f64)>,
    pub rhs: f64,
}

impl LinearEq {
    /// Whether a nonzero coefficient sits on a free variable.
    pub(crate) fn touches_free(&self, is_free: &[bool]) -> bool {
        self.coeffs
            .iter()
            .any(|&(v, co)| is_free[v] && !hslb_linalg::approx::exactly_zero(co))
    }

    /// Residual `Σ coeffs·x - rhs` (zero when satisfied).
    pub fn residual(&self, x: &[f64]) -> f64 {
        self.coeffs.iter().map(|&(v, c)| c * x[v]).sum::<f64>() - self.rhs
    }

    /// [`ConstraintFn::holds_pinned`] for an equality: the residual at `x`
    /// is at most `PINNED_FEAS_TOL` (1e-7) times `1 + Σ|a_j·x_j| + |rhs|`.
    pub fn holds_pinned(&self, x: &[f64]) -> bool {
        let size: f64 = self.coeffs.iter().map(|&(v, co)| (co * x[v]).abs()).sum();
        self.residual(x).abs() <= PINNED_FEAS_TOL * (1.0 + size + self.rhs.abs())
    }
}

/// A structured NLP:
/// `min cᵀx  s.t.  g_i(x) <= 0,  A x = b,  lo <= x <= hi`.
#[derive(Debug, Clone, Default)]
pub struct NlpProblem {
    costs: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    constraints: Vec<ConstraintFn>,
    equalities: Vec<LinearEq>,
}

impl NlpProblem {
    /// Empty problem.
    pub fn new() -> Self {
        NlpProblem::default()
    }

    /// Adds a variable; returns its index.
    ///
    /// # Panics
    /// Panics on crossed or NaN bounds.
    pub fn add_var(&mut self, cost: f64, lo: f64, hi: f64) -> usize {
        assert!(!lo.is_nan() && !hi.is_nan(), "bounds must not be NaN");
        assert!(lo <= hi, "lower bound {lo} exceeds upper bound {hi}");
        self.costs.push(cost);
        self.lo.push(lo);
        self.hi.push(hi);
        self.costs.len() - 1
    }

    /// Adds a constraint `g(x) <= 0`.
    ///
    /// # Panics
    /// Panics if the constraint references a variable that does not exist.
    pub fn add_constraint(&mut self, c: ConstraintFn) -> usize {
        let n = self.costs.len();
        for &(v, _) in &c.linear {
            assert!(v < n, "constraint references unknown variable {v}");
        }
        for (v, _) in &c.nonlinear {
            assert!(*v < n, "constraint references unknown variable {v}");
        }
        self.constraints.push(c);
        self.constraints.len() - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Adds a linear equality `Σ coeffs·x = rhs`.
    ///
    /// # Panics
    /// Panics on references to unknown variables.
    pub fn add_linear_eq(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) -> usize {
        let n = self.costs.len();
        for &(v, _) in &coeffs {
            assert!(v < n, "equality references unknown variable {v}");
        }
        self.equalities.push(LinearEq { coeffs, rhs });
        self.equalities.len() - 1
    }

    /// Linear equalities.
    pub fn equalities(&self) -> &[LinearEq] {
        &self.equalities
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective coefficients.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Lower bounds.
    pub fn lowers(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    pub fn uppers(&self) -> &[f64] {
        &self.hi
    }

    /// Mutable bound setters used by branch-and-bound to fix/split vars.
    pub fn set_bounds(&mut self, var: usize, lo: f64, hi: f64) {
        assert!(var < self.num_vars());
        assert!(lo <= hi, "lower bound {lo} exceeds upper bound {hi}");
        self.lo[var] = lo;
        self.hi[var] = hi;
    }

    /// Constraints.
    pub fn constraints(&self) -> &[ConstraintFn] {
        &self.constraints
    }

    /// Objective value at `x`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.costs.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Max constraint violation (0 when feasible), ignoring bounds. Counts
    /// both inequality excess and equality residuals.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let ineq = self
            .constraints
            .iter()
            .map(|c| c.eval(x).max(0.0))
            .fold(0.0, f64::max);
        let eq = self
            .equalities
            .iter()
            .map(|e| e.residual(x).abs())
            .fold(0.0, f64::max);
        ineq.max(eq)
    }

    /// Whether `x` satisfies bounds and all constraints within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for ((&xi, &lo), &hi) in x.iter().zip(&self.lo).zip(&self.hi) {
            if xi < lo - tol || xi > hi + tol {
                return false;
            }
        }
        self.max_violation(x) <= tol
    }

    /// Whether the problem is convex (every constraint convex; objective is
    /// linear, hence convex).
    pub fn is_convex(&self) -> bool {
        self.constraints.iter().all(ConstraintFn::is_convex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{ScalarFn, Term};

    fn sample_constraint() -> ConstraintFn {
        // g(x, T) = 100/x + 2x - T + 5 <= 0
        ConstraintFn::new("g")
            .nonlinear_term(0, ScalarFn::perf_model(100.0, 2.0, 1.0))
            .linear_term(1, -1.0)
            .with_constant(5.0)
    }

    #[test]
    fn eval_and_gradient() {
        let g = sample_constraint();
        let x = [10.0, 40.0];
        // 100/10 + 20 - 40 + 5 = -5
        assert!((g.eval(&x) + 5.0).abs() < 1e-12);
        let grad = g.gradient(&x);
        // d/dx = -100/x² + 2 = 1; d/dT = -1
        assert!((grad[0] - 1.0).abs() < 1e-12);
        assert!((grad[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn hessian_diag() {
        let g = sample_constraint();
        let mut diag = vec![0.0; 2];
        g.add_hessian_diag(&[10.0, 40.0], &mut diag, 1.0);
        // d²/dx² = 200/x³ = 0.2
        assert!((diag[0] - 0.2).abs() < 1e-12);
        assert_eq!(diag[1], 0.0);
    }

    #[test]
    fn linearization_is_valid_underestimate() {
        let g = sample_constraint();
        let x0 = [10.0, 40.0];
        let (coeffs, rhs) = g.linearize(&x0);
        // For a convex g, any x with g(x) <= 0 must satisfy the cut.
        for &(xv, tv) in &[(5.0, 50.0), (20.0, 60.0), (8.0, 35.0)] {
            let x = [xv, tv];
            if g.eval(&x) <= 0.0 {
                let lhs: f64 = coeffs.iter().map(|&(v, c)| c * x[v]).sum();
                assert!(lhs <= rhs + 1e-9, "cut wrongly excludes feasible {x:?}");
            }
        }
        // And the cut must be tight at the linearization point:
        let lhs0: f64 = coeffs.iter().map(|&(v, c)| c * x0[v]).sum();
        assert!((lhs0 - (rhs + g.eval(&x0))).abs() < 1e-9);
    }

    #[test]
    fn problem_feasibility() {
        let mut p = NlpProblem::new();
        let x = p.add_var(0.0, 1.0, 100.0);
        let t = p.add_var(1.0, 0.0, 1e6);
        assert_eq!((x, t), (0, 1));
        p.add_constraint(sample_constraint());
        assert!(p.is_feasible(&[10.0, 40.0], 1e-9));
        assert!(!p.is_feasible(&[10.0, 20.0], 1e-9)); // violates g
        assert!(!p.is_feasible(&[0.5, 40.0], 1e-9)); // violates bound
        assert!(p.is_convex());
    }

    #[test]
    fn nonconvex_detected() {
        let mut p = NlpProblem::new();
        p.add_var(0.0, 1.0, 10.0);
        let mut f = ScalarFn::new();
        f.push(Term::PowerGrowth { b: 1.0, c: 0.5 }); // concave
        p.add_constraint(ConstraintFn::new("bad").nonlinear_term(0, f));
        assert!(!p.is_convex());
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn dangling_constraint_panics() {
        let mut p = NlpProblem::new();
        p.add_constraint(ConstraintFn::new("g").linear_term(2, 1.0));
    }
}
