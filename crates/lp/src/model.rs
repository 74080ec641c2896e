//! LP problem builder.

/// Index of a variable in a [`LinearProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Sense of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSense {
    /// `a·x <= b`
    Le,
    /// `a·x >= b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// A constraint row stored sparsely.
#[derive(Debug, Clone)]
pub struct Row {
    /// `(variable, coefficient)` pairs; duplicate variables are summed at
    /// solve time.
    pub coeffs: Vec<(VarId, f64)>,
    pub sense: RowSense,
    pub rhs: f64,
}

/// A linear program `min cᵀx` over bounded variables and constraint rows.
///
/// Build once, then [`crate::solve`] it; rows may be appended afterwards
/// (outer-approximation cuts) and the program re-solved.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    costs: Vec<f64>,
    lowers: Vec<f64>,
    uppers: Vec<f64>,
    rows: Vec<Row>,
    names: Vec<String>,
}

impl LinearProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with objective coefficient `cost` and bounds
    /// `lo <= x <= hi` (use `f64::NEG_INFINITY` / `f64::INFINITY` for free
    /// directions).
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn add_var(&mut self, cost: f64, lo: f64, hi: f64) -> VarId {
        assert!(!lo.is_nan() && !hi.is_nan(), "bounds must not be NaN");
        assert!(lo <= hi, "lower bound {lo} exceeds upper bound {hi}");
        let id = VarId(self.costs.len());
        self.costs.push(cost);
        self.lowers.push(lo);
        self.uppers.push(hi);
        self.names.push(format!("x{}", id.0));
        id
    }

    /// Adds a named variable (names appear in debug dumps only).
    pub fn add_named_var(&mut self, name: &str, cost: f64, lo: f64, hi: f64) -> VarId {
        let id = self.add_var(cost, lo, hi);
        // lint:allow(slice-index): `id` was issued by `add_var` just above.
        self.names[id.0] = name.to_string();
        id
    }

    /// Adds a constraint row; returns its index.
    ///
    /// # Panics
    /// Panics if any referenced variable does not exist or `rhs` is NaN.
    pub fn add_row(&mut self, coeffs: Vec<(VarId, f64)>, sense: RowSense, rhs: f64) -> usize {
        assert!(!rhs.is_nan(), "rhs must not be NaN");
        for (v, c) in &coeffs {
            assert!(
                v.0 < self.costs.len(),
                "row references unknown variable {v:?}"
            );
            assert!(c.is_finite(), "coefficients must be finite");
        }
        self.rows.push(Row { coeffs, sense, rhs });
        self.rows.len() - 1
    }

    /// Tightens (intersects) the bounds of an existing variable.
    ///
    /// Used by branch-and-bound to create child problems without rebuilding.
    ///
    /// # Panics
    /// Panics if the variable does not exist. An empty intersection is
    /// allowed (the LP becomes infeasible, which the solver reports).
    pub fn restrict_bounds(&mut self, var: VarId, lo: f64, hi: f64) {
        assert!(var.0 < self.costs.len());
        // lint:allow(slice-index): in-bounds by the assert above.
        let (l, u) = (&mut self.lowers[var.0], &mut self.uppers[var.0]);
        *l = l.max(lo);
        *u = u.min(hi);
    }

    /// Overwrites the bounds of a variable (no intersection) — used by
    /// branch-and-bound to install and restore node boxes.
    ///
    /// # Panics
    /// Panics if the variable does not exist or `lo > hi`.
    pub fn set_bounds(&mut self, var: VarId, lo: f64, hi: f64) {
        assert!(var.0 < self.costs.len());
        assert!(lo <= hi, "lower bound {lo} exceeds upper bound {hi}");
        // lint:allow(slice-index): in-bounds by the assert above.
        let (l, u) = (&mut self.lowers[var.0], &mut self.uppers[var.0]);
        *l = lo;
        *u = hi;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Objective coefficients.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Lower bounds.
    pub fn lowers(&self) -> &[f64] {
        &self.lowers
    }

    /// Upper bounds.
    pub fn uppers(&self) -> &[f64] {
        &self.uppers
    }

    /// Constraint rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Variable name (for diagnostics).
    ///
    /// # Panics
    /// Panics if the variable does not exist.
    pub fn name(&self, var: VarId) -> &str {
        // lint:allow(slice-index): a dangling VarId panics by documented contract.
        &self.names[var.0]
    }

    /// Evaluates a row's left-hand side at a point.
    ///
    /// # Panics
    /// Panics if the row does not exist or `x` is shorter than the
    /// variables the row references.
    pub fn row_activity(&self, row: usize, x: &[f64]) -> f64 {
        // lint:allow(slice-index): rows only reference VarIds validated by add_row.
        self.rows[row].coeffs.iter().map(|(v, c)| c * x[v.0]).sum()
    }

    /// Checks primal feasibility of `x` within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for ((&xi, &lo), &hi) in x.iter().zip(&self.lowers).zip(&self.uppers) {
            if xi < lo - tol || xi > hi + tol {
                return false;
            }
        }
        for (r, row) in self.rows.iter().enumerate() {
            let act = self.row_activity(r, x);
            let ok = match row.sense {
                RowSense::Le => act <= row.rhs + tol,
                RowSense::Ge => act >= row.rhs - tol,
                RowSense::Eq => (act - row.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Objective value at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.num_vars());
        self.costs.iter().zip(x).map(|(c, v)| c * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_dimensions() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 10.0);
        let y = lp.add_named_var("y", -1.0, 0.0, f64::INFINITY);
        lp.add_row(vec![(x, 1.0), (y, 2.0)], RowSense::Le, 4.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_rows(), 1);
        assert_eq!(lp.name(y), "y");
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn rejects_crossed_bounds() {
        let mut lp = LinearProgram::new();
        lp.add_var(0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rejects_dangling_reference() {
        let mut lp = LinearProgram::new();
        lp.add_row(vec![(VarId(3), 1.0)], RowSense::Eq, 0.0);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 5.0);
        lp.add_row(vec![(x, 2.0)], RowSense::Le, 6.0);
        assert!(lp.is_feasible(&[3.0], 1e-9));
        assert!(!lp.is_feasible(&[3.1], 1e-9));
        assert!(!lp.is_feasible(&[-0.1], 1e-9));
        assert!(!lp.is_feasible(&[], 1e-9));
    }

    #[test]
    fn restrict_bounds_intersects() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 0.0, 10.0);
        lp.restrict_bounds(x, 2.0, 20.0);
        assert_eq!(lp.lowers()[0], 2.0);
        assert_eq!(lp.uppers()[0], 10.0);
    }

    #[test]
    fn objective_and_activity() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(3.0, 0.0, 1.0);
        let y = lp.add_var(-2.0, 0.0, 1.0);
        let r = lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Eq, 1.0);
        assert!((lp.objective_value(&[1.0, 0.5]) - 2.0).abs() < 1e-12);
        assert!((lp.row_activity(r, &[1.0, 0.5]) - 1.5).abs() < 1e-12);
    }
}
