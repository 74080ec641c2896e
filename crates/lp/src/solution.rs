//! LP solve outcomes, and the optimality certificate that checks one
//! without trusting the solver that produced it.

use crate::model::{LinearProgram, RowSense};
use hslb_linalg::approx::{cert_check as check, cert_within as within};

/// Terminal status of a simplex run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible set.
    Unbounded,
    /// Iteration limit was reached before convergence (numerical trouble).
    IterationLimit,
}

/// Solution of a linear program.
#[derive(Debug, Clone)]
pub struct LpSolution {
    pub status: LpStatus,
    /// Primal values of the structural variables (empty unless `Optimal`).
    pub x: Vec<f64>,
    /// Objective value (`f64::INFINITY` when infeasible, `NEG_INFINITY` when
    /// unbounded).
    pub objective: f64,
    /// Dual values (simplex multipliers), one per row (empty unless
    /// `Optimal`).
    pub duals: Vec<f64>,
    /// Simplex pivots of every kind (includes `dual_pivots`).
    pub iterations: usize,
    /// Dual-simplex pivots spent restoring primal feasibility: those
    /// [`WarmLp::solve`](crate::WarmLp::solve) spent from a kept basis or
    /// from the slack basis, and those any solve spent after an optimum
    /// drifted off a row and the basis was refactorized (otherwise zero for
    /// `solve` and `solve_with`). `iterations - dual_pivots` are primal
    /// pivots: the two-phase solve's and any clean-up after the dual
    /// pivots. A dual attempt that was abandoned for the cold solve still
    /// counts here, as all of its work counts in `iterations` and the
    /// factorization counters below.
    pub dual_pivots: usize,
    /// Whether [`WarmLp::solve`](crate::WarmLp::solve) reused the basis
    /// kept from an earlier solve and finished from it. `false` when it
    /// started from the slack basis, when it fell back to the cold
    /// two-phase solve, and for `solve`/`solve_with`.
    pub warm_used: bool,
    /// Basis refactorizations performed by this solve. A `WarmLp`
    /// re-solve pivots on the factor kept from earlier solves and counts
    /// only the refactorizations it triggered itself.
    pub factorizations: u64,
    /// Product-form eta updates this solve appended.
    pub factor_updates: u64,
    /// Cumulative nonzeros across the sparse LU basis factors this solve
    /// built.
    pub fill_nnz: u64,
}

impl LpSolution {
    /// Whether the run ended with a usable optimal point.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }

    /// Checks that this is an optimum of `lp`, reading only `lp`, `x`,
    /// `duals` and `objective`, so the check does not trust the simplex.
    ///
    /// The duals follow the simplex's sign convention: with reduced costs
    /// `d = c − Aᵀy`, `y ≤ 0` on `Le` rows, `y ≥ 0` on `Ge` rows and `y` free
    /// on `Eq` rows. The checks, in order:
    /// 1. `x` satisfies every bound and every row;
    /// 2. every dual has the sign its row sense needs;
    /// 3. every reduced cost has the sign its bound needs: `d_j > 0` needs
    ///    a finite `lo_j` with `x_j` at it, `d_j < 0` a finite `hi_j` with
    ///    `x_j` at it;
    /// 4. complementary slackness: a nonzero dual needs its row active;
    /// 5. `objective` equals the dual objective
    ///    `bᵀy + Σ d_j⁺·lo_j + Σ d_j⁻·hi_j`.
    ///
    /// Every check is relative, at the simplex's feasibility tolerance
    /// 1e-7: a row scales by `1 + |rhs| + Σ|a_j·x_j|`, a bound by
    /// `1 + |bound|`, a dual by `1 + max|y|`, a reduced cost by
    /// `1 + |c_j| + Σ|a_rj·y_r|` and the gap by `1 + |cᵀx|`. A reduced cost
    /// within tolerance enters the dual objective as `d_j·x_j`: its sign is
    /// rounding noise, and the bound it would pick may be infinite or far
    /// from `x_j`. `Err` names the first violated condition, its row or
    /// column, and its size; a solution that is not `Optimal` is an `Err`.
    pub fn certify(&self, lp: &LinearProgram) -> Result<(), String> {
        if self.status != LpStatus::Optimal {
            return Err(format!("status: {:?}, not Optimal", self.status));
        }
        if self.x.len() != lp.num_vars() || self.duals.len() != lp.num_rows() {
            return Err(format!(
                "shape: {} values and {} duals for {} columns and {} rows",
                self.x.len(),
                self.duals.len(),
                lp.num_vars(),
                lp.num_rows()
            ));
        }
        let values = self.x.iter().chain(&self.duals);
        if let Some(v) = values.chain([&self.objective]).find(|v| !v.is_finite()) {
            return Err(format!("non-finite: the solution holds {v}"));
        }
        let boxes = || lp.lowers().iter().zip(lp.uppers()).zip(&self.x);

        // 1. Primal feasibility: bounds, then rows.
        for (j, ((&lo, &hi), &xj)) in boxes().enumerate() {
            let (viol, bound) = if xj < lo {
                (lo - xj, lo)
            } else {
                (xj - hi, hi)
            };
            check("primal bound", "column", j, viol.max(0.0), bound)?;
        }
        let mut slacks = Vec::with_capacity(lp.num_rows());
        for (r, row) in lp.rows().iter().enumerate() {
            let (act, size) = row.coeffs.iter().fold((0.0, 0.0), |(act, size), &(v, a)| {
                let ax = a * self.x.get(v.0).copied().unwrap_or(0.0);
                (act + ax, size + f64::abs(ax))
            });
            let slack = act - row.rhs;
            let viol = match row.sense {
                RowSense::Le => slack,
                RowSense::Ge => -slack,
                RowSense::Eq => slack.abs(),
            };
            let scale = row.rhs.abs() + size;
            check("primal row", "row", r, viol.max(0.0), scale)?;
            slacks.push((slack, scale));
        }

        // 2. Dual signs.
        let y_scale = self.duals.iter().fold(0.0f64, |m, y| m.max(y.abs()));
        for (r, (row, &y)) in lp.rows().iter().zip(&self.duals).enumerate() {
            let wrong = match row.sense {
                RowSense::Le => y,
                RowSense::Ge => -y,
                RowSense::Eq => 0.0,
            };
            check("dual sign", "row", r, wrong.max(0.0), y_scale)?;
        }

        // 3. Reduced costs d = c − Aᵀy, each scaled by the size of its
        // terms, and the dual objective's bound terms.
        let mut d: Vec<(f64, f64)> = lp.costs().iter().map(|&c| (c, c.abs())).collect();
        for (row, &y) in lp.rows().iter().zip(&self.duals) {
            for &(v, a) in &row.coeffs {
                if let Some((dj, size)) = d.get_mut(v.0) {
                    *dj -= a * y;
                    *size += f64::abs(a * y);
                }
            }
        }
        let mut dual_obj: f64 = lp
            .rows()
            .iter()
            .zip(&self.duals)
            .map(|(row, y)| row.rhs * y)
            .sum();
        for (j, (((&lo, &hi), &xj), &(dj, size))) in boxes().zip(&d).enumerate() {
            let (side, bound) = if dj > 0.0 {
                ("lower", lo)
            } else {
                ("upper", hi)
            };
            let at = if within(dj.abs(), size) {
                xj
            } else if bound.is_finite() {
                check(
                    "bound complementarity",
                    "column",
                    j,
                    (xj - bound).abs(),
                    bound,
                )?;
                bound
            } else {
                return Err(format!(
                    "reduced cost: column {j} has d = {dj:e} and an infinite {side} bound"
                ));
            };
            dual_obj += dj * at;
        }

        // 4. Complementary slackness on the inequality rows (an `Eq` row is
        // active by check 1).
        for (r, (&y, &(slack, scale))) in self.duals.iter().zip(&slacks).enumerate() {
            if !within(y.abs(), y_scale) {
                check("row complementarity", "row", r, slack.abs(), scale)?;
            }
        }

        // 5. The reported objective against the dual objective.
        let primal = lp.objective_value(&self.x);
        let gap = (self.objective - dual_obj).abs();
        if within(gap, primal) {
            return Ok(());
        }
        Err(format!(
            "objective gap: objective {} vs dual objective {dual_obj} ({:.1e} relative)",
            self.objective,
            gap / (1.0 + primal.abs())
        ))
    }

    /// An outcome without a point, reporting no factorization work:
    /// `objective` is `+∞` when infeasible, `−∞` when unbounded and NaN
    /// otherwise.
    pub(crate) fn without_point(status: LpStatus, iterations: usize) -> Self {
        let objective = match status {
            LpStatus::Infeasible => f64::INFINITY,
            LpStatus::Unbounded => f64::NEG_INFINITY,
            LpStatus::Optimal | LpStatus::IterationLimit => f64::NAN,
        };
        LpSolution {
            status,
            x: Vec::new(),
            objective,
            duals: Vec::new(),
            iterations,
            dual_pivots: 0,
            warm_used: false,
            factorizations: 0,
            factor_updates: 0,
            fill_nnz: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve;

    /// `min −x − 2y + w` s.t. `x + y ≤ 4`, `y ≤ 3`, `z = 0` with
    /// `x, y ≥ 0`, `w ∈ [0, 5]` in no row and `z` free: the optimum is
    /// `x = 1, y = 3, w = 0` with duals `(−1, −1, 0)`, and `w` has the
    /// reduced cost 1 at its lower bound.
    fn certified() -> (LinearProgram, LpSolution) {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0, 0.0, f64::INFINITY);
        let y = lp.add_var(-2.0, 0.0, f64::INFINITY);
        lp.add_var(1.0, 0.0, 5.0);
        let z = lp.add_var(0.0, f64::NEG_INFINITY, f64::INFINITY);
        lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Le, 4.0);
        lp.add_row(vec![(y, 1.0)], RowSense::Le, 3.0);
        lp.add_row(vec![(z, 1.0)], RowSense::Eq, 0.0);
        let sol = solve(&lp);
        assert_eq!(sol.certify(&lp), Ok(()));
        assert_eq!(sol.x, vec![1.0, 3.0, 0.0, 0.0]);
        assert_eq!(sol.duals, vec![-1.0, -1.0, 0.0]);
        (lp, sol)
    }

    fn rejects(lp: &LinearProgram, sol: &LpSolution, kind: &str) {
        let err = sol
            .certify(lp)
            .expect_err("a perturbed optimum must not certify");
        assert!(err.starts_with(kind), "expected {kind}, got {err}");
    }

    #[test]
    fn a_point_moved_off_its_active_bound_is_rejected() {
        let (lp, mut sol) = certified();
        sol.x[2] = 0.5;
        rejects(&lp, &sol, "bound complementarity: column 2");
    }

    #[test]
    fn a_le_row_dual_with_the_wrong_sign_is_rejected() {
        let (lp, mut sol) = certified();
        sol.duals[0] = -sol.duals[0];
        rejects(&lp, &sol, "dual sign: row 0");
    }

    #[test]
    fn a_shifted_objective_is_rejected() {
        let (lp, mut sol) = certified();
        sol.objective *= 1.0 + 1e-4;
        rejects(&lp, &sol, "objective gap");
    }

    #[test]
    fn an_infeasible_row_is_rejected() {
        let (lp, mut sol) = certified();
        sol.x[0] += 1.0;
        rejects(&lp, &sol, "primal row: row 0");
    }

    #[test]
    fn a_reduced_cost_toward_an_infinite_bound_is_rejected() {
        let (lp, mut sol) = certified();
        sol.duals[2] = 1.0;
        rejects(&lp, &sol, "reduced cost: column 3");
    }

    #[test]
    fn outcomes_without_an_optimum_are_rejected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 1.0);
        lp.add_row(vec![(x, 1.0)], RowSense::Ge, 2.0);
        rejects(&lp, &solve(&lp), "status: Infeasible");
        let (lp, mut sol) = certified();
        sol.duals.pop();
        rejects(&lp, &sol, "shape");
        sol.duals.push(f64::NAN);
        rejects(&lp, &sol, "non-finite");
    }
}
