//! The optimality certificate of a convex NLP optimum: weak duality from
//! the solution's own multipliers, checked without trusting the barrier
//! that produced them.

use crate::barrier::{NlpSolution, NlpStatus};
use crate::problem::NlpProblem;
use hslb_linalg::approx::{cert_check as check, cert_within as within, exactly_zero};
use hslb_linalg::{Cholesky, Matrix, Qr};

/// Smallest ridge on the normal equations of a rank-deficient `ν` fit.
const RIDGE: f64 = 1e-12;

impl NlpSolution {
    /// Checks that this is an optimum of the convex problem `p`, reading
    /// only `p`, `x`, `multipliers` and `objective`, so the check does not
    /// trust the barrier.
    ///
    /// The problem is `min cᵀx` s.t. `g_i(x) ≤ 0`, `Ax = b`,
    /// `lo ≤ x ≤ hi`. With the reduced gradient
    /// `d = c + Σ λ_i ∇g_i(x) + Aᵀν` the checks, in order:
    /// 1. the solution is `Optimal`, has the problem's shape, holds only
    ///    finite values, and `p` is convex;
    /// 2. `x` satisfies every bound, inequality row and equality row;
    /// 3. every multiplier `λ_i` is nonnegative;
    /// 4. every `d_j` is within tolerance, or `x_j` sits at the finite
    ///    bound its sign needs: `lo_j` for `d_j > 0`, `hi_j` for `d_j < 0`;
    /// 5. `objective` equals `cᵀx`, and the gap `cᵀx − L` is within
    ///    tolerance, where
    ///    `L = cᵀx + Σ λ_i g_i(x) + νᵀ(Ax − b) + Σ d_j·(bound_j − x_j)`
    ///    over the coordinates check 4 put at a bound. Convexity makes `L`
    ///    a lower bound on the optimum over the box.
    ///
    /// The solution carries no equality multipliers, so `ν` is fitted by
    /// least squares on the stationarity rows of the coordinates strictly
    /// inside their bounds (beyond the bound tolerance). A coordinate at a
    /// bound whose reduced gradient then fails check 4 joins the fit, until
    /// none does; at a vertex, where no coordinate is interior, this finds
    /// the multipliers the bound-active coordinates determine.
    ///
    /// Every check is relative, at the simplex's feasibility tolerance
    /// 1e-7: an inequality row scales by
    /// `1 + |constant| + Σ|a_j·x_j| + Σ|φ_v(x_v)|`, an equality by
    /// `1 + |b| + Σ|a_j·x_j|`, a bound by `1 + |bound|`, a multiplier by
    /// `1 + max λ`, a reduced gradient by
    /// `1 + |c_j| + Σ|λ_i·∂g_i/∂x_j| + Σ|ν_e·a_ej|`, and the objective and
    /// the gap by `1 + |cᵀx|`. A reduced gradient within tolerance enters
    /// `L` as zero. `Err` starts with the name of the first violated
    /// condition and gives its row or column and its size.
    pub fn certify(&self, p: &NlpProblem) -> Result<(), String> {
        if self.status != NlpStatus::Optimal {
            return Err(format!("status: {:?}, not Optimal", self.status));
        }
        let (n, m) = (p.num_vars(), p.num_constraints());
        if self.x.len() != n || self.multipliers.len() != m {
            return Err(format!(
                "shape: {} values and {} multipliers for {n} variables and {m} rows",
                self.x.len(),
                self.multipliers.len()
            ));
        }
        let values = self.x.iter().chain(&self.multipliers);
        if let Some(v) = values.chain([&self.objective]).find(|v| !v.is_finite()) {
            return Err(format!("non-finite: the solution holds {v}"));
        }
        if let Some(i) = p.constraints().iter().position(|c| !c.is_convex()) {
            return Err(format!("nonconvex: row {i} has a nonconvex term"));
        }
        let x = &self.x;
        let (lo, hi) = (p.lowers(), p.uppers());

        // 2. Primal feasibility: bounds, inequality rows, equality rows.
        for j in 0..n {
            let (viol, bound) = if x[j] < lo[j] {
                (lo[j] - x[j], lo[j])
            } else {
                (x[j] - hi[j], hi[j])
            };
            check("primal bound", "column", j, viol.max(0.0), bound)?;
        }
        let primal = p.objective_value(x);
        let mut lagrangian = primal;
        for (i, (c, &lam)) in p.constraints().iter().zip(&self.multipliers).enumerate() {
            let linear = c.linear.iter().map(|&(v, a)| a * x[v]);
            let nonlinear = c.nonlinear.iter().map(|(v, f)| f.eval(x[*v]));
            let (g, size) = linear
                .chain(nonlinear)
                .fold((c.constant, c.constant.abs()), |(g, size), t| {
                    (g + t, size + t.abs())
                });
            check("primal row", "row", i, g.max(0.0), size)?;
            lagrangian += lam * g;
        }
        let mut residuals = Vec::with_capacity(p.equalities().len());
        for (e, eq) in p.equalities().iter().enumerate() {
            let (act, size) = eq.coeffs.iter().fold((0.0, 0.0), |(act, size), &(v, a)| {
                let ax = a * x[v];
                (act + ax, size + f64::abs(ax))
            });
            let r = act - eq.rhs;
            check(
                "primal equality",
                "equality",
                e,
                r.abs(),
                eq.rhs.abs() + size,
            )?;
            residuals.push(r);
        }

        // 3. Multiplier signs.
        let lam_max = self.multipliers.iter().fold(0.0f64, |mx, &l| mx.max(l));
        for (i, &lam) in self.multipliers.iter().enumerate() {
            check("multiplier sign", "row", i, (-lam).max(0.0), lam_max)?;
        }

        // 4. Reduced gradients, each scaled by the size of its terms. The
        // inequality part first; then ν, fitted on the interior rows.
        let mut d = p.costs().to_vec();
        let mut size: Vec<f64> = p.costs().iter().map(|c| c.abs()).collect();
        let mut partial = vec![0.0; n];
        let mut touched = Vec::new();
        for (c, &lam) in p.constraints().iter().zip(&self.multipliers) {
            for &(v, a) in &c.linear {
                partial[v] += a;
                touched.push(v);
            }
            for (v, f) in &c.nonlinear {
                partial[*v] += f.d1(x[*v]);
                touched.push(*v);
            }
            for &j in &touched {
                let t = lam * std::mem::take(&mut partial[j]);
                d[j] += t;
                size[j] += t.abs();
            }
            touched.clear();
        }
        let at_lo = |j: usize| lo[j].is_finite() && within(x[j] - lo[j], lo[j]);
        let at_hi = |j: usize| hi[j].is_finite() && within(hi[j] - x[j], hi[j]);
        // ν is fitted on the interior columns, then also on each column at
        // a bound whose reduced gradient under it fails check 4, until none
        // does.
        let mut rows: Vec<usize> = (0..n).filter(|&j| !at_lo(j) && !at_hi(j)).collect();
        let nu = loop {
            let nu = equality_multipliers(p, &rows, &d);
            let (mut dn, mut sn) = (d.clone(), size.clone());
            for (eq, &nu_e) in p.equalities().iter().zip(&nu) {
                for &(v, a) in &eq.coeffs {
                    dn[v] += nu_e * a;
                    sn[v] += (nu_e * a).abs();
                }
            }
            let fits = |j: usize| {
                within(dn[j].abs(), sn[j]) || (dn[j] > 0.0 && at_lo(j)) || (dn[j] < 0.0 && at_hi(j))
            };
            let misfits: Vec<usize> = (0..n).filter(|j| !rows.contains(j) && !fits(*j)).collect();
            if misfits.is_empty() {
                (d, size) = (dn, sn);
                break nu;
            }
            rows.extend(misfits);
        };
        for (&nu_e, &r) in nu.iter().zip(&residuals) {
            lagrangian += nu_e * r;
        }
        for j in 0..n {
            if within(d[j].abs(), size[j]) {
                continue;
            }
            let (side, bound) = if d[j] > 0.0 {
                ("lower", lo[j])
            } else {
                ("upper", hi[j])
            };
            let rel = d[j].abs() / (1.0 + size[j]);
            if !bound.is_finite() {
                return Err(format!(
                    "reduced gradient: column {j} has d = {:e} ({rel:.1e} relative) \
                     and an infinite {side} bound",
                    d[j]
                ));
            }
            let dist = (x[j] - bound).abs();
            if !within(dist, bound) {
                return Err(format!(
                    "reduced gradient: column {j} has d = {:e} ({rel:.1e} relative) \
                     and sits {dist:e} from its {side} bound",
                    d[j]
                ));
            }
            lagrangian += d[j] * (bound - x[j]);
        }

        // 5. The reported objective, then the gap to the Lagrangian bound.
        let off = (self.objective - primal).abs();
        if !within(off, primal) {
            return Err(format!(
                "objective: reported {} vs cᵀx {primal} ({:.1e} relative)",
                self.objective,
                off / (1.0 + primal.abs())
            ));
        }
        let gap = primal - lagrangian;
        if within(gap.abs(), primal) {
            return Ok(());
        }
        Err(format!(
            "duality gap: cᵀx {primal} vs Lagrangian bound {lagrangian} ({:.1e} relative)",
            gap.abs() / (1.0 + primal.abs())
        ))
    }
}

/// Least-squares equality multipliers `ν` from the stationarity rows
/// `Σ_e ν_e·a_ej = −d_j` of the coordinates `interior`, where `d` holds
/// the reduced gradient without its equality part. An equality that
/// touches none of them gets `ν_e = 0`. An underdetermined or
/// rank-deficient fit solves the normal equations with a ridge.
fn equality_multipliers(p: &NlpProblem, interior: &[usize], d: &[f64]) -> Vec<f64> {
    let eqs = p.equalities();
    let mut nu = vec![0.0; eqs.len()];
    let mut row_of = vec![None; d.len()];
    for (r, &j) in interior.iter().enumerate() {
        row_of[j] = Some(r);
    }
    let fitted: Vec<usize> = (0..eqs.len())
        .filter(|&e| {
            eqs[e]
                .coeffs
                .iter()
                .any(|&(v, a)| row_of[v].is_some() && !exactly_zero(a))
        })
        .collect();
    if fitted.is_empty() {
        return nu;
    }
    let mut a = Matrix::zeros(interior.len(), fitted.len());
    for (col, &e) in fitted.iter().enumerate() {
        for &(v, coeff) in &eqs[e].coeffs {
            if let Some(r) = row_of[v] {
                a[(r, col)] += coeff;
            }
        }
    }
    let rhs: Vec<f64> = interior.iter().map(|&j| -d[j]).collect();
    let full_rank = (interior.len() >= fitted.len())
        .then(|| Qr::new(&a).and_then(|qr| qr.solve_least_squares(&rhs)).ok())
        .flatten();
    // Dependent or too few rows: the normal equations with a ridge give a
    // least-squares fit of small norm instead.
    let fit = full_rank.or_else(|| {
        let ata = a.transpose().matmul(&a).ok()?;
        let (ch, _) = Cholesky::new_regularized(&ata, RIDGE).ok()?;
        Some(ch.solve(&a.matvec_transposed(&rhs)))
    });
    if let Some(fit) = fit {
        for (&e, v) in fitted.iter().zip(fit) {
            nu[e] = v;
        }
    }
    nu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ConstraintFn;
    use crate::term::{ScalarFn, Term};

    /// `min t` s.t. `t ≥ 100/n1`, `t ≥ sign·400/n2`, `n1 + n2 ≤ 10`,
    /// `n1, n2 ∈ [0.5, 10]`, `t ∈ [0, 1e6]`. With `sign = 1` the optimum
    /// splits the nodes 2 : 8 at `t = 50`, every row active and `t`
    /// strictly inside its box.
    fn minmax(sign: f64) -> NlpProblem {
        let mut p = NlpProblem::new();
        let n1 = p.add_var(0.0, 0.5, 10.0);
        let n2 = p.add_var(0.0, 0.5, 10.0);
        let t = p.add_var(1.0, 0.0, 1e6);
        p.add_constraint(
            ConstraintFn::new("t1")
                .nonlinear_term(n1, ScalarFn::perf_model(100.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        let decay = Term::PowerDecay {
            a: sign * 400.0,
            c: 1.0,
        };
        p.add_constraint(
            ConstraintFn::new("t2")
                .nonlinear_term(n2, ScalarFn::from_terms(vec![decay]))
                .linear_term(t, -1.0),
        );
        p.add_constraint(
            ConstraintFn::new("budget")
                .linear_term(n1, 1.0)
                .linear_term(n2, 1.0)
                .with_constant(-10.0),
        );
        p
    }

    fn certified() -> (NlpProblem, NlpSolution) {
        let p = minmax(1.0);
        let sol = crate::solve(&p).unwrap();
        assert_eq!(sol.certify(&p), Ok(()));
        assert!((sol.objective - 50.0).abs() < 1e-6, "{}", sol.objective);
        (p, sol)
    }

    fn rejects(p: &NlpProblem, sol: &NlpSolution, kind: &str) {
        let err = sol
            .certify(p)
            .expect_err("a perturbed optimum must not certify");
        assert!(err.starts_with(kind), "expected {kind}, got {err}");
    }

    #[test]
    fn a_point_moved_past_an_active_row_is_rejected() {
        let (p, mut sol) = certified();
        sol.x[2] *= 1.0 - 1e-3;
        rejects(&p, &sol, "primal row: row 0");
    }

    #[test]
    fn a_multiplier_with_the_wrong_sign_is_rejected() {
        let (p, mut sol) = certified();
        sol.multipliers[1] = -sol.multipliers[1];
        rejects(&p, &sol, "multiplier sign: row 1");
    }

    #[test]
    fn a_shifted_objective_is_rejected() {
        let (p, mut sol) = certified();
        sol.objective *= 1.0 + 1e-4;
        rejects(&p, &sol, "objective");
    }

    #[test]
    fn halved_multipliers_break_stationarity_on_the_epigraph() {
        let (p, mut sol) = certified();
        sol.multipliers.iter_mut().for_each(|l| *l *= 0.5);
        rejects(&p, &sol, "reduced gradient: column 2");
    }

    #[test]
    fn a_negated_performance_term_is_rejected_as_nonconvex() {
        let (_, sol) = certified();
        rejects(&minmax(-1.0), &sol, "nonconvex: row 1");
    }

    #[test]
    fn outcomes_without_an_optimum_are_rejected() {
        let (p, mut sol) = certified();
        sol.status = NlpStatus::IterationLimit;
        rejects(&p, &sol, "status: IterationLimit");
        let (p, mut sol) = certified();
        sol.multipliers.pop();
        rejects(&p, &sol, "shape");
        sol.multipliers.push(f64::NAN);
        rejects(&p, &sol, "non-finite");
    }
}
