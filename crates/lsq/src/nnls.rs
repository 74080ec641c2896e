//! Nonnegative least squares in at most three columns, solved exactly by
//! trying supports.
//!
//! For a fixed decay exponent every performance-model form is linear in its
//! other coefficients, so the inner problem of the fit is
//! `min_{β ≥ 0} ‖y − Xβ‖²` with `X` at most three columns wide. The problem
//! is convex. If the unconstrained least-squares solution on every column is
//! nonnegative, it is the optimum. Otherwise the optimum has a zero
//! coefficient, so it is the unconstrained solution on one of the smaller
//! supports: the feasible one whose left-out columns cannot lower the
//! residual, which is also the feasible one with the least residual.
//!
//! Each support is solved from column-scaled normal equations by a
//! Cholesky factorization. Candidates are compared by a residual the caller
//! sums directly from the data, never by the identity
//! `‖y‖² − βᵀXᵀy`, which cancels badly on near-exact fits.

/// Most columns [`nnls`] accepts.
pub const MAX_COLS: usize = 3;

/// Smallest pivot of the unit-diagonal (column-scaled) Gram matrix for
/// which a support counts as full rank. Below it the columns are collinear
/// to working precision, and a smaller support reaches the same fit.
const RANK_TOL: f64 = 1e-12;

/// Normal equations of a least-squares problem in `k ≤ MAX_COLS` columns:
/// `gram[j][l] = Σ_i x_ij·x_il` and `rhs[j] = Σ_i x_ij·y_i`. Entries past
/// `k` are ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalEquations {
    pub k: usize,
    pub gram: [[f64; MAX_COLS]; MAX_COLS],
    pub rhs: [f64; MAX_COLS],
}

/// The nonnegative least-squares optimum and its residual sum of squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnlsSolution {
    /// Coefficients; zero outside the optimal support and past `k`.
    pub coef: [f64; MAX_COLS],
    /// Residual sum of squares at `coef`, as the caller's `sse` summed it.
    pub sse: f64,
}

/// Solves `min_{β ≥ 0} ‖y − Xβ‖²` given its normal equations.
///
/// `sse(β)` must return `‖y − Xβ‖²` summed from the data. A feasible
/// support whose left-out columns all have a nonpositive gradient
/// `(Xᵀy − XᵀXβ)_j` meets the KKT conditions, so it is the optimum and is
/// returned at once; `sse` is then called once. When rounding hides every
/// such support, the feasible candidates are compared by `sse`. Returns
/// `None` when no candidate has a finite residual.
///
/// # Panics
/// Panics if `eq.k > MAX_COLS`.
pub fn nnls(
    eq: &NormalEquations,
    mut sse: impl FnMut(&[f64; MAX_COLS]) -> f64,
) -> Option<NnlsSolution> {
    assert!(eq.k <= MAX_COLS, "nnls takes at most {MAX_COLS} columns");
    let scaled = Scaled::new(eq);
    let full = (1usize << eq.k) - 1;
    let mut candidates = [[0.0; MAX_COLS]; 1 << MAX_COLS];
    let mut found = 0;
    for support in (0..=full).rev() {
        let Some(coef) = scaled.solve(support) else {
            continue;
        };
        if kkt_holds(eq, support, &coef) {
            let value = sse(&coef);
            if value.is_finite() {
                return Some(NnlsSolution { coef, sse: value });
            }
        }
        candidates[found] = coef;
        found += 1;
    }
    let mut best: Option<NnlsSolution> = None;
    for coef in candidates.into_iter().take(found) {
        let value = sse(&coef);
        if value.is_finite() && best.is_none_or(|b| value < b.sse) {
            best = Some(NnlsSolution { coef, sse: value });
        }
    }
    best
}

/// Whether no column left out of `support` could lower the residual from
/// `coef`: each has a nonpositive gradient `rhs_j − Σ_l gram[j][l]·coef_l`.
fn kkt_holds(eq: &NormalEquations, support: usize, coef: &[f64; MAX_COLS]) -> bool {
    (0..eq.k).filter(|j| support & (1 << j) == 0).all(|j| {
        let fitted: f64 = eq.gram[j][..eq.k]
            .iter()
            .zip(coef)
            .map(|(g, b)| g * b)
            .sum();
        eq.rhs[j] - fitted <= 0.0
    })
}

/// The normal equations with every column scaled to unit norm, so pivots
/// are relative and each support's system is a submatrix.
struct Scaled {
    k: usize,
    gram: [[f64; MAX_COLS]; MAX_COLS],
    rhs: [f64; MAX_COLS],
    /// `1/‖x_j‖`, or 0 for a column that is zero or not finite.
    inv_norm: [f64; MAX_COLS],
}

impl Scaled {
    fn new(eq: &NormalEquations) -> Scaled {
        let k = eq.k;
        let inv_norm: [f64; MAX_COLS] = std::array::from_fn(|j| {
            let g = if j < k { eq.gram[j][j] } else { 0.0 };
            if g > 0.0 && g.is_finite() {
                1.0 / g.sqrt()
            } else {
                0.0
            }
        });
        Scaled {
            k,
            gram: std::array::from_fn(|j| {
                std::array::from_fn(|l| eq.gram[j][l] * inv_norm[j] * inv_norm[l])
            }),
            rhs: std::array::from_fn(|j| eq.rhs[j] * inv_norm[j]),
            inv_norm,
        }
    }

    /// The unconstrained least-squares solution on the columns in the bit
    /// set `support`, or `None` when it is rank-deficient or has a negative
    /// coefficient.
    fn solve(&self, support: usize) -> Option<[f64; MAX_COLS]> {
        let mut cols = [0usize; MAX_COLS];
        let mut s = 0;
        for j in (0..self.k).filter(|j| support & (1 << j) != 0) {
            if self.inv_norm[j] <= 0.0 {
                return None;
            }
            cols[s] = j;
            s += 1;
        }
        let cols = &cols[..s];
        // Cholesky factor `l` (lower) with the reciprocals of its diagonal.
        let mut l = [[0.0; MAX_COLS]; MAX_COLS];
        let mut inv_diag = [0.0; MAX_COLS];
        for (i, &ci) in cols.iter().enumerate() {
            for (j, &cj) in cols[..=i].iter().enumerate() {
                let v = minus_dot(self.gram[ci][cj], &l[i][..j], &l[j][..j]);
                if i == j {
                    if v.is_nan() || v <= RANK_TOL {
                        return None;
                    }
                    inv_diag[i] = 1.0 / v.sqrt();
                } else {
                    l[i][j] = v * inv_diag[j];
                }
            }
        }
        // Forward then back substitution.
        let mut z = [0.0; MAX_COLS];
        for (i, &ci) in cols.iter().enumerate() {
            z[i] = minus_dot(self.rhs[ci], &l[i][..i], &z[..i]) * inv_diag[i];
        }
        for i in (0..s).rev() {
            z[i] = (i + 1..s).fold(z[i], |v, p| v - l[p][i] * z[p]) * inv_diag[i];
        }
        let mut coef = [0.0; MAX_COLS];
        for (&zi, &ci) in z.iter().zip(cols) {
            let v = zi * self.inv_norm[ci];
            if v.is_nan() || v < 0.0 {
                return None;
            }
            // `v` may be -0.0; store a plain zero.
            coef[ci] = if v > 0.0 { v } else { 0.0 };
        }
        Some(coef)
    }
}

/// `v − Σ a_p·b_p`, subtracting term by term.
fn minus_dot(v: f64, a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(v, |v, (x, y)| v - x * y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normal equations of row-major data, and its direct residual.
    fn problem(rows: &[[f64; 3]], y: &[f64], k: usize) -> NormalEquations {
        let mut eq = NormalEquations {
            k,
            gram: [[0.0; 3]; 3],
            rhs: [0.0; 3],
        };
        for (x, &yi) in rows.iter().zip(y) {
            for j in 0..k {
                eq.rhs[j] += x[j] * yi;
                for l in 0..k {
                    eq.gram[j][l] += x[j] * x[l];
                }
            }
        }
        eq
    }

    fn sse_of<'a>(rows: &'a [[f64; 3]], y: &'a [f64]) -> impl Fn(&[f64; 3]) -> f64 + 'a {
        move |b| {
            let r = |(x, yi): (&[f64; 3], &f64)| yi - (x[0] * b[0] + x[1] * b[1] + x[2] * b[2]);
            rows.iter().zip(y).map(|p| r(p).powi(2)).sum()
        }
    }

    /// Independent reference: projected coordinate descent to convergence.
    fn coordinate_descent(eq: &NormalEquations) -> [f64; 3] {
        let mut b = [0.0; 3];
        for _ in 0..20_000 {
            for j in 0..eq.k {
                let g = (0..eq.k)
                    .filter(|&l| l != j)
                    .fold(eq.rhs[j], |g, l| g - eq.gram[j][l] * b[l]);
                b[j] = (g / eq.gram[j][j]).max(0.0);
            }
        }
        b
    }

    #[test]
    fn full_support_when_unconstrained_optimum_is_nonnegative() {
        let rows: Vec<[f64; 3]> = (1..=6).map(|i| [1.0 / i as f64, i as f64, 1.0]).collect();
        let y: Vec<f64> = rows.iter().map(|x| 3.0 * x[0] + 0.5 * x[1] + 2.0).collect();
        let sol = nnls(&problem(&rows, &y, 3), sse_of(&rows, &y)).unwrap();
        for (got, want) in sol.coef.iter().zip([3.0, 0.5, 2.0]) {
            assert!((got - want).abs() < 1e-10, "{sol:?}");
        }
        assert!(sol.sse < 1e-24, "{sol:?}");
    }

    #[test]
    fn matches_coordinate_descent_when_coefficients_pin_at_zero() {
        let rows: Vec<[f64; 3]> = (1..=7)
            .map(|i| {
                let n = f64::from(i) * 3.0;
                [n.powf(-0.8), n, 1.0]
            })
            .collect();
        for y in [
            [9.0, 7.5, 7.0, 6.9, 7.2, 7.6, 8.1],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
            [-1.0, -2.0, -1.0, -3.0, -1.0, -2.0, -1.0],
        ] {
            let eq = problem(&rows, &y, 3);
            let sol = nnls(&eq, sse_of(&rows, &y)).unwrap();
            let reference = sse_of(&rows, &y)(&coordinate_descent(&eq));
            assert!(sol.sse <= reference * (1.0 + 1e-9) + 1e-12, "{sol:?}");
            assert!(sol.coef.iter().all(|&b| b >= 0.0), "{sol:?}");
        }
    }

    #[test]
    fn a_negative_intercept_is_dropped_not_the_slope() {
        // Unconstrained, y = 2x − 1. The constant alone is feasible and is
        // tried first, but dropping the constant fits far better.
        let rows: Vec<[f64; 3]> = (1..=4).map(|i| [f64::from(i), 1.0, 0.0]).collect();
        let y = [1.0, 3.0, 5.0, 7.0];
        let sol = nnls(&problem(&rows, &y, 2), sse_of(&rows, &y)).unwrap();
        assert!((sol.coef[0] - 5.0 / 3.0).abs() < 1e-12, "{sol:?}");
        assert_eq!(sol.coef[1], 0.0, "{sol:?}");
    }

    #[test]
    fn collinear_columns_fall_back_to_a_smaller_support() {
        // Columns 0 and 2 are identical: the full support is singular.
        let rows: Vec<[f64; 3]> = (1..=5).map(|i| [1.0, i as f64, 1.0]).collect();
        let y: Vec<f64> = (1..=5).map(|i| 2.0 * i as f64 + 4.0).collect();
        let sol = nnls(&problem(&rows, &y, 3), sse_of(&rows, &y)).unwrap();
        assert!(sol.sse < 1e-20, "{sol:?}");
        assert!((sol.coef[1] - 2.0).abs() < 1e-10, "{sol:?}");
        assert!((sol.coef[0] + sol.coef[2] - 4.0).abs() < 1e-10, "{sol:?}");
    }

    #[test]
    fn non_finite_residuals_are_no_solution() {
        let rows = [[1.0, 0.0, 0.0]];
        assert!(nnls(&problem(&rows, &[1.0], 1), |_| f64::NAN).is_none());
    }
}
