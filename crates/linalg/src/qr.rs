//! Householder QR factorization and least-squares solves.
// lint:allow-file(slice-index): dense factorization kernel — indices run
// over the matrix dimensions checked at entry; iterator forms would
// obscure the Householder updates.

use crate::{LinalgError, Matrix, Result};

/// Diagonal entries of `R` below this are treated as rank-deficient: well
/// below any pivot a conditioned least-squares subproblem produces, well
/// above denormal noise.
const RANK_TOL: f64 = 1e-13;

/// Householder QR of an `m x n` matrix with `m >= n`.
///
/// `Q` is kept in factored (reflector) form; this is all the Levenberg–
/// Marquardt inner solve needs. The least-squares solution of `min ||Ax - b||`
/// is obtained by applying the reflectors to `b` and back-substituting with
/// `R`.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Reflectors below the diagonal, `R` on and above it.
    packed: Matrix,
    /// Scalar `tau` of each Householder reflector.
    taus: Vec<f64>,
}

impl Qr {
    /// Factorizes `a` (requires `rows >= cols`).
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, n),
                got: (m, n),
            });
        }
        let mut r = a.clone();
        let mut taus = Vec::with_capacity(n);
        for k in 0..n {
            // Build the reflector annihilating column k below the diagonal.
            let mut norm = 0.0;
            for i in k..m {
                norm += r[(i, k)] * r[(i, k)];
            }
            let norm = norm.sqrt();
            if crate::approx::exactly_zero(norm) {
                taus.push(0.0);
                continue;
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = r[(k, k)] - alpha;
            // v = (v0, a_{k+1,k}, ..., a_{m-1,k}); normalize so v[0] = 1.
            let mut vnorm2 = v0 * v0;
            for i in (k + 1)..m {
                vnorm2 += r[(i, k)] * r[(i, k)];
            }
            if crate::approx::exactly_zero(vnorm2) {
                taus.push(0.0);
                continue;
            }
            let tau = 2.0 * v0 * v0 / vnorm2;
            // Store normalized reflector tail in the column.
            for i in (k + 1)..m {
                r[(i, k)] /= v0;
            }
            r[(k, k)] = alpha;
            taus.push(tau);
            // Apply reflector to remaining columns: A <- (I - tau v vᵀ) A.
            for j in (k + 1)..n {
                let mut s = r[(k, j)];
                for i in (k + 1)..m {
                    s += r[(i, k)] * r[(i, j)];
                }
                s *= tau;
                r[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = r[(i, k)];
                    r[(i, j)] -= s * vik;
                }
            }
        }
        Ok(Qr { packed: r, taus })
    }

    /// Applies `Qᵀ` to a vector in place.
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = (self.packed.rows(), self.packed.cols());
        debug_assert_eq!(b.len(), m);
        for k in 0..n {
            let tau = self.taus[k];
            if crate::approx::exactly_zero(tau) {
                continue;
            }
            let mut s = b[k];
            for (i, &bi) in b.iter().enumerate().skip(k + 1) {
                s += self.packed[(i, k)] * bi;
            }
            s *= tau;
            b[k] -= s;
            for (i, bi) in b.iter_mut().enumerate().skip(k + 1) {
                *bi -= s * self.packed[(i, k)];
            }
        }
    }

    /// Solves the least-squares problem `min_x ||A x - b||_2`.
    ///
    /// Fails with [`LinalgError::Singular`] if `R` has a (near-)zero diagonal,
    /// i.e. `A` is rank-deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.packed.cols();
        let mut qtb = b.to_vec();
        self.apply_qt(&mut qtb);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = qtb[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.packed[(i, j)] * xj;
            }
            let rii = self.packed[(i, i)];
            if rii.abs() < RANK_TOL {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = s / rii;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_square_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = [1.0, -1.0];
        let b = a.matvec(&x_true);
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn overdetermined_regression() {
        // Fit y = 2t + 1 through noiseless samples: LSQ must recover exactly.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![t, 1.0]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs);
        let b: Vec<f64> = ts.iter().map(|&t| 2.0 * t + 1.0).collect();
        let x = Qr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_residual_orthogonal() {
        // Residual of the LSQ solution must be orthogonal to the column space.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [1.0, 0.5, 3.0, 2.0];
        let x = Qr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        let ax = a.matvec(&x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let atr = a.matvec_transposed(&r);
        for v in atr {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn detects_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = Qr::new(&a).unwrap();
        assert!(qr.solve_least_squares(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn rejects_underdetermined() {
        assert!(Qr::new(&Matrix::zeros(2, 3)).is_err());
    }
}
