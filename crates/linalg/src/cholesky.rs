//! Cholesky factorization of symmetric positive-definite matrices.
// lint:allow-file(slice-index): dense factorization kernel — indices run
// over the matrix dimensions checked at entry; iterator forms would
// obscure the triangular recurrences.

use crate::{LinalgError, Matrix, Result};

/// Smallest regularization shift, relative to the largest diagonal entry:
/// the minimal ridge that reliably rescues a semidefinite Hessian model
/// without visibly perturbing the Newton step.
const MIN_SHIFT_REL: f64 = 1e-12;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// The trust-region (Levenberg–Marquardt) and log-barrier Newton solvers both
/// solve SPD systems; when the Hessian model is only positive *semi*definite
/// they retry through [`Cholesky::new_regularized`], which shifts the diagonal
/// until the factorization succeeds.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Fails with
    /// [`LinalgError::NotPositiveDefinite`] when a non-positive pivot is
    /// encountered.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                expected: (a.rows(), a.rows()),
                got: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let a = a.as_slice();
        let mut l = Matrix::zeros(n, n);
        let data = l.as_mut_slice();
        // Left-looking, one column at a time. Every entry is its own
        // sequential dot product in `k` order; the rows below a pivot are
        // independent, so four of them run side by side over row slices.
        // That changes only the interleaving, never an entry's operations.
        for j in 0..n {
            let (done, below) = data.split_at_mut((j + 1) * n);
            let row_j = &mut done[j * n..];
            let mut diag = a[j * n + j];
            for &ljk in &row_j[..j] {
                diag -= ljk * ljk;
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { row: j });
            }
            let ljj = diag.sqrt();
            row_j[j] = ljj;
            let lj = &row_j[..j];
            let mut i = j + 1;
            let mut quads = below.chunks_exact_mut(4 * n);
            for quad in &mut quads {
                let (r0, rest) = quad.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let (p0, p1, p2, p3) = (&r0[..j], &r1[..j], &r2[..j], &r3[..j]);
                let mut v0 = a[i * n + j];
                let mut v1 = a[(i + 1) * n + j];
                let mut v2 = a[(i + 2) * n + j];
                let mut v3 = a[(i + 3) * n + j];
                for k in 0..j {
                    let ljk = lj[k];
                    v0 -= p0[k] * ljk;
                    v1 -= p1[k] * ljk;
                    v2 -= p2[k] * ljk;
                    v3 -= p3[k] * ljk;
                }
                r0[j] = v0 / ljj;
                r1[j] = v1 / ljj;
                r2[j] = v2 / ljj;
                r3[j] = v3 / ljj;
                i += 4;
            }
            for row in quads.into_remainder().chunks_exact_mut(n) {
                let mut v = a[i * n + j];
                for (&lik, &ljk) in row[..j].iter().zip(lj) {
                    v -= lik * ljk;
                }
                row[j] = v / ljj;
                i += 1;
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorizes `a + lambda I`, geometrically growing `lambda` from
    /// `initial_shift` until the shifted matrix is positive definite.
    ///
    /// Returns the factorization together with the shift that was actually
    /// applied (`0.0` when `a` itself was SPD). Gives up after enough growth
    /// to dominate the largest diagonal entry.
    pub fn new_regularized(a: &Matrix, initial_shift: f64) -> Result<(Self, f64)> {
        if let Ok(ch) = Cholesky::new(a) {
            return Ok((ch, 0.0));
        }
        // No diagonal shift can rescue a matrix with non-finite entries, and
        // an infinite diagonal would make `limit` infinite below — the growth
        // loop would then spin forever once `shift` saturates at infinity
        // (`inf <= inf` never exits). Fail fast instead.
        if !a.as_slice().iter().all(|v| v.is_finite()) {
            return Err(LinalgError::NotPositiveDefinite { row: 0 });
        }
        let max_diag = (0..a.rows())
            .map(|i| a[(i, i)].abs())
            .fold(f64::EPSILON, f64::max);
        let mut shift = initial_shift.max(MIN_SHIFT_REL * max_diag);
        let limit = 1e8 * max_diag.max(1.0);
        while shift <= limit && shift.is_finite() {
            let mut shifted = a.clone();
            shifted.add_diagonal(shift);
            if let Ok(ch) = Cholesky::new(&shifted) {
                return Ok((ch, shift));
            }
            shift *= 10.0;
        }
        Err(LinalgError::NotPositiveDefinite { row: 0 })
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` using the factorization.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        debug_assert_eq!(b.len(), n);
        let l = self.l.as_slice();
        // Forward substitution: L y = b, row slices of L.
        let mut y = b.to_vec();
        for i in 0..n {
            let (solved, rest) = y.split_at_mut(i);
            let mut yi = rest[0];
            for (&lik, &yk) in l[i * n..i * n + i].iter().zip(solved.iter()) {
                yi -= lik * yk;
            }
            rest[0] = yi / l[i * n + i];
        }
        // Back substitution: Lᵀ x = y, columns of L.
        for i in (0..n).rev() {
            let mut yi = y[i];
            for k in (i + 1)..n {
                yi -= l[k * n + i] * y[k];
            }
            y[i] = yi / l[i * n + i];
        }
        y
    }

    /// log(det A) = 2 Σ log L_ii — cheap once factorized.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for a full-rank B is SPD.
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.factor();
        let recon = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = ch.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn regularized_recovers_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let (ch, shift) = Cholesky::new_regularized(&a, 1e-8).unwrap();
        assert!(shift > 0.0);
        // The shifted system must be solvable and produce finite values.
        let x = ch.solve(&[1.0, 1.0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn regularized_spd_needs_no_shift() {
        let a = spd3();
        let (_, shift) = Cholesky::new_regularized(&a, 1e-8).unwrap();
        assert_eq!(shift, 0.0);
    }

    #[test]
    fn regularized_rejects_non_finite_instead_of_spinning() {
        // An infinite diagonal used to drive `limit` to infinity, and the
        // shift-growth loop then never exited once the shift saturated
        // (found by the wire fuzzer: a byte flip produced a perf-model
        // constant of ~2e17 whose barrier Hessian overflowed). The call
        // must return an error, and return it promptly.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let a = Matrix::from_rows(&[&[bad, 0.0], &[0.0, -1.0]]);
            assert!(Cholesky::new_regularized(&a, 1e-8).is_err());
        }
        // Non-finite off-diagonals are equally unrescuable.
        let a = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, -1.0]]);
        assert!(Cholesky::new_regularized(&a, 1e-8).is_err());
    }

    /// Row-at-a-time left-looking factorization: the reference the
    /// four-row kernel must match bit for bit.
    fn reference_factor(a: &Matrix) -> Option<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return None;
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Some(l)
    }

    /// Indexed forward/back substitution: the reference `solve` must
    /// match bit for bit.
    fn reference_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= l[(i, k)] * y[k];
            }
            y[i] /= l[(i, i)];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= l[(k, i)] * y[k];
            }
            y[i] /= l[(i, i)];
        }
        y
    }

    /// Seeded SPD matrix `B·Bᵀ + I` with uniform entries of either sign.
    fn seeded_spd(n: usize, seed: u64) -> Matrix {
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] =
                    2.0 * crate::noise::keyed_uniform(seed, n as u64, i as u64, j as u64) - 1.0;
            }
        }
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diagonal(1.0);
        a
    }

    fn assert_bitwise_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {idx}: {g} vs {w}");
        }
    }

    fn assert_matches_reference(ch: &Cholesky, a: &Matrix, seed: u64, what: &str) {
        let want = reference_factor(a).expect("reference factors the same input");
        assert_bitwise_eq(ch.factor().as_slice(), want.as_slice(), what);
        let n = a.rows();
        let rhs: Vec<f64> = (0..n)
            .map(|i| crate::noise::keyed_uniform(seed ^ 0x5EED, n as u64, i as u64, 0) - 0.5)
            .collect();
        assert_bitwise_eq(&ch.solve(&rhs), &reference_solve(&want, &rhs), what);
    }

    #[test]
    fn four_row_kernel_is_bitwise_the_row_at_a_time_reference() {
        // 1..=13 covers every remainder mod 4 several times over; 64, 97
        // and 130 reach the barrier's dense-KKT sizes.
        for n in (1..=13).chain([64, 97, 130]) {
            for seed in [3_u64, 0xC401] {
                let a = seeded_spd(n, seed);
                let ch = Cholesky::new(&a).expect("seeded matrix is SPD");
                assert_matches_reference(&ch, &a, seed, &format!("n = {n}, seed {seed}"));
            }
        }
    }

    #[test]
    fn regularized_semidefinite_factor_is_bitwise_the_reference() {
        // Rank one, so only the shifted matrix factors.
        let n = 9;
        let v: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = v[i] * v[j];
            }
        }
        assert!(reference_factor(&a).is_none() && Cholesky::new(&a).is_err());
        let (ch, shift) = Cholesky::new_regularized(&a, 1e-8).unwrap();
        assert!(shift > 0.0);
        let mut shifted = a.clone();
        shifted.add_diagonal(shift);
        assert_matches_reference(&ch, &shifted, 17, "rank-one input");
    }

    #[test]
    fn log_det_matches_known() {
        // det(diag(2, 3)) = 6.
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_det() - 6.0_f64.ln()).abs() < 1e-12);
    }
}
