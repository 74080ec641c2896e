//! Factor-once-per-iteration KKT backend for the predictor-corrector loop.
//!
//! One MPC iteration factors the condensed quasidefinite system
//!
//! ```text
//! [ M  Âᵀ ] [Δx]   [ rhs_x ]
//! [ Â   0 ] [Δν] = [ rhs_eq ]
//! ```
//!
//! once and reuses the factorization for every right-hand side of the
//! iteration: the affine-scaling predictor, the centering corrector, and
//! (rarely) the pure-centering rescue — up to three solves per
//! factorization instead of one factorization per solve. Backends mirror
//! the fixed-μ loop: dense Cholesky/LU below the sparse crossover, the
//! analyzed [`SparseKkt`] pattern above it (M has exactly the fixed-μ
//! barrier Hessian's sparsity, so the symbolic analysis is shared).
//!
//! Assembly and solves fail fast on non-finite input with a typed
//! [`SystemError`]: hostile-but-valid coefficients (~1e17, reachable
//! through the wire front) overflow constraint evaluations to inf/NaN,
//! and the solve must then end cleanly at its current iterate — never
//! spin. This extends the non-finite fast-fail that
//! `Cholesky::new_regularized` gained for the same reason.

use crate::barrier::{FactorTally, SparseKkt, HESS_CHOL_REG, KKT_REG};
use crate::problem::NlpProblem;
use hslb_linalg::{
    Cholesky, Lu, Matrix, SparseCholesky, SparseLu, SparseWorkspace, SPARSE_CROSSOVER_DIM,
};

/// Typed failure of the augmented system. Callers terminate the solve
/// cleanly at their best iterate; they never retry the same system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SystemError {
    /// A non-finite (or sign-invalid) value reached assembly, a residual,
    /// or a solved step; the label names which quantity.
    NonFinite(&'static str),
    /// Both the sparse and the dense factorization failed numerically.
    Factorization,
}

/// The per-solve KKT structure: symbolic analysis (sparse path) done once,
/// numeric factorization redone per iteration via [`factor`].
///
/// [`factor`]: AugmentedSystem::factor
pub(crate) struct AugmentedSystem<'a> {
    sparse: Option<SparseKkt<'a>>,
    k: usize,
    m_eq: usize,
}

impl<'a> AugmentedSystem<'a> {
    /// Chooses the path by the KKT dimension (sparse at or above
    /// [`SPARSE_CROSSOVER_DIM`]) and, on the sparse path, runs the symbolic
    /// analysis once. A failed analysis silently degrades to dense,
    /// matching the fixed-μ loop.
    pub(crate) fn new(
        p: &NlpProblem,
        col_of: &std::collections::HashMap<usize, usize>,
        a_eq: &Matrix,
        k: usize,
        m_eq: usize,
        scratch: &'a mut SparseWorkspace,
    ) -> AugmentedSystem<'a> {
        let dim = if m_eq == 0 { k } else { k + m_eq };
        let sparse = if dim >= SPARSE_CROSSOVER_DIM {
            SparseKkt::build(p, col_of, a_eq, k, m_eq, scratch)
        } else {
            None
        };
        AugmentedSystem { sparse, k, m_eq }
    }

    /// Factors the current condensed matrix `m` once; the returned
    /// [`KktFactor`] then serves every solve of the iteration.
    pub(crate) fn factor(
        &mut self,
        m: &Matrix,
        a_eq: &Matrix,
        tally: &mut FactorTally,
    ) -> Result<KktFactor, SystemError> {
        if !m.as_slice().iter().all(|v| v.is_finite()) {
            return Err(SystemError::NonFinite("condensed KKT matrix"));
        }
        if let Some(sk) = self.sparse.as_mut() {
            sk.fill(m, a_eq);
            if self.m_eq == 0 {
                if let Some(sym) = sk.chol.as_ref() {
                    if let Ok((f, _)) =
                        SparseCholesky::factorize_regularized(&sk.mat, sym, HESS_CHOL_REG, sk.ws)
                    {
                        tally.factorizations += 1;
                        tally.fill_nnz += f.fill_nnz() as u64;
                        return Ok(KktFactor::SparseChol(f));
                    }
                }
            } else if let Some(sym) = sk.lu.as_ref() {
                if let Ok(f) = SparseLu::factorize(&sk.mat, sym, sk.ws) {
                    tally.factorizations += 1;
                    tally.fill_nnz += f.fill_nnz() as u64;
                    return Ok(KktFactor::SparseLu(f));
                }
            }
            // Numeric sparse failure: degrade to the dense factorization
            // below, the same ladder the fixed-μ loop descends.
        }
        if self.m_eq == 0 {
            match Cholesky::new_regularized(m, HESS_CHOL_REG) {
                Ok((ch, _)) => Ok(KktFactor::DenseChol(ch)),
                Err(_) => Err(SystemError::Factorization),
            }
        } else {
            let (k, m_eq) = (self.k, self.m_eq);
            let dim = k + m_eq;
            let mut kkt = Matrix::zeros(dim, dim);
            for i in 0..k {
                for j in 0..k {
                    kkt[(i, j)] = m[(i, j)];
                }
                // Tiny primal regularization keeps the system solvable when
                // M is singular on the null-space boundary.
                kkt[(i, i)] += KKT_REG * (1.0 + m[(i, i)].abs());
            }
            for r in 0..m_eq {
                for c in 0..k {
                    kkt[(k + r, c)] = a_eq[(r, c)];
                    kkt[(c, k + r)] = a_eq[(r, c)];
                }
                // Small dual regularization for dependent rows.
                kkt[(k + r, k + r)] = -KKT_REG;
            }
            match Lu::new(&kkt) {
                Ok(lu) => Ok(KktFactor::DenseLu(lu)),
                Err(_) => Err(SystemError::Factorization),
            }
        }
    }
}

/// One iteration's factored KKT system; each solve is a cheap pair of
/// triangular substitutions against the shared factorization.
pub(crate) enum KktFactor {
    DenseChol(Cholesky),
    DenseLu(Lu),
    SparseChol(SparseCholesky),
    SparseLu(SparseLu),
}

impl KktFactor {
    /// Solves for `(Δx, Δν)`; fails fast when the right-hand side or the
    /// computed step carries a non-finite value.
    pub(crate) fn solve(
        &self,
        rhs_x: &[f64],
        rhs_eq: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>), SystemError> {
        if !rhs_x.iter().chain(rhs_eq).all(|v| v.is_finite()) {
            return Err(SystemError::NonFinite("KKT right-hand side"));
        }
        let (dx, dnu) = match self {
            KktFactor::DenseChol(ch) => (ch.solve(rhs_x), Vec::new()),
            KktFactor::SparseChol(ch) => (ch.solve(rhs_x), Vec::new()),
            KktFactor::DenseLu(lu) => {
                let mut rhs = rhs_x.to_vec();
                rhs.extend_from_slice(rhs_eq);
                split_primal_dual(lu.solve(&rhs), rhs_x.len())
            }
            KktFactor::SparseLu(lu) => {
                let mut rhs = rhs_x.to_vec();
                rhs.extend_from_slice(rhs_eq);
                split_primal_dual(lu.solve(&rhs), rhs_x.len())
            }
        };
        if !dx.iter().chain(&dnu).all(|v| v.is_finite()) {
            return Err(SystemError::NonFinite("Newton step"));
        }
        Ok((dx, dnu))
    }
}

fn split_primal_dual(mut sol: Vec<f64>, k: usize) -> (Vec<f64>, Vec<f64>) {
    let dnu = sol[k..].to_vec();
    sol.truncate(k);
    (sol, dnu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_system(k: usize, m_eq: usize) -> AugmentedSystem<'static> {
        AugmentedSystem {
            sparse: None,
            k,
            m_eq,
        }
    }

    #[test]
    fn dense_cholesky_factor_solves_twice() {
        let mut sys = dense_system(2, 0);
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 4.0;
        m[(1, 1)] = 9.0;
        let a_eq = Matrix::zeros(0, 2);
        let mut tally = FactorTally::default();
        let f = sys.factor(&m, &a_eq, &mut tally).expect("SPD factors");
        // Two solves against one factorization — the factor-once contract.
        let (dx1, dnu1) = f.solve(&[4.0, 9.0], &[]).expect("first solve");
        let (dx2, _) = f.solve(&[8.0, 18.0], &[]).expect("second solve");
        assert!(dnu1.is_empty());
        assert!((dx1[0] - 1.0).abs() < 1e-9 && (dx1[1] - 1.0).abs() < 1e-9);
        assert!((dx2[0] - 2.0).abs() < 1e-9 && (dx2[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dense_kkt_factor_returns_equality_duals() {
        // min-like system: M = I, one equality row [1 1].
        let mut sys = dense_system(2, 1);
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 1.0;
        m[(1, 1)] = 1.0;
        let mut a_eq = Matrix::zeros(1, 2);
        a_eq[(0, 0)] = 1.0;
        a_eq[(0, 1)] = 1.0;
        let mut tally = FactorTally::default();
        let f = sys.factor(&m, &a_eq, &mut tally).expect("KKT factors");
        let (dx, dnu) = f.solve(&[1.0, 1.0], &[0.0]).expect("solve");
        assert_eq!(dnu.len(), 1);
        // Symmetric system: Δx components match, Â Δx = 0.
        assert!((dx[0] + dx[1]).abs() < 1e-8);
    }

    #[test]
    fn non_finite_matrix_is_a_typed_error() {
        let mut sys = dense_system(1, 0);
        let mut m = Matrix::zeros(1, 1);
        m[(0, 0)] = f64::INFINITY;
        let a_eq = Matrix::zeros(0, 1);
        let mut tally = FactorTally::default();
        let err = sys
            .factor(&m, &a_eq, &mut tally)
            .err()
            .expect("non-finite matrix must be rejected");
        assert_eq!(err, SystemError::NonFinite("condensed KKT matrix"));
        assert_eq!(tally.factorizations, 0);
    }

    #[test]
    fn non_finite_rhs_is_a_typed_error() {
        let mut sys = dense_system(1, 0);
        let mut m = Matrix::zeros(1, 1);
        m[(0, 0)] = 1.0;
        let a_eq = Matrix::zeros(0, 1);
        let mut tally = FactorTally::default();
        let f = sys.factor(&m, &a_eq, &mut tally).expect("factors");
        assert_eq!(
            f.solve(&[f64::NAN], &[]),
            Err(SystemError::NonFinite("KKT right-hand side"))
        );
    }
}
