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
//! factorization instead of one factorization per solve. The path is
//! chosen once per solve, by the problem's pattern alone:
//!
//! - **Structured.** A main-loop system without equalities whose `M` is
//!   diagonal plus a few hub columns and bordered rows (a min–max
//!   relaxation) is assembled in O(nnz) and factored by
//!   [`StructuredKkt`] in O(k(h+r)²); see [`super::structured`].
//! - **Sparse.** Any other system of at least [`SPARSE_CROSSOVER_DIM`]
//!   unknowns uses the analyzed [`SparseKkt`] pattern (M has exactly the
//!   barrier Hessian's sparsity, so the symbolic analysis is done once):
//!   the sparse Cholesky without equalities, the sparse LU with.
//! - **Dense.** Below the crossover, the dense Cholesky or LU.
//!
//! Phase 1 and equality-constrained systems never take the structured
//! path. The fallback's fixed-μ stages factor through the same system as
//! the predictor-corrector iterations of their solve.
//!
//! Assembly and solves fail fast on non-finite input with a typed
//! [`SystemError`]: hostile-but-valid coefficients (~1e17, reachable
//! through the wire front) overflow constraint evaluations to inf/NaN,
//! and the solve must then end cleanly at its current iterate — never
//! spin. This extends the non-finite fast-fail that
//! `Cholesky::new_regularized` gained for the same reason.

use super::structured::{Pattern, StructuredKkt};
#[cfg(test)]
use crate::barrier::KktPath;
use crate::barrier::{FactorTally, SparseKkt, HESS_CHOL_REG, KKT_REG};
use crate::problem::NlpProblem;
use hslb_linalg::approx::exactly_zero;
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

/// One iteration's condensed matrix `M = diag(diag) + Σᵢ (λᵢ/sᵢ)∇gᵢ∇gᵢᵀ`,
/// given by the values that define it: row `i`'s gradient has the entries
/// `grad[start[i]..start[i + 1]]` on the free columns
/// `col[start[i]..start[i + 1]]`. Each path assembles it in its own layout.
pub(crate) struct Condensed<'a> {
    pub(crate) diag: Vec<f64>,
    pub(crate) lam: &'a [f64],
    pub(crate) slack: &'a [f64],
    pub(crate) start: &'a [usize],
    pub(crate) col: &'a [usize],
    pub(crate) grad: &'a [f64],
}

impl Condensed<'_> {
    /// The dense k×k `M`: every row's outer product over its support, then
    /// the diagonal.
    fn dense(&self) -> Matrix {
        let k = self.diag.len();
        let mut m = Matrix::zeros(k, k);
        let cells = m.as_mut_slice();
        for (i, (&lam, &s)) in self.lam.iter().zip(self.slack).enumerate() {
            let w = lam / s;
            let span = self.start[i]..self.start[i + 1];
            let (cols, grad) = (&self.col[span.clone()], &self.grad[span]);
            for (at, (&a, &ga)) in cols.iter().zip(grad).enumerate() {
                if exactly_zero(ga) {
                    continue;
                }
                for (&b, &gb) in cols[at..].iter().zip(&grad[at..]) {
                    if !exactly_zero(gb) {
                        let v = w * ga * gb;
                        cells[a * k + b] += v;
                        if a != b {
                            cells[b * k + a] += v;
                        }
                    }
                }
            }
        }
        for (c, &d) in self.diag.iter().enumerate() {
            cells[c * k + c] += d;
        }
        m
    }
}

/// The per-solve KKT structure: the structured pattern or the sparse
/// symbolic analysis, found once; numeric factorization redone per
/// iteration via [`factor`].
///
/// [`factor`]: AugmentedSystem::factor
pub(crate) struct AugmentedSystem<'a> {
    structured: Option<StructuredKkt>,
    sparse: Option<SparseKkt<'a>>,
    k: usize,
    m_eq: usize,
}

impl<'a> AugmentedSystem<'a> {
    /// Chooses the path: `structured` when the caller found that pattern,
    /// else by the KKT dimension (sparse at or above
    /// [`SPARSE_CROSSOVER_DIM`], running the symbolic analysis once). A
    /// failed analysis silently degrades to dense.
    pub(crate) fn new(
        p: &NlpProblem,
        col_of: &std::collections::HashMap<usize, usize>,
        a_eq: &Matrix,
        k: usize,
        m_eq: usize,
        structured: Option<Pattern>,
        scratch: &'a mut SparseWorkspace,
    ) -> AugmentedSystem<'a> {
        let dim = if m_eq == 0 { k } else { k + m_eq };
        let sparse = if structured.is_none() && dim >= SPARSE_CROSSOVER_DIM {
            SparseKkt::build(p, col_of, a_eq, k, m_eq, scratch)
        } else {
            None
        };
        AugmentedSystem {
            structured: structured.map(StructuredKkt::new),
            sparse,
            k,
            m_eq,
        }
    }

    #[cfg(test)]
    pub(crate) fn path(&self) -> KktPath {
        if self.structured.is_some() {
            KktPath::Structured
        } else if self.sparse.is_some() {
            KktPath::Sparse
        } else {
            KktPath::Dense
        }
    }

    /// Assembles and factors the current condensed matrix once; the
    /// returned [`KktFactor`] then serves every solve of the iteration. The
    /// structured factor, like the dense one, adds nothing to the tally.
    pub(crate) fn factor(
        &mut self,
        m: &Condensed,
        a_eq: &Matrix,
        tally: &mut FactorTally,
    ) -> Result<KktFactor<'_>, SystemError> {
        if let Some(kkt) = self.structured.as_mut() {
            kkt.factor(m)?;
            return Ok(KktFactor::Structured(kkt));
        }
        let m = &m.dense();
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
            // below.
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
pub(crate) enum KktFactor<'a> {
    DenseChol(Cholesky),
    DenseLu(Lu),
    SparseChol(SparseCholesky),
    SparseLu(SparseLu),
    Structured(&'a StructuredKkt),
}

impl KktFactor<'_> {
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
            KktFactor::Structured(f) => (f.solve(rhs_x), Vec::new()),
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

    /// A condensed matrix with no constraint rows: just `diag`.
    fn diagonal(diag: Vec<f64>) -> Condensed<'static> {
        Condensed {
            diag,
            lam: &[],
            slack: &[],
            start: &[0],
            col: &[],
            grad: &[],
        }
    }

    fn dense_system(k: usize, m_eq: usize) -> AugmentedSystem<'static> {
        AugmentedSystem {
            structured: None,
            sparse: None,
            k,
            m_eq,
        }
    }

    #[test]
    fn dense_cholesky_factor_solves_twice() {
        let mut sys = dense_system(2, 0);
        let m = diagonal(vec![4.0, 9.0]);
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
        let m = diagonal(vec![1.0, 1.0]);
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
        let m = diagonal(vec![f64::INFINITY]);
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
        let m = diagonal(vec![1.0]);
        let a_eq = Matrix::zeros(0, 1);
        let mut tally = FactorTally::default();
        let f = sys.factor(&m, &a_eq, &mut tally).expect("factors");
        assert_eq!(
            f.solve(&[f64::NAN], &[]),
            Err(SystemError::NonFinite("KKT right-hand side"))
        );
    }
}
