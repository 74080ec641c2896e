//! Linear-algebra substrate for the HSLB reproduction, with no external
//! dependencies.
//!
//! The barrier's Newton steps at paper scale need only small dense systems,
//! so this crate provides straightforward row-major dense kernels for them;
//! the simplex basis runs on the sparse core:
//!
//! * [`Matrix`] — row-major dense matrix with the usual arithmetic.
//! * [`Cholesky`] — SPD factorization with a ridge-regularized fallback
//!   ([`Cholesky::new_regularized`]) used by the barrier solver.
//! * [`Lu`] — partial-pivoting LU for general square systems.
//! * [`Qr`] — Householder QR for least-squares subproblems.
//! * [`vecops`] — the handful of BLAS-1 style vector helpers used everywhere.
//! * [`approx`] — the workspace tolerance vocabulary: named comparisons,
//!   fuzzy integer snaps, and intent-named float→int conversions.
//! * [`sparse`] — the sparse core (CSC/CSR storage and an LU with a
//!   symbolic/numeric split). The simplex basis is always a sparse LU; the
//!   barrier factors its KKT system with its own structured LDLᵀ or with
//!   the dense kernels above.
//!
//! All factorizations report failure through [`LinalgError`] instead of
//! panicking so callers (iterative solvers) can recover, e.g. by adding
//! regularization and retrying.

pub mod approx;
pub mod cholesky;
pub mod lu;
pub mod matrix;
pub mod noise;
pub mod qr;
pub mod sparse;
pub mod vecops;

pub use cholesky::Cholesky;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;
pub use sparse::{CscMatrix, CsrMatrix, LuSymbolic, SparseLu, SparseWorkspace};

/// Errors reported by factorizations and solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is singular (or numerically so) at the given pivot index.
    Singular { pivot: usize },
    /// Cholesky failed: the matrix is not positive definite at the given row.
    NotPositiveDefinite { row: usize },
    /// Operand dimensions do not match the operation.
    DimensionMismatch {
        expected: (usize, usize),
        got: (usize, usize),
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotPositiveDefinite { row } => {
                write!(f, "matrix is not positive definite (detected at row {row})")
            }
            LinalgError::DimensionMismatch { expected, got } => write!(
                f,
                "dimension mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
