//! Sparse numerical core: CSC/CSR storage, fill-reducing ordering, and
//! factorizations with a symbolic/numeric split (see DESIGN.md § Sparse
//! core).
//!
//! * [`CscMatrix`] / [`CsrMatrix`] — compressed column/row storage.
//! * [`LuSymbolic`] / [`SparseLu`] — left-looking LU with partial
//!   pivoting; the symbolic column order is computed once per pattern.
//! * [`CholSymbolic`] / [`SparseCholesky`] — up-looking Cholesky over an
//!   elimination tree; the symbolic analysis (ordering, etree, column
//!   counts, value map) is reused across every numeric refactorization.
//! * [`SparseWorkspace`] — the scatter/mark scratch shared by both
//!   factorizations, held by callers (e.g. branch-and-bound scratch
//!   arenas) so hot loops refactorize without reallocating.
//! * [`LinalgBackend`] — the dense/sparse selector threaded through the
//!   LP, NLP and MINLP option structs: the simplex basis is sparse unless
//!   `Dense` is forced, the barrier KKT switches at the crossover
//!   dimension.

pub mod cholesky;
pub mod csc;
pub mod lu;
pub mod ordering;

pub use cholesky::{CholSymbolic, SparseCholesky};
pub use csc::{CscMatrix, CsrMatrix};
pub use lu::{LuSymbolic, SparseLu};

/// Sentinel for "no index" in permutation / tree arrays.
pub(crate) const NONE: usize = usize::MAX;

/// KKT dimension at which `LinalgBackend::Auto` switches the barrier's
/// Newton system from dense to sparse Cholesky. The simplex basis does not
/// consult it: it is sparse at every row count unless `Dense` is forced.
///
/// Calibration: the paper-scale barrier KKTs (E7/E8, the FMO cluster
/// NLPs, the testkit generators) stay under 160 unknowns, and there the
/// dense Cholesky wins — forcing the sparse KKT at every size made the
/// `fmo_alloc` benchmark's OA solves about 1.3× slower (4.9 → 6.5 ms per
/// allocation, seed 1, 2-core Xeon) at unchanged Newton counts.
/// Netlib-scale systems (a few hundred unknowns and up) flip to sparse
/// where the asymptotic win is unambiguous.
pub const SPARSE_CROSSOVER_DIM: usize = 160;

/// Which linear-algebra kernels a solver should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinalgBackend {
    /// The production choice: the sparse LU simplex basis at every row
    /// count; the barrier KKT dense below [`SPARSE_CROSSOVER_DIM`] and
    /// sparse at or above it.
    #[default]
    Auto,
    /// Always the dense kernels (the differential reference; `--dense` in
    /// `hslb-cli`).
    Dense,
    /// Always the sparse kernels.
    Sparse,
}

impl LinalgBackend {
    /// Resolves the backend choice for a barrier KKT system of `dim`
    /// unknowns.
    pub fn use_sparse(self, dim: usize) -> bool {
        match self {
            LinalgBackend::Auto => dim >= SPARSE_CROSSOVER_DIM,
            LinalgBackend::Dense => false,
            LinalgBackend::Sparse => true,
        }
    }
}

/// Reusable scratch for the sparse factorizations: a dense scatter
/// vector, a stamp-based visited mark, a DFS stack and a pattern/topo
/// buffer. `ensure(n)` grows it to dimension `n`; values in `x` are
/// maintained as all-zero between uses so repeated factorizations never
/// pay a clear.
#[derive(Debug, Clone, Default)]
pub struct SparseWorkspace {
    pub(crate) x: Vec<f64>,
    pub(crate) flag: Vec<u64>,
    pub(crate) stamp: u64,
    pub(crate) stack: Vec<(usize, usize)>,
    pub(crate) topo: Vec<usize>,
}

impl SparseWorkspace {
    pub fn new() -> SparseWorkspace {
        SparseWorkspace::default()
    }

    pub(crate) fn ensure(&mut self, n: usize) {
        if self.x.len() < n {
            self.x.resize(n, 0.0);
            self.flag.resize(n, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_crossover_behaves() {
        assert!(!LinalgBackend::Auto.use_sparse(SPARSE_CROSSOVER_DIM - 1));
        assert!(LinalgBackend::Auto.use_sparse(SPARSE_CROSSOVER_DIM));
        assert!(!LinalgBackend::Dense.use_sparse(100_000));
        assert!(LinalgBackend::Sparse.use_sparse(2));
    }
}
