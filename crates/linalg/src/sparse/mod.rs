//! Sparse numerical core: CSC/CSR storage, fill-reducing ordering, and
//! factorizations with a symbolic/numeric split (see DESIGN.md § Sparse
//! core).
//!
//! * [`CscMatrix`] / [`CsrMatrix`] — compressed column/row storage.
//! * [`LuSymbolic`] / [`SparseLu`] — left-looking LU with partial
//!   pivoting; the symbolic column order is minimum degree, computed once
//!   per pattern, or ascending column count, one sort (the simplex basis
//!   order).
//! * [`CholSymbolic`] / [`SparseCholesky`] — up-looking Cholesky over an
//!   elimination tree; the symbolic analysis (ordering, etree, column
//!   counts, value map) is reused across every numeric refactorization.
//! * [`SparseWorkspace`] — the scatter/mark scratch shared by both
//!   factorizations, held by callers (e.g. branch-and-bound scratch
//!   arenas) so hot loops refactorize without reallocating.
//!
//! There is no dense/sparse selector. The simplex basis is always a
//! sparse LU, and the barrier factors its KKT system sparse exactly when
//! the system has at least [`SPARSE_CROSSOVER_DIM`] unknowns.

pub mod cholesky;
pub mod csc;
pub mod lu;
pub mod ordering;

pub use cholesky::{CholSymbolic, SparseCholesky};
pub use csc::{CscMatrix, CsrMatrix};
pub use lu::{LuSymbolic, SparseLu};

/// Sentinel for "no index" in permutation / tree arrays.
pub(crate) const NONE: usize = usize::MAX;

/// KKT dimension at which the barrier's Newton system switches from the
/// dense factorizations to the sparse Cholesky (no equalities) or LU (with
/// equalities). The simplex basis does not consult it: it is a sparse LU
/// at every row count.
///
/// Calibration: the paper-scale barrier KKTs (E7/E8, the FMO cluster
/// NLPs, the testkit generators) stay under 160 unknowns, and there the
/// dense Cholesky wins — forcing the sparse KKT at every size made the
/// `fmo_alloc` benchmark's OA solves about 1.3× slower (4.9 → 6.5 ms per
/// allocation, seed 1, 2-core Xeon) at unchanged Newton counts.
/// Netlib-scale systems (a few hundred unknowns and up) flip to sparse
/// where the asymptotic win is unambiguous.
pub const SPARSE_CROSSOVER_DIM: usize = 160;

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
