//! Sparse numerical core: CSC storage and the simplex basis's LU with
//! a symbolic/numeric split (see DESIGN.md § Sparse core).
//!
//! * [`CscMatrix`] — compressed column storage.
//! * [`LuSymbolic`] / [`SparseLu`] — left-looking LU with partial
//!   pivoting; the symbolic column order is ascending column count, one
//!   sort per refactorization.
//! * [`SparseWorkspace`] — the factorization's scatter/mark scratch, held
//!   by its caller (the simplex) so refactorizations never reallocate.
//!
//! The simplex basis is always a sparse LU. The barrier's Newton systems
//! never come here: they are factored by the structured LDLᵀ or densely
//! (see `hslb_nlp::kkt_path`).

pub mod csc;
pub mod lu;

pub use csc::CscMatrix;
pub use lu::{LuSymbolic, SparseLu};

/// Sentinel for "no index" in permutation arrays.
pub(crate) const NONE: usize = usize::MAX;

/// Reusable scratch for the sparse LU: a dense scatter vector, a
/// stamp-based visited mark, a DFS stack and a pattern/topo buffer.
/// `ensure(n)` grows it to dimension `n`; values in `x` are maintained as
/// all-zero between uses so repeated factorizations never pay a clear.
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
