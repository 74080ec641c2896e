//! LP solve outcomes.

/// Terminal status of a simplex run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible set.
    Unbounded,
    /// Iteration limit was reached before convergence (numerical trouble).
    IterationLimit,
}

/// Solution of a linear program.
#[derive(Debug, Clone)]
pub struct LpSolution {
    pub status: LpStatus,
    /// Primal values of the structural variables (empty unless `Optimal`).
    pub x: Vec<f64>,
    /// Objective value (`f64::INFINITY` when infeasible, `NEG_INFINITY` when
    /// unbounded).
    pub objective: f64,
    /// Dual values (simplex multipliers), one per row (empty unless
    /// `Optimal`).
    pub duals: Vec<f64>,
    /// Simplex pivots of every kind (includes `dual_pivots`).
    pub iterations: usize,
    /// Dual-simplex pivots `solve_warm` spent restoring primal feasibility,
    /// from a saved basis or from the slack basis (zero for `solve` and
    /// `solve_with`). `iterations - dual_pivots` are primal pivots: the
    /// two-phase solve's and any clean-up after the dual pivots. A dual
    /// attempt that was abandoned for the cold solve still counts here, as
    /// all of its work counts in `iterations` and the factorization
    /// counters below.
    pub dual_pivots: usize,
    /// Whether `solve_warm` reused a basis saved by an earlier solve and
    /// finished from it. `false` when it started from the slack basis, when
    /// it fell back to the cold two-phase solve, and for `solve`/`solve_with`.
    pub warm_used: bool,
    /// Basis refactorizations performed (both backends).
    pub factorizations: u64,
    /// Product-form eta updates appended between refactorizations (zero
    /// under `LinalgBackend::Dense`, which updates its explicit inverse in
    /// place).
    pub factor_updates: u64,
    /// Cumulative nonzeros across all sparse basis factors (zero under
    /// `LinalgBackend::Dense`).
    pub fill_nnz: u64,
}

impl LpSolution {
    /// Whether the run ended with a usable optimal point.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }

    /// An outcome without a point, reporting no factorization work:
    /// `objective` is `+∞` when infeasible, `−∞` when unbounded and NaN
    /// otherwise.
    pub(crate) fn without_point(status: LpStatus, iterations: usize) -> Self {
        let objective = match status {
            LpStatus::Infeasible => f64::INFINITY,
            LpStatus::Unbounded => f64::NEG_INFINITY,
            LpStatus::Optimal | LpStatus::IterationLimit => f64::NAN,
        };
        LpSolution {
            status,
            x: Vec::new(),
            objective,
            duals: Vec::new(),
            iterations,
            dual_pivots: 0,
            warm_used: false,
            factorizations: 0,
            factor_updates: 0,
            fill_nnz: 0,
        }
    }
}
