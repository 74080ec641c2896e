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
    /// Simplex iterations across both phases (includes `dual_pivots`).
    pub iterations: usize,
    /// Dual-simplex pivots spent restoring primal feasibility from a warm
    /// basis (zero on cold solves).
    pub dual_pivots: usize,
    /// Whether a saved basis was actually reused (`solve_warm` fell back to
    /// a cold solve when this is `false`).
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

    pub(crate) fn infeasible(iterations: usize) -> Self {
        LpSolution {
            status: LpStatus::Infeasible,
            x: Vec::new(),
            objective: f64::INFINITY,
            duals: Vec::new(),
            iterations,
            dual_pivots: 0,
            warm_used: false,
            factorizations: 0,
            factor_updates: 0,
            fill_nnz: 0,
        }
    }

    pub(crate) fn unbounded(iterations: usize) -> Self {
        LpSolution {
            status: LpStatus::Unbounded,
            x: Vec::new(),
            objective: f64::NEG_INFINITY,
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
