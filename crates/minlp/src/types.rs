//! Shared solver types: options, status, solution, statistics.

use hslb_nlp::BarrierOptions;
use hslb_obs::{ClockHandle, SolveStats, Trace};

/// Node selection strategy for the serial trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSelection {
    /// Always expand the node with the smallest lower bound (proves
    /// optimality fastest).
    BestBound,
    /// Depth-first (finds incumbents fastest, least memory).
    DepthFirst,
}

/// Absolute optimality gap at which a node is pruned and the search
/// declared optimal.
pub const ABS_GAP: f64 = 1e-6;
/// Relative optimality gap (on top of [`ABS_GAP`]).
pub const REL_GAP: f64 = 1e-6;
/// Integrality / set-membership tolerance.
pub(crate) const INT_TOL: f64 = 1e-6;
/// Constraint feasibility tolerance for accepting incumbents.
pub(crate) const FEAS_TOL: f64 = 1e-6;

/// Options shared by all MINLP solvers. The gap, integrality and
/// feasibility tolerances are the consts above, and the barrier's μ₀ is
/// its own const. No option picks a linear algebra path: every master LP
/// runs on the sparse-LU simplex, and every NLP subsolve factors its
/// barrier KKT system by the problem's pattern (see `hslb_nlp::kkt_path`).
#[derive(Debug, Clone)]
pub struct MinlpOptions {
    /// Hard cap on explored nodes.
    pub max_nodes: usize,
    /// Wall-clock budget in seconds measured on `clock` (`None` =
    /// unlimited). When the budget expires the solve stops cleanly with
    /// [`MinlpStatus::TimeLimit`], returning the best incumbent found and
    /// the tightest bound proven so far (an *anytime* result).
    pub time_limit: Option<f64>,
    /// Clock used for `time_limit`. Defaults to real monotonic time; tests
    /// inject an `hslb_obs::FakeClock` so time-limit paths never sleep.
    pub clock: ClockHandle,
    /// Event trace (off by default; see `hslb-obs`).
    pub trace: Trace,
    /// Node selection.
    pub node_selection: NodeSelection,
    /// Threads for the parallel solver (0 = one per available core).
    pub threads: usize,
    /// Reuse solver state across the tree: children seed their barrier NLP
    /// from the parent's relaxation point and multipliers, and the OA master
    /// re-enters the simplex from the previous optimal basis via dual
    /// pivots. Warm starts are advisory — any seed that cannot be repaired
    /// falls back to the identical cold path, so statuses and optima are
    /// unchanged; only the work counters shrink. `hslb-cli` exposes
    /// `--no-warm-start` for A/B runs.
    pub warm_start: bool,
}

impl MinlpOptions {
    /// The barrier options every NLP subsolve of this search runs with.
    pub(crate) fn barrier(&self) -> BarrierOptions {
        BarrierOptions {
            trace: self.trace.clone(),
        }
    }
}

impl Default for MinlpOptions {
    fn default() -> Self {
        MinlpOptions {
            max_nodes: 2_000_000,
            time_limit: None,
            clock: ClockHandle::default(),
            trace: Trace::off(),
            node_selection: NodeSelection::BestBound,
            threads: 0,
            warm_start: true,
        }
    }
}

/// Terminal status of a MINLP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinlpStatus {
    /// Global optimum found (within the gap tolerances).
    Optimal,
    /// No feasible assignment exists (proven by a *completed* search; a
    /// search cut short by a limit reports the limit status instead,
    /// because infeasibility was not proven).
    Infeasible,
    /// Node budget exhausted; `objective` holds the best incumbent if any.
    NodeLimit,
    /// Time budget exhausted; `objective` holds the best incumbent if any
    /// and `best_bound` the tightest bound proven before the deadline.
    TimeLimit,
}

/// Solution of a MINLP solve, with search statistics.
#[derive(Debug, Clone)]
pub struct MinlpSolution {
    pub status: MinlpStatus,
    /// Best point found (empty when infeasible).
    pub x: Vec<f64>,
    /// Objective of `x` (`f64::INFINITY` when infeasible).
    pub objective: f64,
    /// Best proven lower bound on the optimum.
    pub best_bound: f64,
    /// Deterministic work counters (nodes, prunes, cuts, pivots, …).
    pub stats: SolveStats,
}

impl MinlpSolution {
    /// Final absolute gap between incumbent and proven bound.
    pub fn gap(&self) -> f64 {
        if self.objective.is_finite() && self.best_bound.is_finite() {
            (self.objective - self.best_bound).max(0.0)
        } else {
            f64::INFINITY
        }
    }

    pub fn infeasible(stats: SolveStats) -> Self {
        MinlpSolution {
            status: MinlpStatus::Infeasible,
            x: Vec::new(),
            objective: f64::INFINITY,
            best_bound: f64::INFINITY,
            stats,
        }
    }
}

impl std::fmt::Display for MinlpSolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.status {
            MinlpStatus::Infeasible => write!(f, "infeasible")?,
            MinlpStatus::Optimal => write!(f, "optimal {:.6}", self.objective)?,
            MinlpStatus::NodeLimit => write!(
                f,
                "node limit: incumbent {:.6}, bound {:.6}",
                self.objective, self.best_bound
            )?,
            MinlpStatus::TimeLimit => write!(
                f,
                "time limit: incumbent {:.6}, bound {:.6}",
                self.objective, self.best_bound
            )?,
        }
        write!(
            f,
            " ({} nodes, {} NLP, {} LP, {} cuts)",
            self.stats.nodes_opened,
            self.stats.nlp_solves,
            self.stats.lp_solves,
            self.stats.oa_cuts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_321() -> SolveStats {
        SolveStats {
            nodes_opened: 3,
            nlp_solves: 2,
            lp_solves: 1,
            ..Default::default()
        }
    }

    #[test]
    fn display_formats_all_statuses() {
        let mut s = MinlpSolution::infeasible(stats_321());
        assert!(format!("{s}").contains("infeasible"));
        s.status = MinlpStatus::Optimal;
        s.objective = 12.5;
        assert!(format!("{s}").contains("optimal 12.5"));
        s.status = MinlpStatus::NodeLimit;
        s.best_bound = 10.0;
        let text = format!("{s}");
        assert!(
            text.contains("node limit") && text.contains("3 nodes"),
            "{text}"
        );
        s.status = MinlpStatus::TimeLimit;
        let text = format!("{s}");
        assert!(
            text.contains("time limit") && text.contains("2 NLP"),
            "{text}"
        );
    }

    #[test]
    fn gap_computation() {
        let mut s = MinlpSolution::infeasible(SolveStats::default());
        assert_eq!(s.gap(), f64::INFINITY);
        s.objective = 10.0;
        s.best_bound = 9.5;
        assert!((s.gap() - 0.5).abs() < 1e-12);
        s.best_bound = 11.0; // bound past incumbent clamps to zero
        assert_eq!(s.gap(), 0.0);
    }
}
