//! Solver backend selection.

use hslb_minlp::{
    solve_nlp_bnb, solve_oa_bnb, solve_parallel_bnb, MinlpOptions, MinlpProblem, MinlpSolution,
};

/// Which branch-and-bound engine to use for the Solve step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// LP/NLP-based branch and bound (Quesada–Grossmann) — the paper's
    /// MINOTAUR configuration. Requires convexity for global optimality.
    #[default]
    OuterApproximation,
    /// NLP-based branch and bound; also usable on the (mildly) nonconvex
    /// `T_sync` variant.
    NlpBnb,
    /// Parallel NLP-based branch and bound (fork-join std threads).
    ParallelBnb,
}

/// Solves with default options, dispatching on the backend.
///
/// Nonconvex models are automatically routed to the NLP tree even when the
/// outer-approximation backend was requested, because OA cuts are only valid
/// for convex constraints.
pub fn solve_model(problem: &MinlpProblem, backend: SolverBackend) -> MinlpSolution {
    solve_model_with(problem, backend, &MinlpOptions::default())
}

/// Solves with explicit options.
///
/// Runs a bound-tightening presolve first (MINOTAUR's reformulation step):
/// linear rows and equalities propagate into variable boxes and prune
/// allowed-set members before the tree search starts. The problem is
/// copied only when a bound moved. A presolve-proven infeasibility returns
/// immediately.
pub fn solve_model_with(
    problem: &MinlpProblem,
    backend: SolverBackend,
    opts: &MinlpOptions,
) -> MinlpSolution {
    let Some((reduced, root_tightenings)) = hslb_minlp::presolved(problem, 8) else {
        return MinlpSolution::infeasible(hslb_minlp::SolveStats::default());
    };
    let backend = if !reduced.is_convex() && backend == SolverBackend::OuterApproximation {
        SolverBackend::NlpBnb
    } else {
        backend
    };
    let mut sol = match backend {
        SolverBackend::OuterApproximation => solve_oa_bnb(&reduced, opts),
        SolverBackend::NlpBnb => solve_nlp_bnb(&reduced, opts),
        SolverBackend::ParallelBnb => solve_parallel_bnb(&reduced, opts),
    };
    // The root presolve pass is solver work too; fold it into the counters
    // next to the per-node propagations the tree itself recorded.
    sol.stats.presolve_tightenings += root_tightenings as u64;
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_minlp::MinlpStatus;
    use hslb_nlp::{ConstraintFn, ScalarFn};

    fn tiny_problem() -> MinlpProblem {
        let mut p = MinlpProblem::new();
        let n = p.add_int_var(0.0, 1, 10);
        let t = p.add_var(1.0, 0.0, 1e6);
        p.add_constraint(
            ConstraintFn::new("perf")
                .nonlinear_term(n, ScalarFn::perf_model(100.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        p
    }

    #[test]
    fn all_backends_agree() {
        let p = tiny_problem();
        let objs: Vec<f64> = [
            SolverBackend::OuterApproximation,
            SolverBackend::NlpBnb,
            SolverBackend::ParallelBnb,
        ]
        .into_iter()
        .map(|b| {
            let s = solve_model(&p, b);
            assert_eq!(s.status, MinlpStatus::Optimal, "{b:?}");
            s.objective
        })
        .collect();
        assert!((objs[0] - objs[1]).abs() < 1e-4);
        assert!((objs[0] - objs[2]).abs() < 1e-4);
    }

    #[test]
    fn nonconvex_reroutes_from_oa() {
        let mut p = tiny_problem();
        // Add a reverse-convex (nonconvex) constraint: 100/n >= 12, i.e.
        // 12 - 100/n <= 0 with a negative-coefficient decay term.
        let mut f = ScalarFn::new();
        f.push(hslb_nlp::Term::PowerDecay { a: -100.0, c: 1.0 });
        p.add_constraint(
            ConstraintFn::new("rc")
                .nonlinear_term(0, f)
                .with_constant(12.0),
        );
        assert!(!p.is_convex());
        let s = solve_model(&p, SolverBackend::OuterApproximation);
        assert_eq!(s.status, MinlpStatus::Optimal);
        // Constraint forces n <= 8 (100/n >= 12 ⇔ n <= 8.33).
        assert!(s.x[0] <= 8.0 + 1e-6, "{s:?}");
    }
}
