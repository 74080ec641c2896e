//! Warm starts are advisory: reusing parent barrier points and simplex
//! bases may only change the *work counters*, never the answers. This suite
//! pins that contract two ways: a 500-instance differential sweep over the
//! testkit generator (status, objective, incumbent feasibility), and a
//! pivot-count regression pin for the dual-simplex basis reuse that OA
//! masters rely on.

use hslb_lp::{LinearProgram, LpStatus, RowSense, SimplexOptions, WarmBasis};
use hslb_minlp::{
    solve_nlp_bnb, solve_oa_bnb, solve_parallel_bnb, MinlpOptions, MinlpSolution, MinlpStatus,
};
use hslb_rng::Rng;
use hslb_testkit::gen;

/// Objective agreement tolerance, relative to the cold optimum's scale.
const OBJ_TOL: f64 = 1e-5;
/// Feasibility tolerance for returned incumbents (matches the solvers'
/// own acceptance tolerance).
const FEAS_TOL: f64 = 1e-5;

#[test]
fn warm_and_cold_agree_across_500_generated_instances() {
    let warm_opts = MinlpOptions::default();
    let cold_opts = MinlpOptions {
        warm_start: false,
        ..MinlpOptions::default()
    };
    assert!(warm_opts.warm_start, "warm starts must default on");

    let mut rng = Rng::new(0x5EED_0A11);
    for case in 0..500u64 {
        let size = (case % 6) as u32 + 1;
        let inst = gen::minlp_instance(&mut rng, size);
        // Cycle the backend so every solver exercises its warm path across
        // the sweep; each instance is still judged warm-vs-cold on the
        // *same* backend.
        let solve: fn(&hslb_minlp::MinlpProblem, &MinlpOptions) -> MinlpSolution = match case % 3 {
            0 => solve_oa_bnb,
            1 => solve_nlp_bnb,
            _ => solve_parallel_bnb,
        };
        let warm = solve(&inst.problem, &warm_opts);
        let cold = solve(&inst.problem, &cold_opts);
        assert_eq!(
            warm.status, cold.status,
            "case {case}: warm/cold status diverged"
        );
        if warm.status != MinlpStatus::Optimal {
            continue;
        }
        assert!(
            (warm.objective - cold.objective).abs() <= OBJ_TOL * cold.objective.abs().max(1.0),
            "case {case}: warm objective {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(
            inst.problem.is_feasible(&warm.x, FEAS_TOL),
            "case {case}: warm incumbent infeasible"
        );
        assert!(
            inst.problem.is_feasible(&cold.x, FEAS_TOL),
            "case {case}: cold incumbent infeasible"
        );
    }
}

/// Under the shipped options, warm solves must never pay more Newton
/// iterations than cold ones across a family's generated instances
/// (aggregate, 25 instances per family). A change that makes warm starts a
/// *regression* for one problem family fails here, not in production.
#[test]
fn warm_newton_stays_at_or_below_cold_per_family() {
    use hslb::{build_flat_model, build_layout_model, Layout};
    use hslb_testkit::Layer;

    type FamilyBuilder = fn(&mut Rng, u32) -> hslb_minlp::MinlpProblem;
    let families: [(Layer, FamilyBuilder); 3] = [
        (Layer::Minlp, |rng, size| {
            gen::minlp_instance(rng, size).problem
        }),
        (Layer::Flat, |rng, size| {
            build_flat_model(&gen::flat_spec(rng, size)).problem
        }),
        (Layer::Cesm, |rng, size| {
            build_layout_model(&gen::cesm_spec(rng, size), Layout::Hybrid).problem
        }),
    ];
    for (layer, build) in families {
        let warm_opts = MinlpOptions::default();
        let cold_opts = MinlpOptions {
            warm_start: false,
            ..MinlpOptions::default()
        };
        let mut rng = Rng::new(0xFA41_71E5 ^ layer as u64);
        let (mut warm_total, mut cold_total) = (0u64, 0u64);
        for case in 0..25u64 {
            let size = (case % 6) as u32 + 1;
            let problem = build(&mut rng, size);
            let warm = solve_nlp_bnb(&problem, &warm_opts);
            let cold = solve_nlp_bnb(&problem, &cold_opts);
            assert_eq!(
                warm.status,
                cold.status,
                "{} case {case}: warm/cold status diverged",
                layer.name()
            );
            warm_total += warm.stats.newton_iters;
            cold_total += cold.stats.newton_iters;
        }
        assert!(
            warm_total <= cold_total,
            "family {}: warm Newton total {warm_total} exceeds cold {cold_total}",
            layer.name()
        );
    }
}

/// Mimics one OA master iteration: solve, append a violated `<=` cut, and
/// re-solve. The warm re-solve enters through the dual simplex from the
/// previous basis and must beat the cold from-scratch pivot count — that
/// inequality is the whole point of keeping the basis across cut rounds.
#[test]
fn dual_resolve_after_cut_beats_cold_pivot_count() {
    let mut lp = LinearProgram::new();
    let x1 = lp.add_var(-3.0, 0.0, 10.0);
    let x2 = lp.add_var(-2.0, 0.0, 10.0);
    let x3 = lp.add_var(-1.0, 0.0, 10.0);
    lp.add_row(vec![(x1, 1.0), (x2, 1.0), (x3, 1.0)], RowSense::Le, 15.0);
    lp.add_row(vec![(x1, 2.0), (x2, 1.0)], RowSense::Le, 18.0);

    let opts = SimplexOptions::default();
    let mut basis = WarmBasis::new();
    let first = hslb_lp::solve_warm(&lp, &opts, &mut basis);
    assert_eq!(first.status, LpStatus::Optimal);

    // An OA-style cut violated at the current optimum.
    lp.add_row(vec![(x1, 1.0), (x2, 2.0)], RowSense::Le, 12.0);

    let warm = hslb_lp::solve_warm(&lp, &opts, &mut basis);
    let cold = hslb_lp::solve_with(&lp, &opts);
    assert_eq!(warm.status, LpStatus::Optimal);
    assert_eq!(cold.status, LpStatus::Optimal);
    assert!(
        (warm.objective - cold.objective).abs() <= 1e-9 * cold.objective.abs().max(1.0),
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert!(
        warm.warm_used,
        "re-solve must enter through the saved basis"
    );
    assert!(
        warm.iterations < cold.iterations,
        "dual re-solve must take fewer pivots: warm {} vs cold {}",
        warm.iterations,
        cold.iterations
    );
    assert_eq!(
        warm.iterations, warm.dual_pivots,
        "all warm re-solve work should be dual pivots"
    );
}
