//! The numerical core's answers, checked without a second solver. Every
//! simplex optimum runs on the sparse LU + eta basis and must certify from
//! its own duals (`LpSolution::certify`): primal and dual feasibility,
//! complementary slackness and a zero duality gap. The barrier still has
//! two KKT paths (dense below `SPARSE_CROSSOVER_DIM`, sparse Cholesky/LU
//! above it), so forcing `LinalgBackend::Sparse` vs `LinalgBackend::Dense`
//! through `BarrierOptions`/`MinlpOptions` may change work counters and
//! rounding in the last digits, never statuses, objectives, or
//! feasibility. The suite pins both contracts over 530 seeded instances
//! (260 certified LPs, 120 NLPs and 150 MINLPs across all three
//! branch-and-bound backends), mirroring `warm_cold_equivalence.rs`, plus
//! a pinned pivot/Newton-count envelope on fixed instances so silent work
//! blowups fail loudly.

use hslb_linalg::LinalgBackend;
use hslb_lp::{LinearProgram, LpSolution, LpStatus};
use hslb_minlp::{
    solve_nlp_bnb, solve_oa_bnb, solve_parallel_bnb, MinlpOptions, MinlpSolution, MinlpStatus,
};
use hslb_nlp::{BarrierOptions, NlpStatus};
use hslb_rng::Rng;
use hslb_testkit::check::{backend_diff_tol, lp_cond_scale};
use hslb_testkit::gen;

/// Objective agreement tolerance for the NLP/MINLP layers, relative to the
/// dense optimum's scale. Barrier solves terminate at a finite duality gap,
/// so two factorization orders stop at slightly different interior points.
const OBJ_TOL: f64 = 1e-4;
/// Feasibility tolerance for returned points (the solvers' own acceptance
/// tolerance).
const FEAS_TOL: f64 = 1e-5;

/// An optimal LP answer must certify and its point must be feasible within
/// the instance-derived tolerance.
fn assert_certified(what: &str, lp: &LinearProgram, sol: &LpSolution) {
    if let Err(e) = sol.certify(lp) {
        panic!("{what}: {e}");
    }
    let tol = backend_diff_tol(lp.num_vars() + lp.num_rows(), lp_cond_scale(lp));
    assert!(lp.is_feasible(&sol.x, tol), "{what}: point infeasible");
}

#[test]
fn lp_optima_certify_across_200_generated_instances() {
    let mut rng = Rng::new(0x5BA2_5E0D);
    for case in 0..200u64 {
        let size = (case % 6) as u32 + 1;
        let inst = gen::lp_instance(&mut rng, size);
        let sol = hslb_lp::solve(&inst.lp);
        assert_eq!(sol.status, LpStatus::Optimal, "case {case}");
        assert_certified(&format!("case {case}"), &inst.lp, &sol);
    }
}

#[test]
fn lp_optima_certify_on_60_netlib_scale_instances() {
    // Larger instances from the netlib-style generator, up to 100 columns
    // and 50 rows.
    for case in 0..60u64 {
        let n = 20 + (case as usize % 9) * 10; // 20..100 columns
        let m = n / 2;
        let lp = hslb_bench::netgen::netlib_like(0xD1FF_0000 + case, n, m);
        let sol = hslb_lp::solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal, "netlib case {case}");
        assert_certified(&format!("netlib case {case}"), &lp, &sol);
    }
}

#[test]
fn nlp_backends_agree_across_120_generated_instances() {
    let dense_opts = BarrierOptions {
        backend: LinalgBackend::Dense,
        ..Default::default()
    };
    let sparse_opts = BarrierOptions {
        backend: LinalgBackend::Sparse,
        ..Default::default()
    };
    let mut rng = Rng::new(0x5BA2_01CE);
    for case in 0..120u64 {
        let size = (case % 6) as u32 + 1;
        let inst = gen::nlp_instance(&mut rng, size);
        let dense = hslb_nlp::solve_with(&inst.problem, &dense_opts)
            .unwrap_or_else(|e| panic!("case {case}: dense barrier error {e:?}"));
        let sparse = hslb_nlp::solve_with(&inst.problem, &sparse_opts)
            .unwrap_or_else(|e| panic!("case {case}: sparse barrier error {e:?}"));
        assert_eq!(
            dense.status, sparse.status,
            "case {case}: backend status diverged"
        );
        if dense.status != NlpStatus::Optimal {
            continue;
        }
        assert!(
            (dense.objective - sparse.objective).abs() <= OBJ_TOL * dense.objective.abs().max(1.0),
            "case {case}: dense {} vs sparse {}",
            dense.objective,
            sparse.objective
        );
        assert!(
            inst.problem.is_feasible(&sparse.x, FEAS_TOL),
            "case {case}: sparse point infeasible"
        );
        assert!(
            sparse.factorizations >= 1,
            "case {case}: sparse path unused"
        );
        assert_eq!(dense.factorizations, 0, "case {case}: dense path counted");
    }
}

#[test]
fn minlp_backends_agree_across_150_generated_instances() {
    let dense_opts = MinlpOptions {
        backend: LinalgBackend::Dense,
        ..MinlpOptions::default()
    };
    let sparse_opts = MinlpOptions {
        backend: LinalgBackend::Sparse,
        ..MinlpOptions::default()
    };
    let mut rng = Rng::new(0x5BA2_3141);
    for case in 0..150u64 {
        let size = (case % 6) as u32 + 1;
        let inst = gen::minlp_instance(&mut rng, size);
        // Cycle the backend so every solver exercises the sparse kernels
        // across the sweep; each instance is still judged dense-vs-sparse
        // on the *same* solver.
        let solve: fn(&hslb_minlp::MinlpProblem, &MinlpOptions) -> MinlpSolution = match case % 3 {
            0 => solve_oa_bnb,
            1 => solve_nlp_bnb,
            _ => solve_parallel_bnb,
        };
        let dense = solve(&inst.problem, &dense_opts);
        let sparse = solve(&inst.problem, &sparse_opts);
        assert_eq!(
            dense.status, sparse.status,
            "case {case}: backend status diverged"
        );
        if dense.status != MinlpStatus::Optimal {
            continue;
        }
        assert!(
            (dense.objective - sparse.objective).abs() <= OBJ_TOL * dense.objective.abs().max(1.0),
            "case {case}: dense {} vs sparse {}",
            dense.objective,
            sparse.objective
        );
        assert!(
            inst.problem.is_feasible(&sparse.x, FEAS_TOL),
            "case {case}: sparse incumbent infeasible"
        );
    }
}

/// Pinned work envelope on fixed instances: the simplex's pivot and
/// refactorization counts stay in a pinned range, and the two barrier KKT
/// paths' Newton counts stay inside one envelope, so a silently quadratic
/// kernel cannot hide behind matching objectives.
#[test]
fn pinned_pivot_and_newton_envelope() {
    // LP: the n=100 netlib-style instance from the perf suite's seed
    // family. Pinned pivot and refactorization ranges.
    let lp = hslb_bench::netgen::netlib_like(0xB0A7_F00D, 100, 60);
    let sol = hslb_lp::solve(&lp);
    assert!(sol.is_optimal());
    assert!(
        (150..=600).contains(&sol.iterations),
        "pivot count {} outside pinned envelope [150, 600]",
        sol.iterations
    );
    assert!(
        (1..=20).contains(&sol.factorizations),
        "refactorizations {} outside [1, 20]",
        sol.factorizations
    );

    // NLP: a fixed mid-size barrier instance. Newton counts may differ a
    // little between factorization orders (line searches see different
    // last-digit rounding) but both must stay in one envelope.
    let mut rng = Rng::new(0x0E4F_EED5);
    let inst = gen::nlp_instance(&mut rng, 4);
    let dense = hslb_nlp::solve_with(
        &inst.problem,
        &BarrierOptions {
            backend: LinalgBackend::Dense,
            ..Default::default()
        },
    )
    .expect("dense solve");
    let sparse = hslb_nlp::solve_with(
        &inst.problem,
        &BarrierOptions {
            backend: LinalgBackend::Sparse,
            ..Default::default()
        },
    )
    .expect("sparse solve");
    assert_eq!(dense.status, NlpStatus::Optimal);
    assert_eq!(sparse.status, NlpStatus::Optimal);
    for (tag, iters) in [
        ("dense", dense.newton_iters),
        ("sparse", sparse.newton_iters),
    ] {
        assert!(
            (10..=2000).contains(&iters),
            "{tag} newton count {iters} outside pinned envelope [10, 2000]"
        );
    }
    let (lo, hi) = (
        dense.newton_iters.min(sparse.newton_iters),
        dense.newton_iters.max(sparse.newton_iters),
    );
    assert!(
        hi <= 2 * lo,
        "newton counts diverged: dense {} vs sparse {}",
        dense.newton_iters,
        sparse.newton_iters
    );
}
