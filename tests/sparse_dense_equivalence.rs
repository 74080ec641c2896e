//! Backend equivalence: the sparse numerical core (CSC LU + eta updates in
//! the simplex, sparse Cholesky/LU KKT solves in the barrier) is an
//! implementation detail — forcing `LinalgBackend::Sparse` vs
//! `LinalgBackend::Dense` may change work counters and rounding in the
//! last digits, never statuses, objectives, or feasibility. This suite
//! pins that contract over 530 seeded instances across every solver layer
//! (LP, netlib-style LP, NLP, all three MINLP backends), mirroring
//! `warm_cold_equivalence.rs`, plus a pinned pivot/Newton-count envelope
//! on fixed instances so silent work blowups in either backend fail loudly.

use hslb_linalg::LinalgBackend;
use hslb_lp::{LpStatus, SimplexOptions};
use hslb_minlp::{
    solve_nlp_bnb, solve_oa_bnb, solve_parallel_bnb, MinlpOptions, MinlpSolution, MinlpStatus,
};
use hslb_nlp::{BarrierOptions, NlpStatus};
use hslb_rng::Rng;
use hslb_testkit::check::{backend_diff_tol, lp_cond_scale};
use hslb_testkit::gen;

/// Objective agreement tolerance for the NLP/MINLP layers, relative to the
/// dense optimum's scale. Looser than the LP tolerance: barrier solves
/// terminate at a finite duality gap, so two factorization orders stop at
/// slightly different interior points.
const OBJ_TOL: f64 = 1e-4;
/// Feasibility tolerance for returned points (the solvers' own acceptance
/// tolerance).
const FEAS_TOL: f64 = 1e-5;

fn dense_opts() -> SimplexOptions {
    SimplexOptions {
        backend: LinalgBackend::Dense,
        ..Default::default()
    }
}

fn sparse_opts() -> SimplexOptions {
    SimplexOptions {
        backend: LinalgBackend::Sparse,
        ..Default::default()
    }
}

#[test]
fn lp_backends_agree_across_200_generated_instances() {
    let mut rng = Rng::new(0x5BA2_5E0D);
    for case in 0..200u64 {
        let size = (case % 6) as u32 + 1;
        let inst = gen::lp_instance(&mut rng, size);
        let dense = hslb_lp::solve_with(&inst.lp, &dense_opts());
        let sparse = hslb_lp::solve_with(&inst.lp, &sparse_opts());
        assert_eq!(
            dense.status, sparse.status,
            "case {case}: backend status diverged"
        );
        if dense.status != LpStatus::Optimal {
            continue;
        }
        let tol = backend_diff_tol(
            inst.lp.num_vars() + inst.lp.num_rows(),
            lp_cond_scale(&inst.lp),
        );
        assert!(
            (dense.objective - sparse.objective).abs() <= tol * dense.objective.abs().max(1.0),
            "case {case}: dense {} vs sparse {}",
            dense.objective,
            sparse.objective
        );
        assert!(
            inst.lp.is_feasible(&sparse.x, tol),
            "case {case}: sparse point infeasible"
        );
        for (j, (&xd, &xs)) in dense.x.iter().zip(&sparse.x).enumerate() {
            assert!(
                (xd - xs).abs() <= 1e3 * tol * xd.abs().max(1.0),
                "case {case}: x[{j}] dense {xd} vs sparse {xs}"
            );
        }
    }
}

#[test]
fn lp_backends_agree_on_60_netlib_scale_instances() {
    // Larger instances from the netlib-style generator: these cross the
    // Auto backend's crossover dimension, so the sparse path here is the
    // production path, not a forced test configuration.
    for case in 0..60u64 {
        let n = 20 + (case as usize % 9) * 10; // 20..100 columns
        let m = n / 2;
        let lp = hslb_bench::netgen::netlib_like(0xD1FF_0000 + case, n, m);
        let dense = hslb_lp::solve_with(&lp, &dense_opts());
        let sparse = hslb_lp::solve_with(&lp, &sparse_opts());
        assert_eq!(
            dense.status, sparse.status,
            "netlib case {case}: status diverged"
        );
        if dense.status != LpStatus::Optimal {
            continue;
        }
        let tol = backend_diff_tol(lp.num_vars() + lp.num_rows(), lp_cond_scale(&lp));
        assert!(
            (dense.objective - sparse.objective).abs() <= tol * dense.objective.abs().max(1.0),
            "netlib case {case}: dense {} vs sparse {}",
            dense.objective,
            sparse.objective
        );
        assert!(
            lp.is_feasible(&sparse.x, tol),
            "netlib case {case}: sparse point infeasible"
        );
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

/// Pinned work envelope on fixed instances: the backends must take the
/// *same* pivot path (pivoting decisions depend on signs and ratio tests,
/// which both factorizations compute to well within the decision
/// tolerances at these sizes), and Newton counts must stay inside an
/// envelope so a silently quadratic sparse kernel cannot hide behind
/// matching objectives.
#[test]
fn pinned_pivot_and_newton_envelope() {
    // LP: the n=100 netlib-style instance from the perf suite's seed
    // family. Identical pivot counts, pinned range.
    let lp = hslb_bench::netgen::netlib_like(0xB0A7_F00D, 100, 60);
    let dense = hslb_lp::solve_with(&lp, &dense_opts());
    let sparse = hslb_lp::solve_with(&lp, &sparse_opts());
    assert!(dense.is_optimal() && sparse.is_optimal());
    assert_eq!(
        dense.iterations, sparse.iterations,
        "backends took different pivot paths"
    );
    assert!(
        (150..=600).contains(&dense.iterations),
        "pivot count {} outside pinned envelope [150, 600]",
        dense.iterations
    );
    assert!(
        (1..=20).contains(&sparse.factorizations),
        "sparse refactorizations {} outside [1, 20]",
        sparse.factorizations
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
