//! The numerical core's answers, checked without a second solver. Every
//! simplex optimum runs on the sparse LU + eta basis and must certify from
//! its own duals (`LpSolution::certify`): primal and dual feasibility,
//! complementary slackness and a zero duality gap. Every barrier optimum
//! must certify from its own multipliers (`NlpSolution::certify`): primal
//! feasibility, multiplier signs, reduced gradients and a zero gap to the
//! Lagrangian bound, which the problem's convexity makes valid. The suite
//! pins both over 380 seeded instances (260 LPs and 120 NLPs), plus a
//! pinned pivot/Newton-count envelope on fixed instances so silent work
//! blowups fail loudly. `crates/nlp/tests/barrier_tests.rs` certifies
//! optima on both sides of the barrier's dense/sparse KKT crossover.

use hslb_lp::{LinearProgram, LpSolution, LpStatus};
use hslb_nlp::NlpStatus;
use hslb_rng::Rng;
use hslb_testkit::check::{backend_diff_tol, lp_cond_scale};
use hslb_testkit::gen;

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
fn nlp_optima_certify_across_120_generated_instances() {
    let mut rng = Rng::new(0x5BA2_01CE);
    for case in 0..120u64 {
        let size = (case % 6) as u32 + 1;
        let inst = gen::nlp_instance(&mut rng, size);
        let sol = hslb_nlp::solve(&inst.problem)
            .unwrap_or_else(|e| panic!("case {case}: barrier error {e:?}"));
        assert_eq!(sol.status, NlpStatus::Optimal, "case {case}");
        if let Err(e) = sol.certify(&inst.problem) {
            panic!("case {case}: {e}");
        }
    }
}

/// Pinned work envelope on fixed instances: the simplex's pivot and
/// refactorization counts and the barrier's Newton count stay in pinned
/// ranges, so a silently quadratic kernel cannot hide behind a certified
/// answer.
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

    // NLP: a fixed mid-size barrier instance.
    let mut rng = Rng::new(0x0E4F_EED5);
    let inst = gen::nlp_instance(&mut rng, 4);
    let sol = hslb_nlp::solve(&inst.problem).expect("barrier solve");
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert!(
        (10..=2000).contains(&sol.newton_iters),
        "newton count {} outside pinned envelope [10, 2000]",
        sol.newton_iters
    );
}
