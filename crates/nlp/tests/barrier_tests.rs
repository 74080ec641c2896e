//! Integration tests for the log-barrier NLP solver.

use hslb_nlp::{
    solve, solve_warm_with, BarrierOptions, ConstraintFn, NlpProblem, NlpStatus, ScalarFn, Term,
    WarmStart,
};

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "expected {b}, got {a}");
}

#[test]
fn linear_program_via_barrier() {
    // min x + y  s.t. x + y >= 4  (as -(x+y) + 4 <= 0), 0 <= x,y <= 10.
    let mut p = NlpProblem::new();
    let x = p.add_var(1.0, 0.0, 10.0);
    let y = p.add_var(1.0, 0.0, 10.0);
    p.add_constraint(
        ConstraintFn::new("sum")
            .linear_term(x, -1.0)
            .linear_term(y, -1.0)
            .with_constant(4.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.objective, 4.0, 1e-5);
}

#[test]
fn min_max_of_two_amdahl_curves() {
    // The HSLB core pattern: min T s.t. T >= 100/n1, T >= 400/n2, n1+n2 <= 10.
    // Continuous optimum splits nodes 2:8 (ratio sqrt? no — equalize 100/n1 =
    // 400/n2 with n1 + n2 = 10 -> n2 = 4 n1 -> n1 = 2, T = 50).
    let mut p = NlpProblem::new();
    let n1 = p.add_var(0.0, 0.5, 10.0);
    let n2 = p.add_var(0.0, 0.5, 10.0);
    let t = p.add_var(1.0, 0.0, 1e6);
    p.add_constraint(
        ConstraintFn::new("t1")
            .nonlinear_term(n1, ScalarFn::perf_model(100.0, 0.0, 1.0))
            .linear_term(t, -1.0),
    );
    p.add_constraint(
        ConstraintFn::new("t2")
            .nonlinear_term(n2, ScalarFn::perf_model(400.0, 0.0, 1.0))
            .linear_term(t, -1.0),
    );
    p.add_constraint(
        ConstraintFn::new("cap")
            .linear_term(n1, 1.0)
            .linear_term(n2, 1.0)
            .with_constant(-10.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.objective, 50.0, 1e-3);
    assert_close(sol.x[n1], 2.0, 1e-2);
    assert_close(sol.x[n2], 8.0, 1e-2);
}

#[test]
fn detects_infeasible() {
    // x <= 1 and x >= 3 with bounds [0, 10].
    let mut p = NlpProblem::new();
    let x = p.add_var(1.0, 0.0, 10.0);
    p.add_constraint(
        ConstraintFn::new("le1")
            .linear_term(x, 1.0)
            .with_constant(-1.0),
    );
    p.add_constraint(
        ConstraintFn::new("ge3")
            .linear_term(x, -1.0)
            .with_constant(3.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Infeasible);
}

#[test]
fn fixed_variables_are_respected() {
    // n fixed at 4 by bounds; T must come out at 100/4 + 7 = 32.
    let mut p = NlpProblem::new();
    let n = p.add_var(0.0, 4.0, 4.0);
    let t = p.add_var(1.0, 0.0, 1e9);
    p.add_constraint(
        ConstraintFn::new("perf")
            .nonlinear_term(n, ScalarFn::perf_model(100.0, 0.0, 1.0))
            .linear_term(t, -1.0)
            .with_constant(7.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.x[n], 4.0, 1e-12);
    assert_close(sol.objective, 32.0, 1e-4);
}

#[test]
fn all_variables_fixed_feasible() {
    let mut p = NlpProblem::new();
    let x = p.add_var(2.0, 3.0, 3.0);
    p.add_constraint(
        ConstraintFn::new("ok")
            .linear_term(x, 1.0)
            .with_constant(-5.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.objective, 6.0, 1e-12);
}

#[test]
fn all_variables_fixed_infeasible() {
    let mut p = NlpProblem::new();
    let x = p.add_var(2.0, 3.0, 3.0);
    p.add_constraint(
        ConstraintFn::new("bad")
            .linear_term(x, 1.0)
            .with_constant(-1.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Infeasible);
}

#[test]
fn empty_domain_is_an_error() {
    let mut p = NlpProblem::new();
    p.add_var(1.0, 0.0, 5.0);
    p.set_bounds(0, 2.0, 2.0);
    // Manufacture an empty domain through restrict-style misuse.
    // set_bounds asserts lo <= hi, so build the error path directly:
    let mut q = NlpProblem::new();
    q.add_var(1.0, 0.0, 5.0);
    // no public way to cross bounds — the error path guards internal misuse;
    // emulate by checking solve on a valid problem returns Ok.
    assert!(solve(&q).is_ok());
}

#[test]
fn quadratic_like_tradeoff_with_growth_term() {
    // min T s.t. T >= 1000/n + 0.5 n (convex, min at n = sqrt(2000) ≈ 44.7).
    let mut p = NlpProblem::new();
    let n = p.add_var(0.0, 1.0, 1000.0);
    let t = p.add_var(1.0, 0.0, 1e9);
    p.add_constraint(
        ConstraintFn::new("perf")
            .nonlinear_term(n, ScalarFn::perf_model(1000.0, 0.5, 1.0))
            .linear_term(t, -1.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    let n_star = 2000.0_f64.sqrt();
    let t_star = 1000.0 / n_star + 0.5 * n_star;
    assert_close(sol.x[n], n_star, 0.5);
    assert_close(sol.objective, t_star, 1e-2);
}

#[test]
fn power_growth_term_constraint() {
    // T >= 2 n^1.5 with n >= 4 -> minimize T by n = 4, T = 16.
    let mut p = NlpProblem::new();
    let n = p.add_var(0.0, 4.0, 100.0);
    let t = p.add_var(1.0, 0.0, 1e9);
    let mut f = ScalarFn::new();
    f.push(Term::PowerGrowth { b: 2.0, c: 1.5 });
    p.add_constraint(
        ConstraintFn::new("grow")
            .nonlinear_term(n, f)
            .linear_term(t, -1.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.objective, 16.0, 0.05);
}

#[test]
fn multipliers_flag_active_constraints() {
    // At the optimum of min_max_of_two_amdahl_curves, both perf constraints
    // are active (large multipliers); the capacity is active too.
    let mut p = NlpProblem::new();
    let n1 = p.add_var(0.0, 0.5, 10.0);
    let n2 = p.add_var(0.0, 0.5, 10.0);
    let t = p.add_var(1.0, 0.0, 1e6);
    p.add_constraint(
        ConstraintFn::new("t1")
            .nonlinear_term(n1, ScalarFn::perf_model(100.0, 0.0, 1.0))
            .linear_term(t, -1.0),
    );
    p.add_constraint(
        ConstraintFn::new("t2")
            .nonlinear_term(n2, ScalarFn::perf_model(400.0, 0.0, 1.0))
            .linear_term(t, -1.0),
    );
    p.add_constraint(
        ConstraintFn::new("cap")
            .linear_term(n1, 1.0)
            .linear_term(n2, 1.0)
            .with_constant(-10.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    // Multiplier magnitudes should dwarf those of inactive constraints —
    // here all three are active, so all should be clearly nonzero.
    assert!(
        sol.multipliers.iter().all(|&m| m > 1e-6),
        "{:?}",
        sol.multipliers
    );
}

#[test]
fn feasible_solution_is_feasible_for_problem() {
    let mut p = NlpProblem::new();
    let n1 = p.add_var(0.0, 1.0, 100.0);
    let n2 = p.add_var(0.0, 1.0, 100.0);
    let t = p.add_var(1.0, 0.0, 1e9);
    for (v, a) in [(n1, 300.0), (n2, 700.0)] {
        p.add_constraint(
            ConstraintFn::new("perf")
                .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 0.9))
                .linear_term(t, -1.0)
                .with_constant(3.0),
        );
    }
    p.add_constraint(
        ConstraintFn::new("cap")
            .linear_term(n1, 1.0)
            .linear_term(n2, 1.0)
            .with_constant(-64.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert!(p.is_feasible(&sol.x, 1e-6));
}

mod property {
    use super::*;
    use hslb_rng::Rng;

    /// Two-component min-max allocation `min t` s.t. `t >= a_k/n_k + d_k`
    /// and `n_1 + n_2 <= cap`: the barrier optimum must (a) be feasible and
    /// (b) beat or match every point on a coarse feasible grid (global
    /// optimality of the convex solve).
    fn assert_beats_grid(a1: f64, a2: f64, d1: f64, d2: f64, cap: f64, case: &str) {
        let mut p = NlpProblem::new();
        let n1 = p.add_var(0.0, 1.0, cap);
        let n2 = p.add_var(0.0, 1.0, cap);
        let t = p.add_var(1.0, 0.0, 1e9);
        p.add_constraint(
            ConstraintFn::new("t1")
                .nonlinear_term(n1, ScalarFn::perf_model(a1, 0.0, 1.0))
                .linear_term(t, -1.0)
                .with_constant(d1),
        );
        p.add_constraint(
            ConstraintFn::new("t2")
                .nonlinear_term(n2, ScalarFn::perf_model(a2, 0.0, 1.0))
                .linear_term(t, -1.0)
                .with_constant(d2),
        );
        p.add_constraint(
            ConstraintFn::new("cap")
                .linear_term(n1, 1.0)
                .linear_term(n2, 1.0)
                .with_constant(-cap),
        );
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, NlpStatus::Optimal, "case {case}");
        assert!(p.is_feasible(&sol.x, 1e-5), "case {case}");
        // Coarse grid of continuous splits.
        for k in 1..32 {
            let x1 = 1.0f64.max(cap * k as f64 / 32.0 - 1.0);
            let x2 = cap - x1;
            if x2 < 1.0 {
                continue;
            }
            let tt = (a1 / x1 + d1).max(a2 / x2 + d2);
            assert!(
                sol.objective <= tt + 1e-4 * (1.0 + tt),
                "case {case}: barrier {} worse than grid point {}",
                sol.objective,
                tt
            );
        }
    }

    #[test]
    fn beats_grid_search() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x5b);
        for case in 0..40 {
            let a1 = rng.f64_range(50.0, 5000.0);
            let a2 = rng.f64_range(50.0, 5000.0);
            let d1 = rng.f64_range(0.0, 20.0);
            let d2 = rng.f64_range(0.0, 20.0);
            let cap = rng.f64_range(8.0, 64.0);
            assert_beats_grid(a1, a2, d1, d2, cap, &case.to_string());
        }
    }

    /// A shrunk failure once recorded for this property: two nearly equal
    /// loads with no serial floor.
    #[test]
    fn beats_grid_search_recorded_failure_replays() {
        assert_beats_grid(
            3963.2251521165085,
            3801.6785362989835,
            0.0,
            0.0,
            38.811659065410055,
            "recorded",
        );
    }
}

mod certificate {
    use super::*;
    use hslb_nlp::{kkt_path, KktPath};
    use hslb_rng::Rng;

    /// What a min–max NLP carries beside its curves and budget.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Extra {
        None,
        /// An equality pinning the total allocation: the KKT system gains
        /// an equality block, which the dense LU factors.
        Equality,
        /// Rows `n_j - n_{j+1} <= 10` coupling neighbouring components:
        /// every inner column becomes a hub, so the structured factor
        /// declines and the dense Cholesky runs.
        Neighbours,
    }

    /// Random min-max allocation NLP (the HSLB core shape): minimize the
    /// epigraph variable t over `groups` Amdahl curves and a node budget,
    /// plus `extra`.
    fn minmax_nlp(rng: &mut Rng, groups: usize, extra: Extra) -> NlpProblem {
        let mut p = NlpProblem::new();
        let vars: Vec<_> = (0..groups).map(|_| p.add_var(0.0, 0.5, 30.0)).collect();
        let t = p.add_var(1.0, 0.0, 1e6);
        for &v in &vars {
            let work = rng.f64_range(20.0, 300.0);
            p.add_constraint(
                ConstraintFn::new("curve")
                    .nonlinear_term(v, ScalarFn::perf_model(work, 0.0, 1.0))
                    .linear_term(t, -1.0),
            );
        }
        let cap = rng.f64_range(groups as f64 + 2.0, 4.0 * groups as f64);
        let mut budget = ConstraintFn::new("budget").with_constant(-cap);
        for &v in &vars {
            budget = budget.linear_term(v, 1.0);
        }
        p.add_constraint(budget);
        match extra {
            Extra::None => {}
            Extra::Equality => {
                // Pin the total exactly at a feasible level (interior of
                // the budget): Σ x = cap - 1.
                let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
                p.add_linear_eq(coeffs, cap - 1.0);
            }
            Extra::Neighbours => {
                for pair in vars.windows(2) {
                    p.add_constraint(
                        ConstraintFn::new("neighbours")
                            .linear_term(pair[0], 1.0)
                            .linear_term(pair[1], -1.0)
                            .with_constant(-10.0),
                    );
                }
            }
        }
        p
    }

    fn certified(p: &NlpProblem, what: &str) {
        let sol = solve(p).unwrap();
        assert_eq!(sol.status, NlpStatus::Optimal, "{what}");
        if let Err(e) = sol.certify(p) {
            panic!("{what}: {e}");
        }
    }

    #[test]
    fn random_minmax_optima_certify() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x7d);
        for case in 0..40 {
            let groups = rng.usize_range(2, 6);
            let extra = if case % 2 == 1 {
                Extra::Equality
            } else {
                Extra::None
            };
            let p = minmax_nlp(&mut rng, groups, extra);
            certified(&p, &format!("case {case}"));
        }
    }

    /// Both KKT paths certify at every size. At 100, 200 and 320
    /// components the min–max NLPs' main loops run on the structured
    /// factor, with an equality row on the dense LU and with neighbour rows
    /// on the dense Cholesky. `kkt_path` reports each main loop's path, and
    /// `mpc::tests` watches the loops take it.
    #[test]
    fn optima_on_the_structured_and_dense_kkt_paths_certify() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0xc0);
        for groups in [100, 200, 320] {
            for extra in [Extra::None, Extra::Equality, Extra::Neighbours] {
                let p = minmax_nlp(&mut rng, groups, extra);
                let what = format!("{groups} components, {extra:?}");
                certified(&p, &what);
                let expect = if extra == Extra::None {
                    KktPath::Structured
                } else {
                    KktPath::Dense
                };
                assert_eq!(kkt_path(&p), expect, "{what}");
            }
        }
    }
}

/// A real 1° layout-1 root relaxation from the CESM pipeline (fitted
/// models, 256 nodes): phase 1 exits with the ice and land nodes barely
/// inside their boxes, and the predictor-corrector loop spends its whole
/// budget from there. The fallback's fixed-μ stages restart from that
/// point, and the predictor-corrector iterations finish from the centred
/// point they hand over. Pins that path, its verdict, its counter and a
/// certificate from the duals the finishing iterations carried.
#[test]
fn exhausted_mpc_budget_falls_back_to_fixed_mu_stages() {
    let t_max = 165_921.027_706_537_72;
    let mut p = NlpProblem::new();
    let ice = p.add_var(0.0, 1.0, 253.0);
    let lnd = p.add_var(0.0, 1.0, 253.0);
    let atm = p.add_var(0.0, 2.0, 254.0);
    let ocn = p.add_var(0.0, 2.0, 254.0);
    let t = p.add_var(1.0, 0.0, t_max);
    let t_icelnd = p.add_var(0.0, 0.0, t_max);
    let perf = ScalarFn::perf_model;
    p.add_constraint(
        ConstraintFn::new("ice")
            .nonlinear_term(ice, perf(8530.44246515005, 0.0, 1.0314056524385347))
            .linear_term(t_icelnd, -1.0)
            .with_constant(22.13004085913353),
    );
    p.add_constraint(
        ConstraintFn::new("lnd")
            .nonlinear_term(
                lnd,
                perf(1479.68988072122, 0.0032251147036605346, 0.9954874457550463),
            )
            .linear_term(t_icelnd, -1.0)
            .with_constant(1.0744336260356906),
    );
    p.add_constraint(
        ConstraintFn::new("atm")
            .nonlinear_term(
                atm,
                perf(27286.86242828113, 0.08394205044132383, 0.995094770246192),
            )
            .linear_term(t_icelnd, 1.0)
            .linear_term(t, -1.0)
            .with_constant(23.4273357120915),
    );
    p.add_constraint(
        ConstraintFn::new("ocn")
            .nonlinear_term(
                ocn,
                perf(7565.979249070386, 0.06199806370250199, 0.9690541675950798),
            )
            .linear_term(t, -1.0)
            .with_constant(21.40782579294544),
    );
    p.add_constraint(
        ConstraintFn::new("cap")
            .linear_term(atm, 1.0)
            .linear_term(ocn, 1.0)
            .with_constant(-256.0),
    );
    p.add_constraint(
        ConstraintFn::new("icelnd_within_atm")
            .linear_term(ice, 1.0)
            .linear_term(lnd, 1.0)
            .linear_term(atm, -1.0),
    );
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.objective, 231.924725331, 1e-8 * 231.924725331);
    assert_eq!(sol.barrier_fallbacks, 1);
    assert_eq!(sol.certify(&p), Ok(()));
}

/// Regression: phase 1 can run to its own optimum on the box. At 320
/// components with neighbour rows `n_j − n_{j+1} ≤ 3`, its depth target
/// (−1e-3 times one plus the midpoint's violation of 4,080) is deeper than
/// the rows allow, and it ends at s = −3.01 with a column within 5e-9 of a
/// bound, where the start check rejected it and the solve reported
/// `Infeasible`. The point is pulled inside the box by the start margin,
/// which the rows, 3 deep, absorb.
#[test]
fn phase_one_optimum_on_the_box_starts_the_solve() {
    let groups = 320;
    let mut p = NlpProblem::new();
    let vars: Vec<_> = (0..groups).map(|_| p.add_var(0.0, 0.5, 30.0)).collect();
    let t = p.add_var(1.0, 0.0, 1e6);
    for (j, &v) in vars.iter().enumerate() {
        let work = 20.0 + (j * 37 % 280) as f64;
        p.add_constraint(
            ConstraintFn::new("curve")
                .nonlinear_term(v, ScalarFn::perf_model(work, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
    }
    let mut budget = ConstraintFn::new("budget").with_constant(-2.5 * groups as f64);
    for &v in &vars {
        budget = budget.linear_term(v, 1.0);
    }
    p.add_constraint(budget);
    for pair in vars.windows(2) {
        p.add_constraint(
            ConstraintFn::new("neighbours")
                .linear_term(pair[0], 1.0)
                .linear_term(pair[1], -1.0)
                .with_constant(-3.0),
        );
    }
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_eq!(sol.certify(&p), Ok(()));
}

/// A seed without duals that sits on the node budget (an allocation that
/// uses every node, as the serve cache stores it) after its time rows
/// drifted up: every blend toward the box midpoint breaks the budget, so
/// the seed is blended toward the cold start, and the solve still counts
/// as warm and reaches the cold optimum.
#[test]
fn dual_less_seed_on_an_active_budget_starts_warm() {
    let mut p = NlpProblem::new();
    let n: Vec<usize> = (0..3).map(|_| p.add_var(0.0, 1.0, 16.0)).collect();
    let t = p.add_var(1.0, 0.0, 1e3);
    for (&v, a) in n.iter().zip([122.4, 367.2, 61.2]) {
        p.add_constraint(
            ConstraintFn::new("t")
                .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
    }
    let budget = n.iter().fold(ConstraintFn::new("budget"), |row, &v| {
        row.linear_term(v, 1.0)
    });
    p.add_constraint(budget.with_constant(-18.0));
    let seed = WarmStart::new(vec![4.0, 12.0, 2.0, 30.0], Vec::new());
    let warm = solve_warm_with(&p, &BarrierOptions::default(), Some(&seed)).unwrap();
    let cold = solve(&p).unwrap();
    assert!(warm.warm_started, "the seed was used");
    assert_eq!(warm.status, NlpStatus::Optimal);
    assert_close(warm.objective, cold.objective, 1e-6 * cold.objective);
}
