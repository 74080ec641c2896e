//! Integration tests for the bounded-variable simplex.

use hslb_lp::{solve, LinearProgram, LpStatus, RowSense};

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "expected {b}, got {a}");
}

#[test]
fn textbook_two_variable_max() {
    // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
    // Classic Dantzig example: optimum (2, 6), value 36.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(-3.0, 0.0, f64::INFINITY); // minimize the negation
    let y = lp.add_var(-5.0, 0.0, f64::INFINITY);
    lp.add_row(vec![(x, 1.0)], RowSense::Le, 4.0);
    lp.add_row(vec![(y, 2.0)], RowSense::Le, 12.0);
    lp.add_row(vec![(x, 3.0), (y, 2.0)], RowSense::Le, 18.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.objective, -36.0, 1e-8);
    assert_close(sol.x[0], 2.0, 1e-8);
    assert_close(sol.x[1], 6.0, 1e-8);
}

#[test]
fn equality_constraints() {
    // min x + y  s.t. x + y = 5, x - y = 1  ->  x=3, y=2.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(1.0, 0.0, f64::INFINITY);
    let y = lp.add_var(1.0, 0.0, f64::INFINITY);
    lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Eq, 5.0);
    lp.add_row(vec![(x, 1.0), (y, -1.0)], RowSense::Eq, 1.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.x[0], 3.0, 1e-8);
    assert_close(sol.x[1], 2.0, 1e-8);
    assert_close(sol.objective, 5.0, 1e-8);
}

#[test]
fn ge_rows_need_phase_one() {
    // min 2x + 3y  s.t. x + y >= 4, x + 3y >= 6, x,y >= 0.
    // Optimum at intersection: x=3, y=1, value 9.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(2.0, 0.0, f64::INFINITY);
    let y = lp.add_var(3.0, 0.0, f64::INFINITY);
    lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Ge, 4.0);
    lp.add_row(vec![(x, 1.0), (y, 3.0)], RowSense::Ge, 6.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.objective, 9.0, 1e-8);
    assert_close(sol.x[0], 3.0, 1e-8);
    assert_close(sol.x[1], 1.0, 1e-8);
}

#[test]
fn detects_infeasible() {
    // x >= 2 and x <= 1 via rows.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(1.0, 0.0, f64::INFINITY);
    lp.add_row(vec![(x, 1.0)], RowSense::Ge, 2.0);
    lp.add_row(vec![(x, 1.0)], RowSense::Le, 1.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Infeasible);
}

#[test]
fn detects_infeasible_bounds_vs_row() {
    let mut lp = LinearProgram::new();
    let x = lp.add_var(0.0, 0.0, 1.0);
    let y = lp.add_var(0.0, 0.0, 1.0);
    lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Ge, 3.0);
    assert_eq!(solve(&lp).status, LpStatus::Infeasible);
}

#[test]
fn detects_unbounded() {
    // min -x with x >= 0 and no upper limit.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(-1.0, 0.0, f64::INFINITY);
    lp.add_row(vec![(x, -1.0)], RowSense::Le, 0.0); // -x <= 0, always true
    assert_eq!(solve(&lp).status, LpStatus::Unbounded);
}

#[test]
fn bounded_by_variable_bounds_only() {
    // min -x - 2y over the box [0,3]x[0,4], no rows at all... add one
    // trivial row (the solver requires none, but exercise both paths).
    let mut lp = LinearProgram::new();
    let _x = lp.add_var(-1.0, 0.0, 3.0);
    let _y = lp.add_var(-2.0, 0.0, 4.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.x[0], 3.0, 1e-9);
    assert_close(sol.x[1], 4.0, 1e-9);

    let mut lp2 = LinearProgram::new();
    let x = lp2.add_var(-1.0, 0.0, 3.0);
    let y = lp2.add_var(-2.0, 0.0, 4.0);
    lp2.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Le, 100.0);
    let sol2 = solve(&lp2);
    assert_eq!(sol2.status, LpStatus::Optimal);
    assert_close(sol2.objective, -11.0, 1e-9);
}

#[test]
fn free_variables() {
    // min x  s.t. x >= -7 via a row (x itself unbounded both ways).
    let mut lp = LinearProgram::new();
    let x = lp.add_var(1.0, f64::NEG_INFINITY, f64::INFINITY);
    lp.add_row(vec![(x, 1.0)], RowSense::Ge, -7.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.x[0], -7.0, 1e-8);
}

#[test]
fn negative_rhs_and_coeffs() {
    // min x + y s.t. -x - y <= -4 (i.e. x + y >= 4), 0 <= x,y <= 3.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(1.0, 0.0, 3.0);
    let y = lp.add_var(1.0, 0.0, 3.0);
    lp.add_row(vec![(x, -1.0), (y, -1.0)], RowSense::Le, -4.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.objective, 4.0, 1e-8);
}

#[test]
fn duplicate_coefficients_are_summed() {
    // Row written as x + x <= 4 must behave as 2x <= 4.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(-1.0, 0.0, f64::INFINITY);
    lp.add_row(vec![(x, 1.0), (x, 1.0)], RowSense::Le, 4.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.x[0], 2.0, 1e-9);
}

#[test]
fn degenerate_lp_terminates() {
    // Beale's classic cycling example (terminates only with anti-cycling).
    let mut lp = LinearProgram::new();
    let x1 = lp.add_var(-0.75, 0.0, f64::INFINITY);
    let x2 = lp.add_var(150.0, 0.0, f64::INFINITY);
    let x3 = lp.add_var(-0.02, 0.0, f64::INFINITY);
    let x4 = lp.add_var(6.0, 0.0, f64::INFINITY);
    lp.add_row(
        vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        RowSense::Le,
        0.0,
    );
    lp.add_row(
        vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        RowSense::Le,
        0.0,
    );
    lp.add_row(vec![(x3, 1.0)], RowSense::Le, 1.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.objective, -0.05, 1e-8);
}

#[test]
fn cut_row_tightens_previous_optimum() {
    // Mimics outer approximation: solve, add a violated cut, re-solve.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(-1.0, 0.0, 10.0);
    let y = lp.add_var(-1.0, 0.0, 10.0);
    lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Le, 12.0);
    let first = solve(&lp);
    assert_eq!(first.status, LpStatus::Optimal);
    assert_close(first.objective, -12.0, 1e-8);

    lp.add_row(vec![(x, 1.0)], RowSense::Le, 3.0); // the "cut"
    let second = solve(&lp);
    assert_eq!(second.status, LpStatus::Optimal);
    assert!(second.objective >= first.objective - 1e-9);
    assert_close(second.objective, -12.0, 1e-8); // y takes up the slack
    lp.add_row(vec![(y, 1.0)], RowSense::Le, 5.0);
    let third = solve(&lp);
    assert_close(third.objective, -8.0, 1e-8);
}

#[test]
fn equality_with_negative_rhs() {
    let mut lp = LinearProgram::new();
    let x = lp.add_var(1.0, f64::NEG_INFINITY, f64::INFINITY);
    let y = lp.add_var(2.0, f64::NEG_INFINITY, f64::INFINITY);
    lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Eq, -3.0);
    lp.add_row(vec![(x, 1.0), (y, -1.0)], RowSense::Eq, 7.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.x[0], 2.0, 1e-8);
    assert_close(sol.x[1], -5.0, 1e-8);
}

#[test]
fn fixed_variables_are_respected() {
    let mut lp = LinearProgram::new();
    let x = lp.add_var(1.0, 4.0, 4.0); // fixed at 4
    let y = lp.add_var(1.0, 0.0, f64::INFINITY);
    lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Ge, 10.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.x[0], 4.0, 1e-9);
    assert_close(sol.x[1], 6.0, 1e-8);
}

#[test]
fn many_columns_sos1_style() {
    // The shape of the paper's z_k binary encoding relaxation: hundreds of
    // columns, two linking rows. min -n  s.t. sum z = 1, sum z*v = n,
    // 0 <= z <= 1. LP optimum picks the largest v.
    let values: Vec<f64> = (1..=500).map(|k| (2 * k) as f64).collect();
    let mut lp = LinearProgram::new();
    let n = lp.add_var(-1.0, 0.0, f64::INFINITY);
    let zs: Vec<_> = values.iter().map(|_| lp.add_var(0.0, 0.0, 1.0)).collect();
    lp.add_row(zs.iter().map(|&z| (z, 1.0)).collect(), RowSense::Eq, 1.0);
    let mut link: Vec<_> = zs.iter().zip(&values).map(|(&z, &v)| (z, v)).collect();
    link.push((n, -1.0));
    lp.add_row(link, RowSense::Eq, 0.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.x[n.0], 1000.0, 1e-6);
}

#[test]
fn duals_satisfy_strong_duality_on_inequality_lp() {
    // min cᵀx, Ax >= b, x >= 0 and its dual: bᵀy must equal cᵀx at optimum.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(2.0, 0.0, f64::INFINITY);
    let y = lp.add_var(3.0, 0.0, f64::INFINITY);
    lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Ge, 4.0);
    lp.add_row(vec![(x, 1.0), (y, 3.0)], RowSense::Ge, 6.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    let dual_obj = 4.0 * sol.duals[0] + 6.0 * sol.duals[1];
    assert_close(dual_obj, sol.objective, 1e-7);
}

mod property {
    use super::*;
    use hslb_rng::Rng;

    /// Random LP built to be feasible by construction: pick a random box
    /// point x*, random rows, and set each rhs so x* satisfies the row.
    /// The solver must return Optimal with objective <= cᵀx* and a feasible
    /// primal point.
    fn feasible_lp(rng: &mut Rng) -> (LinearProgram, Vec<f64>) {
        let n = rng.usize_range(1, 4);
        let m = rng.usize_range(0, 4);
        let xstar = rng.vec_f64(n, -5.0, 5.0);
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_var(rng.f64_range(-3.0, 3.0), xstar[i] - 6.0, xstar[i] + 6.0))
            .collect();
        for _ in 0..m {
            let row = rng.vec_f64(n, -2.0, 2.0);
            let act: f64 = row.iter().zip(&xstar).map(|(a, x)| a * x).sum();
            let terms: Vec<_> = vars.iter().zip(&row).map(|(&v, &a)| (v, a)).collect();
            if rng.bool(0.5) {
                lp.add_row(terms, RowSense::Le, act + 1.0);
            } else {
                lp.add_row(terms, RowSense::Ge, act - 1.0);
            }
        }
        (lp, xstar)
    }

    /// The property: the solve is optimal, its point feasible, and its
    /// objective no worse than that of the known feasible point `xstar`.
    fn assert_feasible_optimum(lp: &LinearProgram, xstar: &[f64], case: &str) {
        let sol = solve(lp);
        assert_eq!(sol.status, LpStatus::Optimal, "case {case}");
        assert!(lp.is_feasible(&sol.x, 1e-6), "case {case}");
        let known = lp.objective_value(xstar);
        assert!(
            sol.objective <= known + 1e-6,
            "case {case}: objective {} worse than known feasible {}",
            sol.objective,
            known
        );
    }

    #[test]
    fn random_feasible_lps_solve_to_feasible_optima() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x1b);
        for case in 0..200 {
            let (lp, xstar) = feasible_lp(&mut rng);
            assert_feasible_optimum(&lp, &xstar, &case.to_string());
        }
    }

    /// A shrunk failure once recorded for this property: zero cost,
    /// `x0 ∈ [−6, 6]` and a single `<=` row with a negative coefficient.
    #[test]
    fn random_feasible_lps_recorded_failure_replays() {
        let mut lp = LinearProgram::new();
        let x0 = lp.add_var(0.0, -6.0, 6.0);
        lp.add_row(vec![(x0, -0.9002450971803663)], RowSense::Le, 1.0);
        assert_feasible_optimum(&lp, &[0.0], "recorded");
    }

    #[test]
    fn box_only_lps_hit_the_correct_corner() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x2b);
        for case in 0..100 {
            let n = rng.usize_range(1, 5);
            let costs = rng.vec_f64(n, -4.0, 4.0);
            let mut lp = LinearProgram::new();
            for &c in &costs {
                lp.add_var(c, -1.0, 2.0);
            }
            let sol = solve(&lp);
            assert_eq!(sol.status, LpStatus::Optimal, "case {case}");
            for (x, &c) in sol.x.iter().zip(&costs) {
                let expected = if c > 0.0 {
                    -1.0
                } else if c < 0.0 {
                    2.0
                } else {
                    *x
                };
                assert!((x - expected).abs() < 1e-9, "case {case}");
            }
        }
    }
}

#[test]
fn traced_solve_emits_one_lp_solved_event_with_pivot_count() {
    use hslb_obs::{Event, RingBuffer, Trace};
    use std::sync::Arc;

    let mut lp = LinearProgram::new();
    let x = lp.add_var(-3.0, 0.0, f64::INFINITY);
    let y = lp.add_var(-5.0, 0.0, f64::INFINITY);
    lp.add_row(vec![(x, 1.0)], RowSense::Le, 4.0);
    lp.add_row(vec![(y, 2.0)], RowSense::Le, 12.0);
    lp.add_row(vec![(x, 3.0), (y, 2.0)], RowSense::Le, 18.0);

    let ring = Arc::new(RingBuffer::new(16));
    let opts = hslb_lp::SimplexOptions {
        trace: Trace::to_sink(ring.clone()),
    };
    let sol = hslb_lp::solve_with(&lp, &opts);
    assert_eq!(sol.status, LpStatus::Optimal);
    let events = ring.snapshot();
    assert_eq!(events.len(), 1, "one event per solve: {events:?}");
    assert_eq!(
        events[0],
        Event::LpSolved {
            pivots: sol.iterations as u64
        }
    );
}

mod certificate {
    use super::*;
    use hslb_lp::{SimplexOptions, WarmLp};
    use hslb_rng::Rng;

    /// Random feasible LP (same construction as the property module, wider
    /// shapes so the basis has enough rows for the LU and its etas to
    /// matter).
    fn feasible_lp(rng: &mut Rng) -> (LinearProgram, Vec<f64>) {
        let n = rng.usize_range(2, 8);
        let m = rng.usize_range(1, 8);
        let xstar = rng.vec_f64(n, -5.0, 5.0);
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_var(rng.f64_range(-3.0, 3.0), xstar[i] - 6.0, xstar[i] + 6.0))
            .collect();
        for _ in 0..m {
            let row = rng.vec_f64(n, -2.0, 2.0);
            let act: f64 = row.iter().zip(&xstar).map(|(a, x)| a * x).sum();
            let terms: Vec<_> = vars.iter().zip(&row).map(|(&v, &a)| (v, a)).collect();
            match rng.usize_range(0, 3) {
                0 => lp.add_row(terms, RowSense::Le, act + 1.0),
                1 => lp.add_row(terms, RowSense::Ge, act - 1.0),
                _ => lp.add_row(terms, RowSense::Eq, act),
            };
        }
        (lp, xstar)
    }

    #[test]
    fn random_lp_optima_certify() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x5a);
        for case in 0..200 {
            let (lp, _) = feasible_lp(&mut rng);
            let sol = solve(&lp);
            assert_eq!(sol.status, LpStatus::Optimal, "case {case}");
            if let Err(e) = sol.certify(&lp) {
                panic!("case {case}: {e}");
            }
            assert!(lp.is_feasible(&sol.x, 1e-6), "case {case}");
            assert!(sol.factorizations >= 1, "case {case}");
        }
    }

    /// A cut loop on one kept tableau: each round appends cuts that the
    /// current optimum violates and that keep x* feasible, moves a bound
    /// (narrowing around x*, pinning at x*, or releasing to the original
    /// box), and re-solves warm. Every answer must certify and match the
    /// cold solve of the same LP. Most sequences run the eta chain past
    /// `REFACTOR_EVERY` (100 pivots), so the refresh rule fires on warm
    /// re-solves.
    #[test]
    fn warm_restart_after_a_cut_certifies_and_matches_cold() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x6c);
        let opts = SimplexOptions::default();
        let mut warm_refactorizations = 0;
        let mut long_cases = 0;
        for case in 0..50 {
            let (lp, xstar) = feasible_lp(&mut rng);
            let n = xstar.len();
            let boxes: Vec<(f64, f64)> = (0..n).map(|j| (lp.lowers()[j], lp.uppers()[j])).collect();
            let mut warm = WarmLp::new(lp);
            let mut pivots = 0;
            for round in 0..60 {
                let sol = warm.solve(&opts);
                let lp = warm.lp();
                let cold = solve(lp);
                assert_eq!(sol.status, cold.status, "case {case} round {round}");
                assert_eq!(sol.status, LpStatus::Optimal, "case {case} round {round}");
                if let Err(e) = sol.certify(lp) {
                    panic!("case {case} round {round}: {e}");
                }
                assert!(
                    (sol.objective - cold.objective).abs() <= 1e-7,
                    "case {case} round {round}: warm {} vs cold {}",
                    sol.objective,
                    cold.objective
                );
                pivots += sol.iterations;
                if round > 0 {
                    assert!(sol.warm_used, "case {case} round {round}: {sol:?}");
                    warm_refactorizations += sol.factorizations;
                }
                // A cut through the midpoint of x* and the optimum, with
                // random weights scaled to a unit largest coefficient: x*
                // stays feasible, the optimum is cut off.
                let tilt = rng.vec_f64(n, 0.5, 1.5);
                let a: Vec<f64> = (0..n).map(|i| tilt[i] * (sol.x[i] - xstar[i])).collect();
                let scale = a.iter().fold(0.0_f64, |s, ai| s.max(ai.abs()));
                if scale > 1e-3 {
                    let a: Vec<f64> = a.iter().map(|ai| ai / scale).collect();
                    let mid: f64 = (0..n).map(|i| a[i] * 0.5 * (sol.x[i] + xstar[i])).sum();
                    let terms = (0..n).map(|i| (hslb_lp::VarId(i), a[i])).collect();
                    warm.add_row(terms, RowSense::Le, mid);
                }
                let j = rng.usize_range(0, n - 1);
                let (lo, hi) = match rng.usize_range(0, 2) {
                    0 => (
                        xstar[j] - rng.f64_range(0.0, 6.0),
                        xstar[j] + rng.f64_range(0.0, 6.0),
                    ),
                    1 => (xstar[j], xstar[j]),
                    _ => boxes[j],
                };
                warm.set_bounds(hslb_lp::VarId(j), lo, hi);
            }
            long_cases += usize::from(pivots > 100);
        }
        assert!(
            long_cases >= 10,
            "only {long_cases} sequences passed 100 pivots"
        );
        assert!(
            warm_refactorizations > 0,
            "no warm re-solve reached the refactorization threshold"
        );
    }
}

mod warm_path {
    use super::*;
    use hslb_lp::{SimplexOptions, WarmLp};

    /// A pinned variable is fixed, so the dual-feasibility check at the
    /// node that keeps the basis never looks at its reduced cost. Released,
    /// it sits at the wrong bound for its sign; the re-solve moves it to
    /// the other bound and stays on the dual simplex.
    #[test]
    fn a_released_pin_stays_warm() {
        // min -2x - y  s.t.  x + y <= 10,  x, y in [0, 8].
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-2.0, 0.0, 8.0);
        let y = lp.add_var(-1.0, 0.0, 8.0);
        lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Le, 10.0);
        let cold = solve(&lp);
        assert_close(cold.objective, -18.0, 1e-9);

        let opts = SimplexOptions::default();
        let mut warm = WarmLp::new(lp);
        warm.set_bounds(x, 2.0, 2.0);
        let pinned = warm.solve(&opts);
        assert_eq!(pinned.status, LpStatus::Optimal);
        assert_close(pinned.objective, -12.0, 1e-9);

        warm.set_bounds(x, 0.0, 8.0);
        let released = warm.solve(&opts);
        assert_eq!(released.status, LpStatus::Optimal);
        assert!(released.warm_used, "{released:?}");
        assert_eq!(released.iterations, released.dual_pivots, "{released:?}");
        assert_eq!(released.factorizations, 0, "{released:?}");
        assert_close(released.objective, cold.objective, 1e-9);
    }

    /// The first solve starts from the slack basis on the dual simplex: no
    /// Phase 1, no LU (the slack basis is the identity), and `warm_used`
    /// stays false because no kept basis was reused.
    #[test]
    fn the_first_solve_starts_from_the_slack_basis() {
        // An OA-style master: min t  s.t.  t >= a_k n_k + b_k cuts.
        let mut lp = LinearProgram::new();
        let t = lp.add_var(1.0, 0.0, 1e6);
        let n1 = lp.add_var(0.0, 1.0, 8.0);
        let n2 = lp.add_var(0.0, 1.0, 8.0);
        lp.add_row(vec![(n1, 1.0), (n2, 1.0)], RowSense::Le, 10.0);
        lp.add_row(vec![(n1, -3.0), (t, -1.0)], RowSense::Le, -30.0);
        lp.add_row(vec![(n2, -2.0), (t, -1.0)], RowSense::Le, -24.0);
        let cold = solve(&lp);
        let mut warm = WarmLp::new(lp);
        let sol = warm.solve(&SimplexOptions::default());
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(!sol.warm_used);
        assert!(sol.dual_pivots > 0);
        assert_eq!(sol.iterations, sol.dual_pivots, "{sol:?}");
        assert_eq!(sol.factorizations, 0, "{sol:?}");
        assert_close(sol.objective, cold.objective, 1e-9);
        assert!(warm.lp().is_feasible(&sol.x, 1e-9));
    }

    /// An abandoned dual attempt's work is charged to the cold solve that
    /// replaces it: cuts that empty the feasible set send the re-solve back
    /// to the two-phase path, which certifies `Infeasible`. The attempt
    /// pivots on the kept factor before it finds the row no column repairs,
    /// so its pivots and eta updates are added to the cold solve's, and it
    /// refactorizes nothing.
    #[test]
    fn an_abandoned_warm_attempt_counts_its_work() {
        // min x + y  s.t.  x + y >= 2,  x, y in [0, 10].
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 10.0);
        let y = lp.add_var(1.0, 0.0, 10.0);
        lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Ge, 2.0);
        let opts = SimplexOptions::default();
        let mut warm = WarmLp::new(lp);
        let first = warm.solve(&opts);
        assert_close(first.objective, 2.0, 1e-9);

        // y >= 1 is repaired by one dual pivot; with x + y >= 2 it then
        // forces x + 2y >= 3, which x + 2y <= 2.5 forbids.
        warm.add_row(vec![(y, -1.0)], RowSense::Le, -1.0);
        warm.add_row(vec![(x, 1.0), (y, 2.0)], RowSense::Le, 2.5);
        let second = warm.solve(&opts);
        let cold = solve(warm.lp());
        assert_eq!(second.status, LpStatus::Infeasible);
        assert_eq!(cold.status, LpStatus::Infeasible);
        assert!(!second.warm_used);
        assert_eq!(cold.dual_pivots, 0, "{cold:?}");
        assert!(second.dual_pivots > 0, "{second:?}");
        assert_eq!(
            second.iterations,
            cold.iterations + second.dual_pivots,
            "the attempt's pivots are charged: {second:?}"
        );
        assert_eq!(
            second.factor_updates,
            cold.factor_updates + second.dual_pivots as u64,
            "one eta per charged pivot: {second:?}"
        );
        assert_eq!(
            second.factorizations, cold.factorizations,
            "the attempt pivots on the kept factor: {second:?}"
        );
    }
}
