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
    use hslb_lp::{solve_warm, SimplexOptions, WarmBasis};
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

    #[test]
    fn warm_restart_after_a_cut_certifies_and_matches_cold() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x6c);
        let opts = SimplexOptions::default();
        for case in 0..50 {
            let (mut lp, xstar) = feasible_lp(&mut rng);
            let mut warm = WarmBasis::new();
            let first = solve_warm(&lp, &opts, &mut warm);
            assert_eq!(first.status, LpStatus::Optimal, "case {case} first");
            // Append a cut violated at the incumbent (supported by x*) and
            // re-solve warm.
            let n = xstar.len();
            let row = rng.vec_f64(n, -2.0, 2.0);
            let act: f64 = row.iter().zip(&xstar).map(|(a, x)| a * x).sum();
            let terms: Vec<_> = (0..n).map(|i| (hslb_lp::VarId(i), row[i])).collect();
            lp.add_row(terms, RowSense::Le, act + 0.5);
            let again = solve_warm(&lp, &opts, &mut warm);
            let cold = solve(&lp);
            assert_eq!(again.status, cold.status, "case {case} warm");
            assert_eq!(again.status, LpStatus::Optimal, "case {case} warm");
            if let Err(e) = again.certify(&lp) {
                panic!("case {case}: {e}");
            }
            assert!(
                (again.objective - cold.objective).abs() <= 1e-7,
                "case {case}: warm {} vs cold {}",
                again.objective,
                cold.objective
            );
        }
    }
}

mod warm_path {
    use super::*;
    use hslb_lp::{solve_warm, SimplexOptions, WarmBasis};

    /// A pinned variable is fixed, so the dual-feasibility check at the
    /// node that saves the basis never looks at its reduced cost. Released,
    /// it sits at the wrong bound for its sign; the reload moves it to the
    /// other bound and stays on the dual simplex.
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
        let mut warm = WarmBasis::new();
        lp.set_bounds(x, 2.0, 2.0);
        let pinned = solve_warm(&lp, &opts, &mut warm);
        assert_eq!(pinned.status, LpStatus::Optimal);
        assert_close(pinned.objective, -12.0, 1e-9);

        lp.set_bounds(x, 0.0, 8.0);
        let released = solve_warm(&lp, &opts, &mut warm);
        assert_eq!(released.status, LpStatus::Optimal);
        assert!(released.warm_used, "{released:?}");
        assert_eq!(released.iterations, released.dual_pivots, "{released:?}");
        assert_close(released.objective, cold.objective, 1e-9);
    }

    /// With no saved basis the solve starts from the slack basis on the
    /// dual simplex: no Phase 1, and `warm_used` stays false because no
    /// saved basis was reused.
    #[test]
    fn an_empty_basis_starts_from_the_slack_basis() {
        // An OA-style master: min t  s.t.  t >= a_k n_k + b_k cuts.
        let mut lp = LinearProgram::new();
        let t = lp.add_var(1.0, 0.0, 1e6);
        let n1 = lp.add_var(0.0, 1.0, 8.0);
        let n2 = lp.add_var(0.0, 1.0, 8.0);
        lp.add_row(vec![(n1, 1.0), (n2, 1.0)], RowSense::Le, 10.0);
        lp.add_row(vec![(n1, -3.0), (t, -1.0)], RowSense::Le, -30.0);
        lp.add_row(vec![(n2, -2.0), (t, -1.0)], RowSense::Le, -24.0);
        let cold = solve(&lp);
        let mut warm = WarmBasis::new();
        let sol = solve_warm(&lp, &SimplexOptions::default(), &mut warm);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(!sol.warm_used);
        assert!(sol.dual_pivots > 0);
        assert_eq!(sol.iterations, sol.dual_pivots, "{sol:?}");
        assert_close(sol.objective, cold.objective, 1e-9);
        assert!(lp.is_feasible(&sol.x, 1e-9));
    }

    /// An abandoned dual attempt's work is charged to the cold solve that
    /// replaces it: a cut that empties the feasible set sends the re-solve
    /// back to the two-phase path, which certifies `Infeasible`.
    #[test]
    fn an_abandoned_warm_attempt_counts_its_work() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 10.0);
        let y = lp.add_var(1.0, 0.0, 10.0);
        lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Ge, 2.0);
        let opts = SimplexOptions::default();
        let mut warm = WarmBasis::new();
        let first = solve_warm(&lp, &opts, &mut warm);
        assert_close(first.objective, 2.0, 1e-9);

        lp.add_row(vec![(x, 1.0), (y, 1.0)], RowSense::Le, 1.0);
        let second = solve_warm(&lp, &opts, &mut warm);
        assert_eq!(second.status, LpStatus::Infeasible);
        assert!(!second.warm_used);
        assert!(
            second.factorizations >= 2,
            "the warm attempt and the cold solve each factorize: {second:?}"
        );
    }
}
