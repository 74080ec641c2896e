//! Linear-equality support in the barrier solver, cross-validated against
//! the simplex solver on problems both can express.

use hslb_nlp::{solve, ConstraintFn, NlpProblem, NlpStatus, ScalarFn};

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "expected {b}, got {a}");
}

#[test]
fn simple_equality_projection() {
    // min x + 2y  s.t. x + y = 10, 0 <= x,y <= 10  ->  x=10, y=0.
    let mut p = NlpProblem::new();
    let x = p.add_var(1.0, 0.0, 10.0);
    let y = p.add_var(2.0, 0.0, 10.0);
    p.add_linear_eq(vec![(x, 1.0), (y, 1.0)], 10.0);
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.x[x], 10.0, 1e-4);
    assert_close(sol.x[y], 0.0, 1e-4);
}

#[test]
fn equality_with_nonlinear_constraints() {
    // min T s.t. T >= 100/n1, T >= 300/n2, n1 + n2 = 20 (exact partition).
    // Balance point: 100/n1 = 300/n2 with n1+n2=20 -> n1=5, T=20.
    let mut p = NlpProblem::new();
    let n1 = p.add_var(0.0, 1.0, 20.0);
    let n2 = p.add_var(0.0, 1.0, 20.0);
    let t = p.add_var(1.0, 0.0, 1e6);
    for (v, a) in [(n1, 100.0), (n2, 300.0)] {
        p.add_constraint(
            ConstraintFn::new(format!("perf{v}"))
                .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
    }
    p.add_linear_eq(vec![(n1, 1.0), (n2, 1.0)], 20.0);
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.objective, 20.0, 1e-2);
    assert_close(sol.x[n1] + sol.x[n2], 20.0, 1e-6);
}

/// No barrier terms: free columns, equality rows, no inequality and no
/// finite bound. A cost in the row space of the equalities makes every
/// feasible point optimal, and the solve returns one that certifies; any
/// other cost is unbounded along the rows. Both run the fallback.
#[test]
fn problems_without_barrier_terms_have_a_defined_answer() {
    let free = |p: &mut NlpProblem, cost: f64| p.add_var(cost, f64::NEG_INFINITY, f64::INFINITY);
    // min x + y s.t. x + y = 4: optimal at 4 everywhere on the row.
    let mut p = NlpProblem::new();
    let (x, y) = (free(&mut p, 1.0), free(&mut p, 1.0));
    p.add_linear_eq(vec![(x, 1.0), (y, 1.0)], 4.0);
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.objective, 4.0, 1e-9);
    assert_eq!(sol.certify(&p), Ok(()));
    assert_eq!(sol.barrier_fallbacks, 1);
    // min x s.t. x + y = 4: x runs to −∞ along the row.
    let mut q = NlpProblem::new();
    let (x, y) = (free(&mut q, 1.0), free(&mut q, 0.0));
    q.add_linear_eq(vec![(x, 1.0), (y, 1.0)], 4.0);
    let sol = solve(&q).unwrap();
    assert_eq!(sol.status, NlpStatus::Unbounded);
    assert_eq!(sol.barrier_fallbacks, 1);
}

#[test]
fn inconsistent_equalities_detected() {
    let mut p = NlpProblem::new();
    let x = p.add_var(1.0, 0.0, 10.0);
    p.add_linear_eq(vec![(x, 1.0)], 3.0);
    p.add_linear_eq(vec![(x, 1.0)], 7.0);
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Infeasible);
}

#[test]
fn equality_outside_bounds_detected() {
    let mut p = NlpProblem::new();
    let x = p.add_var(1.0, 0.0, 2.0);
    let y = p.add_var(1.0, 0.0, 2.0);
    p.add_linear_eq(vec![(x, 1.0), (y, 1.0)], 10.0); // max possible is 4
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Infeasible);
}

#[test]
fn pinned_variables_freeze_equalities() {
    // Both variables pinned by bounds; equality holds -> trivially optimal.
    let mut p = NlpProblem::new();
    let x = p.add_var(1.0, 4.0, 4.0);
    let y = p.add_var(1.0, 6.0, 6.0);
    p.add_linear_eq(vec![(x, 1.0), (y, 1.0)], 10.0);
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.objective, 10.0, 1e-9);

    // And a violated frozen equality is infeasible.
    let mut q = NlpProblem::new();
    let x = q.add_var(1.0, 4.0, 4.0);
    q.add_linear_eq(vec![(x, 1.0)], 5.0);
    assert_eq!(solve(&q).unwrap().status, NlpStatus::Infeasible);
}

#[test]
fn redundant_equalities_are_harmless() {
    // The same equality twice (dependent rows) must not break the KKT solve.
    let mut p = NlpProblem::new();
    let x = p.add_var(1.0, 0.0, 10.0);
    let y = p.add_var(3.0, 0.0, 10.0);
    p.add_linear_eq(vec![(x, 1.0), (y, 1.0)], 6.0);
    p.add_linear_eq(vec![(x, 2.0), (y, 2.0)], 12.0);
    let sol = solve(&p).unwrap();
    assert_eq!(sol.status, NlpStatus::Optimal);
    assert_close(sol.x[x], 6.0, 1e-4);
    assert_close(sol.objective, 6.0, 1e-4);
}

mod cross_validation {
    use super::*;
    use hslb_lp::{LinearProgram, LpStatus, RowSense};

    /// Builds matching LP (simplex) and NLP (barrier) formulations of a
    /// random linear program with equalities, and compares optima.
    fn both_solve(
        costs: &[f64],
        boxes: &[(f64, f64)],
        eq_rhs: f64,
        le_rows: &[(Vec<f64>, f64)],
    ) -> Option<(f64, f64)> {
        let n = costs.len();
        // Simplex.
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..n)
            .map(|j| lp.add_var(costs[j], boxes[j].0, boxes[j].1))
            .collect();
        lp.add_row(
            vars.iter().map(|&v| (v, 1.0)).collect(),
            RowSense::Eq,
            eq_rhs,
        );
        for (coeffs, rhs) in le_rows {
            lp.add_row(
                vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)).collect(),
                RowSense::Le,
                *rhs,
            );
        }
        let lp_sol = hslb_lp::solve(&lp);

        // Barrier.
        let mut p = NlpProblem::new();
        for j in 0..n {
            p.add_var(costs[j], boxes[j].0, boxes[j].1);
        }
        p.add_linear_eq((0..n).map(|j| (j, 1.0)).collect(), eq_rhs);
        for (k, (coeffs, rhs)) in le_rows.iter().enumerate() {
            let mut c = ConstraintFn::new(format!("le{k}")).with_constant(-rhs);
            for (j, &co) in coeffs.iter().enumerate() {
                c = c.linear_term(j, co);
            }
            p.add_constraint(c);
        }
        let nlp_sol = solve(&p).unwrap();

        match (lp_sol.status, nlp_sol.status) {
            (LpStatus::Optimal, NlpStatus::Optimal) => Some((lp_sol.objective, nlp_sol.objective)),
            (LpStatus::Infeasible, NlpStatus::Infeasible) => None,
            (a, b) => panic!("status mismatch: simplex {a:?} vs barrier {b:?}"),
        }
    }

    use hslb_rng::Rng;

    #[test]
    fn barrier_matches_simplex_on_equality_lps() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x6b);
        for case in 0..60 {
            let n = rng.usize_range(2, 4);
            let costs = rng.vec_f64(n, -3.0, 3.0);
            let boxes: Vec<(f64, f64)> = (0..n).map(|_| (0.0, rng.f64_range(1.0, 6.0))).collect();
            // Equality RHS strictly inside the reachable sum range keeps
            // the instance feasible with an interior.
            let max_sum: f64 = boxes.iter().map(|b| b.1).sum();
            let eq_rhs = rng.f64_range(0.1, 0.9) * max_sum;
            if let Some((lp_obj, nlp_obj)) = both_solve(&costs, &boxes, eq_rhs, &[]) {
                assert!(
                    (lp_obj - nlp_obj).abs() < 1e-4 * (1.0 + lp_obj.abs()),
                    "case {case}: simplex {lp_obj} vs barrier {nlp_obj}"
                );
            }
        }
    }

    #[test]
    fn barrier_matches_simplex_with_extra_rows() {
        let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x7b);
        for case in 0..60 {
            let n = rng.usize_range(3, 4);
            let costs = rng.vec_f64(n, -2.0, 2.0);
            let boxes: Vec<(f64, f64)> = (0..n).map(|_| (0.0, 4.0)).collect();
            let eq_rhs = rng.f64_range(0.2, 0.8) * 4.0 * n as f64;
            // One extra <= row: first two variables capped.
            let mut coeffs = vec![0.0; n];
            coeffs[0] = 1.0;
            coeffs[1] = 1.0;
            let rows = vec![(coeffs, rng.f64_range(0.5, 1.5) * 4.0)];
            if let Some((lp_obj, nlp_obj)) = both_solve(&costs, &boxes, eq_rhs, &rows) {
                assert!(
                    (lp_obj - nlp_obj).abs() < 1e-4 * (1.0 + lp_obj.abs()),
                    "case {case}: simplex {lp_obj} vs barrier {nlp_obj}"
                );
            }
        }
    }
}
