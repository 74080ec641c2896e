//! Cross-validation of the three MINLP backends against each other and the
//! exhaustive oracle, including property-based instances.

use hslb_minlp::{
    encode_sets_as_binaries, solve_exhaustive, solve_nlp_bnb, solve_oa_bnb, solve_parallel_bnb,
    MinlpOptions, MinlpProblem, MinlpStatus, NodeSelection,
};
use hslb_nlp::{ConstraintFn, ScalarFn};
use hslb_rng::Rng;

/// Builds a K-component min-max allocation MINLP.
fn allocation(loads: &[(f64, f64)], cap: i64) -> MinlpProblem {
    let mut p = MinlpProblem::new();
    let vars: Vec<usize> = loads.iter().map(|_| p.add_int_var(0.0, 1, cap)).collect();
    let t = p.add_var(1.0, 0.0, 1e9);
    for (k, (&v, &(a, d))) in vars.iter().zip(loads).enumerate() {
        p.add_constraint(
            ConstraintFn::new(format!("t{k}"))
                .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 1.0))
                .linear_term(t, -1.0)
                .with_constant(d),
        );
    }
    let mut c = ConstraintFn::new("cap").with_constant(-(cap as f64));
    for &v in &vars {
        c = c.linear_term(v, 1.0);
    }
    p.add_constraint(c);
    p
}

#[test]
fn three_backends_and_oracle_agree() {
    let p = allocation(&[(300.0, 2.0), (120.0, 0.5), (75.0, 1.0)], 17);
    let opts = MinlpOptions::default();
    let oa = solve_oa_bnb(&p, &opts);
    let nlp = solve_nlp_bnb(&p, &opts);
    let par = solve_parallel_bnb(&p, &opts);
    let oracle = solve_exhaustive(&p, 1_000_000).expect("enumerable");
    for (name, sol) in [("oa", &oa), ("nlp", &nlp), ("par", &par)] {
        assert_eq!(sol.status, MinlpStatus::Optimal, "{name}");
        assert!(
            (sol.objective - oracle.objective).abs() < 1e-3,
            "{name}: {} vs oracle {}",
            sol.objective,
            oracle.objective
        );
        assert!(p.is_feasible(&sol.x, 1e-5), "{name} point infeasible");
    }
}

#[test]
fn node_selections_reach_same_optimum() {
    let p = allocation(&[(500.0, 1.0), (250.0, 3.0), (90.0, 0.2)], 23);
    let mut objs = Vec::new();
    for sel in [NodeSelection::BestBound, NodeSelection::DepthFirst] {
        let opts = MinlpOptions {
            node_selection: sel,
            ..Default::default()
        };
        let sol = solve_oa_bnb(&p, &opts);
        assert_eq!(sol.status, MinlpStatus::Optimal, "{sel:?}");
        objs.push(sol.objective);
    }
    for w in objs.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-4, "{objs:?}");
    }
}

#[test]
fn binary_encoding_agrees_with_native_sets() {
    let mut p = MinlpProblem::new();
    let n1 = p.add_set_var(0.0, [2, 4, 6, 10, 14, 20, 30]);
    let n2 = p.add_int_var(0.0, 1, 40);
    let t = p.add_var(1.0, 0.0, 1e9);
    for (v, a) in [(n1, 333.0), (n2, 181.0)] {
        p.add_constraint(
            ConstraintFn::new(format!("perf{v}"))
                .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
    }
    p.add_constraint(
        ConstraintFn::new("cap")
            .linear_term(n1, 1.0)
            .linear_term(n2, 1.0)
            .with_constant(-44.0),
    );
    let native = solve_oa_bnb(&p, &MinlpOptions::default());
    let (enc, blocks) = encode_sets_as_binaries(&p);
    let binary = solve_oa_bnb(&enc, &MinlpOptions::default());
    assert_eq!(native.status, MinlpStatus::Optimal);
    assert_eq!(binary.status, MinlpStatus::Optimal);
    assert!(
        (native.objective - binary.objective).abs() < 1e-3,
        "native {} vs binary {}",
        native.objective,
        binary.objective
    );
    // The binary path must actually carry the encoding overhead the paper
    // complains about: more variables.
    assert_eq!(enc.num_vars(), p.num_vars() + blocks[0].2);
}

/// Random 2-3 component allocations: OA agrees with the exhaustive
/// oracle. Small case count — each case is a full MINLP solve.
#[test]
fn oa_matches_oracle_on_random_instances() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x8b);
    for case in 0..12 {
        let k = rng.usize_range(2, 3);
        let loads: Vec<(f64, f64)> = (0..k)
            .map(|_| (rng.f64_range(20.0, 800.0), rng.f64_range(0.0, 10.0)))
            .collect();
        let cap = rng.i64_range(6, 19);
        let p = allocation(&loads, cap);
        let oa = solve_oa_bnb(&p, &MinlpOptions::default());
        let oracle = solve_exhaustive(&p, 2_000_000).expect("enumerable");
        assert_eq!(oa.status, MinlpStatus::Optimal, "case {case}");
        assert_eq!(oracle.status, MinlpStatus::Optimal, "case {case}");
        assert!(
            (oa.objective - oracle.objective).abs() <= 1e-3 * oracle.objective.abs().max(1.0),
            "case {case}: oa {} vs oracle {}",
            oa.objective,
            oracle.objective
        );
    }
}

/// Random set-constrained single-variable problems: the optimum must be
/// an allowed value minimizing the (convex) curve.
#[test]
fn set_variable_optimum_is_best_member() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0x9b);
    for case in 0..12 {
        let count = rng.usize_range(2, 9);
        let values = rng.distinct_sorted(count, 1, 199);
        let a = rng.f64_range(50.0, 2000.0);
        let b = rng.f64_range(0.0, 5.0);
        let mut p = MinlpProblem::new();
        let n = p.add_set_var(0.0, values.iter().copied());
        let t = p.add_var(1.0, 0.0, 1e9);
        p.add_constraint(
            ConstraintFn::new("perf")
                .nonlinear_term(n, ScalarFn::perf_model(a, b, 1.0))
                .linear_term(t, -1.0),
        );
        let sol = solve_oa_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal, "case {case}");
        let best = values
            .iter()
            .map(|&v| a / v as f64 + b * v as f64)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (sol.objective - best).abs() <= 1e-4 * best.max(1.0),
            "case {case}: solver {} vs best member {}",
            sol.objective,
            best
        );
        assert!(values.contains(&(sol.x[n].round() as i64)), "case {case}");
    }
}
