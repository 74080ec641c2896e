//! Table-I layout model invariants, cross-checked against the exact
//! optimum on randomized component surfaces.

use hslb::{
    build_layout_model, certify_layout, layout_optimum, layout_predicted_times, solve_model,
    CesmModelSpec, ComponentSpec, Layout, SolverBackend,
};
use hslb_minlp::MinlpStatus;
use hslb_perfmodel::PerfModel;
use hslb_rng::Rng;

fn spec(params: [(f64, f64); 4], total: i64) -> CesmModelSpec {
    let comp = |k: usize, name: &str| {
        ComponentSpec::new(name, PerfModel::amdahl(params[k].0, params[k].1), 1, total)
    };
    CesmModelSpec {
        ice: comp(0, "ice"),
        lnd: comp(1, "lnd"),
        atm: comp(2, "atm"),
        ocn: comp(3, "ocn"),
        total_nodes: total,
        tsync: None,
    }
}

#[test]
fn objective_equals_layout_formula_for_all_layouts() {
    let s = spec(
        [(800.0, 1.0), (150.0, 0.2), (3000.0, 4.0), (1500.0, 2.0)],
        48,
    );
    for layout in Layout::ALL {
        let model = build_layout_model(&s, layout);
        let sol = solve_model(&model.problem, SolverBackend::OuterApproximation);
        assert_eq!(sol.status, MinlpStatus::Optimal, "{layout:?}");
        let alloc = model.allocation(&sol);
        let times = layout_predicted_times(&s, layout, &alloc);
        assert!(
            (sol.objective - times.total).abs() < 1e-3 * times.total,
            "{layout:?}: objective {} vs formula {}",
            sol.objective,
            times.total
        );
    }
}

#[test]
fn layout_formulas_dominate_pointwise() {
    // For any FIXED allocation the closed forms order as
    // hybrid <= sequential-atm-group <= fully-sequential:
    // max(max(i,l)+a, o) <= max(i+l+a, o) <= i+l+a+o.
    // (The *optima* need not order this way — each layout has different
    // node-sharing constraints; e.g. layout 3 gives every component all N
    // nodes, which a small ocean-bound machine can prefer.)
    let s = spec([(400.0, 0.5), (90.0, 0.1), (2000.0, 2.0), (900.0, 1.0)], 96);
    for alloc in [
        hslb::CesmAllocation {
            ice: 10,
            lnd: 6,
            atm: 16,
            ocn: 20,
        },
        hslb::CesmAllocation {
            ice: 30,
            lnd: 30,
            atm: 60,
            ocn: 36,
        },
        hslb::CesmAllocation {
            ice: 1,
            lnd: 1,
            atm: 2,
            ocn: 94,
        },
    ] {
        let t1 = layout_predicted_times(&s, Layout::Hybrid, &alloc).total;
        let t2 = layout_predicted_times(&s, Layout::SequentialAtmGroup, &alloc).total;
        let t3 = layout_predicted_times(&s, Layout::FullySequential, &alloc).total;
        assert!(
            t1 <= t2 + 1e-9 && t2 <= t3 + 1e-9,
            "{alloc:?}: {t1} {t2} {t3}"
        );
    }
}

#[test]
fn ticelnd_epigraph_is_tight_at_optimum() {
    let s = spec(
        [(800.0, 1.0), (150.0, 0.2), (3000.0, 4.0), (1500.0, 2.0)],
        64,
    );
    let model = build_layout_model(&s, Layout::Hybrid);
    let sol = solve_model(&model.problem, SolverBackend::OuterApproximation);
    assert_eq!(sol.status, MinlpStatus::Optimal);
    let ticelnd = sol.x[model.ticelnd_var.expect("hybrid model has T_icelnd")];
    let alloc = model.allocation(&sol);
    let times = layout_predicted_times(&s, Layout::Hybrid, &alloc);
    // T_icelnd must equal max(T_i, T_l) at the optimum (within solver tol):
    // if it were loose, T could shrink, contradicting optimality — unless
    // the ocean dominates, in which case it only needs to be <= T - T_a.
    let max_il = times.ice.max(times.lnd);
    if times.total > times.ocn + 1e-6 {
        assert!(
            (ticelnd - max_il).abs() < 1e-3 * max_il.max(1.0),
            "{ticelnd} vs {max_il}"
        );
    } else {
        assert!(ticelnd + times.atm <= times.total + 1e-3);
    }
}

/// Testkit's CESM specs: paper models, about half of them turning upward
/// inside the machine (`b > 0`), and allowed sets. On every layout, OA's
/// allocation must certify and its objective must match the exact optimum.
#[test]
fn oa_matches_exact_optimum_with_upward_models() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0xab);
    for case in 0..10u32 {
        let s = hslb_testkit::gen::cesm_spec(&mut rng, 1 + case % 4);
        for layout in Layout::ALL {
            let (_, exact) = layout_optimum(&s, layout).expect("feasible spec");
            let model = build_layout_model(&s, layout);
            let sol = solve_model(&model.problem, SolverBackend::OuterApproximation);
            assert_eq!(sol.status, MinlpStatus::Optimal, "case {case} {layout:?}");
            let alloc = model.allocation(&sol);
            let label = format!("case {case} {layout:?} {alloc:?}");
            certify_layout(&s, layout, &alloc).unwrap_or_else(|e| panic!("{label}: {e}"));
            let gap = (sol.objective - exact).abs();
            assert!(
                gap <= 1e-6 * exact,
                "{label}: OA {} vs {exact}",
                sol.objective
            );
        }
    }
}

/// The solver's allocation always satisfies the structural constraints,
/// and certifies.
#[test]
fn allocations_satisfy_structure() {
    let mut rng = Rng::new(hslb_rng::seeds::TESTKIT ^ 0xbb);
    for case in 0..10 {
        let aa = rng.f64_range(500.0, 20_000.0);
        let ao = rng.f64_range(200.0, 8000.0);
        let total = rng.i64_range(12, 63);
        let s = spec([(300.0, 1.0), (100.0, 0.5), (aa, 2.0), (ao, 1.0)], total);
        let model = build_layout_model(&s, Layout::Hybrid);
        let sol = solve_model(&model.problem, SolverBackend::OuterApproximation);
        assert_eq!(sol.status, MinlpStatus::Optimal, "case {case}");
        let a = model.allocation(&sol);
        certify_layout(&s, Layout::Hybrid, &a).unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}
