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
//! optima on both of the barrier's KKT paths, structured and dense.
//!
//! Min–max root relaxations (FMO clusters of 8 to 256 fragments, and
//! synthetic ones with upward-turning models and binding caps) must run
//! their main loop on the structured KKT factor (`hslb_nlp::kkt_path`),
//! end `Optimal` and certify; the test pins which of them run the fixed-μ
//! fallback. `MinSum` roots of 100 components must do the same on the
//! dense path. Named roots whose answers once failed their certificate (⅛°
//! layout-2 roots, the binary-encoded E8 roots) must certify too.

use hslb::{
    build_flat_model, build_layout_model, fit_all, gather, AllowedNodes, CesmModelSpec,
    ComponentSpec, FlatSpec, Layout, Objective, Workload,
};
use hslb_bench::harness::{fmo_cluster_spec, sos_test_problem};
use hslb_cesm_sim::{CesmSimulator, Scenario};
use hslb_lp::{LinearProgram, LpSolution, LpStatus};
use hslb_nlp::{kkt_path, KktPath, NlpProblem, NlpSolution, NlpStatus};
use hslb_perfmodel::PerfModel;
use hslb_rng::{hash_mix, Rng};
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

/// Solves `p`, which must end `Optimal` and certify from its own
/// multipliers.
fn certified_nlp(what: &str, p: &NlpProblem) -> NlpSolution {
    let sol = hslb_nlp::solve(p).unwrap_or_else(|e| panic!("{what}: barrier error {e:?}"));
    assert_eq!(sol.status, NlpStatus::Optimal, "{what}");
    if let Err(e) = sol.certify(p) {
        panic!("{what}: {e}");
    }
    sol
}

/// The root relaxation of a min–max flat spec: its main loop must take the
/// structured KKT path, end `Optimal` and certify from its own
/// multipliers. Returns whether the fixed-μ fallback ran.
fn structured_root_certifies(what: &str, spec: &FlatSpec) -> bool {
    let model = build_flat_model(spec);
    let p = model.problem.relaxation();
    assert_eq!(kkt_path(p), KktPath::Structured, "{what}");
    certified_nlp(what, p).barrier_fallbacks > 0
}

/// FMO root relaxations at 8 nodes per fragment, up to 256 fragments
/// (257 unknowns): the structured factor keeps their Newton steps O(k),
/// where a dense or sparse Cholesky would factor a matrix that the node
/// budget's rank-one term fills in.
#[test]
fn fmo_root_relaxations_certify_on_the_structured_kkt() {
    for fragments in [8, 32, 96, 159, 256] {
        for heterogeneity in [0.5_f64, 0.75, 1.0] {
            let seed = hash_mix(&[0x05BA_2F30, fragments as u64, heterogeneity.to_bits()]);
            let spec = fmo_cluster_spec(fragments, heterogeneity, seed, 8 * fragments as i64);
            let what = format!("{fragments} fragments, heterogeneity {heterogeneity}");
            assert!(
                !structured_root_certifies(&what, &spec),
                "{what}: fixed-μ fallback ran"
            );
        }
    }
}

/// Synthetic min–max relaxations of 97, 160 and 250 components: every
/// third model turns upward inside its range (`b > 0`), and node caps
/// bind on part of the components. Two of the twelve exhaust the
/// predictor-corrector budget from the box midpoint and finish on the
/// fixed-μ fallback; the test pins which ones, so a fix or a new stall
/// both show.
#[test]
fn upward_turning_min_max_relaxations_certify_on_the_structured_kkt() {
    let mut rng = Rng::new(0x5BA2_0B0B);
    let mut fell_back = Vec::new();
    for components in [97, 160, 250] {
        for case in 0..4 {
            let specs = (0..components)
                .map(|j| {
                    let b = if j % 3 == 0 {
                        rng.f64_range(0.5, 5.0)
                    } else {
                        0.0
                    };
                    let model = PerfModel::new(
                        rng.f64_range(50.0, 5000.0),
                        b,
                        rng.f64_range(0.6, 1.2),
                        rng.f64_range(0.0, 20.0),
                    );
                    let max = rng.i64_range(4, 64);
                    ComponentSpec {
                        name: format!("c{j}"),
                        model,
                        allowed: AllowedNodes::Range { min: 1, max },
                    }
                })
                .collect();
            let spec = FlatSpec {
                components: specs,
                total_nodes: rng.i64_range(8, 40) * components as i64,
                objective: Objective::MinMax,
            };
            let what = format!("{components} components, case {case}");
            if structured_root_certifies(&what, &spec) {
                fell_back.push(what);
            }
        }
    }
    assert_eq!(
        fell_back,
        ["160 components, case 0", "160 components, case 3"],
        "solves that ran the fixed-μ fallback"
    );
}

/// `MinSum` flat models (one epigraph column per component plus the node
/// budget) on seeded paper models at 100 components: 200 unknowns, whose
/// condensed matrix the structured factor declines. It is the largest
/// shipped shape on the dense KKT path; each root relaxation must end
/// `Optimal` there and certify.
#[test]
fn min_sum_roots_of_100_components_certify_on_the_dense_kkt() {
    for seed in [0x5BA2_5C01_u64, 0x5BA2_5C02, 0x5BA2_5C03] {
        let mut rng = Rng::new(seed);
        let total = 800;
        let components = (0..100)
            .map(|j| gen::paper_component(&mut rng, format!("c{j}"), (10.0, 2000.0), 8.0, 1, total))
            .collect();
        let spec = FlatSpec {
            components,
            total_nodes: total,
            objective: Objective::MinSum,
        };
        let what = format!("MinSum seed {seed:#x}");
        let model = build_flat_model(&spec);
        let p = model.problem.relaxation();
        assert_eq!(p.num_vars(), 200, "{what}");
        assert_eq!(kkt_path(p), KktPath::Dense, "{what}");
        certified_nlp(&what, p);
    }
}

/// The layout-2 (`SequentialAtmGroup`) root relaxation of a fitted CESM
/// pipeline: 5 benchmark samples per component, noise seeded by `seed`.
fn layout2_root(scenario: Scenario, seed: u64) -> NlpProblem {
    let counts = scenario.benchmark_counts(5);
    let mut sim = CesmSimulator::new(scenario.clone(), seed);
    let fits = fit_all(&gather(&mut sim, &counts)).expect("benchmarks fit");
    let names = ["ice", "lnd", "atm", "ocn"];
    let [ice, lnd, atm, ocn] = std::array::from_fn(|c| ComponentSpec {
        name: names[c].to_string(),
        model: fits[c].model,
        allowed: scenario.allowed(c),
    });
    let spec = CesmModelSpec {
        ice,
        lnd,
        atm,
        ocn,
        total_nodes: sim.total_nodes() as i64,
        tsync: None,
    };
    let model = build_layout_model(&spec, Layout::SequentialAtmGroup);
    model.problem.relaxation().clone()
}

/// Three ⅛° layout-2 roots at 32,768 nodes whose `lnd_within_group` dual
/// (about 7e-5) sits below 1e-4 of the largest: a least-squares refit of
/// the duals that dropped such rows failed the certificate at the ocean
/// column (d ≈ 7e-5). The predictor-corrector loop's own duals certify.
#[test]
fn eighth_degree_layout2_roots_certify_on_their_own_duals() {
    for (what, scenario, seed) in [
        ("⅛° 0x8ce5", Scenario::eighth_degree(32_768), 0x8ce5),
        ("⅛° 0x8ce0", Scenario::eighth_degree(32_768), 0x8ce0),
        (
            "⅛° free ocean 0x8ce5",
            Scenario::eighth_degree_unconstrained(32_768),
            0x8ce5,
        ),
    ] {
        let p = layout2_root(scenario, seed);
        assert_eq!(certified_nlp(what, &p).barrier_fallbacks, 0, "{what}");
    }
}

/// The binary-encoded E8 root relaxations at k = 32 and 128: the
/// predictor-corrector KKT matrix stops factoring after a few steps, so
/// they run the fixed-μ fallback, whose answer must certify from the
/// duals its finishing iterations carry (its objective equals the native
/// arm's: 784.25 and 198.3125).
#[test]
fn binary_encoded_e8_roots_certify_after_the_fallback() {
    for (k, objective) in [(32, 784.25), (128, 198.3125)] {
        let (enc, _) = hslb_minlp::encode_sets_as_binaries(&sos_test_problem(k));
        let sol = certified_nlp(&format!("E8 binary root k={k}"), enc.relaxation());
        assert_eq!(sol.barrier_fallbacks, 1, "k={k}");
        assert!(
            (sol.objective - objective).abs() <= 1e-6 * objective,
            "k={k}"
        );
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
