//! End-to-end pipeline tests: gather → fit → solve → execute on the CESM
//! simulator, asserting the paper's qualitative results.

use hslb::pipeline::run_hslb;
use hslb::{
    build_layout_model, certify_layout, fit_all, gather, solve_model_with, CesmModelSpec,
    ComponentSpec, Layout, SolverBackend, Workload,
};
use hslb_cesm_sim::{manual_allocation, CesmSimulator, Scenario};
use hslb_minlp::{MinlpOptions, MinlpStatus};

fn run(scenario: &Scenario, seed: u64) -> (hslb::HslbOutcome, f64) {
    let mut sim = CesmSimulator::new(scenario.clone(), seed);
    let manual = manual_allocation(scenario);
    let manual_total = sim.execute_hybrid(&manual).total;
    let counts = scenario.benchmark_counts(5);
    let out = run_hslb(
        &mut sim,
        &counts,
        Layout::Hybrid,
        SolverBackend::OuterApproximation,
        &MinlpOptions::default(),
    )
    .expect("paper scenarios are feasible");
    (out, manual_total)
}

#[test]
fn one_degree_128_matches_paper_shape() {
    let scenario = Scenario::one_degree(128);
    let (out, manual_total) = run(&scenario, 42);

    // Fits must be good, like the paper's "R² was very close to 1".
    for fit in &out.fits {
        assert!(fit.quality.r_squared > 0.97, "{:?}", fit.quality);
    }
    // Paper: manual and HSLB totals are "very close to each other";
    // manual 416 s, HSLB actual 425 s at 128 nodes.
    let rel = (out.actual.total - manual_total).abs() / manual_total;
    assert!(
        rel < 0.10,
        "HSLB {} vs manual {manual_total}",
        out.actual.total
    );
    // Prediction accuracy: predicted within ~5% of actual.
    let pred_err = (out.predicted.total - out.actual.total).abs() / out.actual.total;
    assert!(
        pred_err < 0.05,
        "predicted {} vs actual {}",
        out.predicted.total,
        out.actual.total
    );
    // Structural constraints of layout 1.
    let a = out.allocation;
    assert!(a.ice + a.lnd <= a.atm);
    assert!(a.atm + a.ocn <= 128);
    // Ocean count admissible (even numbers / 768 at 1°).
    assert!(scenario.allowed(3).contains(a.ocn as i64), "{a:?}");
}

#[test]
fn one_degree_totals_in_paper_ballpark() {
    // Paper Table III: ~410-425 s at 128 nodes, ~80-87 s at 2048.
    let (out_128, _) = run(&Scenario::one_degree(128), 1);
    assert!(
        (out_128.actual.total - 420.0).abs() / 420.0 < 0.10,
        "{}",
        out_128.actual.total
    );
    let (out_2048, _) = run(&Scenario::one_degree(2048), 1);
    assert!(
        (out_2048.actual.total - 83.0).abs() / 83.0 < 0.15,
        "{}",
        out_2048.actual.total
    );
}

#[test]
fn eighth_degree_unconstrained_beats_constrained_at_32k() {
    // The abstract's headline: ~25% improvement at 32,768 nodes once the
    // ocean constraint is lifted.
    let seed = 7;
    let (constrained, manual_total) = run(&Scenario::eighth_degree(32_768), seed);
    let (unconstrained, _) = run(&Scenario::eighth_degree_unconstrained(32_768), seed);
    assert!(
        unconstrained.actual.total < constrained.actual.total,
        "unconstrained {} vs constrained {}",
        unconstrained.actual.total,
        constrained.actual.total
    );
    let improvement = (manual_total - unconstrained.actual.total) / manual_total;
    assert!(
        improvement > 0.15,
        "expected ≥15% improvement over the manual baseline, got {:.1}%",
        improvement * 100.0
    );
    // Paper's predicted free ocean count was 9812; ours must land in a
    // similar region (well above the hard-coded 6124, far below 19460).
    let ocn = unconstrained.allocation.ocn;
    assert!((6124..=16_000).contains(&ocn), "free ocean count {ocn}");
}

#[test]
fn gather_uses_requested_sample_counts() {
    let scenario = Scenario::one_degree(256);
    let mut sim = CesmSimulator::new(scenario.clone(), 3);
    let counts = scenario.benchmark_counts(5);
    let data = hslb::pipeline::gather(&mut sim, &counts);
    for (c, d) in data.iter().enumerate() {
        assert!(
            d.len() >= 4,
            "component {c} needs >4 points for the 4-parameter fit (paper §III-C)"
        );
    }
    assert_eq!(
        sim.benchmark_log.len(),
        counts.iter().map(Vec::len).sum::<usize>()
    );
}

#[test]
fn pipeline_prediction_interpolates() {
    // The chosen allocation must lie within the benchmarked node ranges
    // (the paper: predictions "interpolated rather than extrapolated").
    let scenario = Scenario::one_degree(512);
    let mut sim = CesmSimulator::new(scenario.clone(), 9);
    let counts = scenario.benchmark_counts(5);
    let data = hslb::pipeline::gather(&mut sim, &counts);
    let out = run(&scenario, 9).0;
    let alloc = [
        out.allocation.ice,
        out.allocation.lnd,
        out.allocation.atm,
        out.allocation.ocn,
    ];
    for (c, &n) in alloc.iter().enumerate() {
        assert!(
            data[c].covers(n),
            "component {c}: allocation {n} outside benchmarked range {:?}",
            data[c].points()
        );
    }
    let _ = sim;
}

#[test]
fn different_seeds_reach_similar_allocations() {
    // The paper: different local fits "led to similar quality node
    // allocations". Two different noise seeds must land within a few
    // percent of each other in actual time.
    let (a, _) = run(&Scenario::one_degree(128), 100);
    let (b, _) = run(&Scenario::one_degree(128), 200);
    let rel = (a.actual.total - b.actual.total).abs() / a.actual.total;
    assert!(rel < 0.08, "{} vs {}", a.actual.total, b.actual.total);
}

#[test]
fn pipeline_runs_under_every_layout() {
    // The Execute step must follow the layout the Solve step optimized.
    let scenario = Scenario::one_degree(128);
    let mut totals = Vec::new();
    for layout in [
        Layout::Hybrid,
        Layout::SequentialAtmGroup,
        Layout::FullySequential,
    ] {
        let mut sim = CesmSimulator::new(scenario.clone(), 77);
        let counts = scenario.benchmark_counts(5);
        let out = run_hslb(
            &mut sim,
            &counts,
            layout,
            SolverBackend::OuterApproximation,
            &MinlpOptions::default(),
        )
        .expect("feasible at 128 nodes");
        // Prediction (same layout formula) must track the actual execution.
        // Under max() composition (layouts 1-2) single-component fit errors
        // are masked; the fully sequential sum adds them up, and at a small
        // machine the 5-sample ice/atm fits identify the serial floor
        // poorly (the paper's own 128-node ice prediction missed by ~12%).
        let tol = match layout {
            Layout::FullySequential => 0.25,
            _ => 0.12,
        };
        let err = (out.predicted.total - out.actual.total).abs() / out.actual.total;
        assert!(
            err < tol,
            "{layout:?}: predicted {} vs actual {}",
            out.predicted.total,
            out.actual.total
        );
        totals.push(out.actual.total);
    }
    // No universal ordering is asserted here: at a 128-node machine layout 3
    // gives *every* component the whole machine, which can beat the hybrid
    // split (the Figure-4 ranking holds at the paper's larger scales and is
    // asserted in reproduction_claims::layout_ranking_matches_figure_4).
    assert_eq!(totals.len(), 3);
}

#[test]
fn workload_trait_is_object_safe_enough_for_generic_use() {
    fn generic<W: Workload>(w: &W) -> u64 {
        w.total_nodes()
    }
    let sim = CesmSimulator::new(Scenario::one_degree(64), 0);
    assert_eq!(generic(&sim), 64);
}

/// Regression: on this fitted ⅛° layout-2 model two warm-started NLP-B&B
/// node relaxations exhausted the predictor-corrector budget, and the
/// fixed-μ fallback then stopped short of their optimum at 3377.5079 and
/// 3377.5082 (a cold solve of the same nodes reaches 3377.3182). A
/// fallback stuck short of the optimum must report `IterationLimit`: called
/// `Optimal`, both nodes are pruned on the inflated bounds and NLP-B&B
/// returns a worse allocation (3377.483, atm 5,272) as optimal.
#[test]
fn nlp_bnb_matches_oa_on_fitted_eighth_degree_layout2() {
    let scenario = Scenario::eighth_degree_unconstrained(7892);
    let counts = scenario.benchmark_counts(5);
    let mut sim = CesmSimulator::new(scenario.clone(), 0x14b1_43ff_6581_11be);
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
    let opts = MinlpOptions::default();
    let oa = solve_model_with(&model.problem, SolverBackend::OuterApproximation, &opts);
    let nlp = solve_model_with(&model.problem, SolverBackend::NlpBnb, &opts);
    assert_eq!(oa.status, MinlpStatus::Optimal);
    assert_eq!(nlp.status, MinlpStatus::Optimal);
    assert!(
        (nlp.objective - oa.objective).abs() <= 2e-6 * oa.objective.abs(),
        "NLP-B&B {} vs OA {}",
        nlp.objective,
        oa.objective
    );
}

/// Regression: on this fitted 1° layout-1 model at 2,016 nodes the
/// objective is nearly flat around the optimum, and OA that only branched
/// at fractional master points opened 3,682 nodes where NLP-B&B needs 3.
/// Integer secants cut those points off instead (48 nodes), and the answer
/// certifies against the exact optimum (79.3984379).
#[test]
fn oa_tree_stays_small_on_the_fitted_one_degree_2016_runaway() {
    let scenario = Scenario::one_degree(2016);
    let mut sim = CesmSimulator::new(scenario.clone(), 0x727c_6b54_c2a8_ea54);
    let counts = scenario.benchmark_counts(5);
    let opts = MinlpOptions::default();
    let out = run_hslb(
        &mut sim,
        &counts,
        Layout::Hybrid,
        SolverBackend::OuterApproximation,
        &opts,
    )
    .expect("feasible at 2,016 nodes");
    let oa = &out.solution;
    assert_eq!(oa.status, MinlpStatus::Optimal);
    assert!(
        oa.stats.nodes_opened <= 100,
        "OA opened {} nodes",
        oa.stats.nodes_opened
    );
    certify_layout(&out.spec, Layout::Hybrid, &out.allocation).unwrap();
}

/// The seeded tree-size scan: 360 fitted CESM pipelines (1° at 2,048
/// nodes, ⅛° at 32,768 and ⅛° with a free ocean at 32,768; layouts 1–3;
/// 40 noise seeds each) must each end `Optimal` within 300 OA nodes, with
/// an allocation that certifies against the exact optimum. The largest
/// tree was 337 nodes before integer secants and is 85 with them.
#[test]
fn oa_trees_stay_bounded_across_360_fitted_pipelines() {
    let strata = [
        ("1deg", Scenario::one_degree(2048)),
        ("8th", Scenario::eighth_degree(32_768)),
        ("8th_free", Scenario::eighth_degree_unconstrained(32_768)),
    ];
    let opts = MinlpOptions::default();
    for (stratum, (name, scenario)) in strata.iter().enumerate() {
        let nodes = scenario.total_nodes;
        let counts = scenario.benchmark_counts(5);
        for layout in Layout::ALL {
            for s in 0..40u64 {
                let seed = hslb_rng::hash_mix(&[s, stratum as u64, layout.index() as u64, 0x7a11]);
                let label = format!("{name}/{nodes}/layout{}/{seed:#018x}", layout.index());
                let mut sim = CesmSimulator::new(scenario.clone(), seed);
                let out = run_hslb(
                    &mut sim,
                    &counts,
                    layout,
                    SolverBackend::OuterApproximation,
                    &opts,
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(out.solution.status, MinlpStatus::Optimal, "{label}");
                assert!(
                    out.solution.stats.nodes_opened <= 300,
                    "{label}: OA opened {} nodes",
                    out.solution.stats.nodes_opened
                );
                certify_layout(&out.spec, layout, &out.allocation)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
            }
        }
    }
}
