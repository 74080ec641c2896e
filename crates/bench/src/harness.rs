//! Experiment drivers, one per table/figure (E1–E11 in DESIGN.md).

use hslb::pipeline::run_hslb;
use hslb::{
    build_flat_model, build_layout_model, layout_predicted_times, solve_model_with,
    AllocationReport, AllowedNodes, CesmAllocation, CesmModelSpec, ComponentSpec, FlatSpec, Layout,
    Objective, SolverBackend,
};
use hslb_cesm_sim::truth::NAMES;
use hslb_cesm_sim::{manual_allocation, CesmSimulator, Scenario};
use hslb_fmo_sim::{generate_cluster, FmoSimulator};
use hslb_minlp::{encode_sets_as_binaries, MinlpOptions, MinlpProblem, SolveStats};
use hslb_nlp::{ConstraintFn, ScalarFn};
use hslb_perfmodel::{fit, FitReport, ScalingData};
use std::time::Instant;

/// Re-export for solver wrappers that need explicit options.
pub use hslb::solver::solve_model;

/// Default benchmark sample count per component (paper: "at least greater
/// than four"; we use five like the manual 1° procedure).
pub const SAMPLES: usize = 5;

// ---------------------------------------------------------------------------
// E1 / Figure 2 — scaling curves + fits
// ---------------------------------------------------------------------------

/// One component's curve: observations, fit, and a dense predicted series.
#[derive(Debug, Clone)]
pub struct CurveReport {
    pub component: &'static str,
    pub data: ScalingData,
    pub fit: FitReport,
    /// `(nodes, predicted seconds)` on a dense grid for plotting.
    pub curve: Vec<(u64, f64)>,
}

/// Figure 2: per-component 1° scaling data and fitted curves.
pub fn fig2_scaling_curves(scenario: &Scenario, seed: u64) -> [CurveReport; 4] {
    let mut sim = CesmSimulator::new(scenario.clone(), seed);
    let counts = scenario.benchmark_counts(SAMPLES);
    let data = hslb::pipeline::gather(&mut sim, &counts);
    std::array::from_fn(|c| {
        let fit_rep = fit(&data[c]).expect("paper model fits the gathered data");
        let (lo, hi) = (
            data[c].points().first().expect("non-empty").0,
            data[c].points().last().expect("non-empty").0,
        );
        let curve: Vec<(u64, f64)> = ScalingData::suggest_node_counts(lo, hi, 25)
            .into_iter()
            .map(|n| (n, fit_rep.model.eval(n as f64)))
            .collect();
        CurveReport {
            component: NAMES[c],
            data: data[c].clone(),
            fit: fit_rep,
            curve,
        }
    })
}

pub fn render_fig2(curves: &[CurveReport; 4]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "# Figure 2 — component scaling curves (1°, layout 1)");
    for c in curves {
        let _ = writeln!(
            s,
            "\ncomponent {}: {}  [{}]",
            c.component, c.fit.model, c.fit.quality
        );
        let _ = writeln!(
            s,
            "{:>10} {:>14} {:>14}",
            "nodes", "observed(s)", "fitted(s)"
        );
        for &(n, y) in c.data.points() {
            let _ = writeln!(
                s,
                "{:>10} {:>14.3} {:>14.3}",
                n,
                y,
                c.fit.model.eval(n as f64)
            );
        }
    }
    s
}

// ---------------------------------------------------------------------------
// E2–E4 / Table III — manual vs HSLB blocks
// ---------------------------------------------------------------------------

/// One Table III block plus solver statistics.
#[derive(Debug, Clone)]
pub struct Table3Block {
    pub report: AllocationReport,
    pub solver_nodes: usize,
    pub nlp_solves: usize,
    pub lp_solves: usize,
    pub cuts: usize,
}

/// Runs one Table III block: manual baseline (paper preset where available)
/// versus the full HSLB pipeline, both executed on the simulator.
pub fn table3_block(scenario: &Scenario, seed: u64) -> Table3Block {
    let mut sim = CesmSimulator::new(scenario.clone(), seed);
    let manual = manual_allocation(scenario);
    let manual_exec = sim.execute_hybrid(&manual);

    let counts = scenario.benchmark_counts(SAMPLES);
    let out = run_hslb(
        &mut sim,
        &counts,
        Layout::Hybrid,
        SolverBackend::OuterApproximation,
        &MinlpOptions::default(),
    )
    .expect("paper scenarios are feasible");

    let title = format!(
        "{:?}, {} nodes{}",
        scenario.resolution,
        scenario.total_nodes,
        if scenario.constrained_ocean {
            ""
        } else {
            ", unconstrained ocean nodes"
        }
    );
    Table3Block {
        report: AllocationReport {
            title,
            manual: Some((manual, manual_exec)),
            hslb: (out.allocation, out.predicted),
            actual: out.actual,
        },
        solver_nodes: out.solution.stats.nodes_opened as usize,
        nlp_solves: out.solution.stats.nlp_solves as usize,
        lp_solves: out.solution.stats.lp_solves as usize,
        cuts: out.solution.stats.oa_cuts as usize,
    }
}

// ---------------------------------------------------------------------------
// E5 / Figure 3 — 1/8° manual vs predicted vs actual
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig3Point {
    pub nodes: u64,
    pub manual_total: f64,
    pub hslb_predicted: f64,
    pub hslb_actual: f64,
}

/// Figure 3 series over a 1/8° node sweep.
pub fn fig3_series(node_counts: &[u64], seed: u64) -> Vec<Fig3Point> {
    node_counts
        .iter()
        .map(|&n| {
            let scenario = Scenario::eighth_degree(n);
            let block = table3_block(&scenario, seed);
            Fig3Point {
                nodes: n,
                manual_total: block
                    .report
                    .manual
                    .as_ref()
                    .expect("table3_block always sets a manual baseline")
                    .1
                    .total,
                hslb_predicted: block.report.hslb.1.total,
                hslb_actual: block.report.actual.total,
            }
        })
        .collect()
}

pub fn render_fig3(points: &[Fig3Point]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Figure 3 — 1/8° scaling: manual vs HSLB predicted vs actual"
    );
    let _ = writeln!(
        s,
        "{:>10} {:>16} {:>18} {:>16}",
        "nodes", "manual_total(s)", "hslb_predicted(s)", "hslb_actual(s)"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>10} {:>16.1} {:>18.1} {:>16.1}",
            p.nodes, p.manual_total, p.hslb_predicted, p.hslb_actual
        );
    }
    s
}

// ---------------------------------------------------------------------------
// E6 / Figure 4 — predicted scaling of layouts 1–3 (1°)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig4Point {
    pub nodes: u64,
    /// Predicted totals for layouts 1, 2, 3.
    pub predicted: [f64; 3],
    /// Simulated ("experimental") total for layout 1.
    pub layout1_actual: f64,
}

/// Figure 4: solve all three layout models at each node count from curves
/// fitted once (at the largest count), and simulate layout 1 for the
/// experimental series.
pub fn fig4_series(node_counts: &[u64], seed: u64) -> Vec<Fig4Point> {
    let largest = *node_counts.iter().max().expect("non-empty sweep");
    let base_scenario = Scenario::one_degree(largest);
    let mut sim = CesmSimulator::new(base_scenario.clone(), seed);
    let counts = base_scenario.benchmark_counts(SAMPLES);
    let data = hslb::pipeline::gather(&mut sim, &counts);
    let fits = hslb::pipeline::fit_all(&data).expect("fits converge on simulator data");

    node_counts
        .iter()
        .map(|&n| {
            let scenario = Scenario::one_degree(n);
            let spec = spec_from_fits(&scenario, &fits);
            let mut predicted = [0.0f64; 3];
            let mut layout1_alloc = None;
            for (k, layout) in Layout::ALL.iter().enumerate() {
                let model = build_layout_model(&spec, *layout);
                let sol = solve_model_with(
                    &model.problem,
                    SolverBackend::OuterApproximation,
                    &MinlpOptions::default(),
                );
                predicted[k] = sol.objective;
                if *layout == Layout::Hybrid {
                    layout1_alloc = Some(model.allocation(&sol));
                }
            }
            let mut sim_n = CesmSimulator::new(scenario, seed ^ n);
            let layout1_actual = sim_n
                .execute_hybrid(&layout1_alloc.expect("hybrid solved above"))
                .total;
            Fig4Point {
                nodes: n,
                predicted,
                layout1_actual,
            }
        })
        .collect()
}

/// Builds a `CesmModelSpec` from fit reports under a scenario's domains.
pub fn spec_from_fits(scenario: &Scenario, fits: &[FitReport; 4]) -> CesmModelSpec {
    let comp = |c: usize| ComponentSpec {
        name: NAMES[c].to_string(),
        model: fits[c].model,
        allowed: scenario.allowed(c),
    };
    CesmModelSpec {
        ice: comp(0),
        lnd: comp(1),
        atm: comp(2),
        ocn: comp(3),
        total_nodes: scenario.total_nodes as i64,
        tsync: None,
    }
}

pub fn render_fig4(points: &[Fig4Point]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "# Figure 4 — predicted scaling of layouts 1-3 (1°)");
    let _ = writeln!(
        s,
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "nodes", "layout1(s)", "layout2(s)", "layout3(s)", "layout1_exp(s)"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>8} {:>12.1} {:>12.1} {:>12.1} {:>14.1}",
            p.nodes, p.predicted[0], p.predicted[1], p.predicted[2], p.layout1_actual
        );
    }
    let r2 = hslb_lsq::r_squared(
        &points.iter().map(|p| p.layout1_actual).collect::<Vec<_>>(),
        &points.iter().map(|p| p.predicted[0]).collect::<Vec<_>>(),
    );
    let _ = writeln!(s, "R² (layout 1 predicted vs experimental): {r2:.4}");
    s
}

// ---------------------------------------------------------------------------
// E7 — MINLP solve time at machine scale (§III-E: < 60 s at 40,960 nodes)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct SolveTimeReport {
    pub total_nodes: u64,
    pub backend: &'static str,
    pub seconds: f64,
    pub bnb_nodes: usize,
    pub objective: f64,
}

/// Builds the full-machine 1° layout-1 model (|A| = 1639, |O| = 241) and
/// times each solver backend.
pub fn solve_time_report(total_nodes: u64) -> Vec<SolveTimeReport> {
    let scenario = Scenario::one_degree(total_nodes);
    let spec = true_spec(&scenario);
    let model = build_layout_model(&spec, Layout::Hybrid);
    [
        ("lp/nlp-bnb (paper)", SolverBackend::OuterApproximation),
        ("nlp-bnb", SolverBackend::NlpBnb),
        ("parallel-bnb", SolverBackend::ParallelBnb),
    ]
    .into_iter()
    .map(|(name, backend)| {
        let start = Instant::now();
        let sol = solve_model_with(&model.problem, backend, &MinlpOptions::default());
        SolveTimeReport {
            total_nodes,
            backend: name,
            seconds: start.elapsed().as_secs_f64(),
            bnb_nodes: sol.stats.nodes_opened as usize,
            objective: sol.objective,
        }
    })
    .collect()
}

/// One backend's warm-vs-cold comparison on the E7 model (see
/// [`warm_cold_report`]).
#[derive(Debug, Clone)]
pub struct WarmColdReport {
    pub backend: &'static str,
    pub warm_seconds: f64,
    pub cold_seconds: f64,
    pub warm_newton: u64,
    pub cold_newton: u64,
    pub warm_pivots: u64,
    pub cold_pivots: u64,
    pub warm_hits: u64,
}

/// Runs the E7 full-machine model on every backend twice — warm starts on
/// (the default) and off (`MinlpOptions::warm_start = false`, the
/// `--no-warm-start` CLI flag) — and reports wall clock plus the counters
/// the warm paths move: Newton iterations (parent-seeded barrier NLPs) and
/// simplex pivots (dual-simplex basis reuse in the OA master).
pub fn warm_cold_report(total_nodes: u64) -> Vec<WarmColdReport> {
    let scenario = Scenario::one_degree(total_nodes);
    let spec = true_spec(&scenario);
    let model = build_layout_model(&spec, Layout::Hybrid);
    let warm_opts = MinlpOptions::default();
    let cold_opts = MinlpOptions {
        warm_start: false,
        ..MinlpOptions::default()
    };
    [
        ("lp/nlp-bnb (paper)", SolverBackend::OuterApproximation),
        ("nlp-bnb", SolverBackend::NlpBnb),
        ("parallel-bnb", SolverBackend::ParallelBnb),
    ]
    .into_iter()
    .map(|(name, backend)| {
        let start = Instant::now();
        let warm = solve_model_with(&model.problem, backend, &warm_opts);
        let warm_seconds = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let cold = solve_model_with(&model.problem, backend, &cold_opts);
        let cold_seconds = start.elapsed().as_secs_f64();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6 * cold.objective.abs().max(1.0),
            "warm and cold optima disagree on {name}: {} vs {}",
            warm.objective,
            cold.objective
        );
        WarmColdReport {
            backend: name,
            warm_seconds,
            cold_seconds,
            warm_newton: warm.stats.newton_iters,
            cold_newton: cold.stats.newton_iters,
            warm_pivots: warm.stats.simplex_pivots,
            cold_pivots: cold.stats.simplex_pivots,
            warm_hits: warm.stats.warm_start_hits,
        }
    })
    .collect()
}

pub fn render_warm_cold(points: &[WarmColdReport]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "# E7b — warm vs cold solves, 1° layout 1 (40,960 nodes)");
    let _ = writeln!(
        s,
        "{:>20} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "backend", "warm(ms)", "cold(ms)", "warm Nt", "cold Nt", "warm pv", "cold pv", "hits"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>20} {:>9.2} {:>9.2} {:>8} {:>8} {:>8} {:>8} {:>6}",
            p.backend,
            1e3 * p.warm_seconds,
            1e3 * p.cold_seconds,
            p.warm_newton,
            p.cold_newton,
            p.warm_pivots,
            p.cold_pivots,
            p.warm_hits
        );
    }
    s
}

/// Spec built from the *true* component surfaces (no fitting noise) — used
/// by solver-side experiments where the fit step is not under test.
pub fn true_spec(scenario: &Scenario) -> CesmModelSpec {
    let comp = |c: usize| ComponentSpec {
        name: NAMES[c].to_string(),
        model: scenario.truth.models[c],
        allowed: scenario.allowed(c),
    };
    CesmModelSpec {
        ice: comp(0),
        lnd: comp(1),
        atm: comp(2),
        ocn: comp(3),
        total_nodes: scenario.total_nodes as i64,
        tsync: None,
    }
}

// ---------------------------------------------------------------------------
// E8 — SOS/domain branching vs explicit binary encoding
// ---------------------------------------------------------------------------

/// One arm of the E8 ablation: a single OA solve and its wall clock.
#[derive(Debug, Clone)]
pub struct SosArm {
    pub seconds: f64,
    pub objective: f64,
    pub stats: SolveStats,
}

impl SosArm {
    fn solve(problem: &MinlpProblem) -> SosArm {
        let start = Instant::now();
        let sol = hslb_minlp::solve_oa_bnb(problem, &MinlpOptions::default());
        SosArm {
            seconds: start.elapsed().as_secs_f64(),
            objective: sol.objective,
            stats: sol.stats,
        }
    }

    /// Newton steps taken by the fixed-μ fallback loop rather than MPC.
    pub fn fixed_mu_steps(&self) -> u64 {
        self.stats.newton_iters - self.stats.predictor_steps
    }
}

#[derive(Debug, Clone)]
pub struct SosAblationPoint {
    pub instance: String,
    pub native: SosArm,
    pub binary: SosArm,
}

impl SosAblationPoint {
    /// Solves `problem` natively (interval/SOS branching) and through the
    /// explicit binary encoding of every allowed set, one after the other
    /// in the same run. Both must reach the same optimum.
    fn measure(instance: String, problem: &MinlpProblem) -> SosAblationPoint {
        let native = SosArm::solve(problem);
        let (enc, _) = encode_sets_as_binaries(problem);
        let binary = SosArm::solve(&enc);
        assert!(
            (native.objective - binary.objective).abs() < 1e-3 * native.objective.abs().max(1.0),
            "encodings disagree on {instance}: {} vs {}",
            native.objective,
            binary.objective
        );
        SosAblationPoint {
            instance,
            native,
            binary,
        }
    }

    pub fn speedup(&self) -> f64 {
        self.binary.seconds / self.native.seconds.max(1e-12)
    }
}

/// Builds a two-component allocation with one allowed-set variable of the
/// given size (the §III-E "atmospheric partition" structure).
pub fn sos_test_problem(set_size: usize) -> MinlpProblem {
    let n_total = 4 * set_size as i64 + 64;
    let values: Vec<i64> = (1..=set_size as i64).map(|k| 2 * k).collect();
    let mut p = MinlpProblem::new();
    let n1 = p.add_set_var(0.0, values);
    let n2 = p.add_int_var(0.0, 1, n_total);
    let t = p.add_var(1.0, 0.0, 1e9);
    p.add_constraint(
        ConstraintFn::new("t1")
            .nonlinear_term(n1, ScalarFn::perf_model(5.0e4, 0.0, 1.0))
            .linear_term(t, -1.0)
            .with_constant(3.0),
    );
    p.add_constraint(
        ConstraintFn::new("t2")
            .nonlinear_term(n2, ScalarFn::perf_model(2.7e4, 0.0, 1.0))
            .linear_term(t, -1.0)
            .with_constant(5.0),
    );
    p.add_constraint(
        ConstraintFn::new("cap")
            .linear_term(n1, 1.0)
            .linear_term(n2, 1.0)
            .with_constant(-(n_total as f64)),
    );
    p
}

/// Solves the test problem natively (interval/SOS branching) and through
/// the explicit binary encoding, timing both. Both must reach the same
/// optimum; the timing gap is the paper's two-orders-of-magnitude claim.
pub fn sos_ablation(set_sizes: &[usize]) -> Vec<SosAblationPoint> {
    set_sizes
        .iter()
        .map(|&k| SosAblationPoint::measure(format!("k={k}"), &sos_test_problem(k)))
        .collect()
}

/// The ablation on the paper's own instance: E7's true 1° models at
/// 40,960 nodes, layout 1, with both allowed sets (the atmosphere's 1,639
/// admissible counts and the ocean's 241) binary-encoded in the slow arm.
/// The binary arm takes minutes.
pub fn sos_ablation_paper_instance() -> SosAblationPoint {
    let spec = true_spec(&Scenario::one_degree(40_960));
    let model = build_layout_model(&spec, Layout::Hybrid);
    SosAblationPoint::measure("E7 1° 40,960".to_string(), &model.problem)
}

pub fn render_sos(points: &[SosAblationPoint]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# E8 — SOS/interval branching vs explicit binary encoding"
    );
    let _ = writeln!(
        s,
        "{:<14} {:>6} {:>6} {:>6} {:>5} {:>6} {:>8} {:>5} {:>10} {:>12} {:>9}",
        "instance",
        "arm",
        "nodes",
        "LPs",
        "NLPs",
        "MPC",
        "fixed-μ",
        "fb",
        "ms/node",
        "wall (ms)",
        "speedup"
    );
    for p in points {
        for (arm, r, speedup) in [
            ("native", &p.native, String::new()),
            ("binary", &p.binary, format!("{:.1}x", p.speedup())),
        ] {
            let _ = writeln!(
                s,
                "{:<14} {:>6} {:>6} {:>6} {:>5} {:>6} {:>8} {:>5} {:>10.4} {:>12.3} {:>9}",
                p.instance,
                arm,
                r.stats.nodes_opened,
                r.stats.lp_solves,
                r.stats.nlp_solves,
                r.stats.predictor_steps,
                r.fixed_mu_steps(),
                r.stats.barrier_fallbacks,
                1e3 * r.seconds / (r.stats.nodes_opened.max(1) as f64),
                1e3 * r.seconds,
                speedup
            );
        }
    }
    s
}

// ---------------------------------------------------------------------------
// E9 — objective comparison (Eqs. 1–3)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct ObjectiveReport {
    pub objective: Objective,
    /// Makespan (true concurrent completion time) of the chosen allocation.
    pub makespan: f64,
    pub nodes: Vec<u64>,
}

/// Solves the flat 1°-component allocation under each objective and
/// reports the *makespan* each allocation actually achieves.
pub fn objective_comparison(total_nodes: i64, seed: u64) -> Vec<ObjectiveReport> {
    let scenario = Scenario::one_degree(total_nodes as u64);
    let _ = seed;
    let components: Vec<ComponentSpec> = (0..4)
        .map(|c| ComponentSpec {
            name: NAMES[c].to_string(),
            model: scenario.truth.models[c],
            allowed: hslb::AllowedNodes::Range {
                min: 1,
                max: total_nodes,
            },
        })
        .collect();
    Objective::ALL
        .into_iter()
        .map(|objective| {
            let spec = FlatSpec {
                components: components.clone(),
                total_nodes,
                objective,
            };
            let model = build_flat_model(&spec);
            let sol = solve_model_with(
                &model.problem,
                SolverBackend::OuterApproximation,
                &MinlpOptions::default(),
            );
            let alloc = model.allocation(&spec, &sol);
            ObjectiveReport {
                objective,
                makespan: alloc.makespan(),
                nodes: alloc.nodes,
            }
        })
        .collect()
}

pub fn render_objectives(reports: &[ObjectiveReport]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# E9 — objective functions (Eqs. 1-3): resulting makespan"
    );
    for r in reports {
        let _ = writeln!(
            s,
            "{:>8?}: makespan {:>10.2} s  nodes {:?}",
            r.objective, r.makespan, r.nodes
        );
    }
    s
}

// ---------------------------------------------------------------------------
// E10 — FMO (title paper): HSLB vs uniform vs dynamic
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct FmoPoint {
    pub fragments: usize,
    pub heterogeneity: f64,
    pub hslb_monomer: f64,
    pub uniform_monomer: f64,
    pub dynamic_monomer: f64,
    pub hslb_imbalance: f64,
    pub uniform_imbalance: f64,
}

impl FmoPoint {
    pub fn speedup_vs_uniform(&self) -> f64 {
        self.uniform_monomer / self.hslb_monomer.max(1e-12)
    }

    pub fn speedup_vs_dynamic(&self) -> f64 {
        self.dynamic_monomer / self.hslb_monomer.max(1e-12)
    }
}

/// A min–max allocation spec over a seeded FMO fragment cluster on
/// `total_nodes` nodes: one component per fragment with its true model,
/// each allowed 1 to its useful node count.
pub fn fmo_cluster_spec(
    fragments: usize,
    heterogeneity: f64,
    seed: u64,
    total_nodes: i64,
) -> FlatSpec {
    let components = generate_cluster(fragments, heterogeneity, seed)
        .iter()
        .map(|f| ComponentSpec {
            name: format!("frag{}", f.id),
            model: f.truth_model(),
            allowed: AllowedNodes::Range {
                min: 1,
                max: f.max_useful_nodes(),
            },
        })
        .collect();
    FlatSpec {
        components,
        total_nodes,
        objective: Objective::MinMax,
    }
}

/// FMO sweep: for each (fragments, heterogeneity) cell, run all three
/// strategies on the same cluster.
pub fn fmo_sweep(cells: &[(usize, f64)], nodes_per_fragment: u64, seed: u64) -> Vec<FmoPoint> {
    cells
        .iter()
        .map(|&(fragments, heterogeneity)| {
            let cluster = generate_cluster(fragments, heterogeneity, seed);
            let total_nodes = fragments as u64 * nodes_per_fragment;
            let mut sim = FmoSimulator::new(cluster, total_nodes, seed);
            // Uniform static: one equal group per fragment. Dynamic: a
            // quarter as many (larger) groups pulling from the queue.
            let (_, hslb) = sim.run_hslb(SAMPLES).expect("FMO allocation is feasible");
            let uniform = sim.execute_uniform(fragments);
            let dynamic = sim.execute_dynamic((fragments / 4).max(1));
            FmoPoint {
                fragments,
                heterogeneity,
                hslb_monomer: hslb.monomer_time,
                uniform_monomer: uniform.monomer_time,
                dynamic_monomer: dynamic.monomer_time,
                hslb_imbalance: hslb.imbalance,
                uniform_imbalance: uniform.imbalance,
            }
        })
        .collect()
}

pub fn render_fmo(points: &[FmoPoint]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# E10 — FMO monomer step: HSLB vs uniform static vs dynamic LPT"
    );
    let _ = writeln!(
        s,
        "{:>6} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "frags", "het", "hslb(s)", "unif(s)", "dyn(s)", "vs unif", "vs dyn"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>6} {:>6.2} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x {:>8.2}x",
            p.fragments,
            p.heterogeneity,
            p.hslb_monomer,
            p.uniform_monomer,
            p.dynamic_monomer,
            p.speedup_vs_uniform(),
            p.speedup_vs_dynamic()
        );
    }
    s
}

// ---------------------------------------------------------------------------
// E12 — T_sync ablation (Table I lines 9/18-19; the paper's caveat that the
// synchronization constraint "may actually result in reduced performance")
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct TsyncPoint {
    /// `None` = constraint disabled (the paper's default).
    pub tsync: Option<f64>,
    pub predicted_total: f64,
    /// |T_ice - T_lnd| at the chosen allocation.
    pub ice_lnd_gap: f64,
}

/// Sweeps the ice/land synchronization tolerance on the 1° layout-1 model.
pub fn tsync_study(total_nodes: u64, tsync_values: &[f64]) -> Vec<TsyncPoint> {
    let scenario = Scenario::one_degree(total_nodes);
    let base = true_spec(&scenario);
    let mut out = Vec::new();
    let mut run = |tsync: Option<f64>| {
        let mut spec = base.clone();
        spec.tsync = tsync;
        let model = build_layout_model(&spec, Layout::Hybrid);
        // The reverse-convex side routes to the NLP tree automatically.
        let sol = solve_model_with(
            &model.problem,
            SolverBackend::OuterApproximation,
            &MinlpOptions::default(),
        );
        let alloc = model.allocation(&sol);
        let times = layout_predicted_times(&spec, Layout::Hybrid, &alloc);
        out.push(TsyncPoint {
            tsync,
            predicted_total: times.total,
            ice_lnd_gap: (times.ice - times.lnd).abs(),
        });
    };
    run(None);
    for &t in tsync_values {
        run(Some(t));
    }
    out
}

pub fn render_tsync(points: &[TsyncPoint]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "# E12 — T_sync ablation (1°, layout 1)");
    let _ = writeln!(
        s,
        "{:>12} {:>14} {:>16}",
        "tsync(s)", "total(s)", "|T_i - T_l|(s)"
    );
    for p in points {
        let label = p.tsync.map_or("off".to_string(), |t| format!("{t:.1}"));
        let _ = writeln!(
            s,
            "{:>12} {:>14.2} {:>16.2}",
            label, p.predicted_total, p.ice_lnd_gap
        );
    }
    let _ = writeln!(
        s,
        "(paper: the synchronization constraint 'may actually result in reduced\n performance' — totals must be non-decreasing as tsync tightens)"
    );
    s
}

// ---------------------------------------------------------------------------
// E13 — §IV-C advisors: optimal node count / layout recommendation
// ---------------------------------------------------------------------------

pub fn render_advisor(total_sweep_max: u64) -> String {
    use hslb::{recommend_layout, recommend_node_count, NodeGoal};
    use std::fmt::Write;
    let scenario = Scenario::one_degree(total_sweep_max);
    let spec = true_spec(&scenario);
    let mut s = String::new();
    let _ = writeln!(s, "# E13 — §IV-C advisors (1° configuration)");
    let rec = recommend_node_count(
        &spec,
        Layout::Hybrid,
        NodeGoal::CostEfficient {
            efficiency_threshold: 0.7,
        },
        16,
        total_sweep_max,
    );
    let _ = writeln!(s, "doubling sweep (nodes -> optimal total):");
    for p in &rec.sweep {
        let _ = writeln!(s, "  {:>7} -> {:>8.1} s", p.nodes, p.seconds);
    }
    let _ = writeln!(
        s,
        "cost-efficient size (70% efficiency per doubling): {:?} nodes",
        rec.nodes
    );
    let t150 = recommend_node_count(
        &spec,
        Layout::Hybrid,
        NodeGoal::TimeToSolution {
            target_seconds: 150.0,
        },
        16,
        total_sweep_max,
    );
    let _ = writeln!(s, "smallest size under 150 s: {:?} nodes", t150.nodes);
    let _ = writeln!(s, "layout ranking at 256 nodes:");
    let mut spec256 = spec;
    spec256.total_nodes = 256;
    for (layout, total) in recommend_layout(&spec256) {
        let _ = writeln!(s, "  layout {} -> {:.1} s", layout.index(), total);
    }
    s
}

// ---------------------------------------------------------------------------
// E14 — performance-model selection ablation (§III-B "many performance
// models have been developed"; the paper picks the SC'12 form because it
// "describes the scalability of all CESM components except sea ice well")
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct ModelSelectionRow {
    pub component: &'static str,
    /// `(kind, R², max relative error)` for each functional form.
    pub fits: Vec<(hslb_perfmodel::ModelKind, f64, f64)>,
}

/// Fits every [`hslb_perfmodel::ModelKind`] to each component's gathered 1°
/// data and reports the quality, justifying the paper's model choice.
pub fn model_selection(scenario: &Scenario, seed: u64) -> Vec<ModelSelectionRow> {
    use hslb_perfmodel::{fit_kind, ModelKind};
    let mut sim = CesmSimulator::new(scenario.clone(), seed);
    let counts = scenario.benchmark_counts(6);
    let data = hslb::pipeline::gather(&mut sim, &counts);
    (0..4)
        .map(|c| {
            let fits = [ModelKind::Paper, ModelKind::Amdahl, ModelKind::PowerLaw]
                .into_iter()
                .filter_map(|kind| {
                    fit_kind(&data[c], kind)
                        .ok()
                        .map(|r| (kind, r.quality.r_squared, r.quality.max_rel_err))
                })
                .collect();
            ModelSelectionRow {
                component: NAMES[c],
                fits,
            }
        })
        .collect()
}

pub fn render_model_selection(rows: &[ModelSelectionRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# E14 — performance-model selection (1° data, 6 samples)"
    );
    let _ = writeln!(
        s,
        "{:<6} {:<10} {:>10} {:>14}",
        "comp", "model", "R²", "max_rel_err"
    );
    for row in rows {
        for (kind, r2, err) in &row.fits {
            let _ = writeln!(
                s,
                "{:<6} {:<10} {:>10.6} {:>13.2}%",
                row.component,
                format!("{kind:?}"),
                r2,
                err * 100.0
            );
        }
    }
    s
}

// ---------------------------------------------------------------------------
// E11 — layout semantics check
// ---------------------------------------------------------------------------

/// Verifies that simulated coupled execution matches the Table-I closed
/// forms within the day-stepping overhead. Returns `(formula, simulated)`
/// pairs.
pub fn layout_semantics_check(seed: u64) -> Vec<(String, f64, f64)> {
    let scenario = Scenario::one_degree(128);
    let spec = true_spec(&scenario);
    let mut out = Vec::new();
    let allocs = [
        CesmAllocation {
            ice: 80,
            lnd: 24,
            atm: 104,
            ocn: 24,
        },
        CesmAllocation {
            ice: 89,
            lnd: 15,
            atm: 104,
            ocn: 24,
        },
        CesmAllocation {
            ice: 40,
            lnd: 24,
            atm: 64,
            ocn: 64,
        },
    ];
    for alloc in allocs {
        let formula = layout_predicted_times(&spec, Layout::Hybrid, &alloc).total;
        let mut sim = CesmSimulator::new(scenario.clone(), seed);
        let simulated = sim.execute_hybrid(&alloc).total;
        out.push((format!("{alloc:?}"), formula, simulated));
    }
    out
}
