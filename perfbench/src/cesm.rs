//! `cesm_pipeline`: the paper's four steps (gather → fit → solve → execute)
//! through `hslb::pipeline::run_hslb`, one scenario at a time, with the OA
//! backend `hslb-cli` uses.

use std::time::Instant;

use hslb::{
    build_layout_model, fit_all, gather, layout1_oracle, layout_predicted_times, run_hslb,
    solve_model_with, CesmAllocation, CesmModelSpec, ComponentSpec, HslbOutcome, Layout,
    SolverBackend, Workload,
};
use hslb_cesm_sim::{CesmSimulator, Scenario};
use hslb_minlp::{MinlpOptions, MinlpStatus, SolveStats};
use hslb_perfmodel::PerfModel;
use hslb_rng::{hash_mix, Rng};

use crate::bench::{median, ratio, Outcome};
use crate::pool::PoolWorkload;
use crate::trace::Tracer;

/// Benchmark samples per component in the gather step (as the examples use).
const SAMPLES: usize = 5;
/// Layout 1 answers may exceed the exact oracle by this factor.
const ORACLE_SLACK: f64 = 1.001;
/// How much worse than the second backend an answer on layouts 2 and 3 may
/// be: each backend stops within a 1e-6 relative gap of the optimum.
const BACKEND_REL_TOL: f64 = 2e-6;

/// Seeded instances per stratum (family × size × layout).
const REPLICAS: usize = 32;
/// Scenario families and the job sizes each is run at. The OA solve on
/// fitted models has a rare runaway tail beyond these sizes (at 1° from
/// 1,024 nodes and at ⅛° from 16,384, one instance in 60 to 400 takes
/// hundreds of B&B nodes; one took 4,073 nodes and 35 s where NLP-B&B needs
/// 3 nodes), and a single such instance would set a run's percentiles.
const STRATA: [(&str, &[u64]); 3] = [
    ("1deg", &[128, 256, 512]),
    ("8th", &[8192]),
    ("8th_free_ocn", &[8192]),
];
/// The §III-E instance (E7): the true 1° models on the full machine.
const E7_NODES: u64 = 40_960;

pub struct Entry {
    label: String,
    scenario: Scenario,
    layout: Layout,
    noise_seed: u64,
    counts: [Vec<u64>; 4],
}

/// The parts of an [`HslbOutcome`] the checks need; the fitted spec is
/// rebuilt from the scenario's allowed sets when checking.
pub struct Answer {
    allocation: CesmAllocation,
    objective: f64,
    predicted_total: f64,
    models: [PerfModel; 4],
    total_nodes: i64,
    stats: SolveStats,
    lm_steps: u64,
}

impl Answer {
    fn new(outcome: HslbOutcome) -> Answer {
        Answer {
            allocation: outcome.allocation,
            objective: outcome.solution.objective,
            predicted_total: outcome.predicted.total,
            models: std::array::from_fn(|c| outcome.fits[c].model),
            total_nodes: outcome.spec.total_nodes,
            stats: outcome.stats(),
            lm_steps: outcome.fits.iter().map(|f| f.lm_steps as u64).sum(),
        }
    }
}

pub struct CesmPipeline;

/// The model spec HSLB hands the solver for `models` on `scenario`.
fn fitted_spec(scenario: &Scenario, models: &[PerfModel; 4], total_nodes: i64) -> CesmModelSpec {
    let names = ["ice", "lnd", "atm", "ocn"];
    let [ice, lnd, atm, ocn] = std::array::from_fn(|c| ComponentSpec {
        name: names[c].to_string(),
        model: models[c],
        allowed: scenario.allowed(c),
    });
    CesmModelSpec {
        ice,
        lnd,
        atm,
        ocn,
        total_nodes,
        tsync: None,
    }
}

fn scenario(family: &str, nodes: u64) -> Scenario {
    match family {
        "1deg" => Scenario::one_degree(nodes),
        "8th" => Scenario::eighth_degree(nodes),
        _ => Scenario::eighth_degree_unconstrained(nodes),
    }
}

fn opts() -> MinlpOptions {
    MinlpOptions::default()
}

/// Layout constraints of Table I plus each component's allowed set.
fn feasible(entry: &Entry, a: &CesmAllocation, total: i64) -> Result<(), String> {
    let n = [a.ice, a.lnd, a.atm, a.ocn].map(|v| v as i64);
    for (c, &v) in n.iter().enumerate() {
        if !entry.scenario.allowed(c).contains(v) {
            return Err(format!(
                "component {c} got {v} nodes, outside its allowed set"
            ));
        }
    }
    let [ice, lnd, atm, ocn] = n;
    let ok = match entry.layout {
        Layout::Hybrid => ice + lnd <= atm && atm + ocn <= total,
        Layout::SequentialAtmGroup => ice.max(lnd).max(atm) + ocn <= total,
        Layout::FullySequential => ice.max(lnd).max(atm).max(ocn) <= total,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "allocation {a:?} breaks layout {} on {total} nodes",
            entry.layout.index()
        ))
    }
}

impl PoolWorkload for CesmPipeline {
    type Entry = Entry;
    type Answer = Answer;

    fn pool(&self, seed: u64) -> Vec<Entry> {
        let mut rng = Rng::new(hash_mix(&[seed, 0xCE5A]));
        let mut pool = Vec::new();
        for _ in 0..REPLICAS {
            for (family, sizes) in STRATA {
                for &base in sizes {
                    for layout in Layout::ALL {
                        // ±5% job-size jitter, kept even.
                        let nodes =
                            (base as f64 * rng.f64_range(0.95, 1.05) / 2.0).round() as u64 * 2;
                        let scenario = scenario(family, nodes);
                        let counts = scenario.benchmark_counts(SAMPLES);
                        let noise_seed = rng.next_u64();
                        pool.push(Entry {
                            label: format!(
                                "{family}/{nodes}/layout{}/{noise_seed:016x}",
                                layout.index()
                            ),
                            scenario,
                            layout,
                            noise_seed,
                            counts,
                        });
                    }
                }
            }
        }
        pool
    }

    /// One scenario per stratum at its base size, with a fixed noise seed:
    /// every layout and resolution the pool draws from.
    fn warm_up_entries(&self) -> Vec<Entry> {
        let mut entries = Vec::new();
        for (family, sizes) in STRATA {
            for &nodes in sizes {
                for layout in Layout::ALL {
                    let scenario = scenario(family, nodes);
                    entries.push(Entry {
                        label: format!("warm-up/{family}/{nodes}/layout{}", layout.index()),
                        counts: scenario.benchmark_counts(SAMPLES),
                        scenario,
                        layout,
                        noise_seed: 0,
                    });
                }
            }
        }
        entries
    }

    fn label(&self, entry: &Entry) -> String {
        entry.label.clone()
    }

    fn allocate(&self, entry: &Entry, tracer: &mut Tracer) -> Result<Answer, String> {
        let mut sim = CesmSimulator::new(entry.scenario.clone(), entry.noise_seed);
        if !tracer.on() {
            return run_hslb(
                &mut sim,
                &entry.counts,
                entry.layout,
                SolverBackend::OuterApproximation,
                &opts(),
            )
            .map(Answer::new)
            .map_err(|e| e.to_string());
        }
        // The same four steps as `run_hslb`, one span per layer call.
        let data = tracer.span("core.gather", |_| gather(&mut sim, &entry.counts));
        let fits = tracer
            .span("perfmodel.fit", |_| fit_all(&data))
            .map_err(|e| format!("fit step failed: {e}"))?;
        let (spec, model) = tracer.span("core.build", |_| {
            let models = std::array::from_fn(|c| fits[c].model);
            let spec = fitted_spec(&sim.scenario, &models, sim.total_nodes() as i64);
            let model = build_layout_model(&spec, entry.layout);
            (spec, model)
        });
        let solution = tracer.span("minlp.solve", |_| {
            solve_model_with(&model.problem, SolverBackend::OuterApproximation, &opts())
        });
        if solution.status == MinlpStatus::Infeasible || solution.x.is_empty() {
            return Err("no feasible node allocation exists".to_string());
        }
        let allocation = model.allocation(&solution);
        let predicted = layout_predicted_times(&spec, entry.layout, &allocation);
        let actual = tracer.span("cesm_sim.execute", |_| {
            sim.execute(entry.layout, &allocation)
        });
        Ok(Answer::new(HslbOutcome {
            fits,
            spec,
            solution,
            allocation,
            predicted,
            actual,
        }))
    }

    fn same(&self, a: &Answer, b: &Answer) -> bool {
        a.allocation == b.allocation
            && a.objective.to_bits() == b.objective.to_bits()
            && a.stats == b.stats
    }

    fn stats(&self, answer: &Answer) -> SolveStats {
        answer.stats
    }

    fn check(&self, entry: &Entry, answer: &Answer) -> Result<f64, String> {
        let spec = &fitted_spec(&entry.scenario, &answer.models, answer.total_nodes);
        feasible(entry, &answer.allocation, spec.total_nodes)?;
        if entry.layout == Layout::Hybrid {
            if let Some((_, oracle_t)) = layout1_oracle(spec) {
                let got = answer.predicted_total;
                if got > oracle_t * ORACLE_SLACK {
                    return Err(format!("layout 1 total {got} above oracle {oracle_t}"));
                }
                return Ok(got / oracle_t);
            }
        }
        // Layouts 2 and 3 (and layout 1 when a fitted model is not
        // monotone, where the oracle does not apply): a second backend.
        // Both totals are recomputed from the allocations, and the answer
        // may not be worse than the reference's.
        let model = build_layout_model(spec, entry.layout);
        let reference = solve_model_with(&model.problem, SolverBackend::NlpBnb, &opts());
        if reference.status != MinlpStatus::Optimal {
            return Err(format!("reference solve ended {:?}", reference.status));
        }
        let want = layout_predicted_times(spec, entry.layout, &model.allocation(&reference)).total;
        let got = answer.predicted_total;
        if got > want * (1.0 + BACKEND_REL_TOL) {
            return Err(format!("total {got} worse than nlp-bnb's {want}"));
        }
        Ok(got / want)
    }

    /// LM work of the fit, and `ParallelBnb` at 1 thread over 2 threads on
    /// E7 (median of three each): the scaling-efficiency baseline, below 1
    /// when the second thread slows the tree down.
    fn extra_layers(&self, out: &mut Outcome, traced: &[&Answer], self_ms: &dyn Fn(&str) -> f64) {
        let scenario = Scenario::one_degree(E7_NODES);
        let spec = fitted_spec(&scenario, &scenario.truth.models, E7_NODES as i64);
        let e7 = build_layout_model(&spec, Layout::Hybrid);
        let time = |threads: usize| {
            let opts = MinlpOptions { threads, ..opts() };
            let start = Instant::now();
            let sol = solve_model_with(&e7.problem, SolverBackend::ParallelBnb, &opts);
            std::hint::black_box(sol.objective);
            start.elapsed().as_secs_f64()
        };
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            t1.push(time(1));
            t2.push(time(2));
        }
        out.layer(
            "minlp.parallel_speedup_t2",
            ratio(median(&t1), median(&t2)),
            t1.len(),
        );

        let lm: u64 = traced.iter().map(|a| a.lm_steps).sum();
        let n = traced.len();
        out.layer("lsq.lm_steps", ratio(lm as f64, n as f64), n);
        out.layer(
            "lsq.us_per_lm_step",
            ratio(self_ms("perfmodel.fit") * 1e3, lm as f64),
            n,
        );
    }
}
