//! The four-step HSLB pipeline (§III-F of the paper).

use crate::layouts::{
    build_layout_model, layout_predicted_times, CesmAllocation, CesmModelSpec, Layout, LayoutTimes,
};
use crate::solver::{solve_model_with, SolverBackend};
use crate::spec::{AllowedNodes, ComponentSpec};
use hslb_minlp::{MinlpOptions, MinlpSolution, MinlpStatus};
use hslb_perfmodel::{fit, FitReport, ScalingData};

/// Per-component and total wall-clock of an executed (simulated) run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    pub ice: f64,
    pub lnd: f64,
    pub atm: f64,
    pub ocn: f64,
    pub total: f64,
}

/// Anything HSLB can drive: benchmarkable components plus a coupled run.
///
/// The CESM and FMO simulators implement this; on a real machine the impl
/// would submit jobs and parse timing logs.
pub trait Workload {
    /// Names of the four CESM-modeled components is fixed; this reports the
    /// machine's total node budget.
    fn total_nodes(&self) -> u64;

    /// Benchmarks one component on `nodes` nodes for the standard (5-day)
    /// run, returning seconds. Component index order: ice, lnd, atm, ocn.
    fn benchmark(&mut self, component: usize, nodes: u64) -> f64;

    /// Admissible node counts per component (index order as above).
    fn allowed(&self, component: usize) -> AllowedNodes;

    /// Executes a full coupled run under the given layout with the
    /// allocation.
    fn execute(&mut self, layout: Layout, alloc: &CesmAllocation) -> ExecutionReport;
}

/// Step 1 — Gather: benchmark each component at the given node counts.
///
/// `node_counts[c]` lists the sample points for component `c` (ice, lnd,
/// atm, ocn). Counts outside the component's allowed domain are snapped to
/// the nearest admissible value.
pub fn gather<W: Workload>(workload: &mut W, node_counts: &[Vec<u64>; 4]) -> [ScalingData; 4] {
    std::array::from_fn(|c| {
        let allowed = workload.allowed(c);
        let mut data = ScalingData::new();
        for &n in &node_counts[c] {
            let n = snap(&allowed, n);
            data.push(n, workload.benchmark(c, n));
        }
        data
    })
}

fn snap(allowed: &AllowedNodes, n: u64) -> u64 {
    match allowed {
        AllowedNodes::Range { min, max } => n.clamp(*min as u64, *max as u64),
        AllowedNodes::Set(vals) => {
            let target = n as i64;
            *vals
                .iter()
                .min_by_key(|&&v| (v - target).abs())
                .expect("allowed sets are non-empty") as u64
        }
    }
}

/// Step 2 — Fit: least-squares fit of the paper model per component.
pub fn fit_all(data: &[ScalingData; 4]) -> Result<[FitReport; 4], hslb_perfmodel::FitError> {
    let mut out = Vec::with_capacity(4);
    for d in data {
        out.push(fit(d)?);
    }
    Ok(out.try_into().expect("exactly four components"))
}

/// Outcome of a full HSLB run.
#[derive(Debug, Clone)]
pub struct HslbOutcome {
    /// Fit reports in ice, lnd, atm, ocn order.
    pub fits: [FitReport; 4],
    /// The model handed to the solver.
    pub spec: CesmModelSpec,
    /// Raw solver result.
    pub solution: MinlpSolution,
    /// Chosen allocation.
    pub allocation: CesmAllocation,
    /// HSLB *predicted* times (from the fitted models).
    pub predicted: LayoutTimes,
    /// *Actual* times from re-running the workload with the allocation.
    pub actual: ExecutionReport,
}

impl HslbOutcome {
    /// Deterministic work counters for the whole pipeline: the solver's
    /// [`hslb_minlp::SolveStats`] plus the profile evaluations spent
    /// fitting the four component models in step 2 (in `lm_steps`).
    pub fn stats(&self) -> hslb_minlp::SolveStats {
        let mut stats = self.solution.stats;
        stats.lm_steps += self.fits.iter().map(|f| f.lm_steps as u64).sum::<u64>();
        stats
    }
}

/// Errors from the pipeline.
#[derive(Debug, Clone)]
pub enum HslbError {
    Fit(hslb_perfmodel::FitError),
    /// The MINLP had no feasible allocation.
    Infeasible,
}

impl std::fmt::Display for HslbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HslbError::Fit(e) => write!(f, "fit step failed: {e}"),
            HslbError::Infeasible => write!(f, "no feasible node allocation exists"),
        }
    }
}

impl std::error::Error for HslbError {}

/// Runs the full four-step HSLB pipeline on a workload.
///
/// * `node_counts` — benchmark sample points per component (step 1); use
///   [`ScalingData::suggest_node_counts`] for the paper's guidance.
/// * `layout` — which Table I model to solve (step 3).
/// * `backend`/`opts` — solver configuration.
pub fn run_hslb<W: Workload>(
    workload: &mut W,
    node_counts: &[Vec<u64>; 4],
    layout: Layout,
    backend: SolverBackend,
    opts: &MinlpOptions,
) -> Result<HslbOutcome, HslbError> {
    // 1. Gather.
    let data = gather(workload, node_counts);
    // 2. Fit.
    let fits = fit_all(&data).map_err(HslbError::Fit)?;
    // 3. Solve.
    let names = ["ice", "lnd", "atm", "ocn"];
    let mut comps = Vec::with_capacity(4);
    for (c, fit) in fits.iter().enumerate() {
        comps.push(ComponentSpec {
            name: names[c].to_string(),
            model: fit.model,
            allowed: workload.allowed(c),
        });
    }
    let [ice, lnd, atm, ocn]: [ComponentSpec; 4] =
        comps.try_into().expect("exactly four components");
    let spec = CesmModelSpec {
        ice,
        lnd,
        atm,
        ocn,
        total_nodes: workload.total_nodes() as i64,
        tsync: None,
    };
    let model = build_layout_model(&spec, layout);
    let solution = solve_model_with(&model.problem, backend, opts);
    if solution.status == MinlpStatus::Infeasible || solution.x.is_empty() {
        return Err(HslbError::Infeasible);
    }
    let allocation = model.allocation(&solution);
    let predicted = layout_predicted_times(&spec, layout, &allocation);
    // 4. Execute.
    let actual = workload.execute(layout, &allocation);
    Ok(HslbOutcome {
        fits,
        spec,
        solution,
        allocation,
        predicted,
        actual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_perfmodel::PerfModel;

    /// An analytic workload: exact Amdahl components, no noise.
    struct Analytic {
        models: [PerfModel; 4],
        total: u64,
        benchmarks_run: usize,
    }

    impl Analytic {
        fn new(total: u64) -> Self {
            Analytic {
                models: [
                    PerfModel::amdahl(7774.0, 11.8),  // ice
                    PerfModel::amdahl(1495.0, 1.5),   // lnd
                    PerfModel::amdahl(27180.0, 44.0), // atm
                    PerfModel::amdahl(7754.0, 41.8),  // ocn
                ],
                total,
                benchmarks_run: 0,
            }
        }
    }

    impl Workload for Analytic {
        fn total_nodes(&self) -> u64 {
            self.total
        }

        fn benchmark(&mut self, component: usize, nodes: u64) -> f64 {
            self.benchmarks_run += 1;
            self.models[component].eval(nodes as f64)
        }

        fn allowed(&self, _component: usize) -> AllowedNodes {
            AllowedNodes::Range {
                min: 1,
                max: self.total as i64,
            }
        }

        fn execute(&mut self, layout: Layout, alloc: &CesmAllocation) -> ExecutionReport {
            let ice = self.models[0].eval(alloc.ice as f64);
            let lnd = self.models[1].eval(alloc.lnd as f64);
            let atm = self.models[2].eval(alloc.atm as f64);
            let ocn = self.models[3].eval(alloc.ocn as f64);
            let total = match layout {
                Layout::Hybrid => (ice.max(lnd) + atm).max(ocn),
                Layout::SequentialAtmGroup => (ice + lnd + atm).max(ocn),
                Layout::FullySequential => ice + lnd + atm + ocn,
            };
            ExecutionReport {
                ice,
                lnd,
                atm,
                ocn,
                total,
            }
        }
    }

    #[test]
    fn full_pipeline_on_analytic_workload() {
        let mut w = Analytic::new(128);
        let samples = ScalingData::suggest_node_counts(4, 120, 5);
        let counts = [samples.clone(), samples.clone(), samples.clone(), samples];
        let out = run_hslb(
            &mut w,
            &counts,
            Layout::Hybrid,
            SolverBackend::default(),
            &MinlpOptions::default(),
        )
        .unwrap();

        // 4 components x 5 samples.
        assert_eq!(w.benchmarks_run, 20);
        // Fits on noiseless Amdahl data must be excellent.
        for f in &out.fits {
            assert!(f.quality.r_squared > 0.999, "{:?}", f.quality);
        }
        // Prediction must match actual execution closely (same models).
        assert!(
            (out.predicted.total - out.actual.total).abs() / out.actual.total < 0.02,
            "predicted {} vs actual {}",
            out.predicted.total,
            out.actual.total
        );
        // The allocation keeps the layout's rows and is the exact optimum
        // of the fitted model.
        crate::exact::certify_layout(&out.spec, Layout::Hybrid, &out.allocation).unwrap();
        // Work counters cover both the fit step and the tree search.
        let stats = out.stats();
        assert!(stats.nodes_opened > 0);
        assert!(stats.lm_steps > 0, "fit work must be counted");
        assert!(stats.lm_steps > out.solution.stats.lm_steps);
    }

    #[test]
    fn gather_snaps_to_allowed_sets() {
        struct SetWorkload(Analytic);
        impl Workload for SetWorkload {
            fn total_nodes(&self) -> u64 {
                self.0.total
            }
            fn benchmark(&mut self, c: usize, n: u64) -> f64 {
                self.0.benchmark(c, n)
            }
            fn allowed(&self, component: usize) -> AllowedNodes {
                if component == 3 {
                    AllowedNodes::set([2, 4, 8, 16, 32, 64])
                } else {
                    AllowedNodes::Range { min: 1, max: 128 }
                }
            }
            fn execute(&mut self, layout: Layout, alloc: &CesmAllocation) -> ExecutionReport {
                self.0.execute(layout, alloc)
            }
        }
        let mut w = SetWorkload(Analytic::new(128));
        let counts = [vec![4, 100], vec![4, 100], vec![4, 100], vec![5, 100]];
        let data = gather(&mut w, &counts);
        // Ocean samples snapped into the set.
        let ocean_ns: Vec<u64> = data[3].points().iter().map(|&(n, _)| n).collect();
        assert_eq!(ocean_ns, vec![4, 64]);
    }
}
