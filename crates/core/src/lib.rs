//! # HSLB — Heuristic Static Load Balancing via MINLP
//!
//! Reproduction of the algorithm of *"Heuristic static load-balancing
//! algorithm applied to the fragment molecular orbital method"* (SC 2012)
//! and its CESM follow-up (IPDPSW 2014). The four-step HSLB method:
//!
//! 1. **Gather** — benchmark every component at a handful of node counts
//!    ([`pipeline::gather`]).
//! 2. **Fit** — estimate the performance function `T_j(n) = a/n^c + b·n + d`
//!    per component by constrained least squares ([`pipeline::fit_all`],
//!    backed by [`hslb_perfmodel`]).
//! 3. **Solve** — formulate node allocation as a convex MINLP and solve it
//!    with branch and bound ([`layouts`], [`flat`], [`solver`], backed by
//!    [`hslb_minlp`]).
//! 4. **Execute** — run the application with the optimal static allocation
//!    ([`pipeline::run_hslb`] against any [`pipeline::Workload`]).
//!
//! Two model families are provided, one per paper:
//!
//! * [`layouts`] — the CESM component-layout models of Table I (IPDPSW'14):
//!   the hybrid layout (1) with `max(max(ice,lnd)+atm, ocn)`, the
//!   sequential-atmosphere-group layout (2), and the fully sequential
//!   layout (3); ocean allowed node counts and atmosphere "sweet spots" as
//!   special-ordered sets; optional `T_sync` coupling.
//! * [`flat`] — the FMO-style flat allocation (SC'12): `K` independent
//!   tasks (fragments/GDDI groups) sharing `N` nodes, under the objectives
//!   of Eqs. (1)–(3): min–max, max–min, min–sum.
//!
//! # Example
//!
//! Allocate 12 nodes to two tasks with a 3:1 work ratio (the optimum splits
//! them 9:3, equalizing the times at 100/3 s):
//!
//! ```
//! use hslb::{build_flat_model, solve_model, ComponentSpec, FlatSpec, Objective, SolverBackend};
//! use hslb_perfmodel::PerfModel;
//!
//! let spec = FlatSpec {
//!     components: vec![
//!         ComponentSpec::new("big", PerfModel::amdahl(300.0, 0.0), 1, 12),
//!         ComponentSpec::new("small", PerfModel::amdahl(100.0, 0.0), 1, 12),
//!     ],
//!     total_nodes: 12,
//!     objective: Objective::MinMax,
//! };
//! let model = build_flat_model(&spec);
//! let solution = solve_model(&model.problem, SolverBackend::OuterApproximation);
//! let alloc = model.allocation(&spec, &solution);
//! assert_eq!(alloc.nodes, vec![9, 3]);
//! assert!((alloc.makespan() - 100.0 / 3.0).abs() < 1e-4);
//! ```

pub mod advisor;
pub mod exact;
pub mod flat;
pub mod jsonio;
pub mod layouts;
pub mod pipeline;
pub mod report;
pub mod solver;
pub mod spec;

pub use advisor::{
    component_swap_effect, recommend_layout, recommend_node_count, NodeGoal, NodeRecommendation,
};
pub use exact::{certify_flat, certify_layout, layout1_oracle, layout_optimum};
pub use flat::{
    build_flat_model, solve_minmax_waterfill, FlatAllocation, FlatModel, FlatSpec, Objective,
};
pub use layouts::{
    build_layout_model, build_layout_model_with_minor, layout_predicted_times,
    layout_predicted_times_with_minor, CesmAllocation, CesmModelSpec, Layout, LayoutModel,
    LayoutTimes, MinorComponents,
};
pub use pipeline::{fit_all, gather, run_hslb, ExecutionReport, HslbOutcome, Workload};
pub use report::AllocationReport;
pub use solver::{solve_model, solve_model_with, SolverBackend};
pub use spec::{AllowedNodes, ComponentSpec};
