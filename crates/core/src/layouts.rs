//! The CESM component-layout models of Table I (IPDPSW'14).
//!
//! CESM couples four modeled components — sea ice (`ice`), land (`lnd`),
//! atmosphere (`atm`), ocean (`ocn`); runoff/land-ice/coupler are excluded
//! as in the paper — under three popular processor layouts (Figure 1):
//!
//! 1. **Hybrid** (the production layout): ice and land run concurrently,
//!    then the atmosphere runs sequentially on their combined processors,
//!    while the ocean runs concurrently on its own partition.
//!    `T = max(max(T_i, T_l) + T_a, T_o)`, with `n_i + n_l <= n_a` and
//!    `n_a + n_o <= N`.
//! 2. **Sequential atmosphere group**: ice, land, atmosphere run one after
//!    another on one group; ocean concurrently on the rest.
//!    `T = max(T_i + T_l + T_a, T_o)`, with `n_j <= N - n_o`.
//! 3. **Fully sequential**: every component uses all processors in turn.
//!    `T = T_i + T_l + T_a + T_o`, `n_j <= N`.
//!
//! Each layout is expressed as a convex MINLP in epigraph form exactly as in
//! Table I (lines 13–31) and handed to the [`crate::solver`] backends.

use crate::spec::ComponentSpec;
use hslb_minlp::{MinlpProblem, MinlpSolution};
use hslb_nlp::ConstraintFn;

/// Which Figure-1 layout to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Layout (1): hybrid sequential/concurrent (the paper's focus).
    Hybrid,
    /// Layout (2): ice+lnd+atm sequential vs. ocean concurrent.
    SequentialAtmGroup,
    /// Layout (3): everything sequential on all processors.
    FullySequential,
}

impl Layout {
    /// All three layouts, in paper order.
    pub const ALL: [Layout; 3] = [
        Layout::Hybrid,
        Layout::SequentialAtmGroup,
        Layout::FullySequential,
    ];

    /// Paper's figure index (1-based).
    pub fn index(&self) -> usize {
        match self {
            Layout::Hybrid => 1,
            Layout::SequentialAtmGroup => 2,
            Layout::FullySequential => 3,
        }
    }
}

/// Full specification of a CESM allocation problem.
#[derive(Debug, Clone)]
pub struct CesmModelSpec {
    pub ice: ComponentSpec,
    pub lnd: ComponentSpec,
    pub atm: ComponentSpec,
    pub ocn: ComponentSpec,
    /// Total nodes available (`N` in Table I line 4).
    pub total_nodes: i64,
    /// Optional ice/land synchronization tolerance (`T_sync`, Table I line
    /// 9 and lines 18–19). `None` disables the pair — the paper notes the
    /// constraint "may actually result in reduced performance".
    pub tsync: Option<f64>,
}

/// Node allocation for the four modeled components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CesmAllocation {
    pub ice: u64,
    pub lnd: u64,
    pub atm: u64,
    pub ocn: u64,
}

impl CesmAllocation {
    /// Component values in paper table order (lnd, ice, atm, ocn).
    pub fn in_table_order(&self) -> [(&'static str, u64); 4] {
        [
            ("lnd", self.lnd),
            ("ice", self.ice),
            ("atm", self.atm),
            ("ocn", self.ocn),
        ]
    }
}

/// Predicted per-component and total times for an allocation under a layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutTimes {
    pub ice: f64,
    pub lnd: f64,
    pub atm: f64,
    pub ocn: f64,
    pub total: f64,
}

/// The two minor components the paper excludes from the main models but
/// notes "can be added later for fine tuning the work load balance" (§II):
/// the river transport model runs on the land processors, the coupler on
/// the atmosphere processors, so they add time terms without adding
/// decision variables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinorComponents {
    /// River transport model (RTM), sharing `n_lnd`.
    pub rtm: hslb_perfmodel::PerfModel,
    /// Coupler (CPL7), sharing `n_atm`.
    pub cpl: hslb_perfmodel::PerfModel,
}

/// A built MINLP together with its variable indices.
#[derive(Debug, Clone)]
pub struct LayoutModel {
    pub problem: MinlpProblem,
    pub layout: Layout,
    /// Variable indices: `[ice, lnd, atm, ocn]` node counts.
    pub node_vars: [usize; 4],
    /// Epigraph variable for the total time `T`.
    pub t_var: usize,
    /// Epigraph variable for `T_icelnd` (layout 1 only).
    pub ticelnd_var: Option<usize>,
}

impl LayoutModel {
    /// Extracts the (rounded) allocation from a solver solution.
    ///
    /// # Panics
    /// Panics if the solution is empty (infeasible solve).
    pub fn allocation(&self, sol: &MinlpSolution) -> CesmAllocation {
        assert!(
            !sol.x.is_empty(),
            "cannot extract an allocation from an infeasible solve"
        );
        let get = |j: usize| sol.x[self.node_vars[j]].round().max(1.0) as u64;
        CesmAllocation {
            ice: get(0),
            lnd: get(1),
            atm: get(2),
            ocn: get(3),
        }
    }
}

/// Builds the Table-I MINLP for a layout.
///
/// The epigraph variable `T` carries the objective (min–max of Eq. (1), as
/// used in the paper); every nonlinear constraint is convex because the
/// fitted parameters are nonnegative (§III-E).
pub fn build_layout_model(spec: &CesmModelSpec, layout: Layout) -> LayoutModel {
    build_layout_model_with_minor(spec, layout, None)
}

/// [`build_layout_model`] including the fine-tuning minor components:
/// RTM's time is added wherever the land time appears, CPL7's wherever the
/// atmosphere time appears (same node variables — §II's processor sharing).
pub fn build_layout_model_with_minor(
    spec: &CesmModelSpec,
    layout: Layout,
    minor: Option<&MinorComponents>,
) -> LayoutModel {
    let n_total = spec.total_nodes;
    assert!(n_total >= 4, "need at least one node per component");
    let mut p = MinlpProblem::new();

    // Decision variables: node counts (Table I line 10), clamped to N.
    let comps = [&spec.ice, &spec.lnd, &spec.atm, &spec.ocn];
    let mut node_vars = [0usize; 4];
    for (k, comp) in comps.iter().enumerate() {
        node_vars[k] = clamp_domain(comp, n_total).add_var(&mut p, 0.0);
    }
    let [ni, nl, na, no] = node_vars;

    // A generous upper bound on T: everything on its minimum node count.
    let t_cap = comps
        .iter()
        .map(|c| c.model.eval(c.allowed.hull().0 as f64))
        .sum::<f64>()
        * 4.0
        + 1e3;
    let t = p.add_var(1.0, 0.0, t_cap);

    // Helper: constraint  Σ T_x(n_x) + Σ lin - t_target <= -consts …
    let perf = |var: usize, comp: &ComponentSpec| (var, comp.model.to_scalar_fn(), comp.model.d);
    // Minor components fold extra time terms into their host component
    // (RTM onto land's nodes, CPL7 onto the atmosphere's).
    let fold_minor = |base: (usize, hslb_nlp::ScalarFn, f64),
                      extra: Option<&hslb_perfmodel::PerfModel>| {
        match extra {
            Some(m) => {
                let (v, mut f, d) = base;
                for t in m.to_scalar_fn().terms() {
                    f.push(*t);
                }
                (v, f, d + m.d)
            }
            None => base,
        }
    };
    let rtm = minor.map(|m| &m.rtm);
    let cpl = minor.map(|m| &m.cpl);

    let mut ticelnd_var = None;
    match layout {
        Layout::Hybrid => {
            // Table I lines 8, 14–21.
            let ticelnd = p.add_var(0.0, 0.0, t_cap);
            ticelnd_var = Some(ticelnd);
            // T_icelnd >= T_i(n_i), T_icelnd >= T_l(n_l) (+ T_rtm(n_l))
            for (base, extra, tag) in [
                (perf(ni, &spec.ice), None, "ice"),
                (perf(nl, &spec.lnd), rtm, "lnd"),
            ] {
                let (v, f, d) = fold_minor(base, extra);
                p.add_constraint(
                    ConstraintFn::new(format!("ticelnd_ge_{tag}"))
                        .nonlinear_term(v, f)
                        .linear_term(ticelnd, -1.0)
                        .with_constant(d),
                );
            }
            // T >= T_icelnd + T_a(n_a) (+ T_cpl(n_a))
            let (v, f, d) = fold_minor(perf(na, &spec.atm), cpl);
            p.add_constraint(
                ConstraintFn::new("t_ge_icelnd_plus_atm")
                    .nonlinear_term(v, f)
                    .linear_term(ticelnd, 1.0)
                    .linear_term(t, -1.0)
                    .with_constant(d),
            );
            // T >= T_o(n_o)
            let (v, f, d) = perf(no, &spec.ocn);
            p.add_constraint(
                ConstraintFn::new("t_ge_ocn")
                    .nonlinear_term(v, f)
                    .linear_term(t, -1.0)
                    .with_constant(d),
            );
            // Optional T_sync pair (lines 18–19). The reverse side is a
            // nonconvex (reverse-convex) constraint; see `exact` tests.
            if let Some(tsync) = spec.tsync {
                let (iv, ifn, id) = perf(ni, &spec.ice);
                let (lv, lfn, ld) = perf(nl, &spec.lnd);
                // T_l(n_l) - T_i(n_i) <= T_sync
                p.add_constraint(
                    ConstraintFn::new("tsync_upper")
                        .nonlinear_term(lv, lfn.clone())
                        .nonlinear_term(iv, negate(&ifn))
                        .with_constant(ld - id - tsync),
                );
                // T_i(n_i) - T_l(n_l) <= T_sync
                p.add_constraint(
                    ConstraintFn::new("tsync_lower")
                        .nonlinear_term(iv, ifn)
                        .nonlinear_term(lv, negate(&lfn))
                        .with_constant(id - ld - tsync),
                );
            }
            // n_a + n_o <= N (line 20); n_i + n_l <= n_a (line 21).
            p.add_constraint(
                ConstraintFn::new("atm_plus_ocn_cap")
                    .linear_term(na, 1.0)
                    .linear_term(no, 1.0)
                    .with_constant(-(n_total as f64)),
            );
            p.add_constraint(
                ConstraintFn::new("icelnd_within_atm")
                    .linear_term(ni, 1.0)
                    .linear_term(nl, 1.0)
                    .linear_term(na, -1.0),
            );
        }
        Layout::SequentialAtmGroup => {
            // Table I lines 22–25: T >= T_i + T_l + T_a; T >= T_o;
            // n_{i,l,a} <= N - n_o.
            let mut seq = ConstraintFn::new("t_ge_ice_lnd_atm").linear_term(t, -1.0);
            let mut dsum = 0.0;
            for (base, extra) in [
                (perf(ni, &spec.ice), None),
                (perf(nl, &spec.lnd), rtm),
                (perf(na, &spec.atm), cpl),
            ] {
                let (v, f, d) = fold_minor(base, extra);
                seq = seq.nonlinear_term(v, f);
                dsum += d;
            }
            p.add_constraint(seq.with_constant(dsum));
            let (v, f, d) = perf(no, &spec.ocn);
            p.add_constraint(
                ConstraintFn::new("t_ge_ocn")
                    .nonlinear_term(v, f)
                    .linear_term(t, -1.0)
                    .with_constant(d),
            );
            for (var, tag) in [(ni, "ice"), (nl, "lnd"), (na, "atm")] {
                p.add_constraint(
                    ConstraintFn::new(format!("{tag}_within_group"))
                        .linear_term(var, 1.0)
                        .linear_term(no, 1.0)
                        .with_constant(-(n_total as f64)),
                );
            }
        }
        Layout::FullySequential => {
            // Table I lines 26–28: T >= Σ T_j; n_j <= N (bounds already).
            let mut seq = ConstraintFn::new("t_ge_sum").linear_term(t, -1.0);
            let mut dsum = 0.0;
            for (base, extra) in [
                (perf(ni, &spec.ice), None),
                (perf(nl, &spec.lnd), rtm),
                (perf(na, &spec.atm), cpl),
                (perf(no, &spec.ocn), None),
            ] {
                let (v, f, d) = fold_minor(base, extra);
                seq = seq.nonlinear_term(v, f);
                dsum += d;
            }
            p.add_constraint(seq.with_constant(dsum));
        }
    }

    LayoutModel {
        problem: p,
        layout,
        node_vars,
        t_var: t,
        ticelnd_var,
    }
}

/// Clamp a component's allowed domain to the machine size.
fn clamp_domain(comp: &ComponentSpec, n_total: i64) -> crate::spec::AllowedNodes {
    use crate::spec::AllowedNodes;
    match &comp.allowed {
        AllowedNodes::Range { min, max } => AllowedNodes::Range {
            min: *min,
            max: (*max).min(n_total),
        },
        AllowedNodes::Set(vals) => {
            let clamped: Vec<i64> = vals.iter().copied().filter(|&v| v <= n_total).collect();
            if clamped.is_empty() {
                // Keep the smallest value so the model is well-formed; the
                // capacity rows will then prove infeasibility honestly.
                AllowedNodes::Set(vec![vals[0]])
            } else {
                AllowedNodes::Set(clamped)
            }
        }
    }
}

/// Negated copy of a scalar function (for the nonconvex `T_sync` side).
fn negate(f: &hslb_nlp::ScalarFn) -> hslb_nlp::ScalarFn {
    use hslb_nlp::Term;
    let mut out = hslb_nlp::ScalarFn::new();
    for t in f.terms() {
        out.push(match *t {
            Term::PowerDecay { a, c } => Term::PowerDecay { a: -a, c },
            Term::PowerGrowth { b, c } => Term::PowerGrowth { b: -b, c },
            Term::Linear { k } => Term::Linear { k: -k },
        });
    }
    out
}

/// Predicted per-component and total time of an allocation under a layout —
/// the closed forms of Table I line 13 / 22 / 26.
pub fn layout_predicted_times(
    spec: &CesmModelSpec,
    layout: Layout,
    alloc: &CesmAllocation,
) -> LayoutTimes {
    layout_predicted_times_with_minor(spec, layout, alloc, None)
}

/// [`layout_predicted_times`] with the minor components folded into their
/// host components (land and atmosphere respectively).
pub fn layout_predicted_times_with_minor(
    spec: &CesmModelSpec,
    layout: Layout,
    alloc: &CesmAllocation,
    minor: Option<&MinorComponents>,
) -> LayoutTimes {
    let ti = spec.ice.predict(alloc.ice);
    let tl = spec.lnd.predict(alloc.lnd) + minor.map_or(0.0, |m| m.rtm.eval(alloc.lnd as f64));
    let ta = spec.atm.predict(alloc.atm) + minor.map_or(0.0, |m| m.cpl.eval(alloc.atm as f64));
    let to = spec.ocn.predict(alloc.ocn);
    let total = match layout {
        Layout::Hybrid => (ti.max(tl) + ta).max(to),
        Layout::SequentialAtmGroup => (ti + tl + ta).max(to),
        Layout::FullySequential => ti + tl + ta + to,
    };
    LayoutTimes {
        ice: ti,
        lnd: tl,
        atm: ta,
        ocn: to,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_model, SolverBackend};
    use hslb_minlp::MinlpStatus;
    use hslb_perfmodel::PerfModel;

    /// Small spec with easily checked optima.
    fn small_spec(total: i64) -> CesmModelSpec {
        CesmModelSpec {
            ice: ComponentSpec::new("ice", PerfModel::amdahl(80.0, 1.0), 1, total),
            lnd: ComponentSpec::new("lnd", PerfModel::amdahl(40.0, 0.5), 1, total),
            atm: ComponentSpec::new("atm", PerfModel::amdahl(300.0, 2.0), 1, total),
            ocn: ComponentSpec::new("ocn", PerfModel::amdahl(150.0, 1.5), 1, total),
            total_nodes: total,
            tsync: None,
        }
    }

    #[test]
    fn hybrid_model_solves_and_respects_structure() {
        let spec = small_spec(32);
        let model = build_layout_model(&spec, Layout::Hybrid);
        assert!(model.problem.is_convex());
        let sol = solve_model(&model.problem, SolverBackend::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        let alloc = model.allocation(&sol);
        // Admissible, inside layout 1's rows, and optimal.
        crate::exact::certify_layout(&spec, Layout::Hybrid, &alloc).unwrap();
        // Objective equals the layout formula.
        let times = layout_predicted_times(&spec, Layout::Hybrid, &alloc);
        assert!(
            (sol.objective - times.total).abs() < 1e-3,
            "{sol:?} vs {times:?}"
        );
    }

    #[test]
    fn layouts_rank_as_in_figure_4() {
        // Layouts 1 and 2 similar; layout 3 worst (it serializes the ocean).
        let spec = small_spec(64);
        let mut totals = Vec::new();
        for layout in Layout::ALL {
            let model = build_layout_model(&spec, layout);
            let sol = solve_model(&model.problem, SolverBackend::default());
            assert_eq!(sol.status, MinlpStatus::Optimal, "{layout:?}");
            totals.push(sol.objective);
        }
        assert!(totals[2] > totals[0], "layout 3 must be worst: {totals:?}");
        assert!(totals[2] > totals[1], "layout 3 must be worst: {totals:?}");
    }

    #[test]
    fn ocean_set_constraint_is_honored() {
        let mut spec = small_spec(32);
        spec.ocn = ComponentSpec::with_set("ocn", PerfModel::amdahl(150.0, 1.5), [2, 4, 8]);
        let model = build_layout_model(&spec, Layout::Hybrid);
        let sol = solve_model(&model.problem, SolverBackend::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        let alloc = model.allocation(&sol);
        assert!([2u64, 4, 8].contains(&alloc.ocn), "{alloc:?}");
    }

    #[test]
    fn tsync_constraint_tightens() {
        let mut spec = small_spec(32);
        let base = {
            let model = build_layout_model(&spec, Layout::Hybrid);
            solve_model(&model.problem, SolverBackend::NlpBnb)
        };
        spec.tsync = Some(0.5);
        let model = build_layout_model(&spec, Layout::Hybrid);
        assert!(
            !model.problem.is_convex(),
            "tsync side must be flagged nonconvex"
        );
        let sol = solve_model(&model.problem, SolverBackend::NlpBnb);
        assert_eq!(sol.status, MinlpStatus::Optimal);
        // The synchronized solution can be no better than the free one
        // (the paper's caveat about T_sync).
        assert!(sol.objective >= base.objective - 1e-6);
        // And the ice/land times must actually be within tsync.
        let alloc = model.allocation(&sol);
        let times = layout_predicted_times(&spec, Layout::Hybrid, &alloc);
        assert!((times.ice - times.lnd).abs() <= 0.5 + 1e-6, "{times:?}");
    }

    #[test]
    fn fully_sequential_gives_every_component_all_nodes() {
        // With monotone decreasing times, layout 3's optimum is n_j = N.
        let spec = small_spec(24);
        let model = build_layout_model(&spec, Layout::FullySequential);
        let sol = solve_model(&model.problem, SolverBackend::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        let alloc = model.allocation(&sol);
        assert_eq!(
            (alloc.ice, alloc.lnd, alloc.atm, alloc.ocn),
            (24, 24, 24, 24),
            "{alloc:?}"
        );
    }

    #[test]
    fn minor_components_shift_the_optimum_consistently() {
        use hslb_perfmodel::PerfModel;
        let spec = small_spec(32);
        let minor = MinorComponents {
            rtm: PerfModel::amdahl(20.0, 0.2),
            cpl: PerfModel::amdahl(30.0, 0.5),
        };
        let base_model = build_layout_model(&spec, Layout::Hybrid);
        let base = solve_model(&base_model.problem, SolverBackend::default());
        let fine_model = build_layout_model_with_minor(&spec, Layout::Hybrid, Some(&minor));
        let fine = solve_model(&fine_model.problem, SolverBackend::default());
        assert_eq!(fine.status, MinlpStatus::Optimal);
        // Extra work can only increase the optimal total.
        assert!(fine.objective >= base.objective - 1e-6);
        // And the objective matches the extended closed form.
        let alloc = fine_model.allocation(&fine);
        let times = layout_predicted_times_with_minor(&spec, Layout::Hybrid, &alloc, Some(&minor));
        assert!(
            (fine.objective - times.total).abs() < 1e-3 * times.total,
            "{} vs {times:?}",
            fine.objective
        );
    }

    #[test]
    fn zero_cost_minor_components_change_nothing() {
        use hslb_perfmodel::PerfModel;
        let spec = small_spec(24);
        let minor = MinorComponents {
            rtm: PerfModel::new(0.0, 0.0, 1.0, 0.0),
            cpl: PerfModel::new(0.0, 0.0, 1.0, 0.0),
        };
        let a = solve_model(
            &build_layout_model(&spec, Layout::Hybrid).problem,
            SolverBackend::default(),
        );
        let b = solve_model(
            &build_layout_model_with_minor(&spec, Layout::Hybrid, Some(&minor)).problem,
            SolverBackend::default(),
        );
        assert!((a.objective - b.objective).abs() < 1e-6);
    }

    #[test]
    fn allocation_table_order_matches_paper() {
        let a = CesmAllocation {
            ice: 1,
            lnd: 2,
            atm: 3,
            ocn: 4,
        };
        let order: Vec<&str> = a.in_table_order().iter().map(|&(n, _)| n).collect();
        assert_eq!(order, vec!["lnd", "ice", "atm", "ocn"]);
    }
}
