//! The FMO-style flat allocation model (SC'12) and the objective functions
//! of Eqs. (1)–(3) of the IPDPSW'14 text.
//!
//! `K` independent tasks (FMO fragments grouped into GDDI groups, or CESM
//! components treated as concurrent) share `N` nodes: `Σ_j n_j = N`. Three
//! objectives are modeled:
//!
//! * [`Objective::MinMax`] (Eq. 1) — minimize the slowest task's time: the
//!   objective both papers adopt.
//! * [`Objective::MaxMin`] (Eq. 2) — maximize the fastest task's time; a
//!   balance-seeking alternative the FMO paper found slightly worse.
//! * [`Objective::MinSum`] (Eq. 3) — minimize the summed times; the papers
//!   dismiss it ("performs much worse"), and the E9 experiment shows why:
//!   it ignores the concurrency structure entirely.

use crate::spec::ComponentSpec;
use hslb_minlp::{MinlpProblem, MinlpSolution};
use hslb_nlp::{ConstraintFn, ScalarFn, Term};

/// Allocation objective (Eqs. (1)–(3) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// `min_n max_j T_j(n_j)` — Eq. (1).
    MinMax,
    /// `max_n min_j T_j(n_j)` — Eq. (2).
    MaxMin,
    /// `min_n Σ_j T_j(n_j)` — Eq. (3).
    MinSum,
}

impl Objective {
    /// All objectives in equation order.
    pub const ALL: [Objective; 3] = [Objective::MinMax, Objective::MaxMin, Objective::MinSum];
}

/// Flat allocation specification.
#[derive(Debug, Clone)]
pub struct FlatSpec {
    pub components: Vec<ComponentSpec>,
    /// Total nodes. Minimization objectives use `Σ n_j <= N` (surplus idles
    /// when per-task caps bind); max–min pins `Σ n_j` to the hostable total.
    pub total_nodes: i64,
    pub objective: Objective,
}

/// A solved flat allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatAllocation {
    /// Nodes per component, aligned with `FlatSpec::components`.
    pub nodes: Vec<u64>,
    /// Predicted per-component times.
    pub times: Vec<f64>,
}

impl FlatAllocation {
    /// Completion time when all tasks run concurrently (the quantity that
    /// actually matters, whatever objective produced the allocation).
    pub fn makespan(&self) -> f64 {
        self.times.iter().fold(0.0, |m, &t| m.max(t))
    }

    /// Earliest finisher's time (idle-time indicator).
    pub fn min_time(&self) -> f64 {
        self.times.iter().fold(f64::INFINITY, |m, &t| m.min(t))
    }

    /// Load imbalance `1 - min/max` (0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let mx = self.makespan();
        if mx <= 0.0 {
            0.0
        } else {
            1.0 - self.min_time() / mx
        }
    }
}

/// A built flat model with its variable indices.
#[derive(Debug, Clone)]
pub struct FlatModel {
    pub problem: MinlpProblem,
    pub node_vars: Vec<usize>,
    /// The epigraph/hypograph auxiliary variable (absent for `MinSum`,
    /// which uses one epigraph per component instead).
    pub aux_var: Option<usize>,
    pub objective: Objective,
}

impl FlatModel {
    /// Extracts the allocation from a solution.
    ///
    /// # Panics
    /// Panics on an infeasible solution.
    pub fn allocation(&self, spec: &FlatSpec, sol: &MinlpSolution) -> FlatAllocation {
        assert!(
            !sol.x.is_empty(),
            "cannot extract an allocation from an infeasible solve"
        );
        let nodes: Vec<u64> = self
            .node_vars
            .iter()
            .map(|&v| sol.x[v].round().max(1.0) as u64)
            .collect();
        let times: Vec<f64> = nodes
            .iter()
            .zip(&spec.components)
            .map(|(&n, c)| c.predict(n))
            .collect();
        FlatAllocation { nodes, times }
    }
}

/// Builds the MINLP for a flat allocation under the chosen objective.
///
/// # Panics
/// Panics if the spec has no components or fewer nodes than components.
pub fn build_flat_model(spec: &FlatSpec) -> FlatModel {
    let k = spec.components.len();
    assert!(k > 0, "need at least one component");
    assert!(
        spec.total_nodes >= k as i64,
        "need at least one node per component: {} < {k}",
        spec.total_nodes
    );
    let mut p = MinlpProblem::new();

    let node_vars: Vec<usize> = spec
        .components
        .iter()
        .map(|c| {
            let mut dom = c.allowed.clone();
            // Clamp to the machine.
            if let crate::spec::AllowedNodes::Range { max, .. } = &mut dom {
                *max = (*max).min(spec.total_nodes);
            }
            dom.add_var(&mut p, 0.0)
        })
        .collect();

    let t_cap: f64 = spec
        .components
        .iter()
        .map(|c| c.model.eval(c.allowed.hull().0 as f64))
        .sum::<f64>()
        + 1e3;

    // Node budget. For the minimization objectives a plain capacity row is
    // the right semantics: with monotone-decreasing task times the optimum
    // saturates it anyway, and when per-task node caps bind (small
    // fragments cannot absorb more ranks) the surplus legitimately idles.
    // Max–min *needs* a binding total — otherwise shedding nodes raises
    // every time and the problem is unbounded toward idleness — so it pins
    // the total to what the caps can actually host.
    let cap_sum: i64 = spec
        .components
        .iter()
        .map(|c| c.allowed.hull().1.min(spec.total_nodes))
        .sum();
    match spec.objective {
        Objective::MinMax | Objective::MinSum => {
            let mut row =
                ConstraintFn::new("node_budget").with_constant(-(spec.total_nodes as f64));
            for &v in &node_vars {
                row = row.linear_term(v, 1.0);
            }
            p.add_constraint(row);
        }
        Objective::MaxMin => {
            p.add_linear_eq(
                node_vars.iter().map(|&v| (v, 1.0)).collect(),
                spec.total_nodes.min(cap_sum) as f64,
            );
        }
    }

    let aux_var = match spec.objective {
        Objective::MinMax => {
            let t = p.add_var(1.0, 0.0, t_cap);
            for (j, (&v, c)) in node_vars.iter().zip(&spec.components).enumerate() {
                p.add_constraint(
                    ConstraintFn::new(format!("t_ge_{j}"))
                        .nonlinear_term(v, c.model.to_scalar_fn())
                        .linear_term(t, -1.0)
                        .with_constant(c.model.d),
                );
            }
            Some(t)
        }
        Objective::MaxMin => {
            // max S  s.t.  S <= T_j(n_j)  ⇔  min -S  s.t.  S - T_j(n_j) <= 0.
            // The negated performance terms make this nonconvex; the solver
            // wrapper routes it to the NLP tree.
            let s = p.add_var(-1.0, 0.0, t_cap);
            for (j, (&v, c)) in node_vars.iter().zip(&spec.components).enumerate() {
                let mut neg = ScalarFn::new();
                for t in c.model.to_scalar_fn().terms() {
                    neg.push(match *t {
                        Term::PowerDecay { a, c } => Term::PowerDecay { a: -a, c },
                        Term::PowerGrowth { b, c } => Term::PowerGrowth { b: -b, c },
                        Term::Linear { k } => Term::Linear { k: -k },
                    });
                }
                p.add_constraint(
                    ConstraintFn::new(format!("s_le_{j}"))
                        .linear_term(s, 1.0)
                        .nonlinear_term(v, neg)
                        .with_constant(-c.model.d),
                );
            }
            Some(s)
        }
        Objective::MinSum => {
            for (j, (&v, c)) in node_vars.iter().zip(&spec.components).enumerate() {
                let tj = p.add_var(1.0, 0.0, t_cap);
                p.add_constraint(
                    ConstraintFn::new(format!("tj_ge_{j}"))
                        .nonlinear_term(v, c.model.to_scalar_fn())
                        .linear_term(tj, -1.0)
                        .with_constant(c.model.d),
                );
            }
            None
        }
    };

    FlatModel {
        problem: p,
        node_vars,
        aux_var,
        objective: spec.objective,
    }
}

/// Exact polynomial-time solver for the **min–max** flat allocation — the
/// "single constraint resource constrained MINLP" the paper notes "can be
/// solved in polynomial time with customized solvers (Ibaraki & Katoh)" —
/// and the fast path for thousand-fragment FMO instances. Each task gets
/// the fewest admissible nodes that reach the optimal makespan
/// (`exact::flat_optimum`); leftover nodes then go, one admissible
/// step at a time, to the slowest task whose next count does not raise its
/// time (`Σ n_j = N` semantics). `objective` is ignored: this is min–max.
/// `None` when no allocation fits.
pub fn solve_minmax_waterfill(spec: &FlatSpec) -> Option<FlatAllocation> {
    let n_total = spec.total_nodes;
    let (mut nodes, _) = crate::exact::flat_optimum(spec)?;
    let mut leftover = n_total - nodes.iter().sum::<i64>();
    loop {
        // Current bottleneck with room to grow to its next admissible count.
        let mut best: Option<(usize, i64, f64)> = None; // (idx, next, time)
        for (j, c) in spec.components.iter().enumerate() {
            let (t, rank) = (c.model.eval(nodes[j] as f64), c.allowed.rank(nodes[j]));
            if rank == c.allowed.rank((nodes[j] + leftover).min(n_total)) {
                continue; // no admissible count fits in the leftover
            }
            let next = c.allowed.nth(rank);
            if c.model.eval(next as f64) <= t && best.is_none_or(|(_, _, bt)| t > bt) {
                best = Some((j, next, t));
            }
        }
        let Some((j, next, _)) = best else { break }; // nobody can absorb more
        leftover -= next - nodes[j];
        nodes[j] = next;
    }
    let nodes: Vec<u64> = nodes.into_iter().map(|n| n as u64).collect();
    let times = nodes
        .iter()
        .zip(&spec.components)
        .map(|(&n, c)| c.predict(n))
        .collect();
    Some(FlatAllocation { nodes, times })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_model, SolverBackend};
    use hslb_minlp::MinlpStatus;
    use hslb_perfmodel::PerfModel;

    fn spec(objective: Objective) -> FlatSpec {
        FlatSpec {
            components: vec![
                ComponentSpec::new("f1", PerfModel::amdahl(120.0, 0.0), 1, 64),
                ComponentSpec::new("f2", PerfModel::amdahl(360.0, 0.0), 1, 64),
                ComponentSpec::new("f3", PerfModel::amdahl(60.0, 0.0), 1, 64),
            ],
            total_nodes: 18,
            objective,
        }
    }

    #[test]
    fn minmax_balances_loads() {
        let s = spec(Objective::MinMax);
        let model = build_flat_model(&s);
        assert!(model.problem.is_convex());
        let sol = solve_model(&model.problem, SolverBackend::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        let alloc = model.allocation(&s, &sol);
        assert_eq!(alloc.nodes.iter().sum::<u64>(), 18);
        // Perfect continuous split is 4:12:2 -> times all 30.
        assert_eq!(alloc.nodes, vec![4, 12, 2], "{alloc:?}");
        assert!(alloc.imbalance() < 1e-9);
        assert_eq!(solve_minmax_waterfill(&s).unwrap(), alloc);
        crate::exact::certify_flat(&s, &alloc.nodes).unwrap();
    }

    #[test]
    fn maxmin_is_nonconvex_but_solves() {
        let s = spec(Objective::MaxMin);
        let model = build_flat_model(&s);
        assert!(!model.problem.is_convex());
        let sol = solve_model(&model.problem, SolverBackend::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        let alloc = model.allocation(&s, &sol);
        assert_eq!(alloc.nodes.iter().sum::<u64>(), 18);
        // On this symmetric instance max-min finds the same balanced split.
        assert!(alloc.makespan() <= 30.0 + 1e-6, "{alloc:?}");
    }

    #[test]
    fn minsum_ignores_balance() {
        let s = spec(Objective::MinSum);
        let model = build_flat_model(&s);
        let sol = solve_model(&model.problem, SolverBackend::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        let alloc = model.allocation(&s, &sol);
        assert_eq!(alloc.nodes.iter().sum::<u64>(), 18);
        // Min-sum's makespan must be at least min-max's (it is the wrong
        // objective for concurrent execution; Eq. 3 discussion).
        assert!(alloc.makespan() >= 30.0 - 1e-6, "{alloc:?}");
    }

    #[test]
    fn makespan_and_imbalance() {
        let a = FlatAllocation {
            nodes: vec![1, 2],
            times: vec![10.0, 8.0],
        };
        assert_eq!(a.makespan(), 10.0);
        assert_eq!(a.min_time(), 8.0);
        assert!((a.imbalance() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one node per component")]
    fn too_few_nodes_panics() {
        let mut s = spec(Objective::MinMax);
        s.total_nodes = 2;
        build_flat_model(&s);
    }

    #[test]
    fn waterfill_respects_allowed_sets() {
        let s = FlatSpec {
            components: vec![
                ComponentSpec::with_set("a", PerfModel::amdahl(100.0, 0.0), [2, 4, 8]),
                ComponentSpec::new("b", PerfModel::amdahl(100.0, 0.0), 1, 64),
            ],
            total_nodes: 11,
            objective: Objective::MinMax,
        };
        let wf = solve_minmax_waterfill(&s).unwrap();
        crate::exact::certify_flat(&s, &wf.nodes).unwrap();
    }

    #[test]
    fn waterfill_detects_infeasible() {
        let s = FlatSpec {
            components: vec![
                ComponentSpec::with_set("a", PerfModel::amdahl(100.0, 0.0), [64]),
                ComponentSpec::with_set("b", PerfModel::amdahl(100.0, 0.0), [64]),
            ],
            total_nodes: 100,
            objective: Objective::MinMax,
        };
        assert!(solve_minmax_waterfill(&s).is_none());
    }

    #[test]
    fn waterfill_scales_to_many_tasks() {
        // 500 heterogeneous tasks — far beyond comfortable B&B size.
        let comps: Vec<ComponentSpec> = (0..500)
            .map(|k| {
                ComponentSpec::new(
                    format!("f{k}"),
                    PerfModel::amdahl(10.0 + (k % 37) as f64 * 25.0, 0.05),
                    1,
                    4096,
                )
            })
            .collect();
        let s = FlatSpec {
            components: comps,
            total_nodes: 4096,
            objective: Objective::MinMax,
        };
        let wf = solve_minmax_waterfill(&s).unwrap();
        assert_eq!(wf.nodes.iter().sum::<u64>(), 4096);
        crate::exact::certify_flat(&s, &wf.nodes).unwrap();
    }
}
