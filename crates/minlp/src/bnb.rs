//! NLP-based branch and bound: solve the continuous (convex) relaxation at
//! every node, branch on domain-violating variables.

use crate::branching::{make_branch, select_branch_var};
use crate::model::MinlpProblem;
use crate::scratch::ScratchArena;
use crate::types::{
    MinlpOptions, MinlpSolution, MinlpStatus, NodeSelection, ABS_GAP, FEAS_TOL, INT_TOL, REL_GAP,
};
use hslb_nlp::{BarrierOptions, NlpProblem, NlpStatus, WarmStart};
use hslb_obs::{Deadline, Event, PruneReason, SolveStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Total-ordered f64 wrapper for the best-bound heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A branch-and-bound node: the variable box plus the inherited bound.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub lo: Vec<f64>,
    pub hi: Vec<f64>,
    /// Valid lower bound on any solution inside this box.
    pub bound: f64,
    pub depth: usize,
    /// Barrier warm start inherited from the parent's relaxation; both
    /// children share one `Arc` of the parent's point and multipliers.
    /// `None` at the root and whenever `MinlpOptions::warm_start` is off.
    pub seed: Option<Arc<WarmStart>>,
}

/// Installs node bounds into a scratch relaxation.
pub(crate) fn install_bounds(scratch: &mut NlpProblem, lo: &[f64], hi: &[f64]) {
    for j in 0..lo.len() {
        scratch.set_bounds(j, lo[j], hi[j]);
    }
}

/// Returns a consumed node's box buffers to the arena pool.
pub(crate) fn recycle_node(arena: &mut ScratchArena, node: Node) {
    arena.put(node.lo);
    arena.put(node.hi);
}

/// Solves the continuous relaxation of a node. Returns `None` for an
/// infeasible node, otherwise `(x, objective)` — where `objective` is a
/// valid node bound only when the barrier converged (`bound_valid`).
pub(crate) struct RelaxOutcome {
    pub x: Vec<f64>,
    pub objective: f64,
    pub bound_valid: bool,
    /// Inequality multipliers at `x` — the dual half of the warm start
    /// handed to this node's children.
    pub multipliers: Vec<f64>,
}

pub(crate) fn solve_relaxation(
    problem: &MinlpProblem,
    arena: &mut ScratchArena,
    lo: &[f64],
    hi: &[f64],
    warm: Option<&WarmStart>,
    barrier: &BarrierOptions,
    stats: &mut SolveStats,
) -> Option<RelaxOutcome> {
    // Propagate the problem's linear rows over this node's box first. This
    // is both a cheap prune and a correctness requirement: a box whose
    // feasible set is a single point (an active capacity row pinning
    // variables at their bounds) has no strict interior, and the log-barrier
    // would misreport the node as infeasible. Propagation collapses such
    // boxes to `lo == hi`, which the barrier eliminates exactly.
    let mut plo = arena.take_copy(lo);
    let mut phi = arena.take_copy(hi);
    let outcome = crate::presolve::propagate_box(problem, &mut plo, &mut phi, 4).map(|tightened| {
        stats.presolve_tightenings += tightened as u64;
        install_bounds(&mut arena.relax, &plo, &phi);
        // Work accounting lives *here*, next to the solve, so every caller
        // (serial, OA polishing, parallel tasks) counts identically.
        stats.nlp_solves += 1;
        hslb_nlp::solve_warm_with_workspace(&arena.relax, barrier, warm, &mut arena.sparse_ws)
    });
    arena.put(plo);
    arena.put(phi);
    let sol = match outcome? {
        Ok(s) => s,
        Err(_) => return None,
    };
    stats.merge(&sol.work());
    match sol.status {
        NlpStatus::Infeasible => None,
        NlpStatus::Optimal => Some(RelaxOutcome {
            x: sol.x,
            objective: sol.objective,
            bound_valid: true,
            multipliers: sol.multipliers,
        }),
        NlpStatus::Unbounded => Some(RelaxOutcome {
            x: sol.x,
            objective: f64::NEG_INFINITY,
            bound_valid: true,
            multipliers: sol.multipliers,
        }),
        NlpStatus::IterationLimit => {
            if sol.x.is_empty() {
                None
            } else {
                Some(RelaxOutcome {
                    x: sol.x,
                    objective: sol.objective,
                    bound_valid: false,
                    multipliers: sol.multipliers,
                })
            }
        }
    }
}

/// Pins discrete coordinates of `x` to their nearest admissible values and
/// re-solves the continuous variables ("polish"). Returns a fully feasible
/// point and its objective, or `None`.
#[allow(clippy::too_many_arguments)] // node state + options; a struct would just rename the list
pub(crate) fn polish_candidate(
    problem: &MinlpProblem,
    arena: &mut ScratchArena,
    x: &[f64],
    lo: &[f64],
    hi: &[f64],
    opts: &MinlpOptions,
    barrier: &BarrierOptions,
    stats: &mut SolveStats,
) -> Option<(Vec<f64>, f64)> {
    let snapped = problem.round_to_domain(x);
    // The snap must stay inside the node box (otherwise this candidate
    // belongs to a sibling node; skip — the sibling will find it).
    for j in problem.discrete_vars() {
        if snapped[j] < lo[j] - INT_TOL || snapped[j] > hi[j] + INT_TOL {
            return None;
        }
        // Allowed-set snap can also land outside the *node's* member subset
        // hull; the check above covers that because hulls are the bounds.
    }
    // Pin discrete vars; release continuous vars to the node box.
    let mut plo = arena.take_copy(lo);
    let mut phi = arena.take_copy(hi);
    for j in problem.discrete_vars() {
        plo[j] = snapped[j];
        phi[j] = snapped[j];
    }
    install_bounds(&mut arena.relax, &plo, &phi);
    arena.put(plo);
    arena.put(phi);
    stats.nlp_solves += 1;
    // The candidate point itself is the natural seed for the pinned
    // re-solve: continuous coordinates barely move once the discrete ones
    // are fixed. No duals are available (the point may come from an LP
    // vertex), so the barrier estimates its own restart μ.
    let seed = if opts.warm_start {
        Some(WarmStart::new(arena.take_copy(x), Vec::new()))
    } else {
        None
    };
    let res = hslb_nlp::solve_warm_with_workspace(
        &arena.relax,
        barrier,
        seed.as_ref(),
        &mut arena.sparse_ws,
    );
    if let Some(s) = seed {
        arena.put(s.x);
    }
    let sol = res.ok()?;
    stats.merge(&sol.work());
    if sol.status != NlpStatus::Optimal {
        return None;
    }
    if !problem.is_feasible(&sol.x, FEAS_TOL) {
        return None;
    }
    Some((sol.x, sol.objective))
}

/// Prune threshold given the incumbent.
pub(crate) fn prune_cutoff(incumbent: f64) -> f64 {
    if incumbent.is_finite() {
        incumbent - ABS_GAP.max(REL_GAP * incumbent.abs())
    } else {
        f64::INFINITY
    }
}

/// Solves a convex MINLP by NLP-based branch and bound.
///
/// Anytime behavior: when `opts.time_limit` expires the loop stops at the
/// next node boundary and returns the best incumbent found so far together
/// with the tightest proven bound, under [`MinlpStatus::TimeLimit`].
pub fn solve_nlp_bnb(problem: &MinlpProblem, opts: &MinlpOptions) -> MinlpSolution {
    solve_nlp_bnb_seeded(problem, opts, None)
}

/// [`solve_nlp_bnb`] with an advisory warm seed for the *root* relaxation.
///
/// A serving layer that cached the solution of a structurally identical
/// instance passes it here so the root barrier solve starts from the
/// cached point instead of cold. The seed follows the same contract as
/// intra-tree warm starts (`MinlpOptions::warm_start`): it is repaired
/// into the root box first and any seed that cannot be repaired falls
/// back to the identical cold path, so statuses and optima are unchanged
/// — only `newton_iters` shrinks and `warm_start_hits` records the reuse.
/// Ignored entirely when `opts.warm_start` is off or the seed's dimension
/// does not match the relaxation.
pub fn solve_nlp_bnb_seeded(
    problem: &MinlpProblem,
    opts: &MinlpOptions,
    root_seed: Option<WarmStart>,
) -> MinlpSolution {
    let barrier = opts.barrier();
    let mut arena = ScratchArena::new(problem.relaxation().clone());
    let deadline = Deadline::start(&opts.clock, opts.time_limit);

    let root = Node {
        lo: problem.relaxation().lowers().to_vec(),
        hi: problem.relaxation().uppers().to_vec(),
        bound: f64::NEG_INFINITY,
        depth: 0,
        seed: root_seed
            .filter(|seed| opts.warm_start && seed.x.len() == problem.relaxation().num_vars())
            .map(Arc::new),
    };

    let mut stats = SolveStats::default();
    let mut incumbent: Option<Vec<f64>> = None;
    let mut incumbent_obj = f64::INFINITY;

    // Node pools for the two selection strategies.
    let mut heap: BinaryHeap<(Reverse<OrdF64>, usize)> = BinaryHeap::new();
    let mut store: Vec<Option<Node>> = Vec::new();
    let mut stack: Vec<Node> = Vec::new();
    let push = |node: Node,
                heap: &mut BinaryHeap<(Reverse<OrdF64>, usize)>,
                store: &mut Vec<Option<Node>>,
                stack: &mut Vec<Node>| {
        match opts.node_selection {
            NodeSelection::BestBound => {
                heap.push((Reverse(OrdF64(node.bound)), store.len()));
                store.push(Some(node));
            }
            NodeSelection::DepthFirst => stack.push(node),
        }
    };
    push(root, &mut heap, &mut store, &mut stack);

    let mut best_open_bound = f64::NEG_INFINITY;
    let mut hit_node_limit = false;
    let mut hit_time_limit = false;

    loop {
        let node = match opts.node_selection {
            NodeSelection::BestBound => match heap.pop() {
                Some((Reverse(OrdF64(b)), idx)) => {
                    best_open_bound = b;
                    store[idx].take().expect("node already consumed")
                }
                None => break,
            },
            NodeSelection::DepthFirst => match stack.pop() {
                Some(node) => node,
                None => break,
            },
        };
        if deadline.expired() {
            hit_time_limit = true;
            opts.trace.emit(|| Event::TimeBudgetExhausted {
                elapsed: deadline.elapsed(),
            });
            break;
        }
        if stats.nodes_opened >= opts.max_nodes as u64 {
            hit_node_limit = true;
            break;
        }
        stats.nodes_opened += 1;
        opts.trace.emit(|| Event::NodeOpened {
            depth: node.depth as u64,
            bound: node.bound,
        });

        // Bound-based prune (incumbent may have improved since push).
        if node.bound >= prune_cutoff(incumbent_obj) {
            stats.pruned_by_bound += 1;
            opts.trace.emit(|| Event::NodePruned {
                reason: PruneReason::Bound,
                bound: node.bound,
            });
            recycle_node(&mut arena, node);
            continue;
        }

        let Some(relax) = solve_relaxation(
            problem,
            &mut arena,
            &node.lo,
            &node.hi,
            node.seed.as_deref(),
            &barrier,
            &mut stats,
        ) else {
            stats.pruned_infeasible += 1;
            opts.trace.emit(|| Event::NodePruned {
                reason: PruneReason::Infeasible,
                bound: f64::NAN,
            });
            recycle_node(&mut arena, node);
            continue; // infeasible node
        };
        let node_bound = if relax.bound_valid {
            relax.objective.max(node.bound)
        } else {
            node.bound
        };
        if node_bound >= prune_cutoff(incumbent_obj) {
            stats.pruned_by_bound += 1;
            opts.trace.emit(|| Event::NodePruned {
                reason: PruneReason::Bound,
                bound: node_bound,
            });
            recycle_node(&mut arena, node);
            continue;
        }

        // Root rounding heuristic + every node: try to polish the relaxation
        // point into a feasible incumbent (cheap: one pinned NLP).
        if node.depth == 0 || problem.is_domain_feasible(&relax.x, INT_TOL) {
            if let Some((cand, obj)) = polish_candidate(
                problem, &mut arena, &relax.x, &node.lo, &node.hi, opts, &barrier, &mut stats,
            ) {
                if obj < incumbent_obj {
                    incumbent_obj = obj;
                    incumbent = Some(cand);
                    stats.incumbents += 1;
                    opts.trace.emit(|| Event::Incumbent { objective: obj });
                }
            }
        }

        // Domain-feasible relaxation: node is settled (polish above already
        // captured the candidate).
        if problem.is_domain_feasible(&relax.x, INT_TOL) {
            recycle_node(&mut arena, node);
            continue;
        }

        // Branch.
        let Some(j) = select_branch_var(problem, &relax.x, &node.lo, &node.hi, INT_TOL) else {
            recycle_node(&mut arena, node);
            continue; // nothing to branch on (degenerate)
        };
        let Some(branch) = make_branch(problem, j, relax.x[j], node.lo[j], node.hi[j]) else {
            recycle_node(&mut arena, node);
            continue;
        };
        // Both children seed their barrier solve from this node's
        // relaxation; the Arc shares one copy of point and duals.
        let child_seed = opts
            .warm_start
            .then(|| Arc::new(WarmStart::new(relax.x, relax.multipliers)));
        for (blo, bhi) in [branch.down, branch.up] {
            if blo > bhi {
                continue;
            }
            let mut lo = arena.take_copy(&node.lo);
            let mut hi = arena.take_copy(&node.hi);
            lo[j] = blo;
            hi[j] = bhi;
            push(
                Node {
                    lo,
                    hi,
                    bound: node_bound,
                    depth: node.depth + 1,
                    seed: child_seed.clone(),
                },
                &mut heap,
                &mut store,
                &mut stack,
            );
        }
        recycle_node(&mut arena, node);
    }

    let limited = hit_node_limit || hit_time_limit;
    let best_bound = if limited {
        best_open_bound.min(incumbent_obj)
    } else {
        incumbent_obj
    };
    let limit_status = if hit_time_limit {
        MinlpStatus::TimeLimit
    } else {
        MinlpStatus::NodeLimit
    };
    match incumbent {
        Some(x) => MinlpSolution {
            status: if limited {
                limit_status
            } else {
                MinlpStatus::Optimal
            },
            objective: incumbent_obj,
            best_bound,
            x,
            stats,
        },
        None => {
            let mut s = MinlpSolution::infeasible(stats);
            if limited {
                // Infeasibility was not *proven*: the search was cut short.
                s.status = limit_status;
            }
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_nlp::{ConstraintFn, ScalarFn};

    /// min T s.t. T >= 120/n1, T >= 360/n2, n1 + n2 <= 12, n integer >= 1.
    /// Continuous split is (3, 9) with T = 40 — integral already.
    fn two_component() -> MinlpProblem {
        let mut p = MinlpProblem::new();
        let n1 = p.add_int_var(0.0, 1, 12);
        let n2 = p.add_int_var(0.0, 1, 12);
        let t = p.add_var(1.0, 0.0, 1e6);
        p.add_constraint(
            ConstraintFn::new("t1")
                .nonlinear_term(n1, ScalarFn::perf_model(120.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        p.add_constraint(
            ConstraintFn::new("t2")
                .nonlinear_term(n2, ScalarFn::perf_model(360.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        p.add_constraint(
            ConstraintFn::new("cap")
                .linear_term(n1, 1.0)
                .linear_term(n2, 1.0)
                .with_constant(-12.0),
        );
        p
    }

    #[test]
    fn integral_relaxation_solves_at_root() {
        let sol = solve_nlp_bnb(&two_component(), &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        assert!((sol.objective - 40.0).abs() < 1e-3, "{sol:?}");
        assert!((sol.x[0] - 3.0).abs() < 1e-6);
        assert!((sol.x[1] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_relaxation_forces_branching() {
        // n1 + n2 <= 11 makes the continuous split (2.75, 8.25): must branch.
        let mut p = MinlpProblem::new();
        let n1 = p.add_int_var(0.0, 1, 11);
        let n2 = p.add_int_var(0.0, 1, 11);
        let t = p.add_var(1.0, 0.0, 1e6);
        p.add_constraint(
            ConstraintFn::new("t1")
                .nonlinear_term(n1, ScalarFn::perf_model(120.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        p.add_constraint(
            ConstraintFn::new("t2")
                .nonlinear_term(n2, ScalarFn::perf_model(360.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        p.add_constraint(
            ConstraintFn::new("cap")
                .linear_term(n1, 1.0)
                .linear_term(n2, 1.0)
                .with_constant(-11.0),
        );
        let sol = solve_nlp_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        // Exhaustive check: best integer split of 11 nodes.
        let mut best = f64::INFINITY;
        for a in 1..=10 {
            let b = 11 - a;
            best = best.min((120.0 / a as f64).max(360.0 / b as f64));
        }
        assert!(
            (sol.objective - best).abs() < 1e-3,
            "{} vs {}",
            sol.objective,
            best
        );
    }

    #[test]
    fn infeasible_detected() {
        let mut p = MinlpProblem::new();
        let n = p.add_int_var(0.0, 1, 5);
        p.add_constraint(
            ConstraintFn::new("ge10")
                .linear_term(n, -1.0)
                .with_constant(10.0),
        );
        let sol = solve_nlp_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Infeasible);
    }

    #[test]
    fn allowed_set_respected() {
        // min T s.t. T >= 100/n, n in {3, 5, 17}: optimum n = 17.
        let mut p = MinlpProblem::new();
        let n = p.add_set_var(0.0, [3, 5, 17]);
        let t = p.add_var(1.0, 0.0, 1e6);
        p.add_constraint(
            ConstraintFn::new("perf")
                .nonlinear_term(n, ScalarFn::perf_model(100.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        let sol = solve_nlp_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        assert!((sol.x[0] - 17.0).abs() < 1e-9, "{sol:?}");
    }

    #[test]
    fn allowed_set_interior_optimum() {
        // T >= 100/n + 2n: continuous optimum ~7.07, set {2, 6, 10, 50}:
        // candidates: 6 -> 28.67, 10 -> 30.0, 2 -> 54, 50 -> 102. Best 6.
        let mut p = MinlpProblem::new();
        let n = p.add_set_var(0.0, [2, 6, 10, 50]);
        let t = p.add_var(1.0, 0.0, 1e6);
        p.add_constraint(
            ConstraintFn::new("perf")
                .nonlinear_term(n, ScalarFn::perf_model(100.0, 2.0, 1.0))
                .linear_term(t, -1.0),
        );
        let sol = solve_nlp_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        assert!((sol.x[0] - 6.0).abs() < 1e-9, "{sol:?}");
        assert!((sol.objective - (100.0 / 6.0 + 12.0)).abs() < 1e-4);
    }

    #[test]
    fn depth_first_matches_best_bound() {
        let p = two_component();
        let a = solve_nlp_bnb(&p, &MinlpOptions::default());
        let b = solve_nlp_bnb(
            &p,
            &MinlpOptions {
                node_selection: NodeSelection::DepthFirst,
                ..Default::default()
            },
        );
        assert_eq!(a.status, MinlpStatus::Optimal);
        assert_eq!(b.status, MinlpStatus::Optimal);
        assert!((a.objective - b.objective).abs() < 1e-6);
    }

    #[test]
    fn node_limit_reported() {
        let mut p = MinlpProblem::new();
        // A deliberately branchy instance with a tiny node budget.
        let vars: Vec<usize> = (0..6).map(|_| p.add_int_var(0.0, 1, 50)).collect();
        let t = p.add_var(1.0, 0.0, 1e9);
        for (k, &v) in vars.iter().enumerate() {
            p.add_constraint(
                ConstraintFn::new(format!("t{k}"))
                    .nonlinear_term(v, ScalarFn::perf_model(100.0 + 37.0 * k as f64, 0.0, 1.0))
                    .linear_term(t, -1.0),
            );
        }
        let cap: Vec<(usize, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        let mut c = ConstraintFn::new("cap").with_constant(-83.0);
        for (v, co) in cap {
            c = c.linear_term(v, co);
        }
        p.add_constraint(c);
        let sol = solve_nlp_bnb(
            &p,
            &MinlpOptions {
                max_nodes: 3,
                ..Default::default()
            },
        );
        assert_eq!(sol.status, MinlpStatus::NodeLimit);
    }
}
