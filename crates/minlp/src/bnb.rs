//! NLP-based branch and bound: solve the continuous (convex) relaxation at
//! every node, branch on domain-violating variables.

use crate::branching::{make_branch, select_branch_var};
use crate::model::MinlpProblem;
use crate::scratch::ScratchArena;
use crate::types::{
    MinlpOptions, MinlpSolution, MinlpStatus, NodeSelection, ABS_GAP, FEAS_TOL, INT_TOL, REL_GAP,
};
use hslb_linalg::approx::exactly_zero;
use hslb_lp::{LinearProgram, LpSolution, RowSense, SimplexOptions, VarId, WarmLp};
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
        hslb_nlp::solve_warm_with(&arena.relax, barrier, warm)
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

/// The problem left by pinning every discrete column, when it is an LP: no
/// nonlinear term of the relaxation sits on a continuous column, so each
/// pinned term folds into its row's constant. That holds for the flat,
/// layout and FMO models, whose nonlinear terms all sit on node counts;
/// the binary-encoded allowed sets of E8 turn node counts into continuous
/// columns and keep the pinned problem an NLP.
#[derive(Debug)]
pub(crate) struct PinnedLp {
    /// The LP column of each problem column; `None` for a discrete one.
    col_of: Vec<Option<usize>>,
}

impl PinnedLp {
    /// `None` when a nonlinear term sits on a continuous column.
    pub fn of(problem: &MinlpProblem) -> Option<PinnedLp> {
        let discrete = |v: usize| problem.domains()[v].is_discrete();
        let constraints = problem.relaxation().constraints();
        if !constraints
            .iter()
            .all(|c| c.nonlinear.iter().all(|(v, _)| discrete(*v)))
        {
            return None;
        }
        let mut cols = 0..;
        let col_of = (0..problem.num_vars())
            .map(|j| if discrete(j) { None } else { cols.next() })
            .collect();
        Some(PinnedLp { col_of })
    }

    /// The LP over the continuous columns, boxed by `lo`/`hi`, with every
    /// discrete column pinned at its value in `x`: each row on a
    /// continuous column keeps those terms and folds the rest into its
    /// right-hand side. A row with no continuous column is checked once at
    /// the pins instead, as the barrier checks a row on pinned columns
    /// only (`ConstraintFn::holds_pinned`); `None` when one fails.
    fn program(
        &self,
        relax: &NlpProblem,
        x: &[f64],
        lo: &[f64],
        hi: &[f64],
    ) -> Option<LinearProgram> {
        let mut lp = LinearProgram::new();
        for (j, col) in self.col_of.iter().enumerate() {
            if col.is_some() {
                lp.add_var(relax.costs()[j], lo[j], hi[j]);
            }
        }
        // A row's terms on continuous columns, and the value of the rest.
        let split = |terms: &[(usize, f64)]| {
            let mut row = Vec::new();
            let mut pinned = 0.0;
            for &(v, co) in terms {
                match self.col_of[v] {
                    Some(k) if !exactly_zero(co) => row.push((VarId(k), co)),
                    Some(_) => {}
                    None => pinned += co * x[v],
                }
            }
            (row, pinned)
        };
        for c in relax.constraints() {
            let (row, pinned) = split(&c.linear);
            if row.is_empty() {
                if !c.holds_pinned(x) {
                    return None;
                }
                continue;
            }
            let nonlinear: f64 = c.nonlinear.iter().map(|(v, f)| f.eval(x[*v])).sum();
            lp.add_row(row, RowSense::Le, -(c.constant + pinned + nonlinear));
        }
        for e in relax.equalities() {
            let (row, pinned) = split(&e.coeffs);
            if row.is_empty() {
                if !e.holds_pinned(x) {
                    return None;
                }
                continue;
            }
            lp.add_row(row, RowSense::Eq, e.rhs - pinned);
        }
        Some(lp)
    }
}

/// Adds one LP solve and its simplex work to `stats`.
pub(crate) fn count_lp_solve(stats: &mut SolveStats, sol: &LpSolution) {
    stats.lp_solves += 1;
    stats.simplex_pivots += sol.iterations as u64;
    stats.dual_pivots += sol.dual_pivots as u64;
    stats.warm_start_hits += u64::from(sol.warm_used);
    stats.factorizations += sol.factorizations;
    stats.factor_updates += sol.factor_updates;
    stats.fill_nnz += sol.fill_nnz;
}

/// Pins discrete coordinates of `x` to their nearest admissible values and
/// re-solves the continuous variables inside the node box ("polish").
/// Returns a fully feasible point and its objective, or `None`.
///
/// When the pinned problem is an LP (the arena's [`PinnedLp`]) it is solved
/// on the dual simplex from the slack basis, and its work counts as an LP
/// solve; otherwise the pinned NLP is solved on the barrier, seeded from
/// `x`, and counts as an NLP solve.
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
    let mut snapped = problem.round_to_domain(x);
    // The snap must stay inside the node box (otherwise this candidate
    // belongs to a sibling node; skip — the sibling will find it).
    for j in problem.discrete_vars() {
        if snapped[j] < lo[j] - INT_TOL || snapped[j] > hi[j] + INT_TOL {
            return None;
        }
        // Allowed-set snap can also land outside the *node's* member subset
        // hull; the check above covers that because hulls are the bounds.
    }
    let polished = match &arena.pinned_lp {
        Some(pinned) => {
            let lp = pinned.program(problem.relaxation(), &snapped, lo, hi)?;
            let mut program = WarmLp::new(lp);
            let sol = program.solve(&SimplexOptions {
                trace: opts.trace.clone(),
            });
            count_lp_solve(stats, &sol);
            debug_assert!(
                !sol.is_optimal() || sol.certify(program.lp()).is_ok(),
                "polish LP optimum fails its certificate: {:?}",
                sol.certify(program.lp())
            );
            if !sol.is_optimal() {
                return None;
            }
            for (xj, col) in snapped.iter_mut().zip(&pinned.col_of) {
                if let Some(k) = col {
                    *xj = sol.x[*k];
                }
            }
            let objective = problem.objective_value(&snapped);
            (snapped, objective)
        }
        None => polish_on_barrier(problem, arena, x, &snapped, lo, hi, opts, barrier, stats)?,
    };
    problem
        .is_feasible(&polished.0, FEAS_TOL)
        .then_some(polished)
}

/// The barrier half of [`polish_candidate`]: the pinned NLP, with the
/// continuous columns released to the node box.
#[allow(clippy::too_many_arguments)] // polish_candidate's list plus the snap
fn polish_on_barrier(
    problem: &MinlpProblem,
    arena: &mut ScratchArena,
    x: &[f64],
    snapped: &[f64],
    lo: &[f64],
    hi: &[f64],
    opts: &MinlpOptions,
    barrier: &BarrierOptions,
    stats: &mut SolveStats,
) -> Option<(Vec<f64>, f64)> {
    let mut plo = arena.take_copy(lo);
    let mut phi = arena.take_copy(hi);
    for j in problem.discrete_vars() {
        plo[j] = snapped[j];
        phi[j] = snapped[j];
    }
    // As for a node relaxation, propagation is a correctness requirement:
    // a linking row of a binary-encoded set pins its continuous column to
    // the selected member, which leaves no strict interior when that member
    // is a bound of the column's box.
    let tightened = crate::presolve::propagate_box(problem, &mut plo, &mut phi, 4);
    if tightened.is_some() {
        install_bounds(&mut arena.relax, &plo, &phi);
    }
    arena.put(plo);
    arena.put(phi);
    stats.presolve_tightenings += tightened? as u64;
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
    let res = hslb_nlp::solve_warm_with(&arena.relax, barrier, seed.as_ref());
    if let Some(s) = seed {
        arena.put(s.x);
    }
    let sol = res.ok()?;
    stats.merge(&sol.work());
    (sol.status == NlpStatus::Optimal).then_some((sol.x, sol.objective))
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
    let mut arena = ScratchArena::new(problem);
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
    use crate::encode::encode_sets_as_binaries;
    use crate::oa::tests::{seeded_perf_model, uniform};
    use hslb_nlp::{ConstraintFn, ScalarFn, Term};

    /// A seeded integer in `lo..=hi`.
    fn int_in(draw: &mut impl FnMut(f64, f64) -> f64, lo: i64, hi: i64) -> i64 {
        (draw(lo as f64, hi as f64 + 1.0) as i64).min(hi)
    }

    /// A seeded node-count column: `1..=total`, or one time in three a set
    /// of sweet spots that holds 1.
    fn node_column(
        p: &mut MinlpProblem,
        draw: &mut impl FnMut(f64, f64) -> f64,
        total: i64,
    ) -> usize {
        if draw(0.0, 1.0) < 1.0 / 3.0 {
            let spots: Vec<i64> = (2..=total).filter(|_| draw(0.0, 1.0) < 0.4).collect();
            p.add_set_var(0.0, std::iter::once(1).chain(spots))
        } else {
            p.add_int_var(0.0, 1, total)
        }
    }

    /// The row `f(v) + Σ linear + d <= 0` with a seeded model `f` and `d`.
    fn perf_row(
        draw: &mut impl FnMut(f64, f64) -> f64,
        v: usize,
        linear: &[(usize, f64)],
    ) -> ConstraintFn {
        let row = ConstraintFn::new("perf")
            .nonlinear_term(v, seeded_perf_model(draw))
            .with_constant(draw(0.0, 50.0));
        linear
            .iter()
            .fold(row, |row, &(u, co)| row.linear_term(u, co))
    }

    /// The row `Σ v - total <= 0` over `vars`.
    fn budget(vars: &[usize], total: i64) -> ConstraintFn {
        let row = ConstraintFn::new("budget").with_constant(-(total as f64));
        vars.iter().fold(row, |row, &v| row.linear_term(v, 1.0))
    }

    /// A flat min–max allocation of `k` components on `total` nodes: the
    /// makespan `t` over every component's time, under a node budget.
    fn flat_min_max(draw: &mut impl FnMut(f64, f64) -> f64, k: usize, total: i64) -> MinlpProblem {
        let mut p = MinlpProblem::new();
        let nodes: Vec<usize> = (0..k).map(|_| node_column(&mut p, draw, total)).collect();
        let t = p.add_var(1.0, 0.0, 1e9);
        for &v in &nodes {
            p.add_constraint(perf_row(draw, v, &[(t, -1.0)]));
        }
        p.add_constraint(budget(&nodes, total));
        p
    }

    /// A flat max–min allocation: `max s` with `s` under every component's
    /// time, and every node assigned (an equality row on node counts only).
    /// As in the flat model builder, `s` is capped by the components'
    /// summed times at one node plus 1e3.
    fn flat_max_min(draw: &mut impl FnMut(f64, f64) -> f64, k: usize, total: i64) -> MinlpProblem {
        let mut p = MinlpProblem::new();
        let nodes: Vec<usize> = (0..k).map(|_| p.add_int_var(0.0, 1, total)).collect();
        let models: Vec<(ScalarFn, f64)> = (0..k)
            .map(|_| (seeded_perf_model(draw), draw(0.0, 50.0)))
            .collect();
        let cap: f64 = models.iter().map(|(f, d)| f.eval(1.0) + d).sum();
        let s = p.add_var(-1.0, 0.0, cap + 1e3);
        for (&v, (f, d)) in nodes.iter().zip(&models) {
            let negated = f
                .terms()
                .iter()
                .map(|t| match *t {
                    Term::PowerDecay { a, c } => Term::PowerDecay { a: -a, c },
                    Term::PowerGrowth { b, c } => Term::PowerGrowth { b: -b, c },
                    Term::Linear { k } => Term::Linear { k: -k },
                })
                .collect();
            p.add_constraint(
                ConstraintFn::new("s_le")
                    .linear_term(s, 1.0)
                    .nonlinear_term(v, ScalarFn::from_terms(negated))
                    .with_constant(-d),
            );
        }
        p.add_linear_eq(nodes.iter().map(|&v| (v, 1.0)).collect(), total as f64);
        p
    }

    /// A CESM layout model (Table I) on seeded models: ice, land,
    /// atmosphere and ocean counts and the makespan `t`; layout 1 adds the
    /// `T_icelnd` column, which no cost term prices.
    fn cesm_layout(draw: &mut impl FnMut(f64, f64) -> f64, layout: u8, total: i64) -> MinlpProblem {
        let mut p = MinlpProblem::new();
        let [ni, nl, na, no] = [(); 4].map(|()| node_column(&mut p, draw, total));
        let t = p.add_var(1.0, 0.0, 1e9);
        let sum_row = |draw: &mut _, vars: &[usize]| {
            let row = ConstraintFn::new("t_ge_sum").linear_term(t, -1.0);
            vars.iter().fold(row, |row, &v| {
                row.nonlinear_term(v, seeded_perf_model(draw))
            })
        };
        match layout {
            1 => {
                let ticelnd = p.add_var(0.0, 0.0, 1e9);
                p.add_constraint(perf_row(draw, ni, &[(ticelnd, -1.0)]));
                p.add_constraint(perf_row(draw, nl, &[(ticelnd, -1.0)]));
                p.add_constraint(perf_row(draw, na, &[(ticelnd, 1.0), (t, -1.0)]));
                p.add_constraint(perf_row(draw, no, &[(t, -1.0)]));
                p.add_constraint(budget(&[na, no], total));
                p.add_constraint(
                    ConstraintFn::new("icelnd_within_atm")
                        .linear_term(ni, 1.0)
                        .linear_term(nl, 1.0)
                        .linear_term(na, -1.0),
                );
            }
            2 => {
                let seq = sum_row(draw, &[ni, nl, na]);
                p.add_constraint(seq);
                p.add_constraint(perf_row(draw, no, &[(t, -1.0)]));
                for v in [ni, nl, na] {
                    p.add_constraint(budget(&[v, no], total));
                }
            }
            _ => {
                let seq = sum_row(draw, &[ni, nl, na, no]);
                p.add_constraint(seq);
            }
        }
        p
    }

    /// An FMO-sized min–max allocation (`hslb-perf`'s `fmo_oa_case`
    /// shape): 96 fragments on 8 nodes each, each fragment useful up to a
    /// seeded count.
    fn fmo_sized(draw: &mut impl FnMut(f64, f64) -> f64) -> MinlpProblem {
        let (k, total) = (96, 768);
        let mut p = MinlpProblem::new();
        let nodes: Vec<usize> = (0..k)
            .map(|_| {
                let useful = int_in(draw, 4, 64);
                p.add_int_var(0.0, 1, useful)
            })
            .collect();
        let t = p.add_var(1.0, 0.0, 1e9);
        for &v in &nodes {
            p.add_constraint(perf_row(draw, v, &[(t, -1.0)]));
        }
        p.add_constraint(budget(&nodes, total));
        p
    }

    /// A seeded point of `p`'s box: each coordinate uniform on the lowest
    /// `share` of its range, so a small share keeps a node budget slack
    /// and a share of 1 often breaks it.
    fn seeded_point(
        p: &MinlpProblem,
        draw: &mut impl FnMut(f64, f64) -> f64,
        share: f64,
    ) -> Vec<f64> {
        let relax = p.relaxation();
        relax
            .lowers()
            .iter()
            .zip(relax.uppers())
            .map(|(&lo, &hi)| draw(lo, lo + share * (hi.min(1e4) - lo)))
            .collect()
    }

    /// Polishes `x` in `p`'s root box and checks the simplex path against
    /// the barrier on the same pinned relaxation: both find a point or
    /// neither does; when they do, the discrete coordinates agree, the
    /// objectives agree to 1e-7 relative, and the polish LP's optimum
    /// certifies. Returns whether a point was found.
    fn simplex_polish_agrees(p: &MinlpProblem, x: &[f64]) -> bool {
        let relax = p.relaxation();
        let (lo, hi) = (relax.lowers(), relax.uppers());
        let opts = MinlpOptions::default();
        let mut arena = ScratchArena::new(p);
        let mut stats = SolveStats::default();
        let simplex =
            polish_candidate(p, &mut arena, x, lo, hi, &opts, &opts.barrier(), &mut stats);
        assert_eq!(
            (stats.nlp_solves, stats.newton_iters),
            (0, 0),
            "barrier work: {stats:?}"
        );
        assert!(stats.lp_solves <= 1, "{stats:?}");
        assert_eq!(
            stats.simplex_pivots, stats.dual_pivots,
            "left the dual simplex: {stats:?}"
        );

        let snap = p.round_to_domain(x);
        let mut pinned = relax.clone();
        for j in p.discrete_vars() {
            pinned.set_bounds(j, snap[j], snap[j]);
        }
        let barrier = hslb_nlp::solve(&pinned).expect("the pins lie in the box");
        let feasible = barrier.status == NlpStatus::Optimal && p.is_feasible(&barrier.x, FEAS_TOL);
        match (simplex, feasible) {
            (Some((xs, obj)), true) => {
                assert_eq!(stats.lp_solves, 1);
                for j in p.discrete_vars() {
                    assert_eq!(xs[j].to_bits(), barrier.x[j].to_bits(), "column {j}");
                }
                let gap = (obj - barrier.objective).abs();
                assert!(
                    gap <= 1e-7 * obj.abs().max(1.0),
                    "simplex {obj} vs barrier {} at {snap:?}",
                    barrier.objective
                );
                let pinned_lp = arena
                    .pinned_lp
                    .as_ref()
                    .expect("the pinned problem is an LP");
                let lp = pinned_lp
                    .program(relax, &snap, lo, hi)
                    .expect("the pinned rows hold");
                let mut program = WarmLp::new(lp);
                let sol = program.solve(&SimplexOptions::default());
                sol.certify(program.lp())
                    .unwrap_or_else(|e| panic!("polish LP at {snap:?}: {e}"));
                true
            }
            (None, false) => false,
            (simplex, _) => panic!(
                "the paths disagree at {snap:?}: simplex {:?}, barrier {:?}",
                simplex.map(|s| s.1),
                barrier.status
            ),
        }
    }

    /// Runs [`simplex_polish_agrees`] at seeded points of `p`, half of
    /// them with a slack node budget, and returns how many found a point.
    fn polish_battery(
        p: &MinlpProblem,
        draw: &mut impl FnMut(f64, f64) -> f64,
        points: usize,
    ) -> usize {
        assert!(
            ScratchArena::new(p).pinned_lp.is_some(),
            "the pinned problem is an LP"
        );
        let k = p.discrete_vars().len() as f64;
        (0..points)
            .filter(|&i| {
                let share = if i % 2 == 0 { 1.0 / k } else { 1.0 };
                simplex_polish_agrees(p, &seeded_point(p, draw, share))
            })
            .count()
    }

    #[test]
    fn simplex_polish_matches_the_barrier_on_flat_min_max_and_max_min() {
        let mut draw = uniform(0x9011_0001);
        let (mut found, mut refused) = (0, 0);
        for _ in 0..20 {
            let k = int_in(&mut draw, 2, 8) as usize;
            let total = int_in(&mut draw, 2 * k as i64, 64);
            let p = flat_min_max(&mut draw, k, total);
            let hits = polish_battery(&p, &mut draw, 10);
            (found, refused) = (found + hits, refused + 10 - hits);
        }
        assert!(found > 0 && refused > 0, "{found} found, {refused} refused");
        // Max–min: the equality row has no continuous column, so it is
        // checked at the pins; points that assign every node pass it.
        for _ in 0..20 {
            let k = int_in(&mut draw, 2, 8) as usize;
            let total = int_in(&mut draw, 2 * k as i64, 64);
            let p = flat_max_min(&mut draw, k, total);
            let mut x = vec![1.0; k + 1];
            for _ in k as i64..total {
                x[int_in(&mut draw, 0, k as i64 - 1) as usize] += 1.0;
            }
            let first = draw(-0.4, 0.4);
            x[0] += first;
            assert!(simplex_polish_agrees(&p, &x), "every node assigned");
            x[0] += 1.0;
            assert!(!simplex_polish_agrees(&p, &x), "one node too many");
        }
    }

    #[test]
    fn simplex_polish_matches_the_barrier_on_layouts_1_to_3() {
        let mut draw = uniform(0x9011_0002);
        for layout in 1..=3 {
            let (mut found, mut refused) = (0, 0);
            for _ in 0..15 {
                let total = int_in(&mut draw, 8, 128);
                let p = cesm_layout(&mut draw, layout, total);
                let hits = polish_battery(&p, &mut draw, 10);
                (found, refused) = (found + hits, refused + 10 - hits);
            }
            assert!(found > 0, "layout {layout}: no point polished");
            // Layouts 1 and 2 have budget rows on node counts only; random
            // points break them.
            assert!(
                layout == 3 || refused > 0,
                "layout {layout}: no snap refused"
            );
        }
    }

    #[test]
    fn simplex_polish_matches_the_barrier_on_fmo_sized_clusters() {
        let mut draw = uniform(0x9011_0003);
        let p = fmo_sized(&mut draw);
        let found = polish_battery(&p, &mut draw, 12);
        assert!(found > 0 && found < 12, "{found} of 12 found");
    }

    #[test]
    fn binary_encoded_sets_polish_on_the_barrier_and_certify() {
        // E8's instance at k = 32: an allowed set of 32 even counts beside
        // an integer count under a node budget. Binary encoding leaves the
        // set column continuous with a nonlinear term on it.
        let k = 32;
        let n_total = 4 * k + 64;
        let mut p = MinlpProblem::new();
        let n1 = p.add_set_var(0.0, (1..=k).map(|m| 2 * m));
        let n2 = p.add_int_var(0.0, 1, n_total);
        let t = p.add_var(1.0, 0.0, 1e9);
        for (v, a, d) in [(n1, 5.0e4, 3.0), (n2, 2.7e4, 5.0)] {
            p.add_constraint(
                ConstraintFn::new("t")
                    .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 1.0))
                    .linear_term(t, -1.0)
                    .with_constant(d),
            );
        }
        p.add_constraint(budget(&[n1, n2], n_total));
        let (enc, blocks) = encode_sets_as_binaries(&p);
        let (_, start, _) = blocks[0];
        let mut arena = ScratchArena::new(&enc);
        assert!(
            arena.pinned_lp.is_none(),
            "a nonlinear term sits on a continuous column"
        );
        let relax = enc.relaxation();
        let opts = MinlpOptions::default();
        let mut draw = uniform(0x9011_0004);
        // Both ends of the set, the first under a budget without slack,
        // then seeded members and counts: propagation pins the set column
        // to the member, so neither leaves the barrier an empty interior.
        let ends = [(0, n_total - 2), (k - 1, 1)];
        let seeded: Vec<(i64, i64)> = (0..6)
            .map(|_| {
                let member = int_in(&mut draw, 0, k - 1);
                (member, int_in(&mut draw, 1, n_total - 2 * (member + 1)))
            })
            .collect();
        for (member, other) in ends.into_iter().chain(seeded) {
            let count = 2.0 * (member + 1) as f64;
            let mut x = vec![0.0; enc.num_vars()];
            x[n1] = count;
            x[n2] = other as f64 + draw(-0.4, 0.4);
            x[t] = 1e3;
            x[start + member as usize] = 1.0;
            let mut stats = SolveStats::default();
            let (xp, obj) = polish_candidate(
                &enc,
                &mut arena,
                &x,
                relax.lowers(),
                relax.uppers(),
                &opts,
                &opts.barrier(),
                &mut stats,
            )
            .expect("a one-hot selector inside the budget polishes");
            assert_eq!((stats.nlp_solves, stats.lp_solves), (1, 0), "{stats:?}");
            assert_eq!(xp[n1], count, "the linking rows pin the set column");
            let makespan = f64::max(5.0e4 / count + 3.0, 2.7e4 / xp[n2] + 5.0);
            assert!(
                (obj - makespan).abs() <= 1e-7 * makespan,
                "{obj} vs {makespan}"
            );
            let mut pinned = relax.clone();
            for j in enc.discrete_vars().into_iter().chain([n1]) {
                pinned.set_bounds(j, xp[j], xp[j]);
            }
            let sol = hslb_nlp::solve(&pinned).expect("the pins lie in the box");
            sol.certify(&pinned)
                .unwrap_or_else(|e| panic!("pinned NLP at {count}: {e}"));
            assert!((obj - sol.objective).abs() <= 1e-7 * obj.abs());
        }
    }

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
