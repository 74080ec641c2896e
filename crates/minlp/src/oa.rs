//! LP/NLP-based branch and bound (Quesada–Grossmann single-tree outer
//! approximation) — the algorithm the HSLB papers run inside MINOTAUR.
//!
//! Following §III-E of the IPDPSW'14 text verbatim:
//!
//! 1. An initial MILP relaxation is created by linearizing each nonlinear
//!    constraint around a single point — the solution of the continuous NLP
//!    relaxation ("linearization constraints derived from only a single
//!    point are added initially").
//! 2. A tree search solves increasingly tighter LP relaxations. Nodes whose
//!    LP value exceeds the incumbent are discarded.
//! 3. A fractional LP solution is first cut off with *integer secants*:
//!    each convex nonlinear row the point violates gets a linear cut in
//!    which every term on a fractional discrete coordinate is replaced by
//!    its chord through the two admissible neighbours of that coordinate
//!    (see `integer_secant`), and the node is re-solved. Only a point no
//!    secant separates triggers branching.
//! 4. An integer LP solution is checked against the true nonlinear
//!    constraints; if feasible it becomes the incumbent, otherwise the
//!    violated constraints are linearized around it ("we later add
//!    linearization constraints for only those nonlinear constraints that
//!    are violated significantly") and the node is re-solved.
//!
//! For convex constraints the first-order linearization underestimates the
//! function everywhere, and the chord underestimates it at every admissible
//! value, so every cut is valid at every node and the method terminates at
//! the global optimum.

use crate::bnb::{polish_candidate, prune_cutoff, recycle_node, Node, OrdF64};
use crate::branching::{make_branch, select_branch_var};
use crate::model::{MinlpProblem, VarDomain};
use crate::scratch::ScratchArena;
use crate::types::{MinlpOptions, MinlpSolution, MinlpStatus, NodeSelection, FEAS_TOL, INT_TOL};
use hslb_linalg::approx::exactly_zero;
use hslb_lp::{LinearProgram, LpStatus, RowSense, VarId, WarmLp};
use hslb_nlp::{ConstraintFn, NlpStatus};
use hslb_obs::{Deadline, Event, PruneReason, SolveStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How many times one node may be re-queued after cut rounds before it is
/// settled by pruning (safety valve against numerically stalled cuts).
const MAX_CUT_ROUNDS_PER_NODE: usize = 60;

/// Positive floor for sampled linearization points: the performance terms
/// `a·x^(-c)` blow up at 0, so every sample stays at least this far inside.
const SAMPLE_FLOOR: f64 = 1e-6;
/// Stand-in upper corner when a box side is unbounded above.
const SAMPLE_CEIL: f64 = 1e6;

/// Sampling fallback for initial linearization points: the box corners and
/// midpoint (infinite sides clamped), which bracket the curvature of the
/// univariate performance terms well enough to seed the master LP.
fn sample_points(relax: &hslb_nlp::NlpProblem) -> Vec<Vec<f64>> {
    let n = relax.num_vars();
    let clamp_lo = |j: usize| {
        let lo = relax.lowers()[j];
        if lo.is_finite() {
            lo.max(SAMPLE_FLOOR)
        } else {
            SAMPLE_FLOOR
        }
    };
    let clamp_hi = |j: usize| {
        let hi = relax.uppers()[j];
        if hi.is_finite() {
            hi.max(SAMPLE_FLOOR)
        } else {
            SAMPLE_CEIL
        }
    };
    let lo_pt: Vec<f64> = (0..n).map(clamp_lo).collect();
    let hi_pt: Vec<f64> = (0..n).map(clamp_hi).collect();
    let mid_pt: Vec<f64> = (0..n)
        .map(|j| (clamp_lo(j) * clamp_hi(j)).sqrt().max(SAMPLE_FLOOR))
        .collect();
    vec![mid_pt, lo_pt, hi_pt]
}

/// Appends the cut `coeffs·x <= rhs` to the master LP.
fn add_cut(master: &mut WarmLp, coeffs: Vec<(usize, f64)>, rhs: f64) {
    let row = coeffs.into_iter().map(|(v, co)| (VarId(v), co)).collect();
    master.add_row(row, RowSense::Le, rhs);
}

/// The admissible neighbours `a < x_j < b` of a fractional discrete
/// coordinate in the variable's full domain: consecutive integers, or
/// consecutive members of the allowed set. `None` for a continuous
/// coordinate and for one within [`INT_TOL`] of an admissible value.
fn admissible_neighbours(problem: &MinlpProblem, j: usize, xj: f64) -> Option<(f64, f64)> {
    if problem.domain_violation(j, xj) <= INT_TOL {
        return None;
    }
    match &problem.domains()[j] {
        VarDomain::Continuous => None,
        VarDomain::Integer => Some((xj.floor(), xj.floor() + 1.0)),
        VarDomain::AllowedValues(vals) => {
            let idx = vals.partition_point(|&v| (v as f64) < xj);
            let (a, b) = (vals.get(idx.checked_sub(1)?)?, vals.get(idx)?);
            Some((*a as f64, *b as f64))
        }
    }
}

/// The integer secant of the nonlinear row `c` at the master point `x`, as
/// `(coefficients, rhs)` of the cut `coeffs·x <= rhs`.
///
/// Each term `f(n_j)` on a fractional discrete coordinate is replaced by its
/// chord through the admissible neighbours `a < x_j < b`; every other term
/// keeps its tangent `f(x_j) + f'(x_j)(n - x_j)`. A convex `f` lies on or
/// above its chord outside `(a, b)`, which holds every admissible value, and
/// above its tangent everywhere, so the cut is valid for every
/// domain-feasible point of every node (the neighbours come from the full
/// domain, not the node box) and exact at both neighbours. `None` when the
/// row is not convex, no term got a chord, or a value is not finite (`f`
/// can be infinite at a neighbour). A row with no nonlinear term on a
/// fractional coordinate returns before any tangent is evaluated.
fn integer_secant(
    problem: &MinlpProblem,
    c: &ConstraintFn,
    x: &[f64],
) -> Option<(Vec<(usize, f64)>, f64)> {
    let fractional = |&(v, _): &(usize, _)| problem.domain_violation(v, x[v]) > INT_TOL;
    if !c.nonlinear.iter().any(fractional) || !c.is_convex() {
        return None;
    }
    let mut coeffs = c.linear.clone();
    let mut constant = c.constant;
    let mut any_chord = false;
    for (v, f) in &c.nonlinear {
        let xv = x[*v];
        let (slope, intercept) = match admissible_neighbours(problem, *v, xv) {
            Some((a, b)) => {
                any_chord = true;
                let fa = f.eval(a);
                let slope = (f.eval(b) - fa) / (b - a);
                (slope, fa - slope * a)
            }
            None => {
                let slope = f.d1(xv);
                (slope, f.eval(xv) - slope * xv)
            }
        };
        constant += intercept;
        match coeffs.iter_mut().find(|(u, _)| u == v) {
            Some((_, co)) => *co += slope,
            None => coeffs.push((*v, slope)),
        }
    }
    if !any_chord || !constant.is_finite() || coeffs.iter().any(|(_, co)| !co.is_finite()) {
        return None;
    }
    coeffs.retain(|&(_, co)| !exactly_zero(co));
    Some((coeffs, -constant))
}

/// Solves a convex MINLP with the LP/NLP-based branch-and-bound.
///
/// Requires a convex model for global optimality (matching the paper's
/// positivity argument); on nonconvex input the result is a heuristic and
/// the caller should prefer [`crate::solve_nlp_bnb`].
pub fn solve_oa_bnb(problem: &MinlpProblem, opts: &MinlpOptions) -> MinlpSolution {
    let barrier = opts.barrier();
    let lp_opts = hslb_lp::SimplexOptions {
        trace: opts.trace.clone(),
    };
    let relax = problem.relaxation();
    let n = problem.num_vars();
    let mut stats = SolveStats::default();
    let deadline = Deadline::start(&opts.clock, opts.time_limit);
    // A budget that is already spent (e.g. `time_limit: Some(0.0)`) must
    // stop before the root NLP, matching the tree solvers' zero-work exit.
    if deadline.expired() {
        opts.trace.emit(|| Event::TimeBudgetExhausted {
            elapsed: deadline.elapsed(),
        });
        let mut sol = MinlpSolution::infeasible(stats);
        sol.status = MinlpStatus::TimeLimit;
        return sol;
    }

    // ---- Root NLP relaxation -> initial linearization point --------------
    // The barrier needs a strict interior. Problems with linear equality
    // pairs (e.g. the explicit SOS1 binary encoding of §III-E) have none, so
    // a failed/degenerate root NLP falls back to multi-point sampling
    // linearization: cuts of a convex function are valid at *any* point, the
    // root NLP merely provides a good one.
    let mut arena = ScratchArena::new(relax.clone());
    stats.nlp_solves += 1;
    // A non-optimal verdict (including Infeasible: the barrier cannot see
    // through empty-interior equality pairs) defers to the LP tree, which
    // detects genuine infeasibility exactly.
    let root_points: Vec<Vec<f64>> = match hslb_nlp::solve_warm_with(&arena.relax, &barrier, None) {
        Ok(s) => {
            stats.merge(&s.work());
            if s.status == NlpStatus::Optimal && !s.x.is_empty() {
                vec![s.x]
            } else {
                sample_points(relax)
            }
        }
        Err(_) => sample_points(relax),
    };

    // ---- Master LP --------------------------------------------------------
    // The master keeps its simplex state across the whole tree: OA only
    // moves bounds and appends `<=` cut rows, both of which preserve dual
    // feasibility of the previous optimal basis, so each node LP re-enters
    // the dual simplex on the kept tableau and basis factor instead of a
    // fresh two-phase solve.
    let mut columns = LinearProgram::new();
    for j in 0..n {
        columns.add_var(relax.costs()[j], relax.lowers()[j], relax.uppers()[j]);
    }
    let mut master = WarmLp::new(columns);
    // Linear constraints become permanent rows; nonlinear ones contribute
    // initial OA cuts around the root points and are kept for lazy cutting.
    let mut nonlinear_ids = Vec::new();
    for (ci, c) in relax.constraints().iter().enumerate() {
        if c.is_linear() {
            let row: Vec<(VarId, f64)> = c.linear.iter().map(|&(v, co)| (VarId(v), co)).collect();
            master.add_row(row, RowSense::Le, -c.constant);
        } else {
            nonlinear_ids.push(ci);
            for pt in &root_points {
                let (coeffs, rhs) = c.linearize(pt);
                add_cut(&mut master, coeffs, rhs);
                stats.oa_cuts += 1;
            }
        }
    }
    let initial_cuts = stats.oa_cuts;
    opts.trace.emit(|| Event::CutsAdded {
        count: initial_cuts,
    });
    // Linear equalities map to exact LP rows.
    for e in relax.equalities() {
        let row: Vec<(VarId, f64)> = e.coeffs.iter().map(|&(v, co)| (VarId(v), co)).collect();
        master.add_row(row, RowSense::Eq, e.rhs);
    }

    // ---- Tree search ------------------------------------------------------
    let root = Node {
        lo: relax.lowers().to_vec(),
        hi: relax.uppers().to_vec(),
        bound: f64::NEG_INFINITY,
        depth: 0,
        seed: None,
    };
    let mut heap: BinaryHeap<(Reverse<OrdF64>, usize)> = BinaryHeap::new();
    let mut store: Vec<Option<(Node, usize)>> = Vec::new(); // (node, cut rounds)
    let mut stack: Vec<(Node, usize)> = Vec::new();
    let push_node = |node: Node,
                     rounds: usize,
                     heap: &mut BinaryHeap<(Reverse<OrdF64>, usize)>,
                     store: &mut Vec<Option<(Node, usize)>>,
                     stack: &mut Vec<(Node, usize)>| {
        match opts.node_selection {
            NodeSelection::BestBound => {
                heap.push((Reverse(OrdF64(node.bound)), store.len()));
                store.push(Some((node, rounds)));
            }
            NodeSelection::DepthFirst => stack.push((node, rounds)),
        }
    };
    push_node(root, 0, &mut heap, &mut store, &mut stack);

    let mut incumbent: Option<Vec<f64>> = None;
    let mut incumbent_obj = f64::INFINITY;
    let mut best_open_bound = f64::NEG_INFINITY;
    let mut hit_node_limit = false;
    let mut hit_time_limit = false;

    loop {
        let (node, cut_rounds) = match opts.node_selection {
            NodeSelection::BestBound => match heap.pop() {
                Some((Reverse(OrdF64(b)), idx)) => {
                    best_open_bound = b;
                    store[idx].take().expect("node already consumed")
                }
                None => break,
            },
            NodeSelection::DepthFirst => match stack.pop() {
                Some(entry) => entry,
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

        if node.bound >= prune_cutoff(incumbent_obj) {
            stats.pruned_by_bound += 1;
            opts.trace.emit(|| Event::NodePruned {
                reason: PruneReason::Bound,
                bound: node.bound,
            });
            recycle_node(&mut arena, node);
            continue;
        }

        // Node LP: install bounds, solve, restore.
        for j in 0..n {
            master.set_bounds(VarId(j), node.lo[j], node.hi[j]);
        }
        stats.lp_solves += 1;
        let lp_sol = if opts.warm_start {
            master.solve(&lp_opts)
        } else {
            hslb_lp::solve_with(master.lp(), &lp_opts)
        };
        stats.simplex_pivots += lp_sol.iterations as u64;
        stats.dual_pivots += lp_sol.dual_pivots as u64;
        stats.warm_start_hits += lp_sol.warm_used as u64;
        stats.factorizations += lp_sol.factorizations;
        stats.factor_updates += lp_sol.factor_updates;
        stats.fill_nnz += lp_sol.fill_nnz;
        match lp_sol.status {
            LpStatus::Infeasible => {
                stats.pruned_infeasible += 1;
                opts.trace.emit(|| Event::NodePruned {
                    reason: PruneReason::Infeasible,
                    bound: f64::NAN,
                });
                recycle_node(&mut arena, node);
                continue;
            }
            LpStatus::Optimal => {}
            LpStatus::Unbounded | LpStatus::IterationLimit => {
                // Pathological; fall back to pruning this node with the
                // inherited bound (conservative but safe for our models,
                // which are bounded by construction).
                stats.pruned_infeasible += 1;
                recycle_node(&mut arena, node);
                continue;
            }
        }
        let node_bound = lp_sol.objective.max(node.bound);
        if node_bound >= prune_cutoff(incumbent_obj) {
            stats.pruned_by_bound += 1;
            opts.trace.emit(|| Event::NodePruned {
                reason: PruneReason::Bound,
                bound: node_bound,
            });
            recycle_node(&mut arena, node);
            continue;
        }
        let x = lp_sol.x;

        if problem.is_domain_feasible(&x, INT_TOL) {
            // Integer point: check the true nonlinear constraints.
            let viol = nonlinear_ids
                .iter()
                .map(|&ci| relax.constraints()[ci].eval(&x).max(0.0))
                .fold(0.0_f64, f64::max);
            if viol <= FEAS_TOL {
                let obj = problem.objective_value(&x);
                if obj < incumbent_obj {
                    incumbent_obj = obj;
                    incumbent = Some(x);
                    stats.incumbents += 1;
                    opts.trace.emit(|| Event::Incumbent { objective: obj });
                }
                recycle_node(&mut arena, node);
                continue;
            }
            // Violated: fix integers, solve the NLP, cut, and re-queue.
            if let Some((cand, obj)) = polish_candidate(
                problem, &mut arena, &x, &node.lo, &node.hi, opts, &barrier, &mut stats,
            ) {
                if obj < incumbent_obj {
                    incumbent_obj = obj;
                    incumbent = Some(cand.clone());
                    stats.incumbents += 1;
                    opts.trace.emit(|| Event::Incumbent { objective: obj });
                }
                // OA cuts around the NLP optimum (the Quesada–Grossmann
                // "no-good via linearization" step).
                let mut round_cuts = 0u64;
                for &ci in &nonlinear_ids {
                    let (coeffs, rhs) = relax.constraints()[ci].linearize(&cand);
                    add_cut(&mut master, coeffs, rhs);
                    round_cuts += 1;
                }
                stats.oa_cuts += round_cuts;
                opts.trace.emit(|| Event::CutsAdded { count: round_cuts });
            }
            // Also cut away the LP point itself where it violates.
            let mut point_cuts = 0u64;
            for &ci in &nonlinear_ids {
                let c = &relax.constraints()[ci];
                if c.eval(&x) > FEAS_TOL {
                    let (coeffs, rhs) = c.linearize(&x);
                    add_cut(&mut master, coeffs, rhs);
                    point_cuts += 1;
                }
            }
            stats.oa_cuts += point_cuts;
            if point_cuts > 0 {
                opts.trace.emit(|| Event::CutsAdded { count: point_cuts });
            }
            if cut_rounds + 1 < MAX_CUT_ROUNDS_PER_NODE {
                let requeued = Node {
                    bound: node_bound,
                    ..node
                };
                push_node(requeued, cut_rounds + 1, &mut heap, &mut store, &mut stack);
            } else {
                recycle_node(&mut arena, node);
            }
            continue;
        }

        // Fractional: cut the point off with integer secants and re-solve
        // the node; branch only when no secant separates it or the node has
        // spent its cut rounds.
        let mut secants = 0u64;
        for &ci in &nonlinear_ids {
            let Some((coeffs, rhs)) = integer_secant(problem, &relax.constraints()[ci], &x) else {
                continue;
            };
            let value: f64 = coeffs.iter().map(|&(v, co)| co * x[v]).sum::<f64>() - rhs;
            if value > FEAS_TOL {
                add_cut(&mut master, coeffs, rhs);
                secants += 1;
            }
        }
        if secants > 0 {
            stats.oa_cuts += secants;
            opts.trace.emit(|| Event::CutsAdded { count: secants });
            if cut_rounds + 1 < MAX_CUT_ROUNDS_PER_NODE {
                let requeued = Node {
                    bound: node_bound,
                    ..node
                };
                push_node(requeued, cut_rounds + 1, &mut heap, &mut store, &mut stack);
                continue;
            }
        }
        let Some(j) = select_branch_var(problem, &x, &node.lo, &node.hi, INT_TOL) else {
            recycle_node(&mut arena, node);
            continue;
        };
        let Some(branch) = make_branch(problem, j, x[j], node.lo[j], node.hi[j]) else {
            recycle_node(&mut arena, node);
            continue;
        };
        for (blo, bhi) in [branch.down, branch.up] {
            if blo > bhi {
                continue;
            }
            let mut lo = arena.take_copy(&node.lo);
            let mut hi = arena.take_copy(&node.hi);
            lo[j] = blo;
            hi[j] = bhi;
            push_node(
                Node {
                    lo,
                    hi,
                    bound: node_bound,
                    depth: node.depth + 1,
                    seed: None,
                },
                0,
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
    use crate::bnb::solve_nlp_bnb;
    use hslb_nlp::{ScalarFn, Term};

    /// A seeded uniform stream on `[lo, hi)` (Knuth's MMIX LCG, top bits).
    fn uniform(seed: u64) -> impl FnMut(f64, f64) -> f64 {
        let mut state = seed;
        move |lo, hi| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + (hi - lo) * (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A seeded convex performance term `a·n^(-c) + b·n`.
    fn seeded_perf_model(draw: &mut impl FnMut(f64, f64) -> f64) -> ScalarFn {
        ScalarFn::perf_model(draw(10.0, 1e5), draw(0.0, 2.0), draw(0.2, 2.5))
    }

    /// Asserts the secant of the row `f(n) - t <= 0` at the fractional
    /// point `xn` lies on or below `f` at every admissible value and meets
    /// it at the neighbours `(a, b)`.
    fn assert_secant_valid(p: &MinlpProblem, f: &ScalarFn, xn: f64, admissible: &[i64]) {
        let row = ConstraintFn::new("perf")
            .nonlinear_term(0, f.clone())
            .linear_term(1, -1.0);
        let (a, b) = admissible_neighbours(p, 0, xn).expect("fractional coordinate");
        assert!(a < xn && xn < b, "neighbours {a}, {b} must bracket {xn}");
        let (coeffs, rhs) = integer_secant(p, &row, &[xn, 0.0]).expect("convex row with a chord");
        assert_eq!(coeffs.iter().find(|(v, _)| *v == 1), Some(&(1, -1.0)));
        let slope = coeffs
            .iter()
            .find(|(v, _)| *v == 0)
            .map_or(0.0, |&(_, s)| s);
        // The cut reads `t >= slope·n - rhs`.
        let secant = |n: f64| slope * n - rhs;
        for &m in admissible {
            let (m, fm) = (m as f64, f.eval(m as f64));
            assert!(
                secant(m) <= fm + 1e-12 * fm.abs(),
                "secant {} above f {fm} at admissible {m} (x = {xn})",
                secant(m)
            );
        }
        for n in [a, b] {
            let fv = f.eval(n);
            assert!(
                (secant(n) - fv).abs() <= 1e-12 * fv.abs(),
                "secant {} misses f {fv} at neighbour {n}",
                secant(n)
            );
        }
    }

    #[test]
    fn integer_secants_underestimate_on_integer_ranges() {
        let mut draw = uniform(0x5ec4_0001);
        for _ in 0..200 {
            let mut p = MinlpProblem::new();
            let hi = draw(2.0, 400.0) as i64;
            p.add_int_var(0.0, 1, hi);
            p.add_var(1.0, f64::NEG_INFINITY, f64::INFINITY);
            let f = seeded_perf_model(&mut draw);
            let floor = draw(1.0, hi as f64).floor();
            let xn = floor + draw(0.01, 0.99);
            let admissible: Vec<i64> = (1..=hi).collect();
            assert_secant_valid(&p, &f, xn, &admissible);
            assert_eq!(admissible_neighbours(&p, 0, xn), Some((floor, floor + 1.0)));
        }
    }

    #[test]
    fn integer_secants_underestimate_on_allowed_sets_with_gaps() {
        let mut draw = uniform(0x5ec4_0002);
        for trial in 0..200 {
            let mut p = MinlpProblem::new();
            let set: Vec<i64> = if trial == 0 {
                vec![2, 6, 10, 50]
            } else {
                let mut members = vec![draw(1.0, 8.0) as i64];
                for _ in 0..draw(1.0, 12.0) as usize {
                    let gap = draw(1.0, 300.0) as i64;
                    members.push(members[members.len() - 1] + gap);
                }
                members
            };
            p.add_set_var(0.0, set.iter().copied());
            p.add_var(1.0, f64::NEG_INFINITY, f64::INFINITY);
            let f = seeded_perf_model(&mut draw);
            let k = draw(0.0, (set.len() - 1) as f64) as usize;
            let (a, b) = (set[k] as f64, set[k + 1] as f64);
            let xn = a + (b - a) * draw(0.01, 0.99);
            assert_secant_valid(&p, &f, xn, &set);
            assert_eq!(admissible_neighbours(&p, 0, xn), Some((a, b)));
        }
    }

    #[test]
    fn integral_and_continuous_coordinates_keep_the_tangent() {
        let mut draw = uniform(0x5ec4_0003);
        for _ in 0..50 {
            let mut p = MinlpProblem::new();
            let frac = p.add_int_var(0.0, 1, 100);
            let integral = p.add_int_var(0.0, 1, 100);
            let set = p.add_set_var(0.0, [2, 6, 10, 50]);
            let cont = p.add_var(0.0, 1.0, 100.0);
            let t = p.add_var(1.0, 0.0, 1e9);
            let fs: Vec<ScalarFn> = (0..4).map(|_| seeded_perf_model(&mut draw)).collect();
            let row = ConstraintFn::new("sum")
                .nonlinear_term(frac, fs[0].clone())
                .nonlinear_term(integral, fs[1].clone())
                .nonlinear_term(set, fs[2].clone())
                .nonlinear_term(cont, fs[3].clone())
                .linear_term(t, -1.0);
            // Integral within INT_TOL, a set member, and a continuous value.
            let mut x = vec![
                draw(1.0, 99.0).floor() + 0.5,
                draw(1.0, 100.0).round() + 0.5 * INT_TOL,
                10.0,
                draw(1.0, 100.0),
                0.0,
            ];
            let (coeffs, rhs) = integer_secant(&p, &row, &x).expect("one chord");
            let coeff = |v: usize| coeffs.iter().find(|(u, _)| *u == v).map_or(0.0, |c| c.1);
            for (v, f) in [(integral, &fs[1]), (set, &fs[2]), (cont, &fs[3])] {
                let d = f.d1(x[v]);
                assert!((coeff(v) - d).abs() <= 1e-12 * d.abs(), "slope at {v}");
            }
            // At the lower neighbour of the fractional coordinate the cut is
            // exact: Σ f_j(x_j) on the other three terms plus f_0(a).
            x[frac] = x[frac].floor();
            let lhs: f64 = coeffs.iter().map(|&(v, co)| co * x[v]).sum();
            let exact: f64 = (0..4).map(|k| fs[k].eval(x[k])).sum();
            assert!(
                (lhs - rhs - exact).abs() <= 1e-10 * exact,
                "cut {} vs row {exact}",
                lhs - rhs
            );
            // No fractional coordinate, no secant: the tangent cuts of the
            // integer-point step cover that case.
            x[frac] = 7.0;
            assert!(integer_secant(&p, &row, &x).is_none());
        }
    }

    #[test]
    fn nonconvex_rows_and_infinite_neighbours_get_no_secant() {
        let mut p = MinlpProblem::new();
        let n = p.add_int_var(0.0, 0, 20);
        let t = p.add_var(1.0, 0.0, 1e9);
        let mut concave = ScalarFn::new();
        concave.push(Term::PowerGrowth { b: 1.0, c: 0.5 });
        let nonconvex = ConstraintFn::new("concave")
            .nonlinear_term(n, concave)
            .linear_term(t, -1.0);
        assert!(integer_secant(&p, &nonconvex, &[3.5, 0.0]).is_none());
        // a/n is infinite at the lower neighbour 0 of x = 0.5.
        let decay = ConstraintFn::new("decay")
            .nonlinear_term(n, ScalarFn::perf_model(100.0, 1.0, 1.0))
            .linear_term(t, -1.0);
        assert!(integer_secant(&p, &decay, &[0.5, 0.0]).is_none());
        assert!(integer_secant(&p, &decay, &[3.5, 0.0]).is_some());
    }

    fn allocation_problem(cap: i64, loads: &[f64]) -> MinlpProblem {
        let mut p = MinlpProblem::new();
        let vars: Vec<usize> = loads.iter().map(|_| p.add_int_var(0.0, 1, cap)).collect();
        let t = p.add_var(1.0, 0.0, 1e9);
        for (k, (&v, &a)) in vars.iter().zip(loads).enumerate() {
            p.add_constraint(
                ConstraintFn::new(format!("t{k}"))
                    .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 1.0))
                    .linear_term(t, -1.0),
            );
        }
        let mut c = ConstraintFn::new("cap").with_constant(-(cap as f64));
        for &v in &vars {
            c = c.linear_term(v, 1.0);
        }
        p.add_constraint(c);
        p
    }

    #[test]
    fn oa_matches_nlp_bnb_on_allocation() {
        for cap in [8, 13, 21] {
            let p = allocation_problem(cap, &[120.0, 360.0, 55.0]);
            let a = solve_oa_bnb(&p, &MinlpOptions::default());
            let b = solve_nlp_bnb(&p, &MinlpOptions::default());
            assert_eq!(a.status, MinlpStatus::Optimal, "cap={cap}");
            assert_eq!(b.status, MinlpStatus::Optimal, "cap={cap}");
            assert!(
                (a.objective - b.objective).abs() < 1e-4,
                "cap={cap}: OA {} vs BNB {}",
                a.objective,
                b.objective
            );
            assert!(p.is_feasible(&a.x, 1e-5));
        }
    }

    #[test]
    fn oa_matches_oracle() {
        let p = allocation_problem(10, &[200.0, 90.0]);
        let oa = solve_oa_bnb(&p, &MinlpOptions::default());
        let oracle = crate::oracle::solve_exhaustive(&p, 100_000).unwrap();
        assert_eq!(oa.status, MinlpStatus::Optimal);
        assert!(
            (oa.objective - oracle.objective).abs() < 1e-4,
            "OA {} vs oracle {}",
            oa.objective,
            oracle.objective
        );
    }

    #[test]
    fn oa_handles_allowed_sets() {
        let mut p = MinlpProblem::new();
        let n = p.add_set_var(0.0, [2, 6, 10, 50]);
        let t = p.add_var(1.0, 0.0, 1e6);
        p.add_constraint(
            ConstraintFn::new("perf")
                .nonlinear_term(n, ScalarFn::perf_model(100.0, 2.0, 1.0))
                .linear_term(t, -1.0),
        );
        let sol = solve_oa_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        assert!((sol.x[0] - 6.0).abs() < 1e-6, "{sol:?}");
    }

    #[test]
    fn oa_detects_infeasible() {
        let mut p = MinlpProblem::new();
        let nvar = p.add_int_var(0.0, 1, 5);
        p.add_constraint(
            ConstraintFn::new("ge10")
                .linear_term(nvar, -1.0)
                .with_constant(10.0),
        );
        let sol = solve_oa_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Infeasible);
    }

    #[test]
    fn oa_reports_cut_statistics() {
        let p = allocation_problem(11, &[120.0, 360.0]);
        let sol = solve_oa_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        assert!(
            sol.stats.oa_cuts >= 2,
            "initial linearizations must be counted: {sol:?}"
        );
        assert!(sol.stats.lp_solves >= 1);
        assert!(sol.stats.nlp_solves >= 1);
        assert!(
            sol.stats.simplex_pivots >= sol.stats.lp_solves,
            "each LP solve should pivot at least once here: {sol:?}"
        );
    }
}
