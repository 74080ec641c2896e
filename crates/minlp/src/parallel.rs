//! Parallel NLP-based branch and bound with a deterministic replay merge.
//!
//! A fork-join depth-first tree: each branch may run its two children
//! concurrently through a budget-limited `join` built on `std::thread::scope`,
//! so the number of live worker threads never exceeds the configured budget
//! (no external thread-pool dependency).
//!
//! # Determinism contract
//!
//! A **completed** parallel search returns the *exact* result of the serial
//! [`NodeSelection::DepthFirst`](crate::types::NodeSelection) solver — the
//! same incumbent vector, objective, and bit-identical [`SolveStats`] — at
//! any thread count. This is stronger than the usual "same optimum" claim:
//! with a racy shared incumbent, prune counts and even the returned argmin
//! (among tied optima) depend on candidate arrival order, which varies run
//! to run. The fix is *speculate, then replay*:
//!
//! 1. Every node carries a **DFS label**: the path of child indices from
//!    the root (`0` = up child, `1` = down child). Lexicographic order on
//!    labels is exactly the serial depth-first visit order (the serial loop
//!    pushes `[down, up]` and pops up first).
//! 2. The live prune test at a node only consults candidates with a
//!    *strictly earlier label* — information the serial traversal would
//!    also have had — and drops the optimality-gap slack (`bound >= best`
//!    instead of `bound >= best - gap`). Both together guarantee the
//!    parallel tree explores a **superset** of the serial tree: a node is
//!    live-pruned only if the serial solver would have pruned it too, even
//!    when the candidate pool contains speculative finds (every candidate,
//!    speculative or not, scores within one gap of the serial incumbent of
//!    any later node, because its pruned ancestor's bound was itself within
//!    one gap of the incumbent that pruned it).
//! 3. Each node writes a `NodeRecord` of its intrinsic outcome (bound,
//!    relaxation work, feasibility, polish candidate). After the join, a
//!    sequential **replay** walks the records in label order, re-derives
//!    every prune/incumbent decision with serial semantics, skips subtrees
//!    the serial solver would never have visited, and sums only the work
//!    the serial solver would have done.
//!
//! Speculatively explored nodes therefore cost wall-clock time (a few
//! extra relaxations near the gap boundary and around in-flight incumbent
//! improvements) but never show up in counters or results. A search cut
//! short by `time_limit`/`max_nodes` cannot be replayed (the serial prefix
//! is incomplete), so limited searches keep anytime semantics: counters
//! report the work actually done — inherently timing-dependent — and the
//! incumbent is the best recorded candidate (ties broken by earliest
//! label). Trace events always narrate the *live* execution, speculation
//! included.

use crate::bnb::{polish_candidate, prune_cutoff, solve_relaxation};
use crate::branching::{make_branch, select_branch_var};
use crate::model::MinlpProblem;
use crate::scratch::ScratchArena;
use crate::types::{MinlpOptions, MinlpSolution, MinlpStatus, INT_TOL};
use hslb_nlp::{BarrierOptions, WarmStart};
use hslb_obs::{Deadline, Event, PruneReason, SolveStats};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// DFS path from the root: `0` = up child, `1` = down child. Lexicographic
/// order (with the prefix sorting first) is the serial depth-first
/// preorder.
type Label = Vec<u8>;

/// A counting budget of *extra* worker threads.
///
/// A branch point forks its second child onto a freshly scoped thread only
/// while [`try_acquire`](SpawnBudget::try_acquire) grants a slot; otherwise
/// both children run sequentially on the caller. This keeps the total
/// thread count bounded by `budget + 1` no matter how deep the tree forks —
/// the pre-port rayon version relied on a work-stealing pool for the same
/// guarantee.
struct SpawnBudget {
    slots: AtomicIsize,
}

impl SpawnBudget {
    fn new(extra_threads: usize) -> Self {
        SpawnBudget {
            slots: AtomicIsize::new(extra_threads as isize),
        }
    }

    fn try_acquire(&self) -> bool {
        let prev = self.slots.fetch_sub(1, Ordering::AcqRel);
        if prev <= 0 {
            self.slots.fetch_add(1, Ordering::AcqRel);
            false
        } else {
            true
        }
    }

    fn release(&self) {
        self.slots.fetch_add(1, Ordering::AcqRel);
    }
}

/// A feasible candidate discovered by polish, tagged with the label of the
/// node that produced it. The pool holds every candidate ever found (not
/// just improvements): live prune tests filter it by label, and the replay
/// re-derives which ones the serial traversal would have accepted.
struct Candidate {
    label: Label,
    obj: f64,
}

/// Everything the replay needs to re-derive one node's serial fate. The
/// fields are *intrinsic* to the node's box (relaxation outcome, polish
/// candidate, work counters) — never dependent on the shared incumbent —
/// so they are identical to what the serial solver would have computed.
struct NodeRecord {
    label: Label,
    /// Lower bound inherited from the parent at entry.
    bound_in: f64,
    outcome: Outcome,
}

enum Outcome {
    /// Live-pruned at entry on the inherited bound. The margin rule
    /// guarantees the serial solver prunes here too.
    EntryPruned,
    /// Relaxation infeasible (or failed to produce a point).
    Infeasible { relax_work: SolveStats },
    /// Live-pruned after the relaxation on the node bound. The margin rule
    /// guarantees the serial solver prunes here too, so the skipped polish
    /// can never be work the serial solver would have done.
    PostPruned {
        relax_work: SolveStats,
        node_bound: f64,
    },
    /// Survived both live prune tests; polish ran when the serial solver
    /// would have run it (root or domain-feasible relaxation).
    Expanded {
        relax_work: SolveStats,
        node_bound: f64,
        domain_ok: bool,
        polish_work: SolveStats,
        candidate: Option<(f64, Vec<f64>)>,
    },
}

struct Shared<'p> {
    problem: &'p MinlpProblem,
    opts: &'p MinlpOptions,
    barrier: BarrierOptions,
    budget: SpawnBudget,
    deadline: Deadline,
    /// Every candidate found so far, for label-filtered live prune tests.
    candidates: Mutex<Vec<Candidate>>,
    /// Best objective seen live (any label) — anytime incumbent tracking
    /// for the limited path and for `Event::Incumbent` emission.
    anytime_best: Mutex<f64>,
    /// Per-node records for the deterministic replay.
    records: Mutex<Vec<NodeRecord>>,
    /// Nodes claimed against `max_nodes`; the claim is the count.
    nodes: AtomicUsize,
    /// Per-task counters merged here as tasks finish — the anytime totals
    /// used when a limit fires (`nodes_opened` is authoritative in `nodes`
    /// above and patched in at the end).
    stats: Mutex<SolveStats>,
    node_limit_hit: AtomicBool,
    time_limit_hit: AtomicBool,
}

impl<'p> Shared<'p> {
    /// Best candidate objective among nodes the serial traversal would
    /// have visited *before* `label` (ancestors included: a prefix sorts
    /// lexicographically earlier). Infinity when none arrived yet — missing
    /// information only weakens pruning, it never invalidates it.
    fn known_best_before(&self, label: &[u8]) -> f64 {
        let pool = self.candidates.lock().expect("candidate lock poisoned");
        pool.iter()
            .filter(|c| c.label.as_slice() < label)
            .fold(f64::INFINITY, |acc, c| acc.min(c.obj))
    }

    /// Publishes a candidate to the pool and updates the anytime best.
    /// Returns true when it strictly improved the live incumbent (the
    /// caller counts the improvement in its local anytime stats).
    fn publish(&self, label: Label, obj: f64) -> bool {
        self.candidates
            .lock()
            .expect("candidate lock poisoned")
            .push(Candidate { label, obj });
        let mut best = self.anytime_best.lock().expect("anytime lock poisoned");
        let better = obj < *best;
        if better {
            *best = obj;
        }
        better
    }

    fn record(&self, rec: NodeRecord) {
        self.records.lock().expect("record lock poisoned").push(rec);
    }

    fn stopped(&self) -> bool {
        self.node_limit_hit.load(Ordering::Relaxed) || self.time_limit_hit.load(Ordering::Relaxed)
    }

    fn merge(&self, local: &SolveStats) {
        self.stats.lock().expect("stats lock poisoned").merge(local);
    }
}

/// Sequential cutoff: subtrees below this depth stop trying to fork.
const SPAWN_DEPTH: usize = 12;

/// Solves a convex MINLP with the parallel branch-and-bound tree.
///
/// `opts.threads` caps the worker count (`0` = one worker per available
/// core; the count never affects results — see the module docs). Honors
/// `opts.time_limit` like the serial solvers: on expiry the remaining
/// subtrees are abandoned and the best incumbent is returned under
/// [`MinlpStatus::TimeLimit`].
pub fn solve_parallel_bnb(problem: &MinlpProblem, opts: &MinlpOptions) -> MinlpSolution {
    let workers = if opts.threads > 0 {
        opts.threads
    } else {
        // lint:allow(ambient-entropy): sizes the worker pool only — the label-ordered replay merge makes results thread-count-independent (module docs), so this entropy never reaches solver state
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let shared = Shared {
        problem,
        opts,
        barrier: opts.barrier(),
        budget: SpawnBudget::new(workers.saturating_sub(1)),
        deadline: Deadline::start(&opts.clock, opts.time_limit),
        candidates: Mutex::new(Vec::new()),
        anytime_best: Mutex::new(f64::INFINITY),
        records: Mutex::new(Vec::new()),
        nodes: AtomicUsize::new(0),
        stats: Mutex::new(SolveStats::default()),
        node_limit_hit: AtomicBool::new(false),
        time_limit_hit: AtomicBool::new(false),
    };

    let lo = problem.relaxation().lowers().to_vec();
    let hi = problem.relaxation().uppers().to_vec();
    let mut arena = ScratchArena::new(problem);
    explore(
        &shared,
        &mut arena,
        lo,
        hi,
        f64::NEG_INFINITY,
        Vec::new(),
        None,
    );

    let node_limit = shared.node_limit_hit.load(Ordering::Relaxed);
    let time_limit = shared.time_limit_hit.load(Ordering::Relaxed);
    let limited = node_limit || time_limit;
    let limit_status = if time_limit {
        MinlpStatus::TimeLimit
    } else {
        MinlpStatus::NodeLimit
    };
    let mut records = shared
        .records
        .into_inner()
        .expect("record lock poisoned at teardown");

    if !limited {
        // Complete search: the replay *is* the result. Counters, incumbent
        // and objective all come from the reconstructed serial traversal.
        let (stats, incumbent) = replay(&mut records);
        return match incumbent {
            Some((obj, x)) => MinlpSolution {
                status: MinlpStatus::Optimal,
                objective: obj,
                best_bound: obj,
                x,
                stats,
            },
            None => MinlpSolution::infeasible(stats),
        };
    }

    // Limited search: anytime semantics. Counters report the work actually
    // done (timing-dependent by nature — the abandoned frontier depends on
    // when the limit fired); the incumbent is the best recorded candidate,
    // ties broken by earliest serial label so at least the *choice* among
    // equals is stable.
    let mut stats = shared
        .stats
        .into_inner()
        .expect("stats lock poisoned at teardown");
    stats.nodes_opened = shared.nodes.load(Ordering::Relaxed) as u64;
    let mut best: Option<(f64, Vec<f64>, Label)> = None;
    for rec in records {
        if let Outcome::Expanded {
            candidate: Some((obj, x)),
            ..
        } = rec.outcome
        {
            let better = match &best {
                Some((bobj, _, blabel)) => obj < *bobj || (obj == *bobj && rec.label < *blabel),
                None => true,
            };
            if better {
                best = Some((obj, x, rec.label));
            }
        }
    }
    match best {
        Some((obj, x, _)) => MinlpSolution {
            status: limit_status,
            objective: obj,
            // The depth-first tree tracks no open-node bounds, so a
            // truncated search can only claim the trivial bound (this
            // matches the serial solver under `NodeSelection::DepthFirst`).
            best_bound: f64::NEG_INFINITY,
            x,
            stats,
        },
        None => {
            let mut s = MinlpSolution::infeasible(stats);
            // Infeasibility was not *proven*: the search was cut short.
            s.status = limit_status;
            s
        }
    }
}

/// Sequentially re-derives the serial depth-first traversal from the node
/// records: walk in label order, apply the serial prune/incumbent rules,
/// skip whole subtrees the serial solver would have pruned, and sum only
/// the work it would have done.
fn replay(records: &mut [NodeRecord]) -> (SolveStats, Option<(f64, Vec<f64>)>) {
    records.sort_unstable_by(|a, b| a.label.cmp(&b.label));
    let mut stats = SolveStats::default();
    let mut best_obj = f64::INFINITY;
    let mut best_idx: Option<usize> = None;
    // Pruned subtrees are contiguous preorder intervals; one active prefix
    // suffices (a prune inside a skipped interval is itself skipped).
    let mut skip: Option<&[u8]> = None;
    for (i, rec) in records.iter().enumerate() {
        if let Some(prefix) = skip {
            if rec.label.starts_with(prefix) {
                continue;
            }
            skip = None;
        }
        stats.nodes_opened += 1;
        if rec.bound_in >= prune_cutoff(best_obj) {
            stats.pruned_by_bound += 1;
            skip = Some(&rec.label);
            continue;
        }
        match &rec.outcome {
            Outcome::EntryPruned => {
                // The live margin rule prunes strictly less than the serial
                // rule, so the serial test above must have fired first; the
                // only way here is a numerically invalid relaxation bound.
                debug_assert!(false, "live entry-prune survived serial replay");
                stats.pruned_by_bound += 1;
                skip = Some(&rec.label);
            }
            Outcome::Infeasible { relax_work } => {
                stats.merge(relax_work);
                stats.pruned_infeasible += 1;
            }
            Outcome::PostPruned {
                relax_work,
                node_bound,
            } => {
                stats.merge(relax_work);
                debug_assert!(
                    *node_bound >= prune_cutoff(best_obj),
                    "live post-prune survived serial replay"
                );
                stats.pruned_by_bound += 1;
                skip = Some(&rec.label);
            }
            Outcome::Expanded {
                relax_work,
                node_bound,
                domain_ok,
                polish_work,
                candidate,
            } => {
                stats.merge(relax_work);
                if *node_bound >= prune_cutoff(best_obj) {
                    // Speculatively expanded: the serial solver prunes here
                    // and never sees this subtree.
                    stats.pruned_by_bound += 1;
                    skip = Some(&rec.label);
                    continue;
                }
                if rec.label.is_empty() || *domain_ok {
                    stats.merge(polish_work);
                    if let Some((obj, _)) = candidate {
                        if *obj < best_obj {
                            best_obj = *obj;
                            best_idx = Some(i);
                            stats.incumbents += 1;
                        }
                    }
                }
            }
        }
    }
    let incumbent = best_idx.and_then(|i| {
        // `best_idx` always points at a candidate-bearing Expanded record
        // (it is only set on one above); the and_then keeps the extraction
        // total without a panic path.
        match std::mem::replace(&mut records[i].outcome, Outcome::EntryPruned) {
            Outcome::Expanded { candidate, .. } => candidate,
            _ => None,
        }
    });
    (stats, incumbent)
}

/// Processes one node (and recursively its subtree), then returns the
/// node's box buffers to `arena`. `bound` is the valid lower bound
/// inherited from the parent's relaxation — the serial loop stores it on
/// the stacked node; here it rides the call, as does the parent's barrier
/// warm start (`seed`, shared by both siblings through one `Arc`).
fn explore(
    shared: &Shared<'_>,
    arena: &mut ScratchArena,
    lo: Vec<f64>,
    hi: Vec<f64>,
    bound: f64,
    label: Label,
    seed: Option<Arc<WarmStart>>,
) {
    explore_node(shared, arena, &lo, &hi, bound, label, seed);
    arena.put(lo);
    arena.put(hi);
}

fn explore_node(
    shared: &Shared<'_>,
    arena: &mut ScratchArena,
    lo: &[f64],
    hi: &[f64],
    bound: f64,
    label: Label,
    seed: Option<Arc<WarmStart>>,
) {
    // Mirror the serial loop's per-pop limit checks, in the same order:
    // an already-tripped limit abandons the subtree, then the time budget,
    // then the node budget (whose claim doubles as the anytime node count).
    if shared.stopped() {
        return;
    }
    if shared.deadline.expired() {
        if !shared.time_limit_hit.swap(true, Ordering::Relaxed) {
            shared.opts.trace.emit(|| Event::TimeBudgetExhausted {
                elapsed: shared.deadline.elapsed(),
            });
        }
        return;
    }
    let max_nodes = shared.opts.max_nodes;
    let claimed = shared
        .nodes
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < max_nodes).then_some(n + 1)
        });
    if claimed.is_err() {
        shared.node_limit_hit.store(true, Ordering::Relaxed);
        return;
    }
    let depth = label.len();
    let mut local = SolveStats::default();
    shared.opts.trace.emit(|| Event::NodeOpened {
        depth: depth as u64,
        bound,
    });

    // Inherited-bound prune. The margin rule (`>= best`, not
    // `>= best - gap`) against label-earlier candidates only guarantees
    // prunes the serial traversal would also take — see the module docs.
    if bound >= shared.known_best_before(&label) {
        local.pruned_by_bound += 1;
        shared.opts.trace.emit(|| Event::NodePruned {
            reason: PruneReason::Bound,
            bound,
        });
        shared.merge(&local);
        shared.record(NodeRecord {
            label,
            bound_in: bound,
            outcome: Outcome::EntryPruned,
        });
        return;
    }

    let mut relax_work = SolveStats::default();
    let Some(relax) = solve_relaxation(
        shared.problem,
        arena,
        lo,
        hi,
        seed.as_deref(),
        &shared.barrier,
        &mut relax_work,
    ) else {
        local.merge(&relax_work);
        local.pruned_infeasible += 1;
        shared.opts.trace.emit(|| Event::NodePruned {
            reason: PruneReason::Infeasible,
            bound: f64::NAN,
        });
        shared.merge(&local);
        shared.record(NodeRecord {
            label,
            bound_in: bound,
            outcome: Outcome::Infeasible { relax_work },
        });
        return;
    };
    let node_bound = if relax.bound_valid {
        relax.objective.max(bound)
    } else {
        bound
    };
    if node_bound >= shared.known_best_before(&label) {
        local.merge(&relax_work);
        local.pruned_by_bound += 1;
        shared.opts.trace.emit(|| Event::NodePruned {
            reason: PruneReason::Bound,
            bound: node_bound,
        });
        shared.merge(&local);
        shared.record(NodeRecord {
            label,
            bound_in: bound,
            outcome: Outcome::PostPruned {
                relax_work,
                node_bound,
            },
        });
        return;
    }

    let domain_ok = shared.problem.is_domain_feasible(&relax.x, INT_TOL);
    let mut polish_work = SolveStats::default();
    let mut candidate = None;
    if depth == 0 || domain_ok {
        if let Some((cand, obj)) = polish_candidate(
            shared.problem,
            arena,
            &relax.x,
            lo,
            hi,
            shared.opts,
            &shared.barrier,
            &mut polish_work,
        ) {
            if shared.publish(label.clone(), obj) {
                local.incumbents += 1;
                shared
                    .opts
                    .trace
                    .emit(|| Event::Incumbent { objective: obj });
            }
            candidate = Some((obj, cand));
        }
    }
    local.merge(&relax_work);
    local.merge(&polish_work);

    let branch = if domain_ok {
        // Domain-feasible relaxation: node is settled (polish above
        // already captured the candidate).
        None
    } else {
        select_branch_var(shared.problem, &relax.x, lo, hi, INT_TOL)
            .and_then(|j| make_branch(shared.problem, j, relax.x[j], lo[j], hi[j]).map(|b| (j, b)))
    };
    shared.merge(&local);

    let Some((j, branch)) = branch else {
        shared.record(NodeRecord {
            label,
            bound_in: bound,
            outcome: Outcome::Expanded {
                relax_work,
                node_bound,
                domain_ok,
                polish_work,
                candidate,
            },
        });
        return;
    };

    // Both children share one Arc of this node's relaxation point and
    // duals — the same values the serial tree would hand them, so the
    // replay sees the warm-start hits the serial tree would have scored.
    let child_seed = shared
        .opts
        .warm_start
        .then(|| Arc::new(WarmStart::new(relax.x, relax.multipliers)));

    // Children in the serial pop order: the serial loop pushes [down, up]
    // on its stack and pops the *up* child first, so up gets label bit 0
    // and runs first in the no-slot fallback below.
    let mut children = Vec::with_capacity(2);
    for (bit, (blo, bhi)) in [(0u8, branch.up), (1u8, branch.down)] {
        if blo > bhi {
            continue;
        }
        let mut clo = arena.take_copy(lo);
        let mut chi = arena.take_copy(hi);
        clo[j] = blo;
        chi[j] = bhi;
        let mut clabel = label.clone();
        clabel.push(bit);
        children.push((clabel, clo, chi));
    }
    shared.record(NodeRecord {
        label,
        bound_in: bound,
        outcome: Outcome::Expanded {
            relax_work,
            node_bound,
            domain_ok,
            polish_work,
            candidate,
        },
    });
    match (children.len(), depth < SPAWN_DEPTH) {
        (2, true) if shared.budget.try_acquire() => {
            let mut it = children.into_iter();
            let (lb1, l1, h1) = it
                .next()
                .expect("match arm guarantees exactly two children");
            let (lb2, l2, h2) = it
                .next()
                .expect("match arm guarantees exactly two children");
            let seed2 = child_seed.clone();
            std::thread::scope(|s| {
                // The spawned task gets its own arena (one relaxation clone
                // per *fork*, not per node); the caller keeps reusing its
                // own for the first child.
                s.spawn(move || {
                    let mut spawned = ScratchArena::new(shared.problem);
                    explore(shared, &mut spawned, l2, h2, node_bound, lb2, seed2);
                });
                explore(shared, arena, l1, h1, node_bound, lb1, child_seed);
            });
            shared.budget.release();
        }
        _ => {
            for (clabel, clo, chi) in children {
                explore(
                    shared,
                    arena,
                    clo,
                    chi,
                    node_bound,
                    clabel,
                    child_seed.clone(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::solve_nlp_bnb;
    use crate::types::NodeSelection;
    use hslb_nlp::{ConstraintFn, ScalarFn};

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
    fn parallel_matches_serial_objective() {
        for cap in [9, 14] {
            let p = allocation_problem(cap, &[120.0, 360.0, 77.0]);
            let serial = solve_nlp_bnb(&p, &MinlpOptions::default());
            let par = solve_parallel_bnb(&p, &MinlpOptions::default());
            assert_eq!(par.status, MinlpStatus::Optimal);
            assert!(
                (serial.objective - par.objective).abs() < 1e-4,
                "cap={cap}: serial {} vs parallel {}",
                serial.objective,
                par.objective
            );
            assert!(p.is_feasible(&par.x, 1e-5));
        }
    }

    #[test]
    fn parallel_detects_infeasible() {
        let mut p = MinlpProblem::new();
        let n = p.add_int_var(0.0, 1, 5);
        p.add_constraint(
            ConstraintFn::new("ge10")
                .linear_term(n, -1.0)
                .with_constant(10.0),
        );
        let sol = solve_parallel_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Infeasible);
    }

    #[test]
    fn parallel_respects_thread_option() {
        let p = allocation_problem(12, &[100.0, 250.0]);
        for threads in [1, 2, 4] {
            let sol = solve_parallel_bnb(
                &p,
                &MinlpOptions {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(sol.status, MinlpStatus::Optimal, "threads={threads}");
        }
    }

    #[test]
    fn parallel_handles_sets() {
        let mut p = MinlpProblem::new();
        let n = p.add_set_var(0.0, [2, 6, 10, 50]);
        let t = p.add_var(1.0, 0.0, 1e6);
        p.add_constraint(
            ConstraintFn::new("perf")
                .nonlinear_term(n, ScalarFn::perf_model(100.0, 2.0, 1.0))
                .linear_term(t, -1.0),
        );
        let sol = solve_parallel_bnb(&p, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        assert!((sol.x[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn any_thread_count_replays_serial_depth_first() {
        // The determinism contract: a completed parallel search returns the
        // serial depth-first solver's counters, objective, and incumbent
        // vector bit-for-bit, at every thread count (see module docs).
        for cap in [9, 12, 14] {
            let p = allocation_problem(cap, &[120.0, 360.0, 77.0]);
            let serial = solve_nlp_bnb(
                &p,
                &MinlpOptions {
                    node_selection: NodeSelection::DepthFirst,
                    ..Default::default()
                },
            );
            for threads in [1, 2, 4, 8] {
                let par = solve_parallel_bnb(
                    &p,
                    &MinlpOptions {
                        threads,
                        ..Default::default()
                    },
                );
                assert_eq!(serial.stats, par.stats, "cap={cap} threads={threads}");
                assert_eq!(serial.status, par.status, "cap={cap} threads={threads}");
                assert_eq!(
                    serial.objective, par.objective,
                    "cap={cap} threads={threads}"
                );
                assert_eq!(serial.x, par.x, "cap={cap} threads={threads}");
            }
        }
    }

    #[test]
    fn spawn_budget_never_goes_negative() {
        let budget = SpawnBudget::new(2);
        assert!(budget.try_acquire());
        assert!(budget.try_acquire());
        assert!(!budget.try_acquire());
        budget.release();
        assert!(budget.try_acquire());
        budget.release();
        budget.release();
    }
}
