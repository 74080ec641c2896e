//! Interior-point solver for structured convex NLPs.
//!
//! Minimizes `cᵀx` subject to `g_i(x) <= 0`, linear equalities `A x = b`,
//! and box bounds. The Mehrotra predictor-corrector loop in [`crate::mpc`]
//! does the work; this module owns everything around it: the reduced
//! problem, start points (warm repair, equality projection, phase 1), the
//! shared multiplier refinement, and the fixed-μ barrier loop
//!
//! ```text
//! min  cᵀx - μ Σ log(-g_i(x)) - μ Σ log(x_j - lo_j) - μ Σ log(hi_j - x_j)
//! s.t. A x = b
//! ```
//!
//! with damped equality-constrained Newton steps and geometric μ shrink.
//! That loop runs only where MPC cannot finish: MPC exhausted its budget,
//! or the problem has no barrier terms to center on. Each solve that ran
//! it says so in [`NlpSolution::barrier_fallbacks`]. Fixed variables
//! (`lo == hi`, produced when branch-and-bound pins an integer) are
//! eliminated from the Newton system, and constraints that touch no free
//! variable become plain feasibility checks — they may sit exactly on their
//! boundary (e.g. a saturated capacity row), which the strict barrier
//! interior would otherwise reject.

use crate::problem::NlpProblem;
use hslb_linalg::approx::exactly_zero;
use hslb_linalg::{
    CholSymbolic, Cholesky, CscMatrix, Lu, LuSymbolic, Matrix, Qr, SparseCholesky, SparseLu,
    SparseWorkspace, SPARSE_CROSSOVER_DIM,
};
use hslb_obs::{Event, SolveStats, Trace};

/// Initial barrier weight of a cold solve (before `mu0_scale`), and the
/// ceiling on warm ones.
const MU0: f64 = 10.0;
/// Multiplicative μ decrease per fixed-μ stage.
const MU_SHRINK: f64 = 0.2;
/// Duality-gap stopping tolerance: a solve is done once
/// `μ·(#constraints + #finite bounds)` is at most this.
pub(crate) const GAP_TOL: f64 = 1e-9;
/// Fixed-μ stage convergence: the Newton step norm, relative to the
/// iterate's scale, falls below this.
const NEWTON_TOL: f64 = 1e-10;
/// Newton budget: MPC iterations per solve, and fixed-μ Newton steps per
/// μ stage. Epigraph formulations start far from the central path (t at
/// the midpoint of a huge box) and need well over 60 steps to walk it in;
/// stalling there costs more than converging.
pub(crate) const MAX_NEWTON: usize = 200;
/// Fixed-μ stages before the loop gives up.
const MAX_OUTER: usize = 60;
/// Strict-feasibility margin demanded of starting points.
const INTERIOR_MARGIN: f64 = 1e-8;
/// Relative feasibility tolerance for constraints whose variables are all
/// pinned: they are checked once against this, not barrier-enforced.
const PINNED_FEAS_TOL: f64 = 1e-7;
/// Relative equality-residual tolerance for an acceptable start point.
const EQ_RESIDUAL_TOL: f64 = 1e-9;
/// Looser residual bound accepted when projection rounds run out — the
/// Newton iterations keep correcting equality drift of this size.
const EQ_RESIDUAL_LOOSE_TOL: f64 = 1e-5;
/// Fraction of the box width used to pull start points strictly inside.
const START_MARGIN_FRAC: f64 = 1e-4;
/// Floor on the width scale used for that margin (degenerate boxes).
const MIN_MARGIN_SCALE: f64 = 1e-6;
/// Cholesky regularization when projecting onto the equality manifold.
const PROJ_CHOL_REG: f64 = 1e-12;
/// Cholesky regularization for the unconstrained Newton Hessian.
pub(crate) const HESS_CHOL_REG: f64 = 1e-10;
/// Primal/dual regularization added to the KKT system diagonal.
pub(crate) const KKT_REG: f64 = 1e-12;
/// Relative threshold below which a fitted inequality dual counts as
/// "clearly negative" (wrong active-set guess) rather than noise.
const DUAL_NEG_TOL: f64 = 1e-6;
/// Fraction-to-boundary factor: line searches stop just short of the
/// inequality boundary so slacks never collapse to zero.
const FRACTION_TO_BOUNDARY: f64 = 0.995;
/// Armijo sufficient-decrease coefficient for the backtracking search.
pub(crate) const ARMIJO_C1: f64 = 1e-4;
/// Phase-1 interior-depth fraction: exit only once slacks are at least
/// this fraction of the initial violation scale (a hair past the boundary
/// gives a ~1/slack²-conditioned Hessian and a dead start).
const PHASE1_DEPTH_FRAC: f64 = 1e-3;
/// Relative headroom added to the phase-1 start slack. An absolute `+1.0`
/// vanishes below the violation's ulp once `viol` passes ~2^53 (hostile
/// wire coefficients reach ~1e17), which would start phase 1 exactly on
/// the relaxed boundary instead of strictly inside it.
const PHASE1_HEADROOM_REL: f64 = 1e-9;
/// Relative magnitude above which a raw dual counts as active in the
/// multiplier refinement least-squares fit.
const ACTIVE_DUAL_REL: f64 = 1e-4;
/// Relative distance-to-bound margin used to classify a coordinate as
/// interior during multiplier refinement.
const INTERIOR_REL_MARGIN: f64 = 1e-3;
/// Blend weights toward the cold midpoint start tried when repairing a
/// warm-start point; the first strictly feasible candidate wins. θ = 0 is
/// the parent point itself (box-clamped); by convexity each θ shrinks every
/// constraint violation toward the midpoint's slack, so a small blend is
/// usually enough to peel a parent-active constraint off its boundary.
const WARM_BLEND_STEPS: [f64; 6] = [0.0, 0.01, 0.05, 0.1, 0.25, 0.5];
/// Rounds of first-order interior restoration tried on a clamped warm point
/// when every midpoint blend fails (see `push_interior`). Each round costs
/// one evaluation + linearization per constraint.
const WARM_PUSH_ROUNDS: usize = 16;
/// Absolute slack the interior push aims for on each near-active
/// constraint. Deep enough that the barrier Hessian (∝ 1/slack²) stays
/// numerically sane at the warm μ, shallow enough that the start stays
/// essentially on the parent optimum — and that the complementarity
/// estimate `λ·slack` feeding [`warm_mu0`] lands the barrier only a few
/// outer rounds from its stopping μ.
const WARM_PUSH_SLACK: f64 = 1e-4;
/// Barrier weight for warm starts when the parent multipliers give no
/// usable complementarity estimate. Far below the cold [`MU0`] (the point is
/// already near the child optimum) but high enough that the first rounds
/// still recenter the iterate.
const WARM_MU0_DEFAULT: f64 = 1e-2;
/// Floor on the warm-start barrier weight; `μ·slack` complementarity
/// estimates from an already-converged parent go to zero and would
/// otherwise skip recentering entirely.
const WARM_MU0_MIN: f64 = 1e-6;
/// Centering factor σ applied to the parent complementarity estimate
/// (Mehrotra-style): aim the first warm barrier round a step *down* the
/// central path rather than at the parent's own μ — the repaired point is
/// already centered there, so re-solving at that μ wastes a round.
const WARM_MU0_SIGMA: f64 = 0.1;

/// Barrier solver options. The tolerances and budgets are module consts,
/// and so is the KKT path: a Newton system of fewer than
/// [`SPARSE_CROSSOVER_DIM`] unknowns is factored dense, a larger one by
/// the sparse Cholesky (no equalities) or LU (with equalities).
#[derive(Debug, Clone)]
pub struct BarrierOptions {
    /// Event trace (off by default; see `hslb-obs`). When enabled, every
    /// completed solve emits one `NlpSolved` event carrying its Newton
    /// iteration count.
    pub trace: Trace,
    /// Multiplier applied to the initial barrier weight, cold and warm
    /// alike (must be positive). A per-problem-family heuristic hook: a
    /// family whose instances start far from the central path can raise
    /// it, one whose warm seeds are reliably near-optimal can lower it,
    /// without touching the shared μ₀. `1.0` is neutral.
    pub mu0_scale: f64,
}

impl Default for BarrierOptions {
    fn default() -> Self {
        BarrierOptions {
            trace: Trace::off(),
            mu0_scale: 1.0,
        }
    }
}

/// Terminal status of an NLP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NlpStatus {
    /// Converged to the required gap.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Iterates diverged — the problem appears unbounded below.
    Unbounded,
    /// Budgets exhausted before convergence.
    IterationLimit,
}

/// Errors that indicate misuse rather than mathematical outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum NlpError {
    /// Some variable has an empty domain (`lo > hi`).
    EmptyDomain { var: usize },
}

impl std::fmt::Display for NlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NlpError::EmptyDomain { var } => write!(f, "variable {var} has an empty domain"),
        }
    }
}

impl std::error::Error for NlpError {}

/// Solution bundle.
#[derive(Debug, Clone)]
pub struct NlpSolution {
    pub status: NlpStatus,
    /// Primal point (meaningful for `Optimal`; best effort otherwise).
    pub x: Vec<f64>,
    /// Objective `cᵀx` at `x`.
    pub objective: f64,
    /// Inequality multipliers, one per constraint: barrier estimates
    /// `μ / (-g_i(x))` refined by a least-squares stationarity fit (see
    /// `refine_multipliers`), so active constraints carry KKT-accurate duals.
    pub multipliers: Vec<f64>,
    /// Total Newton iterations.
    pub newton_iters: usize,
    /// Whether a [`WarmStart`] seed was actually used (repair succeeded);
    /// `false` on cold solves and on warm calls that fell back cold.
    pub warm_started: bool,
    /// Sparse numeric KKT/Hessian factorizations performed (zero on the
    /// dense path, which solves in place).
    pub factorizations: u64,
    /// Cumulative nonzeros across all sparse factors (zero on the dense
    /// path).
    pub fill_nnz: u64,
    /// Affine-scaling predictor solves.
    pub predictor_steps: u64,
    /// Corrector solves, including pure-centering rescues.
    pub corrector_steps: u64,
    /// Merit-search trial steps rejected before acceptance (the fixed-μ
    /// loop's Armijo halvings are not counted here).
    pub line_search_backtracks: u64,
    /// 1 when the fixed-μ loop ran in this solve (phase 1 or main), else 0:
    /// MPC exhausted its budget, or the problem had no barrier terms.
    pub barrier_fallbacks: u64,
}

impl NlpSolution {
    /// A solution with every work counter but `newton_iters` at zero;
    /// `solve_inner` attaches the solve's tally on the way out.
    pub(crate) fn new(
        status: NlpStatus,
        x: Vec<f64>,
        objective: f64,
        multipliers: Vec<f64>,
        newton_iters: usize,
    ) -> Self {
        NlpSolution {
            status,
            x,
            objective,
            multipliers,
            newton_iters,
            warm_started: false,
            factorizations: 0,
            fill_nnz: 0,
            predictor_steps: 0,
            corrector_steps: 0,
            line_search_backtracks: 0,
            barrier_fallbacks: 0,
        }
    }

    fn failed(status: NlpStatus, newton_iters: usize) -> Self {
        let objective = match status {
            NlpStatus::Infeasible => f64::INFINITY,
            NlpStatus::Unbounded => f64::NEG_INFINITY,
            _ => f64::NAN,
        };
        NlpSolution::new(status, Vec::new(), objective, Vec::new(), newton_iters)
    }

    /// This solve's barrier work as [`SolveStats`] counters, for callers
    /// that fold it into a larger solve's totals (`nlp_solves` is theirs).
    pub fn work(&self) -> SolveStats {
        SolveStats {
            newton_iters: self.newton_iters as u64,
            warm_start_hits: u64::from(self.warm_started),
            factorizations: self.factorizations,
            fill_nnz: self.fill_nnz,
            predictor_steps: self.predictor_steps,
            corrector_steps: self.corrector_steps,
            line_search_backtracks: self.line_search_backtracks,
            barrier_fallbacks: self.barrier_fallbacks,
            ..SolveStats::default()
        }
    }

    /// Iterates left the divergence guard at `x`.
    pub(crate) fn unbounded(p: &NlpProblem, x: Vec<f64>, newton_iters: usize) -> Self {
        let multipliers = vec![0.0; p.num_constraints()];
        NlpSolution::new(
            NlpStatus::Unbounded,
            x,
            f64::NEG_INFINITY,
            multipliers,
            newton_iters,
        )
    }
}

/// Warm-start seed for [`solve_warm_with`]: the optimum of a *nearby*
/// problem — in branch-and-bound, the parent node, which differs only by
/// one tightened bound.
///
/// The seed is advisory: the point is box-clamped, blended toward the cold
/// start until strictly feasible, and projected back onto the equality
/// manifold; when no blend candidate is strictly feasible the solve falls
/// back to the cold path. Infeasibility verdicts are therefore only ever
/// produced by the cold machinery, so warm and cold solves agree on status.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Primal point in the full variable space.
    pub x: Vec<f64>,
    /// Inequality multipliers, one per constraint (may be empty when the
    /// seed comes from a point without duals, e.g. an LP vertex).
    pub multipliers: Vec<f64>,
}

impl WarmStart {
    pub fn new(x: Vec<f64>, multipliers: Vec<f64>) -> Self {
        WarmStart { x, multipliers }
    }
}

/// Divergence guard: iterates beyond this are treated as unbounded.
pub(crate) const DIVERGENCE_LIMIT: f64 = 1e13;

/// Solves the problem with default options.
pub fn solve(p: &NlpProblem) -> Result<NlpSolution, NlpError> {
    solve_with(p, &BarrierOptions::default())
}

/// Solves the problem with explicit options.
pub fn solve_with(p: &NlpProblem, opts: &BarrierOptions) -> Result<NlpSolution, NlpError> {
    solve_warm_with(p, opts, None)
}

/// Solves the problem, optionally seeded from a parent solve's [`WarmStart`].
pub fn solve_warm_with(
    p: &NlpProblem,
    opts: &BarrierOptions,
    warm: Option<&WarmStart>,
) -> Result<NlpSolution, NlpError> {
    let mut scratch = SparseWorkspace::new();
    solve_warm_with_workspace(p, opts, warm, &mut scratch)
}

/// Like [`solve_warm_with`] but reusing a caller-held [`SparseWorkspace`]
/// for the sparse factorizations — hot loops (branch-and-bound scratch
/// arenas) keep one per worker so repeated solves never reallocate the
/// scatter/mark buffers. A no-op cost on the dense path.
pub fn solve_warm_with_workspace(
    p: &NlpProblem,
    opts: &BarrierOptions,
    warm: Option<&WarmStart>,
    scratch: &mut SparseWorkspace,
) -> Result<NlpSolution, NlpError> {
    let result = solve_inner(p, opts, warm, scratch);
    if let Ok(sol) = &result {
        opts.trace.emit(|| Event::NlpSolved {
            newton_iters: sol.newton_iters as u64,
        });
    }
    result
}

/// The actual barrier solve; `solve_warm_with` wraps it so that every
/// completed solve (including infeasibility verdicts) emits exactly one
/// trace event.
fn solve_inner(
    p: &NlpProblem,
    opts: &BarrierOptions,
    warm: Option<&WarmStart>,
    scratch: &mut SparseWorkspace,
) -> Result<NlpSolution, NlpError> {
    let n = p.num_vars();
    for j in 0..n {
        if p.lowers()[j] > p.uppers()[j] {
            return Err(NlpError::EmptyDomain { var: j });
        }
    }

    let is_free: Vec<bool> = (0..n).map(|j| p.lowers()[j] < p.uppers()[j]).collect();
    let x_pinned = default_start(p);

    // Reduced problem: constraints/equalities that touch no free variable
    // are checked once and dropped.
    let mut reduced = NlpProblem::new();
    for j in 0..n {
        reduced.add_var(p.costs()[j], p.lowers()[j], p.uppers()[j]);
    }
    let mut active_map = Vec::new(); // original index of kept inequalities
    for (ci, c) in p.constraints().iter().enumerate() {
        let touches_free = c
            .linear
            .iter()
            .any(|&(v, co)| is_free[v] && !exactly_zero(co))
            || c.nonlinear.iter().any(|(v, f)| is_free[*v] && !f.is_zero());
        if touches_free {
            reduced.add_constraint(c.clone());
            active_map.push(ci);
        } else {
            let g = c.eval(&x_pinned);
            let scale = 1.0
                + c.linear
                    .iter()
                    .map(|&(v, co)| (co * x_pinned[v]).abs())
                    .sum::<f64>()
                + c.constant.abs();
            if g > PINNED_FEAS_TOL * scale {
                return Ok(NlpSolution::failed(NlpStatus::Infeasible, 0));
            }
        }
    }
    for e in p.equalities() {
        let touches_free = e
            .coeffs
            .iter()
            .any(|&(v, co)| is_free[v] && !exactly_zero(co));
        if touches_free {
            reduced.add_linear_eq(e.coeffs.clone(), e.rhs);
        } else {
            let scale = 1.0
                + e.coeffs
                    .iter()
                    .map(|&(v, co)| (co * x_pinned[v]).abs())
                    .sum::<f64>()
                + e.rhs.abs();
            if e.residual(&x_pinned).abs() > PINNED_FEAS_TOL * scale {
                return Ok(NlpSolution::failed(NlpStatus::Infeasible, 0));
            }
        }
    }

    let mut newton_total = 0usize;
    let mut tally = FactorTally::default();

    // Warm path: repair the parent point into a strictly feasible start.
    // Only a *proven* strictly feasible repair is used, so the warm path can
    // never produce an infeasibility verdict the cold path wouldn't.
    let warm_seed = warm.filter(|ws| ws.x.len() == n).and_then(|ws| {
        let xw = repair_warm_point(&reduced, &ws.x, !ws.multipliers.is_empty())?;
        let mu0 = warm_mu0(p, &xw, &ws.multipliers, opts);
        Some((xw, mu0))
    });
    let warm_started = warm_seed.is_some();
    let start = match warm_seed {
        Some(seed) => Ok(seed),
        None => cold_start(&reduced, opts, &mut newton_total, &mut tally, scratch)
            .map(|x0| (x0, MU0 * opts.mu0_scale)),
    };
    let mut out = match start {
        Ok((x0, mu0)) => barrier_loop(
            &reduced,
            x0,
            mu0,
            opts,
            &mut newton_total,
            &mut tally,
            scratch,
            None,
        ),
        Err(status) => NlpSolution::failed(status, newton_total),
    };
    out.warm_started = warm_started;
    tally.attach(&mut out);
    // Re-inflate multipliers to the original constraint indexing.
    if out.multipliers.len() == active_map.len() && p.num_constraints() != out.multipliers.len() {
        let mut full = vec![0.0; p.num_constraints()];
        for (k, &ci) in active_map.iter().enumerate() {
            full[ci] = out.multipliers[k];
        }
        out.multipliers = full;
    }
    Ok(out)
}

/// Default interior-ish starting point.
fn default_start(p: &NlpProblem) -> Vec<f64> {
    (0..p.num_vars())
        .map(|j| {
            let (lo, hi) = (p.lowers()[j], p.uppers()[j]);
            match (lo.is_finite(), hi.is_finite()) {
                (true, true) => {
                    if lo == hi {
                        lo
                    } else {
                        0.5 * (lo + hi)
                    }
                }
                (true, false) => lo + 1.0,
                (false, true) => hi - 1.0,
                (false, false) => 0.0,
            }
        })
        .collect()
}

/// Free-variable indices.
fn free_vars(p: &NlpProblem) -> Vec<usize> {
    (0..p.num_vars())
        .filter(|&j| p.lowers()[j] < p.uppers()[j])
        .collect()
}

/// Repairs a parent-node optimum into a strictly feasible start for this
/// node: box-clamp (pinned coordinates snap to their pin), then try blend
/// candidates toward the cold midpoint start, re-projecting each onto the
/// equality manifold. Returns `None` when no candidate is strictly feasible
/// — the caller then runs the cold path.
///
/// `has_duals` says whether the seed carries parent multipliers. Only then
/// is the aggressive [`push_interior`] restoration tried: it lands the
/// point right at the target slack of previously-violated rows, and
/// starting there is productive only when `warm_mu0` can match μ to that
/// proximity via the parent's complementarity. Dual-less seeds (candidate
/// polish) get the blend repair alone — an active-set-hugging start paired
/// with the fallback μ reliably stalls the inner Newton at its cap.
fn repair_warm_point(p: &NlpProblem, parent: &[f64], has_duals: bool) -> Option<Vec<f64>> {
    let mut xw = parent.to_vec();
    clamp_into_box(p, &mut xw);
    let mid = default_start(p);
    for &theta in &WARM_BLEND_STEPS {
        let cand: Vec<f64> = xw
            .iter()
            .zip(&mid)
            .map(|(&a, &b)| (1.0 - theta) * a + theta * b)
            .collect();
        let cand = if p.equalities().is_empty() {
            cand
        } else {
            match equality_project(p, cand) {
                Some(projected) => projected,
                None => continue,
            }
        };
        if strictly_feasible(p, &cand, INTERIOR_MARGIN) {
            return Some(cand);
        }
    }
    // Every blend failed. The typical cause: a capacity-style row is active
    // at the parent optimum *and* violated at the box midpoint, so the whole
    // blend segment sits outside the feasible set. Project the slack back
    // directly instead of interpolating toward an infeasible anchor.
    if has_duals {
        push_interior(p, xw)
    } else {
        None
    }
}

/// Pulls free coordinates strictly inside their box by the start margin;
/// pinned coordinates snap to their pin.
fn clamp_into_box(p: &NlpProblem, x: &mut [f64]) {
    for ((xj, &lo), &hi) in x.iter_mut().zip(p.lowers()).zip(p.uppers()) {
        if lo == hi {
            *xj = lo;
            continue;
        }
        let width = if lo.is_finite() && hi.is_finite() {
            hi - lo
        } else {
            1.0
        };
        let margin = START_MARGIN_FRAC * width.max(MIN_MARGIN_SCALE);
        if lo.is_finite() && *xj < lo + margin {
            *xj = lo + margin;
        }
        if hi.is_finite() && *xj > hi - margin {
            *xj = hi - margin;
        }
    }
}

/// First-order interior restoration for a warm point whose blends all
/// failed: cyclically push each near-active inequality to an absolute depth
/// of [`WARM_PUSH_SLACK`] by stepping along its negative gradient over the
/// free coordinates (Gauss–Seidel — each step sees the previous ones), then
/// re-clamp into the box and re-project onto the equality manifold. The
/// constraints are convex, so each linearized step can undershoot; the round
/// loop absorbs the curvature. Returns `None` (cold fallback) when a
/// violated constraint has no free support or a round cannot move.
fn push_interior(p: &NlpProblem, mut x: Vec<f64>) -> Option<Vec<f64>> {
    // Aim deeper than the strict-feasibility margin so the accepted point
    // survives the clamp/projection that follows each round.
    let target = WARM_PUSH_SLACK.max(4.0 * INTERIOR_MARGIN);
    for _round in 0..WARM_PUSH_ROUNDS {
        if strictly_feasible(p, &x, INTERIOR_MARGIN) {
            return Some(x);
        }
        let mut moved = false;
        for c in p.constraints() {
            let g = c.eval(&x);
            if g <= -target {
                continue;
            }
            let (coeffs, _) = c.linearize(&x);
            let norm2: f64 = coeffs
                .iter()
                .filter(|&&(v, _)| p.lowers()[v] < p.uppers()[v])
                .map(|&(_, co)| co * co)
                .sum();
            if norm2 <= 0.0 {
                // Violated (or too shallow) with no free support: only the
                // cold path can decide feasibility here.
                return None;
            }
            let step = (g + target) / norm2;
            for &(v, co) in &coeffs {
                if p.lowers()[v] < p.uppers()[v] {
                    x[v] -= step * co;
                }
            }
            moved = true;
        }
        if !moved {
            return None;
        }
        clamp_into_box(p, &mut x);
        if !p.equalities().is_empty() {
            x = equality_project(p, x)?;
        }
    }
    strictly_feasible(p, &x, INTERIOR_MARGIN).then_some(x)
}

/// Initial barrier weight for a warm-started solve: the parent's
/// complementarity scale `max_i λ_i·(-g_i(x))`, clamped to a sane range.
fn warm_mu0(p: &NlpProblem, x: &[f64], multipliers: &[f64], opts: &BarrierOptions) -> f64 {
    let mut est = 0.0_f64;
    if multipliers.len() == p.num_constraints() {
        for (c, &lam) in p.constraints().iter().zip(multipliers) {
            let slack = -c.eval(x);
            if slack > 0.0 && lam > 0.0 {
                est = est.max(lam * slack);
            }
        }
    }
    let base = if est > 0.0 {
        (WARM_MU0_SIGMA * est).clamp(WARM_MU0_MIN, MU0)
    } else {
        WARM_MU0_DEFAULT.min(MU0)
    };
    // The per-family scale applies to warm starts too (a family whose warm
    // seeds need extra recentering raises it), floored so the first rounds
    // still move.
    (base * opts.mu0_scale).max(WARM_MU0_MIN)
}

/// Cold start: the box midpoint projected onto the equality manifold
/// strictly inside the box, then phase 1 when the inequalities are not
/// strictly satisfied there. `Err` carries the verdict when no strictly
/// feasible point is found.
fn cold_start(
    p: &NlpProblem,
    opts: &BarrierOptions,
    newton_total: &mut usize,
    tally: &mut FactorTally,
    scratch: &mut SparseWorkspace,
) -> Result<Vec<f64>, NlpStatus> {
    let x0 = equality_project(p, default_start(p)).ok_or(NlpStatus::Infeasible)?;
    if strictly_feasible(p, &x0, INTERIOR_MARGIN) {
        return Ok(x0);
    }
    phase_one(p, &x0, opts, newton_total, tally, scratch)
}

/// Projects `x` onto the equality manifold strictly inside the bound box by
/// alternating projection (project onto `A x = b` over the free variables,
/// then pull strictly inside the box). Returns `None` when the equalities
/// appear inconsistent with the box.
fn equality_project(p: &NlpProblem, mut x: Vec<f64>) -> Option<Vec<f64>> {
    let free = free_vars(p);
    if p.equalities().is_empty() || free.is_empty() {
        return Some(x);
    }
    let m = p.equalities().len();
    let k = free.len();
    let col_of: std::collections::HashMap<usize, usize> =
        free.iter().enumerate().map(|(c, &j)| (j, c)).collect();
    // Â over free vars.
    let mut a = Matrix::zeros(m, k);
    for (r, e) in p.equalities().iter().enumerate() {
        for &(v, co) in &e.coeffs {
            if let Some(&c) = col_of.get(&v) {
                a[(r, c)] += co;
            }
        }
    }
    let aat = {
        let at = a.transpose();
        a.matmul(&at).expect("m x k times k x m")
    };
    let scale: f64 = p
        .equalities()
        .iter()
        .map(|e| e.rhs.abs() + e.coeffs.iter().map(|&(_, c)| c.abs()).sum::<f64>())
        .fold(1.0, f64::max);

    for _round in 0..100 {
        // Residual r = b - A x (full x, so pinned contributions count).
        let r: Vec<f64> = p.equalities().iter().map(|e| -e.residual(&x)).collect();
        let rnorm = r.iter().fold(0.0_f64, |mx, v| mx.max(v.abs()));
        let inside = free.iter().all(|&j| {
            let (lo, hi) = (p.lowers()[j], p.uppers()[j]);
            (!lo.is_finite() || x[j] > lo) && (!hi.is_finite() || x[j] < hi)
        });
        if rnorm <= EQ_RESIDUAL_TOL * scale && inside {
            return Some(x);
        }
        // Least-norm correction: Δ = Âᵀ (ÂÂᵀ)⁻¹ r.
        let lam = match Cholesky::new_regularized(&aat, PROJ_CHOL_REG) {
            Ok((ch, _)) => ch.solve(&r),
            Err(_) => return None,
        };
        let delta = a.matvec_transposed(&lam);
        for (c, &j) in free.iter().enumerate() {
            x[j] += delta[c];
        }
        // Pull strictly inside the box (fractional margin).
        for &j in &free {
            let (lo, hi) = (p.lowers()[j], p.uppers()[j]);
            let width = if lo.is_finite() && hi.is_finite() {
                hi - lo
            } else {
                1.0
            };
            let margin = START_MARGIN_FRAC * width.max(MIN_MARGIN_SCALE);
            if lo.is_finite() && x[j] < lo + margin {
                x[j] = lo + margin;
            }
            if hi.is_finite() && x[j] > hi - margin {
                x[j] = hi - margin;
            }
        }
    }
    // Accept a small equality residual if we ran out of rounds; the Newton
    // iterations will keep correcting it.
    let rnorm = p
        .equalities()
        .iter()
        .map(|e| e.residual(&x).abs())
        .fold(0.0_f64, f64::max);
    (rnorm <= EQ_RESIDUAL_LOOSE_TOL * scale).then_some(x)
}

fn strictly_feasible(p: &NlpProblem, x: &[f64], margin: f64) -> bool {
    for ((&xj, &lo), &hi) in x.iter().zip(p.lowers()).zip(p.uppers()) {
        if lo == hi {
            if xj != lo {
                return false;
            }
            continue;
        }
        if (lo.is_finite() && xj <= lo + margin * (1.0 + lo.abs()))
            || (hi.is_finite() && xj >= hi - margin * (1.0 + hi.abs()))
        {
            return false;
        }
    }
    p.constraints().iter().all(|c| c.eval(x) < -margin)
}

/// Phase 1: minimize `s` over `g_i(x) - s <= 0` (equalities preserved);
/// a strictly feasible point exists iff the optimum is negative. `Err`
/// carries the verdict when phase 1 finds none.
fn phase_one(
    p: &NlpProblem,
    x0: &[f64],
    opts: &BarrierOptions,
    newton_total: &mut usize,
    tally: &mut FactorTally,
    scratch: &mut SparseWorkspace,
) -> Result<Vec<f64>, NlpStatus> {
    let n = p.num_vars();
    let mut aug = NlpProblem::new();
    for j in 0..n {
        aug.add_var(0.0, p.lowers()[j], p.uppers()[j]);
    }
    let s = aug.add_var(1.0, f64::NEG_INFINITY, f64::INFINITY);
    for c in p.constraints() {
        let mut relaxed = c.clone();
        relaxed.linear.push((s, -1.0));
        relaxed.name = format!("{}|relaxed", c.name);
        aug.add_constraint(relaxed);
    }
    for e in p.equalities() {
        aug.add_linear_eq(e.coeffs.clone(), e.rhs);
    }

    // Start: x0 (already on the equality manifold, strictly inside the
    // box), slack above the worst violation.
    let mut z0 = x0.to_vec();
    let viol = p
        .constraints()
        .iter()
        .map(|c| c.eval(&z0))
        .fold(f64::NEG_INFINITY, f64::max)
        .max(0.0);
    z0.push(viol + 1.0 + viol * PHASE1_HEADROOM_REL);

    // Exit only once the point is *meaningfully* interior, scaled by the
    // initial violation. Exiting at the first sign change (a hair past the
    // boundary, slacks ~1e-8) hands the main barrier a start whose Hessian
    // is ~1/slack² conditioned; Newton steps then go numerically dead and
    // the solve stalls at the phase-1 point while reporting Optimal. When
    // the feasible region is too thin to reach this depth, phase 1 simply
    // runs to its own optimum, which is the deepest interior point anyway.
    let target = -(2.0 * INTERIOR_MARGIN).max(PHASE1_DEPTH_FRAC * (1.0 + viol));
    let sol = barrier_loop(
        &aug,
        z0,
        MU0 * opts.mu0_scale,
        opts,
        newton_total,
        tally,
        scratch,
        Some((s, target)),
    );
    match sol.status {
        NlpStatus::Optimal | NlpStatus::IterationLimit => {
            if !sol.x.is_empty() && sol.x[s] < -INTERIOR_MARGIN {
                let x: Vec<f64> = sol.x[..n].to_vec();
                if strictly_feasible(p, &x, INTERIOR_MARGIN * 0.5) {
                    return Ok(x);
                }
            }
            Err(match sol.status {
                NlpStatus::IterationLimit => NlpStatus::IterationLimit,
                _ => NlpStatus::Infeasible,
            })
        }
        NlpStatus::Unbounded => {
            if !sol.x.is_empty() {
                let x: Vec<f64> = sol.x[..n].to_vec();
                if strictly_feasible(p, &x, INTERIOR_MARGIN * 0.5) {
                    return Ok(x);
                }
            }
            Err(NlpStatus::IterationLimit)
        }
        NlpStatus::Infeasible => Err(NlpStatus::Infeasible),
    }
}

/// Running totals of factorization and predictor-corrector work across one
/// solve (phase 1 plus the main loop); attached to the returned
/// [`NlpSolution`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FactorTally {
    pub(crate) factorizations: u64,
    pub(crate) fill_nnz: u64,
    pub(crate) predictor_steps: u64,
    pub(crate) corrector_steps: u64,
    pub(crate) line_search_backtracks: u64,
    /// Set once the fixed-μ loop runs, in phase 1 or the main solve.
    fixed_mu_ran: bool,
}

impl FactorTally {
    /// Copies the solve's totals onto its result.
    fn attach(self, out: &mut NlpSolution) {
        out.factorizations = self.factorizations;
        out.fill_nnz = self.fill_nnz;
        out.predictor_steps = self.predictor_steps;
        out.corrector_steps = self.corrector_steps;
        out.line_search_backtracks = self.line_search_backtracks;
        out.barrier_fallbacks = u64::from(self.fixed_mu_ran);
    }
}

/// Sparse Newton/KKT system with its symbolic analysis done once per
/// solve: the structural pattern (constraint-support cliques, barrier
/// diagonal, equality blocks) is fixed for a given problem, so each
/// iteration only rewrites the stored values and refactorizes numerically
/// — re-analyze never.
pub(crate) struct SparseKkt<'a> {
    pub(crate) mat: CscMatrix,
    /// `(row, col)` of each stored nonzero, in storage order.
    positions: Vec<(usize, usize)>,
    /// Symbolic Cholesky (unconstrained case, `m_eq == 0`).
    pub(crate) chol: Option<CholSymbolic>,
    /// Symbolic LU (equality-constrained KKT case).
    pub(crate) lu: Option<LuSymbolic>,
    /// Caller-held factorization scratch, reused across solves.
    pub(crate) ws: &'a mut SparseWorkspace,
    k: usize,
    m_eq: usize,
}

impl<'a> SparseKkt<'a> {
    /// Builds the structural pattern and runs the symbolic analysis.
    /// Returns `None` when the analysis itself fails (degenerate inputs);
    /// callers then stay on the dense path.
    pub(crate) fn build(
        p: &NlpProblem,
        col_of: &std::collections::HashMap<usize, usize>,
        a_eq: &Matrix,
        k: usize,
        m_eq: usize,
        ws: &'a mut SparseWorkspace,
    ) -> Option<SparseKkt<'a>> {
        let dim = if m_eq == 0 { k } else { k + m_eq };
        // Collect the structural pattern col-major so the triplet build
        // below preserves iteration order.
        let mut pos = std::collections::BTreeSet::new();
        for i in 0..dim {
            pos.insert((i, i));
        }
        for c in p.constraints() {
            // The barrier Hessian of -μ·ln(-g) couples every pair of
            // variables in the constraint's support (∇g ∇gᵀ term).
            let mut sup: Vec<usize> = c
                .linear
                .iter()
                .map(|&(v, _)| v)
                .chain(c.nonlinear.iter().map(|(v, _)| *v))
                .filter_map(|v| col_of.get(&v).copied())
                .collect();
            sup.sort_unstable();
            sup.dedup();
            for &a in &sup {
                for &b in &sup {
                    pos.insert((a, b));
                }
            }
        }
        for r in 0..m_eq {
            for c in 0..k {
                // Structural-pattern detection: an exactly-zero entry means
                // "no edge" in the KKT sparsity graph; a tolerance here
                // would drop small but real couplings from the symbolic
                // factorization.
                if !exactly_zero(a_eq[(r, c)]) {
                    pos.insert((c, k + r));
                    pos.insert((k + r, c));
                }
            }
        }
        let triplets: Vec<(usize, usize, f64)> =
            pos.iter().map(|&(col, row)| (row, col, 1.0)).collect();
        let mat = CscMatrix::from_triplets(dim, dim, &triplets).ok()?;
        let positions: Vec<(usize, usize)> = (0..dim)
            .flat_map(|j| {
                let (rows, _) = mat.col(j);
                rows.iter().map(move |&i| (i, j)).collect::<Vec<_>>()
            })
            .collect();
        let (chol, lu) = if m_eq == 0 {
            (Some(CholSymbolic::analyze(&mat).ok()?), None)
        } else {
            (None, Some(LuSymbolic::analyze(&mat).ok()?))
        };
        Some(SparseKkt {
            mat,
            positions,
            chol,
            lu,
            ws,
            k,
            m_eq,
        })
    }

    /// Rewrites the stored values from the current dense Hessian (and the
    /// fixed equality matrix), preserving the analyzed storage layout.
    pub(crate) fn fill(&mut self, hess: &Matrix, a_eq: &Matrix) {
        let (k, m_eq) = (self.k, self.m_eq);
        let positions = &self.positions;
        for (s, v) in self.mat.values_mut().iter_mut().enumerate() {
            let (i, j) = positions[s];
            *v = if i < k && j < k {
                if m_eq == 0 {
                    hess[(i, j)]
                } else if i == j {
                    hess[(i, i)] + KKT_REG * (1.0 + hess[(i, i)].abs())
                } else {
                    hess[(i, j)]
                }
            } else if i >= k && j < k {
                a_eq[(i - k, j)]
            } else if i < k && j >= k {
                a_eq[(j - k, i)]
            } else if i == j {
                -KKT_REG
            } else {
                0.0
            };
        }
    }

    /// Newton step for the unconstrained case: regularized sparse
    /// Cholesky, mirroring the dense `Cholesky::new_regularized` fallback
    /// semantics. Returns `None` on factorization failure.
    fn cholesky_step(
        &mut self,
        hess: &Matrix,
        a_eq: &Matrix,
        grad: &[f64],
        tally: &mut FactorTally,
    ) -> Option<Vec<f64>> {
        self.fill(hess, a_eq);
        let sym = self.chol.as_ref()?;
        let (ch, _) =
            SparseCholesky::factorize_regularized(&self.mat, sym, HESS_CHOL_REG, self.ws).ok()?;
        tally.factorizations += 1;
        tally.fill_nnz += ch.fill_nnz() as u64;
        let rhs: Vec<f64> = grad.iter().map(|v| -v).collect();
        Some(ch.solve(&rhs))
    }

    /// Newton step for the equality-constrained KKT system via sparse LU.
    /// Returns the primal part `d` (first `k` entries) or `None` on
    /// factorization failure.
    fn kkt_step(
        &mut self,
        hess: &Matrix,
        a_eq: &Matrix,
        rhs: &[f64],
        tally: &mut FactorTally,
    ) -> Option<Vec<f64>> {
        self.fill(hess, a_eq);
        let sym = self.lu.as_ref()?;
        let f = SparseLu::factorize(&self.mat, sym, self.ws).ok()?;
        tally.factorizations += 1;
        tally.fill_nnz += f.fill_nnz() as u64;
        Some(f.solve(rhs)[..self.k].to_vec())
    }
}

/// Barrier solve from a strictly feasible start: the predictor-corrector
/// loop, with the fixed-μ loop behind it.
///
/// `mu0` is the initial barrier weight (warm starts pass a reduced one);
/// `early_exit`: optional `(var, threshold)` — stop as soon as `x[var]`
/// drops below the threshold (used by phase 1).
#[allow(clippy::too_many_arguments)] // problem + accumulators + scratch; a struct would just rename the list
fn barrier_loop(
    p: &NlpProblem,
    mut x: Vec<f64>,
    mu0: f64,
    opts: &BarrierOptions,
    newton_total: &mut usize,
    tally: &mut FactorTally,
    scratch: &mut SparseWorkspace,
    early_exit: Option<(usize, f64)>,
) -> NlpSolution {
    let free = free_vars(p);
    for ((xj, &lo), &hi) in x.iter_mut().zip(p.lowers()).zip(p.uppers()) {
        if lo == hi {
            *xj = lo;
        }
    }
    if free.is_empty() {
        let (status, objective) = if p.max_violation(&x) <= PINNED_FEAS_TOL {
            (NlpStatus::Optimal, p.objective_value(&x))
        } else {
            (NlpStatus::Infeasible, f64::INFINITY)
        };
        let multipliers = vec![0.0; p.num_constraints()];
        return NlpSolution::new(status, x, objective, multipliers, *newton_total);
    }

    // The predictor-corrector loop runs whenever there is at least one
    // barrier term to center on. Pure equality-constrained problems (no
    // inequalities, no finite bounds over the free coordinates) have no
    // complementarity to drive and go straight to the fixed-μ loop.
    let has_barrier_terms = p.num_constraints() > 0
        || free
            .iter()
            .any(|&j| p.lowers()[j].is_finite() || p.uppers()[j].is_finite());
    if has_barrier_terms {
        let sol = crate::mpc::run(
            p,
            x.clone(),
            &free,
            mu0,
            opts,
            newton_total,
            tally,
            scratch,
            early_exit,
        );
        // An instance whose long primal journey defeats the central-path
        // neighborhood (a start far from the optimum in a wide box, or a
        // warm seed under a μ₀ at its floor) can exhaust the budget
        // off-center. The fixed-μ loop then restarts from the same point;
        // the counters keep both halves and `barrier_fallbacks` records it.
        if sol.status != NlpStatus::IterationLimit {
            return sol;
        }
    }
    tally.fixed_mu_ran = true;
    fixed_mu_loop(p, x, &free, mu0, newton_total, tally, scratch, early_exit)
}

/// The fixed-μ barrier loop: damped Newton on each barrier subproblem,
/// then μ shrinks geometrically. Reports `Optimal` only when the gap test
/// passes *and* the last μ stage converged (its Newton step fell below
/// [`NEWTON_TOL`]); a last stage that ended on the Newton cap or a stalled
/// line search leaves the point short of the optimum, so that is an
/// `IterationLimit`, and branch-and-bound does not trust it as a bound.
#[allow(clippy::too_many_arguments)] // mirrors barrier_loop
fn fixed_mu_loop(
    p: &NlpProblem,
    mut x: Vec<f64>,
    free: &[usize],
    mu0: f64,
    newton_total: &mut usize,
    tally: &mut FactorTally,
    scratch: &mut SparseWorkspace,
    early_exit: Option<(usize, f64)>,
) -> NlpSolution {
    // Equality matrix over the free subspace.
    let m_eq = p.equalities().len();
    let k = free.len();
    let col_of: std::collections::HashMap<usize, usize> =
        free.iter().enumerate().map(|(c, &j)| (j, c)).collect();
    let mut a_eq = Matrix::zeros(m_eq, k);
    for (r, e) in p.equalities().iter().enumerate() {
        for &(v, co) in &e.coeffs {
            if let Some(&c) = col_of.get(&v) {
                a_eq[(r, c)] += co;
            }
        }
    }

    let barrier_count = (p.num_constraints()
        + free
            .iter()
            .map(|&j| p.lowers()[j].is_finite() as usize + p.uppers()[j].is_finite() as usize)
            .sum::<usize>())
    .max(1);

    // Sparse path: analyze the structural KKT pattern once per solve;
    // every Newton iteration below only refactorizes numerically.
    let kkt_dim = if m_eq == 0 { k } else { k + m_eq };
    let mut sparse_kkt = if kkt_dim >= SPARSE_CROSSOVER_DIM {
        SparseKkt::build(p, &col_of, &a_eq, k, m_eq, scratch)
    } else {
        None
    };

    let mut mu = mu0;
    for _outer in 0..MAX_OUTER {
        let mut stage_converged = false;
        for _inner in 0..MAX_NEWTON {
            *newton_total += 1;
            let (grad, hess) = barrier_derivatives(p, &x, mu, free);

            // KKT system: [H Âᵀ; Â 0] [d; λ] = [-g; r].
            let step = if m_eq == 0 {
                let sparse_step = sparse_kkt
                    .as_mut()
                    .and_then(|sk| sk.cholesky_step(&hess, &a_eq, &grad, tally));
                match sparse_step {
                    Some(s) => s,
                    None if sparse_kkt.is_some() => grad.iter().map(|v| -v).collect(),
                    None => match Cholesky::new_regularized(&hess, HESS_CHOL_REG) {
                        Ok((ch, _)) => {
                            let rhs: Vec<f64> = grad.iter().map(|v| -v).collect();
                            ch.solve(&rhs)
                        }
                        Err(_) => grad.iter().map(|v| -v).collect(),
                    },
                }
            } else {
                let dim = k + m_eq;
                let mut rhs = vec![0.0; dim];
                for i in 0..k {
                    rhs[i] = -grad[i];
                }
                for (r, e) in p.equalities().iter().enumerate() {
                    rhs[k + r] = -e.residual(&x);
                }
                let sparse_step = sparse_kkt
                    .as_mut()
                    .and_then(|sk| sk.kkt_step(&hess, &a_eq, &rhs, tally));
                match sparse_step {
                    Some(s) => s,
                    None if sparse_kkt.is_some() => grad.iter().map(|v| -v).collect(),
                    None => {
                        let mut kkt = Matrix::zeros(dim, dim);
                        for i in 0..k {
                            for j2 in 0..k {
                                kkt[(i, j2)] = hess[(i, j2)];
                            }
                            // Tiny primal regularization keeps the system
                            // solvable when H is singular on the null space
                            // boundary.
                            kkt[(i, i)] += KKT_REG * (1.0 + hess[(i, i)].abs());
                        }
                        for r in 0..m_eq {
                            for c in 0..k {
                                kkt[(k + r, c)] = a_eq[(r, c)];
                                kkt[(c, k + r)] = a_eq[(r, c)];
                            }
                            // Small dual regularization for dependent rows.
                            kkt[(k + r, k + r)] = -KKT_REG;
                        }
                        match Lu::new(&kkt) {
                            Ok(lu) => lu.solve(&rhs)[..k].to_vec(),
                            Err(_) => grad.iter().map(|v| -v).collect(),
                        }
                    }
                }
            };
            if !step.iter().all(|v| v.is_finite()) {
                break;
            }
            let xnorm = 1.0 + free.iter().map(|&j| x[j].abs()).fold(0.0, f64::max);
            let step_norm = step.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            if step_norm < NEWTON_TOL * xnorm * (1.0 + mu) {
                stage_converged = true;
                break;
            }

            // Fraction-to-boundary: clamp the step so box bounds stay
            // strictly satisfied. Without this, a near-singular direction in
            // a weakly-curved coordinate (epigraph variables in huge boxes)
            // forces dozens of Armijo halvings per iteration and the solve
            // crawls.
            let mut alpha_bound = f64::INFINITY;
            for (c, &j) in free.iter().enumerate() {
                let d = step[c];
                if d < 0.0 && p.lowers()[j].is_finite() {
                    alpha_bound = alpha_bound.min((x[j] - p.lowers()[j]) / (-d));
                } else if d > 0.0 && p.uppers()[j].is_finite() {
                    alpha_bound = alpha_bound.min((p.uppers()[j] - x[j]) / d);
                }
            }

            // Backtracking line search: strict feasibility + descent.
            let phi0 = barrier_value(p, &x, mu, free);
            let slope: f64 = grad.iter().zip(&step).map(|(g, s)| g * s).sum();
            let mut alpha = (FRACTION_TO_BOUNDARY * alpha_bound).min(1.0);
            let mut accepted = false;
            for _ in 0..60 {
                let mut cand = x.clone();
                for (c, &j) in free.iter().enumerate() {
                    cand[j] += alpha * step[c];
                }
                if strictly_inside(p, &cand, free) {
                    let phi = barrier_value(p, &cand, mu, free);
                    // Accept on sufficient decrease, or on any decrease when
                    // the model slope is unhelpful (KKT steps with equality
                    // correction are not always descent directions for φ).
                    if phi <= phi0 + ARMIJO_C1 * alpha * slope || phi < phi0 {
                        x = cand;
                        accepted = true;
                        break;
                    }
                }
                alpha *= 0.5;
            }
            if !accepted {
                break;
            }
            if x.iter().any(|v| v.abs() > DIVERGENCE_LIMIT) {
                return NlpSolution::unbounded(p, x, *newton_total);
            }
            if let Some((var, threshold)) = early_exit {
                if x[var] < threshold {
                    return finish(p, x, mu, *newton_total);
                }
            }
        }

        if mu * barrier_count as f64 <= GAP_TOL {
            let mut out = finish(p, x, mu, *newton_total);
            if !stage_converged {
                out.status = NlpStatus::IterationLimit;
            }
            return out;
        }
        mu *= MU_SHRINK;
    }
    let mut out = finish(p, x, mu, *newton_total);
    out.status = NlpStatus::IterationLimit;
    out
}

fn finish(p: &NlpProblem, x: Vec<f64>, mu: f64, newton_iters: usize) -> NlpSolution {
    let raw: Vec<f64> = p
        .constraints()
        .iter()
        .map(|c| {
            let g = c.eval(&x);
            if g < 0.0 {
                mu / (-g)
            } else {
                0.0
            }
        })
        .collect();
    finish_with_duals(p, x, &raw, newton_iters)
}

/// Like `finish`, but starting from explicit raw inequality duals (the
/// predictor-corrector loop carries true dual iterates rather than the
/// `μ/(-g)` estimates); both paths share the least-squares refinement.
pub(crate) fn finish_with_duals(
    p: &NlpProblem,
    x: Vec<f64>,
    raw: &[f64],
    newton_iters: usize,
) -> NlpSolution {
    let multipliers = refine_multipliers(p, &x, raw);
    let objective = p.objective_value(&x);
    NlpSolution::new(NlpStatus::Optimal, x, objective, multipliers, newton_iters)
}

/// Replaces the barrier dual estimates `μ/(-g_i)` with a stationarity fit.
///
/// The raw estimates degrade whenever the last barrier rounds stall: at tiny
/// `μ` the per-step decrease of φ falls below f64 noise, the line search
/// rejects every step, and `μ` keeps shrinking while the slacks stay at an
/// older `μ`'s scale — deflating every active multiplier by the same factor
/// even though the primal point is optimal to tolerance. Since `x` is good,
/// recover duals from the KKT stationarity condition instead: least-squares
/// solve `c + Σ λ_i ∇g_i + Aᵀν ≈ 0` over the apparently-active inequalities
/// (and all equalities), restricted to coordinates away from their box
/// bounds (bound multipliers are not modeled). Falls back to the raw
/// estimates when the system is degenerate or produces negative duals.
fn refine_multipliers(p: &NlpProblem, x: &[f64], raw: &[f64]) -> Vec<f64> {
    let max_raw = raw.iter().fold(0.0_f64, |m, &l| m.max(l));
    if max_raw <= 0.0 {
        return raw.to_vec();
    }
    // Active set by *relative* magnitude: a stalled finish deflates all
    // active multipliers by one common factor, so ratios remain reliable.
    let active: Vec<usize> = (0..raw.len())
        .filter(|&i| raw[i] > ACTIVE_DUAL_REL * max_raw)
        .collect();
    let lo = p.lowers();
    let hi = p.uppers();
    let interior: Vec<usize> = (0..p.num_vars())
        .filter(|&j| {
            let margin = INTERIOR_REL_MARGIN * (1.0 + x[j].abs());
            x[j] > lo[j] + margin && x[j] < hi[j] - margin
        })
        .collect();
    let cols = active.len() + p.equalities().len();
    if cols == 0 || interior.len() < cols {
        return raw.to_vec();
    }
    let mut a = Matrix::zeros(interior.len(), cols);
    let mut grad = vec![0.0; p.num_vars()];
    for (ci, &i) in active.iter().enumerate() {
        grad.iter_mut().for_each(|g| *g = 0.0);
        p.constraints()[i].add_gradient(x, &mut grad, 1.0);
        for (ri, &j) in interior.iter().enumerate() {
            a[(ri, ci)] = grad[j];
        }
    }
    for (ei, e) in p.equalities().iter().enumerate() {
        for &(v, co) in &e.coeffs {
            if let Some(ri) = interior.iter().position(|&j| j == v) {
                a[(ri, active.len() + ei)] = co;
            }
        }
    }
    let rhs: Vec<f64> = interior.iter().map(|&j| -p.costs()[j]).collect();
    let Ok(qr) = Qr::new(&a) else {
        return raw.to_vec();
    };
    let Ok(fit) = qr.solve_least_squares(&rhs) else {
        return raw.to_vec();
    };
    // Inequality duals must be nonnegative; a clearly negative fit means the
    // active-set guess was wrong, so keep the raw estimates.
    if active
        .iter()
        .enumerate()
        .any(|(ci, _)| fit[ci] < -DUAL_NEG_TOL * (1.0 + max_raw))
    {
        return raw.to_vec();
    }
    let mut out = raw.to_vec();
    for (ci, &i) in active.iter().enumerate() {
        out[i] = fit[ci].max(0.0);
    }
    out
}

fn strictly_inside(p: &NlpProblem, x: &[f64], free: &[usize]) -> bool {
    for &j in free {
        let (lo, hi) = (p.lowers()[j], p.uppers()[j]);
        if (lo.is_finite() && x[j] <= lo) || (hi.is_finite() && x[j] >= hi) {
            return false;
        }
    }
    p.constraints().iter().all(|c| c.eval(x) < 0.0)
}

/// Barrier objective value (assumes strict feasibility).
fn barrier_value(p: &NlpProblem, x: &[f64], mu: f64, free: &[usize]) -> f64 {
    let mut v = p.objective_value(x);
    for c in p.constraints() {
        v -= mu * (-c.eval(x)).ln();
    }
    for &j in free {
        let (lo, hi) = (p.lowers()[j], p.uppers()[j]);
        if lo.is_finite() {
            v -= mu * (x[j] - lo).ln();
        }
        if hi.is_finite() {
            v -= mu * (hi - x[j]).ln();
        }
    }
    v
}

/// Gradient and Hessian of the barrier objective restricted to free vars.
fn barrier_derivatives(p: &NlpProblem, x: &[f64], mu: f64, free: &[usize]) -> (Vec<f64>, Matrix) {
    let n = p.num_vars();
    let k = free.len();
    let mut grad_full = p.costs().to_vec();
    let mut hess_diag_full = vec![0.0; n];
    let mut hess_full = Matrix::zeros(n, n);

    for c in p.constraints() {
        let g = c.eval(x);
        // Strict feasibility is only a meaningful invariant for finite
        // evaluations: hostile-but-valid coefficients (~1e17, reachable
        // through the wire front) overflow c.eval to inf/NaN, and those
        // flow through the derivatives into the regularized factorization,
        // which fails fast on non-finite input and ends the solve cleanly.
        debug_assert!(
            g < 0.0 || !g.is_finite(),
            "barrier derivative requested at infeasible point"
        );
        let inv = 1.0 / (-g);
        c.add_gradient(x, &mut grad_full, mu * inv);
        let cg = c.gradient(x);
        for a in 0..n {
            if exactly_zero(cg[a]) {
                continue;
            }
            for b in a..n {
                if !exactly_zero(cg[b]) {
                    let v = mu * inv * inv * cg[a] * cg[b];
                    hess_full[(a, b)] += v;
                    if a != b {
                        hess_full[(b, a)] += v;
                    }
                }
            }
        }
        c.add_hessian_diag(x, &mut hess_diag_full, mu * inv);
    }
    for &j in free {
        let (lo, hi) = (p.lowers()[j], p.uppers()[j]);
        if lo.is_finite() {
            let d = x[j] - lo;
            grad_full[j] -= mu / d;
            hess_diag_full[j] += mu / (d * d);
        }
        if hi.is_finite() {
            let d = hi - x[j];
            grad_full[j] += mu / d;
            hess_diag_full[j] += mu / (d * d);
        }
    }
    for j in 0..n {
        hess_full[(j, j)] += hess_diag_full[j];
    }

    let grad: Vec<f64> = free.iter().map(|&j| grad_full[j]).collect();
    let mut hess = Matrix::zeros(k, k);
    for (ai, &a) in free.iter().enumerate() {
        for (bi, &b) in free.iter().enumerate() {
            hess[(ai, bi)] = hess_full[(a, b)];
        }
    }
    (grad, hess)
}
