//! Interior-point solver for structured convex NLPs.
//!
//! Minimizes `cᵀx` subject to `g_i(x) <= 0`, linear equalities `A x = b`,
//! and box bounds. The barrier loop in [`crate::mpc`] does the work: the
//! predictor-corrector iterations, and behind them the fixed-μ fallback
//! stages on the same machinery; each solve that ran the fallback says so
//! in [`NlpSolution::barrier_fallbacks`]. This module owns everything
//! around the loop: the reduced problem, start points (warm repair,
//! equality projection, phase 1) and the KKT path a problem's pattern
//! picks ([`kkt_path`]). Fixed variables (`lo == hi`, produced when
//! branch-and-bound pins an integer) are eliminated from the Newton system,
//! and constraints that touch no free variable become plain feasibility
//! checks — they may sit exactly on their boundary (e.g. a saturated
//! capacity row), which the strict barrier interior would otherwise reject.

use crate::mpc::structured::Pattern;
use crate::problem::NlpProblem;
use hslb_linalg::{Cholesky, Matrix};
use hslb_obs::{Event, SolveStats, Trace};

/// Initial barrier weight of a cold solve, and the ceiling on warm ones.
const MU0: f64 = 10.0;
/// Duality-gap stopping tolerance: a solve is done once
/// `μ·(#constraints + #finite bounds)` is at most this.
pub(crate) const GAP_TOL: f64 = 1e-9;
/// Newton budget: predictor-corrector iterations per run, and Newton
/// steps per stage of the fixed-μ fallback. Epigraph formulations start
/// far from the central path (t at the midpoint of a huge box) and need
/// well over 60 steps to walk it in; stalling there costs more than
/// converging.
pub(crate) const MAX_NEWTON: usize = 200;
/// Strict-feasibility margin demanded of starting points.
const INTERIOR_MARGIN: f64 = 1e-8;
/// Relative feasibility tolerance for constraints whose variables are all
/// pinned: they are checked once against this, not barrier-enforced.
pub(crate) const PINNED_FEAS_TOL: f64 = 1e-7;
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
/// Cholesky regularization of a condensed KKT matrix without equality rows.
pub(crate) const HESS_CHOL_REG: f64 = 1e-10;
/// Primal/dual regularization added to the KKT system diagonal.
pub(crate) const KKT_REG: f64 = 1e-12;
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

/// Barrier solver options. The tolerances, budgets and μ₀ are module
/// consts, and no option picks the KKT path: the problem's pattern does
/// ([`kkt_path`]). A min–max relaxation's main loop runs on the structured
/// factor; any other Newton system is factored dense, by the Cholesky (no
/// equalities) or the LU of the bordered system (with equalities).
#[derive(Debug, Clone, Default)]
pub struct BarrierOptions {
    /// Event trace (off by default; see `hslb-obs`). When enabled, every
    /// completed solve emits one `NlpSolved` event carrying its Newton
    /// iteration count.
    pub trace: Trace,
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
    /// Inequality multipliers, one per constraint: the dual iterates the
    /// barrier loop ended with. On `Optimal` they passed the loop's exit
    /// test, which [`NlpSolution::certify`] checks from the problem alone.
    pub multipliers: Vec<f64>,
    /// Total Newton iterations.
    pub newton_iters: usize,
    /// Whether a [`WarmStart`] seed was actually used (repair succeeded);
    /// `false` on cold solves and on warm calls that fell back cold.
    pub warm_started: bool,
    /// Affine-scaling predictor solves.
    pub predictor_steps: u64,
    /// Corrector solves, including pure-centering rescues.
    pub corrector_steps: u64,
    /// Merit-search trial steps rejected before acceptance, in the
    /// predictor-corrector iterations and the fallback's stages alike.
    pub line_search_backtracks: u64,
    /// 1 when the fixed-μ fallback ran in this solve (phase 1 or main),
    /// else 0: the predictor-corrector iterations ended unconverged, or the
    /// problem had no barrier terms.
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
            predictor_steps: self.predictor_steps,
            corrector_steps: self.corrector_steps,
            line_search_backtracks: self.line_search_backtracks,
            barrier_fallbacks: self.barrier_fallbacks,
            ..SolveStats::default()
        }
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
    let result = solve_inner(p, opts, warm);
    if let Ok(sol) = &result {
        opts.trace.emit(|| Event::NlpSolved {
            newton_iters: sol.newton_iters as u64,
        });
        debug_assert!(
            sol.status != NlpStatus::Optimal || !p.is_convex() || sol.certify(p).is_ok(),
            "barrier optimum fails its certificate: {:?}",
            sol.certify(p)
        );
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
        if c.touches_free(&is_free) {
            reduced.add_constraint(c.clone());
            active_map.push(ci);
        } else if !c.holds_pinned(&x_pinned) {
            return Ok(NlpSolution::failed(NlpStatus::Infeasible, 0));
        }
    }
    for e in p.equalities() {
        if e.touches_free(&is_free) {
            reduced.add_linear_eq(e.coeffs.clone(), e.rhs);
        } else if !e.holds_pinned(&x_pinned) {
            return Ok(NlpSolution::failed(NlpStatus::Infeasible, 0));
        }
    }

    let mut newton_total = 0usize;
    let mut tally = WorkTally::default();

    // Warm path: repair the parent point into a strictly feasible start.
    // Only a *proven* strictly feasible repair is used, so the warm path can
    // never produce an infeasibility verdict the cold path wouldn't.
    let seed = warm.filter(|ws| ws.x.len() == n);
    let warm_seed = seed.and_then(|ws| {
        let xw = repair_warm_point(&reduced, &ws.x, !ws.multipliers.is_empty())?;
        let mu0 = warm_mu0(p, &xw, &ws.multipliers);
        Some((xw, mu0))
    });
    let start = match warm_seed {
        Some((xw, mu0)) => Ok((xw, mu0, true)),
        None => cold_start(&reduced, opts, &mut newton_total, &mut tally).map(|x0| {
            // A dual-less seed that no midpoint blend repaired (a capacity
            // row active at the seed and violated at the midpoint) blends
            // toward the cold start instead: that point is strictly
            // feasible, so by convexity the blend is too once it weighs
            // the start enough to absorb the seed's violations.
            let blended = seed
                .filter(|ws| ws.multipliers.is_empty())
                .and_then(|ws| blend_toward(&reduced, &clamped(&reduced, &ws.x), &x0));
            match blended {
                Some(xw) => {
                    let mu0 = warm_mu0(p, &xw, &[]);
                    (xw, mu0, true)
                }
                None => (x0, MU0, false),
            }
        }),
    };
    let (mut out, warm_started) = match start {
        Ok((x0, mu0, warm_started)) => (
            crate::mpc::run(&reduced, x0, mu0, opts, &mut newton_total, &mut tally, None),
            warm_started,
        ),
        Err(status) => (NlpSolution::failed(status, newton_total), false),
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
pub(crate) fn free_vars(p: &NlpProblem) -> Vec<usize> {
    (0..p.num_vars())
        .filter(|&j| p.lowers()[j] < p.uppers()[j])
        .collect()
}

/// The factorization behind a system of Newton steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KktPath {
    /// Dense Cholesky, or LU of the bordered system with equality rows:
    /// every system whose pattern the structured factor declines.
    Dense,
    /// Diagonal plus hub columns plus bordered rows, factored in
    /// O(k(h+r)²): min–max relaxations without equality rows (see
    /// `mpc::structured`).
    Structured,
}

/// The path on which a solve of `p` factors its Newton systems after
/// phase 1, fallback included. The problem's pattern alone decides it:
/// the free columns, each constraint's free support and whether an
/// equality row touches a free column. Phase 1 never takes
/// [`KktPath::Structured`].
pub fn kkt_path(p: &NlpProblem) -> KktPath {
    let free = free_vars(p);
    let is_free: Vec<bool> = (0..p.num_vars())
        .map(|j| p.lowers()[j] < p.uppers()[j])
        .collect();
    let col_of: std::collections::HashMap<usize, usize> =
        free.iter().enumerate().map(|(c, &j)| (j, c)).collect();
    let supports: Vec<Vec<usize>> = p
        .constraints()
        .iter()
        .filter(|c| c.touches_free(&is_free))
        .map(|c| c.free_support(&col_of))
        .collect();
    let m_eq = p
        .equalities()
        .iter()
        .filter(|e| e.touches_free(&is_free))
        .count();
    let k = free.len();
    if m_eq == 0 && Pattern::detect(k, supports.iter().map(Vec::as_slice)).is_some() {
        KktPath::Structured
    } else {
        KktPath::Dense
    }
}

/// Repairs a parent-node optimum into a strictly feasible start for this
/// node: box-clamp (pinned coordinates snap to their pin), then try blend
/// candidates toward the cold midpoint start, re-projecting each onto the
/// equality manifold. Returns `None` when no candidate is strictly feasible
/// — the caller then runs the cold path, and blends a dual-less seed
/// toward the cold start it finds.
///
/// `has_duals` says whether the seed carries parent multipliers. Only then
/// is the aggressive [`push_interior`] restoration tried: it lands the
/// point right at the target slack of previously-violated rows, and
/// starting there is productive only when `warm_mu0` can match μ to that
/// proximity via the parent's complementarity. Dual-less seeds (a served
/// allocation, a barrier polish) get blend repairs alone — an
/// active-set-hugging start paired with the fallback μ reliably stalls the
/// inner Newton at its cap.
fn repair_warm_point(p: &NlpProblem, parent: &[f64], has_duals: bool) -> Option<Vec<f64>> {
    let xw = clamped(p, parent);
    if let Some(x) = blend_toward(p, &xw, &default_start(p)) {
        return Some(x);
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

/// The first of the [`WARM_BLEND_STEPS`] blends of `xw` toward `anchor`,
/// re-projected onto the equality manifold, that is strictly feasible.
fn blend_toward(p: &NlpProblem, xw: &[f64], anchor: &[f64]) -> Option<Vec<f64>> {
    WARM_BLEND_STEPS.iter().find_map(|&theta| {
        let cand: Vec<f64> = xw
            .iter()
            .zip(anchor)
            .map(|(&a, &b)| (1.0 - theta) * a + theta * b)
            .collect();
        let cand = if p.equalities().is_empty() {
            cand
        } else {
            equality_project(p, cand)?
        };
        strictly_feasible(p, &cand, INTERIOR_MARGIN).then_some(cand)
    })
}

/// `x` pulled into the box by [`clamp_into_box`].
fn clamped(p: &NlpProblem, x: &[f64]) -> Vec<f64> {
    let mut x = x.to_vec();
    clamp_into_box(p, &mut x);
    x
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
fn warm_mu0(p: &NlpProblem, x: &[f64], multipliers: &[f64]) -> f64 {
    let mut est = 0.0_f64;
    if multipliers.len() == p.num_constraints() {
        for (c, &lam) in p.constraints().iter().zip(multipliers) {
            let slack = -c.eval(x);
            if slack > 0.0 && lam > 0.0 {
                est = est.max(lam * slack);
            }
        }
    }
    if est > 0.0 {
        (WARM_MU0_SIGMA * est).clamp(WARM_MU0_MIN, MU0)
    } else {
        WARM_MU0_DEFAULT.min(MU0)
    }
}

/// Cold start: the box midpoint projected onto the equality manifold
/// strictly inside the box, then phase 1 when the inequalities are not
/// strictly satisfied there. `Err` carries the verdict when no strictly
/// feasible point is found.
fn cold_start(
    p: &NlpProblem,
    opts: &BarrierOptions,
    newton_total: &mut usize,
    tally: &mut WorkTally,
) -> Result<Vec<f64>, NlpStatus> {
    let x0 = equality_project(p, default_start(p)).ok_or(NlpStatus::Infeasible)?;
    if strictly_feasible(p, &x0, INTERIOR_MARGIN) {
        return Ok(x0);
    }
    phase_one(p, &x0, opts, newton_total, tally)
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
    tally: &mut WorkTally,
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
    let sol = crate::mpc::run(&aug, z0, MU0, opts, newton_total, tally, Some((s, target)));
    // A point past the target, or left at the divergence guard, may start
    // the solve; a phase 1 that stopped short says why.
    let deep =
        !sol.x.is_empty() && (sol.status == NlpStatus::Unbounded || sol.x[s] < -INTERIOR_MARGIN);
    if sol.status != NlpStatus::Infeasible && deep {
        if let Some(x) = interior_start(p, sol.x[..n].to_vec()) {
            return Ok(x);
        }
    }
    Err(match sol.status {
        NlpStatus::Optimal | NlpStatus::Infeasible => NlpStatus::Infeasible,
        NlpStatus::IterationLimit | NlpStatus::Unbounded => NlpStatus::IterationLimit,
    })
}

/// Phase 1's point as a start: `x` itself when strictly feasible, else
/// `x` pulled inside the box by the start margin. Phase 1 runs to its own
/// optimum when the depth target is deeper than the problem allows, and
/// that optimum can sit on the box while every row is deep enough to
/// absorb the move.
fn interior_start(p: &NlpProblem, mut x: Vec<f64>) -> Option<Vec<f64>> {
    if !strictly_feasible(p, &x, INTERIOR_MARGIN * 0.5) {
        clamp_into_box(p, &mut x);
    }
    strictly_feasible(p, &x, INTERIOR_MARGIN * 0.5).then_some(x)
}

/// Running totals of predictor-corrector work across one solve (phase 1
/// plus the main loop); attached to the returned [`NlpSolution`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WorkTally {
    pub(crate) predictor_steps: u64,
    pub(crate) corrector_steps: u64,
    pub(crate) line_search_backtracks: u64,
    /// Set once the fallback runs, in phase 1 or the main solve.
    pub(crate) fell_back: bool,
}

impl WorkTally {
    /// Copies the solve's totals onto its result.
    fn attach(self, out: &mut NlpSolution) {
        out.predictor_steps = self.predictor_steps;
        out.corrector_steps = self.corrector_steps;
        out.line_search_backtracks = self.line_search_backtracks;
        out.barrier_fallbacks = u64::from(self.fell_back);
    }
}
