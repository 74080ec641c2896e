//! The barrier loop: Mehrotra predictor-corrector iterations, with a
//! fixed-μ fallback on the same machinery.
//!
//! A primal-dual method that holds the primal strictly feasible (slacks
//! stay implicit, `s_i = −g_i(x)`) and carries explicit dual iterates: `λ`
//! per inequality, `z` per finite bound, `ν` per equality. Each
//! predictor-corrector iteration:
//!
//! 1. factors the condensed KKT system once ([`augmented_system`]),
//! 2. solves it for the affine-scaling predictor (μ̂ = 0),
//! 3. picks σ = (μ_aff/μ)³ from the predicted complementarity
//!    ([`mu_update`]),
//! 4. re-solves the *same factorization* for the corrector (μ̂ = σμ plus
//!    Mehrotra's second-order terms), and
//! 5. takes the longest fraction-to-boundary step that also decreases a
//!    squared-KKT-residual merit ([`line_search`]), falling back to a
//!    pure centering solve when the corrected direction overshoots.
//!
//! Condensing: with diagonal constraint curvature (every `g` here is
//! linear plus univariate terms), eliminating Δλ and Δz reduces the
//! Newton system to
//!
//! ```text
//! [ M  Âᵀ ] [Δx]                M = Σ λᵢ∇²gᵢ + Σ (λᵢ/sᵢ)∇gᵢ∇gᵢᵀ
//! [ Â   0 ] [Δν] = rhs,             + diag(zlo/dlo + zhi/dhi)
//! ```
//!
//! which has exactly the sparsity pattern of the barrier Hessian — the
//! analyzed `SparseKkt` structure is reused verbatim. The dual components
//! are recovered from the linearized complementarity rows after each
//! solve.
//!
//! Every `Optimal` leaves through one exit test ([`Ctx::converged`]) at
//! the duals it returns. When the predictor-corrector iterations cannot
//! pass it, the fallback's fixed-μ stages ([`Loop::stages`]) restart from
//! the start point on the same machinery, and the iterations finish from
//! the point they centre.
//!
//! Warm starts compose unchanged: the repaired parent point and its
//! Mehrotra-seeded μ₀ enter here as the initial primal and the
//! perfectly-centered initial dual scale — not through a side path.
//!
//! # Cost of a Newton step
//!
//! One step costs what the constraints' nonzeros need:
//!
//! - **Sparse rows.** Constraint gradients live in one CSR block
//!   (`Rows`, `Eval::grad`) over each constraint's free support,
//!   laid out once per solve with columns in increasing order. The dual
//!   residual, the right-hand side, the dual recovery, the merit slope
//!   and the condensed matrix walk those entries in the order a dense
//!   k-column loop would visit them; outside the support such a loop
//!   would only add exact zeros.
//! - **One evaluation per trial point.** A line-search trial checks the
//!   box, then builds its `Eval` once — slacks, gradient entries,
//!   equality residuals and bound distances — and reads both its
//!   centrality floor and its barrier merit from it. The accepted trial's
//!   `Eval` becomes the next iteration's, so an accepted point is never
//!   evaluated twice.
//! - **Pinned terms once per solve.** A nonlinear term on a pinned column
//!   is evaluated at its pin when the solve starts; the cached value
//!   enters its constraint's value in the original term order, and never
//!   a gradient or the Hessian diagonal (only free columns are read).
//! - **The factorization the pattern allows.** A main loop without
//!   equality rows whose condensed matrix is a diagonal plus h hub columns
//!   and r bordered rows (a min–max relaxation: h = 1 for the epigraph
//!   column, r = 1 for the node budget) assembles it in O(nnz) and factors
//!   it in O(k(h+r)²) ([`structured`]); every other system assembles the
//!   dense k×k matrix and factors it in O(k³), or sparse above the
//!   crossover ([`augmented_system`]).
//!
//! On the dense and sparse paths every floating-point operation that
//! reaches an iterate is the one the dense formulation (n-length
//! gradients, every term evaluated at every point) performs, on the same
//! values in the same order, so iterates, answers and work counters match
//! it bit for bit. The structured factor is a genuine LDLᵀ of the same
//! matrix with the dense Cholesky's backward stability, but it rounds
//! differently. On FMO roots its steps agree with the dense ones to about
//! 1e-10 relative; on the far worse conditioned CESM layout-2 and -3 roots
//! both are backward stable and the steps can differ in every digit, so
//! those trees can differ.

pub(crate) mod augmented_system;
pub(crate) mod line_search;
pub(crate) mod mu_update;
pub(crate) mod structured;

use std::collections::HashMap;

use crate::barrier::{
    free_vars, BarrierOptions, FactorTally, NlpSolution, NlpStatus, DIVERGENCE_LIMIT, GAP_TOL,
    MAX_NEWTON, PINNED_FEAS_TOL,
};
use crate::problem::NlpProblem;
use augmented_system::{AugmentedSystem, Condensed, KktFactor, SystemError};
use hslb_linalg::{Matrix, SparseWorkspace};
use hslb_obs::Event;
use line_search::FRACTION_TO_BOUNDARY_TAU;
use mu_update::{Corrector, MU_LINEAR_SHRINK};
use structured::Pattern;

/// Cap on the perfectly-centered initial duals `μ₀/s`: a slack at the
/// strict-feasibility margin (~1e-8) would otherwise seed a ~1e9 dual and
/// a hopelessly ill-conditioned first system.
const DUAL_INIT_CAP: f64 = 1e8;
/// Centring test of a fallback stage: the Newton decrement `−∇Φ_μᵀΔx / μ`
/// of the barrier function, free of the objective's units, at most this.
const STAGE_DECREMENT: f64 = 1e-2;
/// Gap `μ·count` at or below which a fallback stage hands its point to
/// the predictor-corrector iterations: far enough above [`GAP_TOL`] that
/// slacks `μ/λ` stay many ulps wide, near enough to the optimum that the
/// iterations do not jam again (at gap 40 they do on the binary-encoded
/// E8 root at k = 128).
const HANDOFF_GAP: f64 = 1e-3;
/// Relative equality-residual tolerance required at convergence. Warm
/// starts may enter with the loose projection residual (1e-5·scale); the
/// Newton corrections pull it under this within the first steps.
const EQ_CONVERGENCE_TOL: f64 = 1e-8;
/// Relative dual-residual (stationarity) tolerance required at
/// convergence, on top of the gap test `μ·count ≤ GAP_TOL`.
const DUAL_CONVERGENCE_TOL: f64 = 1e-7;
/// Centrality band: the target μ may only decrease while every
/// complementarity product sits within `[μ/RATIO, μ·RATIO]`. Chasing a
/// lower target from an off-center iterate makes the corrector fight the
/// centering terms and cycle (observed on wide boxes like `t ∈ [0, 1e6]`).
const CENTRALITY_RATIO: f64 = 10.0;
/// Residual leash on μ decreases: primal/dual infeasibility (relative to
/// scale) must stay within this multiple of the current target, so the
/// gap never races ahead of feasibility — the standard infeasible-IPM
/// neighborhood coupling.
const MU_GATE_RESIDUAL_FRAC: f64 = 1.0;

/// Primal-dual iterate. `x` lives in the full variable space (pinned
/// coordinates stay at their pins); duals are indexed by reduced objects:
/// `lam` per inequality, `zlo`/`zhi` per free column (zero where the
/// corresponding bound is infinite), `nu` per equality.
struct State {
    x: Vec<f64>,
    lam: Vec<f64>,
    zlo: Vec<f64>,
    zhi: Vec<f64>,
    nu: Vec<f64>,
}

/// One search direction in the same indexing as [`State`], plus the
/// linearized slack change `ds = −∇gᵀ·dx`.
pub(crate) struct Direction {
    pub(crate) dx: Vec<f64>,
    pub(crate) dnu: Vec<f64>,
    pub(crate) dlam: Vec<f64>,
    pub(crate) dzlo: Vec<f64>,
    pub(crate) dzhi: Vec<f64>,
    pub(crate) ds: Vec<f64>,
}

/// One nonlinear constraint term as a solve sees it.
#[derive(Debug, Clone, Copy)]
enum NlTerm {
    /// On a pinned column: the term's value at the pin, evaluated once
    /// when the solve starts.
    Pinned(f64),
    /// On a free column: the [`Rows`] entry its derivative lands in.
    Free(usize),
}

/// Constraint-gradient layout over the free columns, fixed for a solve:
/// one CSR block whose row `i` lists constraint `i`'s free support in
/// increasing column order, plus the recipe that fills its entries.
struct Rows {
    /// Row starts into `col` (`m + 1` of them).
    start: Vec<usize>,
    /// Free column of each entry.
    col: Vec<usize>,
    /// Linear terms on free columns as `(entry, coefficient)`, in term
    /// order; constraint `i` owns `lin[lin_start[i]..lin_start[i + 1]]`.
    lin: Vec<(usize, f64)>,
    lin_start: Vec<usize>,
    /// Every nonlinear term, parallel to each constraint's `nonlinear`
    /// list; constraint `i` owns `nln[nln_start[i]..nln_start[i + 1]]`.
    nln: Vec<NlTerm>,
    nln_start: Vec<usize>,
}

impl Rows {
    /// Lays out the free support of every constraint and caches each
    /// pinned nonlinear term at `x` (pinned coordinates never move).
    fn new(p: &NlpProblem, col_of: &HashMap<usize, usize>, x: &[f64]) -> Rows {
        let mut rows = Rows {
            start: vec![0],
            col: Vec::new(),
            lin: Vec::new(),
            lin_start: vec![0],
            nln: Vec::new(),
            nln_start: vec![0],
        };
        // Entry of each free column within the row being laid out.
        let mut entry_of = vec![0; col_of.len()];
        for c in p.constraints() {
            let base = rows.col.len();
            let support = c.free_support(col_of);
            for (offset, &col) in support.iter().enumerate() {
                entry_of[col] = base + offset;
            }
            for &(v, co) in &c.linear {
                if let Some(&col) = col_of.get(&v) {
                    rows.lin.push((entry_of[col], co));
                }
            }
            for (v, f) in &c.nonlinear {
                rows.nln.push(match col_of.get(v) {
                    Some(&col) => NlTerm::Free(entry_of[col]),
                    None => NlTerm::Pinned(f.eval(x[*v])),
                });
            }
            rows.col.extend_from_slice(&support);
            rows.start.push(rows.col.len());
            rows.lin_start.push(rows.lin.len());
            rows.nln_start.push(rows.nln.len());
        }
        rows
    }

    /// Entry range of constraint `i`'s row.
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.start[i]..self.start[i + 1]
    }

    /// Constraint `i`'s nonlinear terms, parallel to its `nonlinear` list.
    fn terms(&self, i: usize) -> &[NlTerm] {
        &self.nln[self.nln_start[i]..self.nln_start[i + 1]]
    }
}

/// Problem evaluation at one primal point — built once per point (the
/// start, then each line-search trial) and carried with the iterate.
#[derive(Clone)]
struct Eval {
    /// Slacks `s_i = −g_i(x)`, strictly positive.
    slack: Vec<f64>,
    /// Constraint-gradient entries, laid out by [`Rows`].
    grad: Vec<f64>,
    /// Equality residuals `A·x − b`.
    r_eq: Vec<f64>,
    /// Distances to the finite bounds per free column. Entries for
    /// infinite bounds hold a `1.0` placeholder — always paired with a
    /// zero dual and guarded by `is_finite` checks, so they contribute
    /// nothing anywhere.
    dlo: Vec<f64>,
    dhi: Vec<f64>,
}

/// The exit test's measures at one iterate, on its own duals.
struct Residuals {
    /// Average complementarity.
    mu: f64,
    /// Stationarity residual over the free columns ([`Ctx::r_dual`]).
    r_d: Vec<f64>,
    r_d_norm: f64,
    r_eq_norm: f64,
    /// Scale of the stationarity tests: `1 + max|c_j| + max dual`.
    dual_scale: f64,
}

/// Problem-shape data fixed across the loop.
struct Ctx<'p> {
    p: &'p NlpProblem,
    free: &'p [usize],
    /// Sparse constraint-gradient layout and the pinned-term cache.
    rows: Rows,
    /// Objective coefficients over the free columns.
    c_free: Vec<f64>,
    /// Bounds per free column (±inf where absent).
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Equality matrix over the free columns.
    a_eq: Matrix,
    /// Number of complementarity pairs (inequalities + finite bounds).
    count: usize,
    /// Scale for the equality-residual tolerance.
    eq_scale: f64,
}

impl<'p> Ctx<'p> {
    /// Evaluates slacks, gradient entries, equality residuals and bound
    /// distances, failing fast on anything non-finite or
    /// boundary-violating. Each constraint value is summed exactly as
    /// `ConstraintFn::eval` sums it, with pinned terms read from the
    /// cache; each gradient entry accumulates its linear coefficients,
    /// then its nonlinear derivatives, in term order.
    fn eval(&self, x: &[f64]) -> Result<Eval, SystemError> {
        let rows = &self.rows;
        let mut slack = Vec::with_capacity(self.p.num_constraints());
        let mut grad = vec![0.0; rows.col.len()];
        for (i, c) in self.p.constraints().iter().enumerate() {
            let terms = rows.terms(i);
            let lin: f64 = c.linear.iter().map(|&(v, co)| co * x[v]).sum();
            let nln: f64 = c
                .nonlinear
                .iter()
                .zip(terms)
                .map(|((v, f), term)| match *term {
                    NlTerm::Pinned(value) => value,
                    NlTerm::Free(_) => f.eval(x[*v]),
                })
                .sum();
            let g = lin + nln + c.constant;
            if !g.is_finite() {
                return Err(SystemError::NonFinite("constraint residual"));
            }
            if g >= 0.0 {
                // The line search only accepts strictly feasible trials, so
                // a boundary hit here means the invariant broke numerically.
                return Err(SystemError::NonFinite("nonpositive slack"));
            }
            for &(e, co) in &rows.lin[rows.lin_start[i]..rows.lin_start[i + 1]] {
                grad[e] += co;
            }
            for ((v, f), term) in c.nonlinear.iter().zip(terms) {
                if let NlTerm::Free(e) = *term {
                    grad[e] += f.d1(x[*v]);
                }
            }
            slack.push(-g);
        }
        if !grad.iter().all(|v| v.is_finite()) {
            return Err(SystemError::NonFinite("constraint gradient"));
        }
        let r_eq: Vec<f64> = self.p.equalities().iter().map(|e| e.residual(x)).collect();
        if !r_eq.iter().all(|v| v.is_finite()) {
            return Err(SystemError::NonFinite("equality residual"));
        }
        let k = self.free.len();
        let mut dlo = vec![1.0; k];
        let mut dhi = vec![1.0; k];
        for (c, &j) in self.free.iter().enumerate() {
            if self.lo[c].is_finite() {
                dlo[c] = x[j] - self.lo[c];
            }
            if self.hi[c].is_finite() {
                dhi[c] = self.hi[c] - x[j];
            }
        }
        Ok(Eval {
            slack,
            grad,
            r_eq,
            dlo,
            dhi,
        })
    }

    /// A line-search trial's evaluation: `None` unless `x` lies strictly
    /// inside every finite bound and [`Ctx::eval`] succeeds.
    fn trial_eval(&self, x: &[f64]) -> Option<Eval> {
        for (c, &j) in self.free.iter().enumerate() {
            let (lo, hi) = (self.lo[c], self.hi[c]);
            if (lo.is_finite() && x[j] <= lo) || (hi.is_finite() && x[j] >= hi) {
                return None;
            }
        }
        self.eval(x).ok()
    }

    /// Barrier merit `Φ_μ̂ = cᵀx − μ̂·(Σ ln sᵢ + Σ ln d)` at the point `ev`
    /// evaluates, summed in the order objective, constraints, then each
    /// free column's lower and upper bound.
    fn merit(&self, x: &[f64], ev: &Eval, mu_hat: f64) -> f64 {
        let mut v = self.p.objective_value(x);
        for s in &ev.slack {
            v -= mu_hat * s.ln();
        }
        for c in 0..self.free.len() {
            if self.lo[c].is_finite() {
                v -= mu_hat * ev.dlo[c].ln();
            }
            if self.hi[c].is_finite() {
                v -= mu_hat * ev.dhi[c].ln();
            }
        }
        v
    }

    /// Average complementarity μ over all pairs (zero when there are none).
    fn mu_of(&self, st: &State, ev: &Eval) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (lam, s) in st.lam.iter().zip(&ev.slack) {
            sum += lam * s;
        }
        for c in 0..self.free.len() {
            if self.lo[c].is_finite() {
                sum += st.zlo[c] * ev.dlo[c];
            }
            if self.hi[c].is_finite() {
                sum += st.zhi[c] * ev.dhi[c];
            }
        }
        sum / self.count as f64
    }

    /// Dual safeguard: any complementarity product that leaves the
    /// [`CENTRALITY_RATIO`] neighborhood of the target gets its dual reset
    /// to the primal barrier multiplier `μ̂/s` (resp. `μ̂/d` for bounds).
    /// A drifted dual makes its `λ/s` pivot in the condensed matrix
    /// disagree with the barrier curvature `μ̂/s²`, and the Newton
    /// direction then rides tangentially along the constraint instead of
    /// lifting off it. The reset makes the next direction the exact
    /// damped-Newton barrier direction — what the fallback's stages step
    /// along — and the untouched in-band duals resume Mehrotra stepping
    /// immediately.
    fn recenter_duals(&self, st: &mut State, ev: &Eval, mu_hat: f64) -> bool {
        let mut changed = false;
        let mut recenter = |dual: &mut f64, dist: f64| {
            let product = *dual * dist;
            if product > CENTRALITY_RATIO * mu_hat || product * CENTRALITY_RATIO < mu_hat {
                *dual = mu_hat / dist;
                changed = true;
            }
        };
        for (lam, &s) in st.lam.iter_mut().zip(&ev.slack) {
            recenter(lam, s);
        }
        for c in 0..self.free.len() {
            if self.lo[c].is_finite() {
                recenter(&mut st.zlo[c], ev.dlo[c]);
            }
            if self.hi[c].is_finite() {
                recenter(&mut st.zhi[c], ev.dhi[c]);
            }
        }
        changed
    }

    /// Slaves every dual to the primal barrier multiplier at target `mu`,
    /// capped at `cap`: `λ = μ/s` per inequality, `z = μ/d` per finite
    /// bound. Uncapped, the condensed matrix is then the Hessian of the
    /// barrier function, and the centring direction its damped Newton step.
    fn slave_duals(&self, st: &mut State, ev: &Eval, mu: f64, cap: f64) {
        for (lam, &s) in st.lam.iter_mut().zip(&ev.slack) {
            *lam = (mu / s).min(cap);
        }
        for c in 0..self.free.len() {
            if self.lo[c].is_finite() {
                st.zlo[c] = (mu / ev.dlo[c]).min(cap);
            }
            if self.hi[c].is_finite() {
                st.zhi[c] = (mu / ev.dhi[c]).min(cap);
            }
        }
    }

    /// The exit test's measures at the iterate, on its own duals.
    fn residuals(&self, st: &State, ev: &Eval) -> Residuals {
        let r_d = self.r_dual(st, ev);
        let dual_scale = 1.0
            + self.c_free.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
            + st.lam
                .iter()
                .chain(&st.zlo)
                .chain(&st.zhi)
                .fold(0.0_f64, |m, &v| m.max(v));
        Residuals {
            mu: self.mu_of(st, ev),
            r_d_norm: r_d.iter().fold(0.0_f64, |m, v| m.max(v.abs())),
            r_eq_norm: ev.r_eq.iter().fold(0.0_f64, |m, v| m.max(v.abs())),
            r_d,
            dual_scale,
        }
    }

    /// The exit test every `Optimal` passes, at the duals the answer
    /// carries: the gap `μ·count ≤ GAP_TOL`, the equality residual, and
    /// the stationarity residual, both against the largest cost and dual
    /// and in each column against that column's own terms — the scale at
    /// which `NlpSolution::certify` holds each reduced gradient.
    fn converged(&self, st: &State, ev: &Eval, res: &Residuals) -> bool {
        res.mu * self.count as f64 <= GAP_TOL
            && res.r_eq_norm <= EQ_CONVERGENCE_TOL * self.eq_scale
            && res.r_d_norm <= DUAL_CONVERGENCE_TOL * res.dual_scale
            && self.stationary_by_column(st, ev, &res.r_d)
    }

    /// Whether every column's stationarity residual is within
    /// [`DUAL_CONVERGENCE_TOL`] of one plus the sizes of its terms: the
    /// cost, each `λᵢ·∂gᵢ`, each `νₑ·aₑ` and the bound duals.
    fn stationary_by_column(&self, st: &State, ev: &Eval, r_d: &[f64]) -> bool {
        let rows = &self.rows;
        let mut scale: Vec<f64> = self.c_free.iter().map(|c| 1.0 + c.abs()).collect();
        for (i, &lam) in st.lam.iter().enumerate() {
            let span = rows.range(i);
            for (&c, &g) in rows.col[span.clone()].iter().zip(&ev.grad[span]) {
                scale[c] += (lam * g).abs();
            }
        }
        for (r, &nu) in st.nu.iter().enumerate() {
            for (c, sc) in scale.iter_mut().enumerate() {
                *sc += (nu * self.a_eq[(r, c)]).abs();
            }
        }
        scale
            .iter()
            .zip(st.zlo.iter().zip(&st.zhi))
            .zip(r_d)
            .all(|((sc, (zlo, zhi)), r)| r.abs() <= DUAL_CONVERGENCE_TOL * (sc + zlo + zhi))
    }

    /// Smallest and largest complementarity product across all pairs —
    /// the centrality measure gating μ decreases.
    fn prod_range(&self, st: &State, ev: &Eval) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = 0.0_f64;
        let mut see = |p: f64| {
            min = min.min(p);
            max = max.max(p);
        };
        for (lam, s) in st.lam.iter().zip(&ev.slack) {
            see(lam * s);
        }
        for c in 0..self.free.len() {
            if self.lo[c].is_finite() {
                see(st.zlo[c] * ev.dlo[c]);
            }
            if self.hi[c].is_finite() {
                see(st.zhi[c] * ev.dhi[c]);
            }
        }
        (min, max)
    }

    /// Dual (stationarity) residual over the free columns:
    /// `r_d = c + Σ λᵢ∇gᵢ + Âᵀν − zlo + zhi`.
    fn r_dual(&self, st: &State, ev: &Eval) -> Vec<f64> {
        let k = self.free.len();
        let rows = &self.rows;
        let mut r = self.c_free.clone();
        for (i, &lam) in st.lam.iter().enumerate() {
            let span = rows.range(i);
            for (&c, &g) in rows.col[span.clone()].iter().zip(&ev.grad[span]) {
                r[c] += lam * g;
            }
        }
        if !st.nu.is_empty() {
            for (rc, atn) in r.iter_mut().zip(self.a_eq.matvec_transposed(&st.nu)) {
                *rc += atn;
            }
        }
        for (c, rc) in r.iter_mut().enumerate().take(k) {
            if self.lo[c].is_finite() {
                *rc -= st.zlo[c];
            }
            if self.hi[c].is_finite() {
                *rc += st.zhi[c];
            }
        }
        r
    }

    /// Directional derivative `∇Φ_μ̂ᵀ·dx` of the barrier merit along the
    /// primal direction, for the Armijo test.
    fn barrier_slope(&self, ev: &Eval, mu_hat: f64, dx: &[f64]) -> f64 {
        let mut slope = 0.0;
        for (c, &dxc) in dx.iter().enumerate() {
            let mut g = self.c_free[c];
            if self.lo[c].is_finite() {
                g -= mu_hat / ev.dlo[c];
            }
            if self.hi[c].is_finite() {
                g += mu_hat / ev.dhi[c];
            }
            slope += g * dxc;
        }
        for (i, s) in ev.slack.iter().enumerate() {
            let gdx = self.row_dot(ev, i, dx);
            slope += (mu_hat / s) * gdx;
        }
        slope
    }

    /// `∇gᵢᵀ·v` over row `i`'s entries, summed in column order.
    fn row_dot(&self, ev: &Eval, i: usize, v: &[f64]) -> f64 {
        let span = self.rows.range(i);
        ev.grad[span.clone()]
            .iter()
            .zip(&self.rows.col[span])
            .map(|(g, &c)| g * v[c])
            .sum()
    }

    /// The diagonal part of M per free column: constraint curvature
    /// `Σ λᵢ∇²gᵢ`, then the bound terms `zlo/dlo + zhi/dhi`.
    fn diagonal(&self, st: &State, ev: &Eval) -> Vec<f64> {
        let rows = &self.rows;
        let mut d = vec![0.0; self.free.len()];
        for (i, c) in self.p.constraints().iter().enumerate() {
            for ((v, f), term) in c.nonlinear.iter().zip(rows.terms(i)) {
                if let NlTerm::Free(e) = *term {
                    d[rows.col[e]] += st.lam[i] * f.d2(st.x[*v]);
                }
            }
        }
        for (c, dc) in d.iter_mut().enumerate() {
            if self.lo[c].is_finite() {
                *dc += st.zlo[c] / ev.dlo[c];
            }
            if self.hi[c].is_finite() {
                *dc += st.zhi[c] / ev.dhi[c];
            }
        }
        d
    }

    /// Condensed primal system matrix M (see module docs), as the values
    /// that define it; the KKT path assembles it.
    fn condensed<'s>(&'s self, st: &'s State, ev: &'s Eval) -> Condensed<'s> {
        Condensed {
            diag: self.diagonal(st, ev),
            lam: &st.lam,
            slack: &ev.slack,
            start: &self.rows.start,
            col: &self.rows.col,
            grad: &ev.grad,
        }
    }

    /// Right-hand side of the condensed system at centering target
    /// `mu_hat`, with optional second-order corrector terms.
    fn rhs(
        &self,
        st: &State,
        ev: &Eval,
        r_d: &[f64],
        mu_hat: f64,
        corr: Option<&Corrector>,
    ) -> (Vec<f64>, Vec<f64>) {
        let rows = &self.rows;
        let mut rx: Vec<f64> = r_d.iter().map(|v| -v).collect();
        for (i, &s) in ev.slack.iter().enumerate() {
            let cc = corr.map_or(0.0, |co| co.cc[i]);
            let t = (mu_hat - st.lam[i] * s - cc) / s;
            let span = rows.range(i);
            for (&c, &g) in rows.col[span.clone()].iter().zip(&ev.grad[span]) {
                rx[c] -= g * t;
            }
        }
        for (c, rxc) in rx.iter_mut().enumerate() {
            if self.lo[c].is_finite() {
                let cclo = corr.map_or(0.0, |co| co.cclo[c]);
                *rxc += (mu_hat - st.zlo[c] * ev.dlo[c] - cclo) / ev.dlo[c];
            }
            if self.hi[c].is_finite() {
                let cchi = corr.map_or(0.0, |co| co.cchi[c]);
                *rxc -= (mu_hat - st.zhi[c] * ev.dhi[c] - cchi) / ev.dhi[c];
            }
        }
        let re: Vec<f64> = ev.r_eq.iter().map(|v| -v).collect();
        (rx, re)
    }

    /// Recovers the dual components of a direction from the primal solve
    /// via the linearized complementarity rows.
    fn recover(
        &self,
        st: &State,
        ev: &Eval,
        dx: Vec<f64>,
        dnu: Vec<f64>,
        mu_hat: f64,
        corr: Option<&Corrector>,
    ) -> Direction {
        let k = self.free.len();
        let m_in = ev.slack.len();
        let mut ds = vec![0.0; m_in];
        let mut dlam = vec![0.0; m_in];
        for i in 0..m_in {
            let gdx = self.row_dot(ev, i, &dx);
            ds[i] = -gdx;
            let cc = corr.map_or(0.0, |co| co.cc[i]);
            dlam[i] = (mu_hat - st.lam[i] * ev.slack[i] - cc + st.lam[i] * gdx) / ev.slack[i];
        }
        let mut dzlo = vec![0.0; k];
        let mut dzhi = vec![0.0; k];
        for c in 0..k {
            if self.lo[c].is_finite() {
                let cclo = corr.map_or(0.0, |co| co.cclo[c]);
                dzlo[c] = (mu_hat - st.zlo[c] * ev.dlo[c] - cclo - st.zlo[c] * dx[c]) / ev.dlo[c];
            }
            if self.hi[c].is_finite() {
                let cchi = corr.map_or(0.0, |co| co.cchi[c]);
                dzhi[c] = (mu_hat - st.zhi[c] * ev.dhi[c] - cchi + st.zhi[c] * dx[c]) / ev.dhi[c];
            }
        }
        Direction {
            dx,
            dnu,
            dlam,
            dzlo,
            dzhi,
            ds,
        }
    }

    /// Fraction-to-boundary step caps: primal (slacks + box distances)
    /// and dual (λ, z) blocks separately, Mehrotra-style.
    fn step_lengths(&self, st: &State, ev: &Eval, dir: &Direction) -> (f64, f64) {
        let mut primal: Vec<(f64, f64)> = ev
            .slack
            .iter()
            .copied()
            .zip(dir.ds.iter().copied())
            .collect();
        let mut dual: Vec<(f64, f64)> = st
            .lam
            .iter()
            .copied()
            .zip(dir.dlam.iter().copied())
            .collect();
        for c in 0..self.free.len() {
            if self.lo[c].is_finite() {
                primal.push((ev.dlo[c], dir.dx[c]));
                dual.push((st.zlo[c], dir.dzlo[c]));
            }
            if self.hi[c].is_finite() {
                primal.push((ev.dhi[c], -dir.dx[c]));
                dual.push((st.zhi[c], dir.dzhi[c]));
            }
        }
        (
            line_search::max_step(primal.into_iter(), FRACTION_TO_BOUNDARY_TAU),
            line_search::max_step(dual.into_iter(), FRACTION_TO_BOUNDARY_TAU),
        )
    }

    /// Duality measure after the hypothetical affine step `(ap, ad)`,
    /// using the linearized slacks.
    fn predicted_mu(&self, st: &State, ev: &Eval, dir: &Direction, ap: f64, ad: f64) -> f64 {
        let mut sum = 0.0;
        for i in 0..ev.slack.len() {
            sum += (st.lam[i] + ad * dir.dlam[i]) * (ev.slack[i] + ap * dir.ds[i]);
        }
        for c in 0..self.free.len() {
            if self.lo[c].is_finite() {
                sum += (st.zlo[c] + ad * dir.dzlo[c]) * (ev.dlo[c] + ap * dir.dx[c]);
            }
            if self.hi[c].is_finite() {
                sum += (st.zhi[c] + ad * dir.dzhi[c]) * (ev.dhi[c] - ap * dir.dx[c]);
            }
        }
        (sum / self.count as f64).max(0.0)
    }

    /// The iterate after a scaled step: primal moved by `ap·dx`, duals by
    /// `ad` times their deltas.
    fn stepped(&self, st: &State, dir: &Direction, ap: f64, ad: f64) -> State {
        let mut x = st.x.clone();
        for (c, &j) in self.free.iter().enumerate() {
            x[j] += ap * dir.dx[c];
        }
        State {
            x,
            lam: st
                .lam
                .iter()
                .zip(&dir.dlam)
                .map(|(v, d)| v + ad * d)
                .collect(),
            zlo: st
                .zlo
                .iter()
                .zip(&dir.dzlo)
                .map(|(v, d)| v + ad * d)
                .collect(),
            zhi: st
                .zhi
                .iter()
                .zip(&dir.dzhi)
                .map(|(v, d)| v + ad * d)
                .collect(),
            nu: st
                .nu
                .iter()
                .zip(&dir.dnu)
                .map(|(v, d)| v + ad * d)
                .collect(),
        }
    }
}

/// One full direction: condensed rhs, shared-factor solve, dual recovery.
fn solve_direction(
    ctx: &Ctx,
    factor: &KktFactor,
    st: &State,
    ev: &Eval,
    r_d: &[f64],
    mu_hat: f64,
    corr: Option<&Corrector>,
) -> Result<Direction, SystemError> {
    let (rx, re) = ctx.rhs(st, ev, r_d, mu_hat, corr);
    let (dx, dnu) = factor.solve(&rx, &re)?;
    let dir = ctx.recover(st, ev, dx, dnu, mu_hat, corr);
    if !dir
        .dlam
        .iter()
        .chain(&dir.dzlo)
        .chain(&dir.dzhi)
        .chain(&dir.ds)
        .all(|v| v.is_finite())
    {
        return Err(SystemError::NonFinite("recovered dual step"));
    }
    Ok(dir)
}

/// One barrier-merit line search along `dir`; returns the accepted next
/// state with its evaluation, or `None` when the backtracking budget runs
/// out.
///
/// Both blocks scale with the accepted θ (primal by `θ·ap_max`, duals by
/// `θ·ad_max`): the linear dual update lands the complementarity products
/// on μ̂ only under the full primal step, so taking a full dual step after
/// a curvature-damped primal one would jump the duals to values consistent
/// with a point θ⁻¹ times further along and crush the products.
///
/// A trial step must satisfy three admissibility tests before the Armijo
/// merit comparison: strict primal feasibility (the box, then one
/// [`Ctx::eval`] that also feeds the other two tests), a finite barrier merit,
/// and the wide central-path neighborhood — every *true* (nonlinear)
/// complementarity product of the candidate stays at or above `floor`.
/// The last is the load-bearing one on curved constraints in the
/// predictor-corrector loop: the barrier merit alone happily trades a
/// crushed slack for objective progress (the log penalty is weak), and a
/// crushed product mis-scales the next condensed matrix so badly that the
/// solver creeps along the constraint for hundreds of iterations. The
/// fallback's stages re-slave their duals after every step and pass a
/// zero floor.
fn attempt(
    ctx: &Ctx,
    st: &State,
    ev: &Eval,
    dir: &Direction,
    mu_hat: f64,
    floor: f64,
    tally: &mut FactorTally,
) -> Option<(State, Eval)> {
    let (ap_max, ad_max) = ctx.step_lengths(st, ev, dir);
    let phi0 = ctx.merit(&st.x, ev, mu_hat);
    let slope = ctx.barrier_slope(ev, mu_hat, &dir.dx);
    // The last admissible trial: `backtrack` accepts right after the trial
    // that produced it, so on success this is the accepted point.
    let mut last = None;
    line_search::backtrack(
        phi0,
        slope,
        ap_max,
        |theta| {
            let cand = ctx.stepped(st, dir, theta * ap_max, theta * ad_max);
            let cand_ev = ctx.trial_eval(&cand.x)?;
            let (cand_min, _) = ctx.prod_range(&cand, &cand_ev);
            if cand_min < floor {
                return None;
            }
            let phi = ctx.merit(&cand.x, &cand_ev, mu_hat);
            if !phi.is_finite() {
                return None;
            }
            last = Some((cand, cand_ev));
            Some(phi)
        },
        &mut tally.line_search_backtracks,
    )?;
    last
}

/// How one phase of the loop ended.
enum Exit {
    /// The exit test passed, or phase 1's early exit fired.
    Converged,
    /// The iterate left the divergence guard.
    Unbounded,
    /// Budget spent, line search stalled or KKT system failed.
    Failed,
}

/// One solve's loop: the problem data, the KKT system and the work
/// tallies that the predictor-corrector iterations and the fallback's
/// stages share.
struct Loop<'a, 'p> {
    ctx: Ctx<'p>,
    sys: AugmentedSystem<'a>,
    opts: &'a BarrierOptions,
    newton_total: &'a mut usize,
    tally: &'a mut FactorTally,
    /// Phase 1's `(var, threshold)` stop.
    early_exit: Option<(usize, f64)>,
}

impl Loop<'_, '_> {
    /// The predictor-corrector iterations from `st` at the centring target
    /// `mu_target`: at most [`MAX_NEWTON`] of them, leaving on the exit
    /// test ([`Ctx::converged`]).
    ///
    /// The target is monotone non-increasing. Newton iterations chase a
    /// fixed target until the iterate is centered and feasible enough, and
    /// only then does the Mehrotra predictor ratchet it down — re-deriving
    /// the target from the products every iteration lets an off-center
    /// iterate drag it up and cycle.
    fn predictor_corrector(&mut self, st: &mut State, ev: &mut Eval, mut mu_target: f64) -> Exit {
        let ctx = &self.ctx;
        // The target never needs to fall below the gap test's exit level: a
        // μ within one centrality band of this floor already passes
        // `μ·count ≤ GAP_TOL`. Chasing a deeper target is pure downside — it
        // is unattainable once the primal has hit its strict-interior limit,
        // and the band safeguard would fight stationarity forever over it.
        let target_floor = GAP_TOL / (CENTRALITY_RATIO * ctx.count as f64);

        for _iter in 0..MAX_NEWTON {
            // `ev` evaluates `st.x`: the start's, then the accepted trial's.
            // Convergence is judged on the raw iterate, before any dual
            // safeguard: near the end the target can sit a band below the
            // converged μ, and recentering first would wreck the (already
            // acceptable) stationarity residual on the exit iteration.
            let mut res = ctx.residuals(st, ev);
            if ctx.converged(st, ev, &res) {
                return Exit::Converged;
            }
            if ctx.recenter_duals(st, ev, mu_target) {
                res = ctx.residuals(st, ev);
            }

            *self.newton_total += 1;
            let Ok(factor) = self
                .sys
                .factor(&ctx.condensed(st, ev), &ctx.a_eq, self.tally)
            else {
                return Exit::Failed;
            };

            // Affine-scaling predictor: full Newton toward μ̂ = 0. Its step
            // lengths price how much complementarity the pure Newton step
            // can remove; its deltas feed the second-order corrector terms.
            let Ok(aff) = solve_direction(ctx, &factor, st, ev, &res.r_d, 0.0, None) else {
                return Exit::Failed;
            };
            self.tally.predictor_steps += 1;
            let (ap_aff, ad_aff) = ctx.step_lengths(st, ev, &aff);
            let mu_aff = ctx.predicted_mu(st, ev, &aff, ap_aff, ad_aff);
            let sigma = mu_update::centering_sigma(res.mu, mu_aff);

            // Ratchet the target down only from inside the central-path
            // neighborhood: products within the centrality band and both
            // infeasibilities commensurate with the target.
            let (prod_min, prod_max) = ctx.prod_range(st, ev);
            let leash = MU_GATE_RESIDUAL_FRAC * mu_target;
            if prod_max <= CENTRALITY_RATIO * mu_target
                && prod_min * CENTRALITY_RATIO >= mu_target
                && res.r_d_norm <= (DUAL_CONVERGENCE_TOL + leash) * res.dual_scale
                && res.r_eq_norm <= (EQ_CONVERGENCE_TOL + leash) * ctx.eq_scale
            {
                mu_target = mu_update::next_target(mu_target, res.mu, sigma)
                    .max(target_floor.min(mu_target));
            }
            let mu_hat = mu_target;
            self.opts
                .trace
                .emit(|| Event::BarrierMu { mu: mu_hat, sigma });

            // Corrector: recenter to the target with the second-order
            // terms, reusing the factorization.
            let corr = mu_update::corrector_terms(&aff, ap_aff, ad_aff);
            let Ok(dir) = solve_direction(ctx, &factor, st, ev, &res.r_d, mu_hat, Some(&corr))
            else {
                return Exit::Failed;
            };
            self.tally.corrector_steps += 1;

            // Products may sit on the band edge (the loop-top recentering
            // leaves in-band products untouched); halving headroom keeps a
            // θ → 0 trial admissible so an edge state can never dead-lock
            // the search.
            let floor = (mu_hat / CENTRALITY_RATIO).min(0.5 * prod_min);
            let mut next = attempt(ctx, st, ev, &dir, mu_hat, floor, self.tally);
            if next.is_none() {
                // The corrected direction can overshoot (its second-order
                // terms are no descent guarantee); a pure centering solve on
                // the same factorization is the exact Newton direction for
                // the σμ KKT system and must locally decrease the merit.
                let Ok(rescue) = solve_direction(ctx, &factor, st, ev, &res.r_d, mu_hat, None)
                else {
                    return Exit::Failed;
                };
                self.tally.corrector_steps += 1;
                next = attempt(ctx, st, ev, &rescue, mu_hat, floor, self.tally);
            }
            // Stalled: both directions exhausted the backtracking budget.
            let Some((accepted, accepted_ev)) = next else {
                break;
            };
            *st = accepted;
            *ev = accepted_ev;
            if let Some(exit) = self.stop_early(st) {
                return exit;
            }
        }
        if ctx.converged(st, ev, &ctx.residuals(st, ev)) {
            Exit::Converged
        } else {
            Exit::Failed
        }
    }

    /// The fallback's fixed-μ stages, from `st` at `mu`. Each iteration
    /// slaves the duals to the barrier multipliers `μ/s`, `μ/d`, so the
    /// condensed matrix is the barrier Hessian and the centring direction
    /// its damped Newton step. A stage ends once centred (decrement at most
    /// [`STAGE_DECREMENT`]) or after [`MAX_NEWTON`] steps (far from the
    /// optimum a stage at large μ crawls); the next aims
    /// [`MU_LINEAR_SHRINK`] lower.
    ///
    /// Returns the target from which the predictor-corrector iterations
    /// finish: the first stage to end at a gap `μ·count` of at most
    /// [`HANDOFF_GAP`], or one whose line search stalls. Slaved duals cannot
    /// finish themselves: near the optimum `μ/s` carries the rounding of a
    /// slack a few ulps wide. `Err` carries an exit reached on the way.
    fn stages(&mut self, st: &mut State, ev: &mut Eval, mut mu: f64) -> Result<f64, Exit> {
        let ctx = &self.ctx;
        let mut stage_steps = 0;
        loop {
            ctx.slave_duals(st, ev, mu, f64::INFINITY);
            let res = ctx.residuals(st, ev);
            if ctx.converged(st, ev, &res) {
                return Err(Exit::Converged);
            }
            stage_steps += 1;
            *self.newton_total += 1;
            let Ok(factor) = self
                .sys
                .factor(&ctx.condensed(st, ev), &ctx.a_eq, self.tally)
            else {
                return Err(Exit::Failed);
            };
            let Ok(dir) = solve_direction(ctx, &factor, st, ev, &res.r_d, mu, None) else {
                return Err(Exit::Failed);
            };
            let decrement = -ctx.barrier_slope(ev, mu, &dir.dx) / mu;
            let centred =
                decrement <= STAGE_DECREMENT && res.r_eq_norm <= EQ_CONVERGENCE_TOL * ctx.eq_scale;
            if centred || stage_steps == MAX_NEWTON {
                if mu * ctx.count as f64 <= HANDOFF_GAP {
                    return Ok(mu);
                }
                mu *= MU_LINEAR_SHRINK;
                stage_steps = 0;
                continue;
            }
            let Some((mut next, next_ev)) = attempt(ctx, st, ev, &dir, mu, 0.0, self.tally) else {
                return Ok(mu);
            };
            // The equality multipliers take the full Newton step whatever
            // the primal step length: `ν + Δν` is the system's own estimate.
            for ((nu, &old), &dnu) in next.nu.iter_mut().zip(&st.nu).zip(&dir.dnu) {
                *nu = old + dnu;
            }
            *st = next;
            *ev = next_ev;
            if let Some(exit) = self.stop_early(st) {
                return Err(exit);
            }
        }
    }

    /// The checks after an accepted step: the divergence guard, then
    /// phase 1's early exit.
    fn stop_early(&self, st: &State) -> Option<Exit> {
        if st.x.iter().any(|v| v.abs() > DIVERGENCE_LIMIT) {
            return Some(Exit::Unbounded);
        }
        match self.early_exit {
            Some((var, threshold)) if st.x[var] < threshold => Some(Exit::Converged),
            _ => None,
        }
    }
}

/// The barrier solve from a strictly feasible start `x`, whose pinned
/// coordinates snap to their pins. `mu0` is the initial barrier weight
/// (warm starts pass a reduced one) and seeds the perfectly-centered
/// initial duals; `early_exit` is phase 1's `(var, threshold)` stop, which
/// ends the solve as soon as `x[var]` drops below the threshold.
///
/// The predictor-corrector iterations run first. When they end
/// unconverged, or when the problem has no barrier terms to centre on
/// (no inequality and no finite bound on a free column), the fallback's
/// [`Loop::stages`] restart from the start point at `mu0`, the
/// iterations finish from the point they hand over, and the solve counts
/// one fallback. Every `Optimal` passes the exit test at the duals it
/// returns.
#[allow(clippy::too_many_arguments)] // problem + accumulators + scratch; a struct would just rename the list
pub(crate) fn run(
    p: &NlpProblem,
    mut x: Vec<f64>,
    mu0: f64,
    opts: &BarrierOptions,
    newton_total: &mut usize,
    tally: &mut FactorTally,
    scratch: &mut SparseWorkspace,
    early_exit: Option<(usize, f64)>,
) -> NlpSolution {
    let free = &free_vars(p)[..];
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
    let k = free.len();
    let m_in = p.num_constraints();
    let m_eq = p.equalities().len();
    let col_of: HashMap<usize, usize> = free.iter().enumerate().map(|(c, &j)| (j, c)).collect();
    let mut a_eq = Matrix::zeros(m_eq, k);
    for (r, e) in p.equalities().iter().enumerate() {
        for &(v, co) in &e.coeffs {
            if let Some(&c) = col_of.get(&v) {
                a_eq[(r, c)] += co;
            }
        }
    }
    let lo: Vec<f64> = free.iter().map(|&j| p.lowers()[j]).collect();
    let hi: Vec<f64> = free.iter().map(|&j| p.uppers()[j]).collect();
    let count = m_in
        + lo.iter().filter(|v| v.is_finite()).count()
        + hi.iter().filter(|v| v.is_finite()).count();
    let eq_scale = p
        .equalities()
        .iter()
        .map(|e| e.rhs.abs() + e.coeffs.iter().map(|&(_, co)| co.abs()).sum::<f64>())
        .fold(1.0, f64::max);
    let ctx = Ctx {
        p,
        free,
        rows: Rows::new(p, &col_of, &x),
        c_free: free.iter().map(|&j| p.costs()[j]).collect(),
        lo,
        hi,
        a_eq,
        count,
        eq_scale,
    };
    // Phase 1 (`early_exit`) and equality-constrained systems keep the
    // dense or sparse path; any other system whose condensed matrix has
    // the min–max shape takes the structured one.
    let pattern = if m_eq == 0 && early_exit.is_none() {
        let rows = &ctx.rows;
        Pattern::detect(k, (0..m_in).map(|i| &rows.col[rows.range(i)]))
    } else {
        None
    };
    let sys = AugmentedSystem::new(p, &col_of, &ctx.a_eq, k, m_eq, pattern, scratch);
    #[cfg(test)]
    path_log::record(early_exit.is_none(), sys.path());

    let mut st = State {
        x,
        lam: vec![0.0; m_in],
        zlo: vec![0.0; k],
        zhi: vec![0.0; k],
        nu: vec![0.0; m_eq],
    };
    let mut ev = match ctx.eval(&st.x) {
        Ok(ev) => ev,
        // No iterate to start from, for the fallback either; counted as one.
        Err(_) => {
            tally.fell_back = true;
            let objective = p.objective_value(&st.x);
            return NlpSolution::new(
                NlpStatus::IterationLimit,
                st.x,
                objective,
                st.lam,
                *newton_total,
            );
        }
    };
    let mut lp = Loop {
        ctx,
        sys,
        opts,
        newton_total,
        tally,
        early_exit,
    };
    let mut exit = Exit::Failed;
    if count > 0 {
        // Perfectly centered initial duals: every complementarity product
        // starts at exactly μ₀ (capped), so the first predictor sees the
        // true μ₀ and parent complementarity enters purely through the
        // warm μ₀.
        lp.ctx.slave_duals(&mut st, &ev, mu0, DUAL_INIT_CAP);
        let start = (st.x.clone(), ev.clone());
        exit = lp.predictor_corrector(&mut st, &mut ev, mu0);
        if matches!(exit, Exit::Failed) {
            // The fallback restarts from the start point: an iterate on
            // which the predictor-corrector iterations failed can sit where
            // the KKT system does not factor.
            (st.x, ev) = start;
            st.nu.fill(0.0);
        }
    }
    if matches!(exit, Exit::Failed) {
        lp.tally.fell_back = true;
        exit = match lp.stages(&mut st, &mut ev, mu0) {
            Ok(mu) => lp.predictor_corrector(&mut st, &mut ev, mu),
            Err(exit) => exit,
        };
    }
    let (status, objective) = match exit {
        Exit::Converged => (NlpStatus::Optimal, p.objective_value(&st.x)),
        Exit::Failed => (NlpStatus::IterationLimit, p.objective_value(&st.x)),
        Exit::Unbounded => {
            st.lam.fill(0.0);
            (NlpStatus::Unbounded, f64::NEG_INFINITY)
        }
    };
    NlpSolution::new(status, st.x, objective, st.lam, *lp.newton_total)
}

/// The KKT path each `run` of the current thread chose, for tests that
/// observe it from inside the crate.
#[cfg(test)]
pub(crate) mod path_log {
    use crate::barrier::KktPath;
    use std::cell::RefCell;

    thread_local! {
        static PATHS: RefCell<Vec<(bool, KktPath)>> = const { RefCell::new(Vec::new()) };
    }

    pub(crate) fn record(main_loop: bool, path: KktPath) {
        PATHS.with(|p| p.borrow_mut().push((main_loop, path)));
    }

    /// Drains the log: `(main loop, path)` per `run`, in call order; a
    /// main loop is any run but phase 1's.
    pub(crate) fn take() -> Vec<(bool, KktPath)> {
        PATHS.with(|p| std::mem::take(&mut *p.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::path_log;
    use crate::{kkt_path, solve, ConstraintFn, KktPath, NlpProblem, NlpStatus, ScalarFn};

    /// The shapes of `barrier_tests`' crossover battery: `min t` over
    /// `groups` Amdahl curves `t ≥ wⱼ/nⱼ` and a node budget, optionally with
    /// an equality pinning the total, or with rows `nⱼ − nⱼ₊₁ ≤ 10` that
    /// couple neighbouring components.
    fn minmax(groups: usize, with_eq: bool, neighbours: bool) -> NlpProblem {
        let mut p = NlpProblem::new();
        let vars: Vec<_> = (0..groups).map(|_| p.add_var(0.0, 0.5, 30.0)).collect();
        let t = p.add_var(1.0, 0.0, 1e6);
        for (j, &v) in vars.iter().enumerate() {
            let work = 20.0 + (j * 37 % 280) as f64;
            p.add_constraint(
                ConstraintFn::new("curve")
                    .nonlinear_term(v, ScalarFn::perf_model(work, 0.0, 1.0))
                    .linear_term(t, -1.0),
            );
        }
        let cap = 2.5 * groups as f64;
        let mut budget = ConstraintFn::new("budget").with_constant(-cap);
        for &v in &vars {
            budget = budget.linear_term(v, 1.0);
        }
        p.add_constraint(budget);
        if neighbours {
            for pair in vars.windows(2) {
                p.add_constraint(
                    ConstraintFn::new("smooth")
                        .linear_term(pair[0], 1.0)
                        .linear_term(pair[1], -1.0)
                        .with_constant(-10.0),
                );
            }
        }
        if with_eq {
            p.add_linear_eq(vars.iter().map(|&v| (v, 1.0)).collect(), cap - 1.0);
        }
        p
    }

    /// Each main loop runs on the path `kkt_path` reports: min–max NLPs on
    /// the structured factor on both sides of the crossover, the
    /// neighbour-coupled ones (whose inner columns are all hubs) on the
    /// dense Cholesky below it and the sparse one above it, and an
    /// equality row on the dense LU. Phase 1 never runs on the structured
    /// factor. `barrier_tests` certifies the same shapes at 320 components
    /// and with equality rows above the crossover.
    #[test]
    fn each_main_loop_runs_on_the_path_its_pattern_picks() {
        use KktPath::{Dense, Sparse, Structured};
        for (groups, with_eq, neighbours, expect) in [
            (100, false, false, Structured),
            (200, false, false, Structured),
            (100, false, true, Dense),
            (200, false, true, Sparse),
            (100, true, false, Dense),
        ] {
            let what = format!("{groups} components, equality {with_eq}, neighbours {neighbours}");
            let p = minmax(groups, with_eq, neighbours);
            path_log::take();
            let sol = solve(&p).expect("valid problem");
            assert_eq!(sol.status, NlpStatus::Optimal, "{what}");
            if let Err(e) = sol.certify(&p) {
                panic!("{what}: {e}");
            }
            let log = path_log::take();
            let main: Vec<KktPath> = log.iter().filter(|e| e.0).map(|e| e.1).collect();
            assert_eq!(main, [expect], "{what}");
            assert_eq!(kkt_path(&p), expect, "{what}");
            assert!(
                log.iter().all(|e| e.0 || e.1 != KktPath::Structured),
                "{what}: phase 1 took the structured path"
            );
        }
    }
}
