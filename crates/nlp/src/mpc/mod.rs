//! Mehrotra predictor-corrector interior-point loop — barrier v2.
//!
//! The primary barrier path (the fixed-μ loop in [`crate::barrier`] only
//! runs when this one cannot finish). A primal-dual method that holds the
//! primal strictly feasible (slacks stay implicit, `s_i = −g_i(x)`) and
//! carries explicit dual iterates: `λ` per inequality, `z` per finite
//! bound, `ν` per equality. Each iteration:
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
//! which has exactly the sparsity pattern of the fixed-μ barrier Hessian —
//! the analyzed `SparseKkt` structure is reused verbatim. The dual
//! components are recovered from the linearized complementarity rows
//! after each solve.
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
//!
//! The rule behind all three is bit-identity: every floating-point
//! operation that reaches an iterate is the one the dense formulation
//! (n-length gradients, every term evaluated at every point) performs,
//! on the same values in the same order. Iterates, answers and work
//! counters match it bit for bit; only the time differs.

pub(crate) mod augmented_system;
pub(crate) mod line_search;
pub(crate) mod mu_update;

use std::collections::HashMap;

use crate::barrier::{
    finish_with_duals, BarrierOptions, FactorTally, NlpSolution, NlpStatus, DIVERGENCE_LIMIT,
    GAP_TOL, MAX_NEWTON,
};
use crate::problem::NlpProblem;
use augmented_system::{AugmentedSystem, KktFactor, SystemError};
use hslb_linalg::approx::exactly_zero;
use hslb_linalg::{Matrix, SparseWorkspace};
use hslb_obs::Event;
use line_search::FRACTION_TO_BOUNDARY_TAU;
use mu_update::Corrector;

/// Cap on the perfectly-centered initial duals `μ₀/s`: a slack at the
/// strict-feasibility margin (~1e-8) would otherwise seed a ~1e9 dual and
/// a hopelessly ill-conditioned first system.
const DUAL_INIT_CAP: f64 = 1e8;
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
            let mut support: Vec<usize> = c
                .linear
                .iter()
                .map(|&(v, _)| v)
                .chain(c.nonlinear.iter().map(|(v, _)| *v))
                .filter_map(|v| col_of.get(&v).copied())
                .collect();
            support.sort_unstable();
            support.dedup();
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

    /// Average complementarity μ over all pairs.
    fn mu_of(&self, st: &State, ev: &Eval) -> f64 {
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
    /// damped-Newton barrier direction — the fixed-μ loop's recovery — and
    /// the untouched in-band duals resume Mehrotra stepping immediately.
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

    /// Condensed primal system matrix M (see module docs).
    fn condensed_matrix(&self, st: &State, ev: &Eval) -> Matrix {
        let k = self.free.len();
        let rows = &self.rows;
        let mut m = Matrix::zeros(k, k);
        let cells = m.as_mut_slice();
        let mut curv = vec![0.0; k];
        for (i, c) in self.p.constraints().iter().enumerate() {
            let w = st.lam[i] / ev.slack[i];
            let span = rows.range(i);
            let (cols, grad) = (&rows.col[span.clone()], &ev.grad[span]);
            for (at, (&a, &ga)) in cols.iter().zip(grad).enumerate() {
                if exactly_zero(ga) {
                    continue;
                }
                for (&b, &gb) in cols[at..].iter().zip(&grad[at..]) {
                    if !exactly_zero(gb) {
                        let v = w * ga * gb;
                        cells[a * k + b] += v;
                        if a != b {
                            cells[b * k + a] += v;
                        }
                    }
                }
            }
            for ((v, f), term) in c.nonlinear.iter().zip(rows.terms(i)) {
                if let NlTerm::Free(e) = *term {
                    curv[rows.col[e]] += st.lam[i] * f.d2(st.x[*v]);
                }
            }
        }
        for c in 0..k {
            let mut d = curv[c];
            if self.lo[c].is_finite() {
                d += st.zlo[c] / ev.dlo[c];
            }
            if self.hi[c].is_finite() {
                d += st.zhi[c] / ev.dhi[c];
            }
            cells[c * k + c] += d;
        }
        m
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
/// complementarity product of the candidate stays above
/// `μ̂/CENTRALITY_RATIO`. The last is the load-bearing one on curved
/// constraints: the barrier merit alone happily trades a crushed slack for
/// objective progress (the log penalty is weak), and a crushed product
/// mis-scales the next condensed matrix so badly that the solver creeps
/// along the constraint for hundreds of iterations.
fn attempt(
    ctx: &Ctx,
    st: &State,
    ev: &Eval,
    dir: &Direction,
    mu_hat: f64,
    tally: &mut FactorTally,
) -> Option<(State, Eval)> {
    let (ap_max, ad_max) = ctx.step_lengths(st, ev, dir);
    let phi0 = ctx.merit(&st.x, ev, mu_hat);
    let slope = ctx.barrier_slope(ev, mu_hat, &dir.dx);
    // Products may sit on the band edge (the loop-top recentering leaves
    // in-band products untouched); halving headroom keeps a θ → 0 trial
    // admissible so an edge state can never dead-lock the search.
    let (cur_min, _) = ctx.prod_range(st, ev);
    let floor = (mu_hat / CENTRALITY_RATIO).min(0.5 * cur_min);
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

/// Wraps up at the current iterate: `λ` is the converged dual estimate.
fn converged(ctx: &Ctx, st: State, newton_iters: usize) -> NlpSolution {
    finish_with_duals(ctx.p, st.x, &st.lam, newton_iters)
}

/// Typed-error exit: the augmented system saw a non-finite value or an
/// unfactorable matrix. End the solve cleanly at the current iterate —
/// never spin — reporting the cut-short budget.
fn bail(ctx: &Ctx, st: State, newton_iters: usize, _err: SystemError) -> NlpSolution {
    let mut out = finish_with_duals(ctx.p, st.x, &st.lam, newton_iters);
    out.status = NlpStatus::IterationLimit;
    out
}

/// The predictor-corrector loop from a strictly feasible start. Arguments
/// mirror `barrier_loop`; `mu0` seeds the perfectly-centered
/// initial duals, and `early_exit` is phase 1's `(var, threshold)` stop.
#[allow(clippy::too_many_arguments)] // mirrors barrier_loop: problem + accumulators + scratch
pub(crate) fn run(
    p: &NlpProblem,
    x: Vec<f64>,
    free: &[usize],
    mu0: f64,
    opts: &BarrierOptions,
    newton_total: &mut usize,
    tally: &mut FactorTally,
    scratch: &mut SparseWorkspace,
    early_exit: Option<(usize, f64)>,
) -> NlpSolution {
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
    let mut sys = AugmentedSystem::new(p, &col_of, &ctx.a_eq, k, m_eq, scratch);

    // Perfectly centered initial duals: every complementarity product
    // starts at exactly μ₀ (capped), so the first predictor sees the true
    // μ₀ and parent complementarity enters purely through the warm μ₀.
    let mut st = State {
        x,
        lam: vec![0.0; m_in],
        zlo: vec![0.0; k],
        zhi: vec![0.0; k],
        nu: vec![0.0; m_eq],
    };
    let mut ev = match ctx.eval(&st.x) {
        Ok(ev) => ev,
        Err(err) => return bail(&ctx, st, *newton_total, err),
    };
    for (lam, s) in st.lam.iter_mut().zip(&ev.slack) {
        *lam = (mu0 / s).min(DUAL_INIT_CAP);
    }
    for c in 0..k {
        if ctx.lo[c].is_finite() {
            st.zlo[c] = (mu0 / ev.dlo[c]).min(DUAL_INIT_CAP);
        }
        if ctx.hi[c].is_finite() {
            st.zhi[c] = (mu0 / ev.dhi[c]).min(DUAL_INIT_CAP);
        }
    }

    // The centering target: monotone non-increasing. Newton iterations
    // chase a FIXED target until the iterate is centered and feasible
    // enough, and only then does the Mehrotra predictor ratchet it down —
    // re-deriving the target from the products every iteration lets an
    // off-center iterate drag it up and cycle.
    let mut mu_target = mu0;
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
        let mut mu = ctx.mu_of(&st, &ev);
        let mut r_d = ctx.r_dual(&st, &ev);
        let gap_ok = mu * ctx.count as f64 <= GAP_TOL;
        let r_eq_norm = ev.r_eq.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let eq_ok = r_eq_norm <= EQ_CONVERGENCE_TOL * ctx.eq_scale;
        let dual_scale = |st: &State| {
            1.0 + ctx.c_free.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
                + st.lam
                    .iter()
                    .chain(&st.zlo)
                    .chain(&st.zhi)
                    .fold(0.0_f64, |m, &v| m.max(v))
        };
        let r_d_norm = r_d.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let dual_ok = r_d_norm <= DUAL_CONVERGENCE_TOL * dual_scale(&st);
        if gap_ok && eq_ok && dual_ok {
            return converged(&ctx, st, *newton_total);
        }
        if ctx.recenter_duals(&mut st, &ev, mu_target) {
            mu = ctx.mu_of(&st, &ev);
            r_d = ctx.r_dual(&st, &ev);
        }
        let dual_scale = dual_scale(&st);
        let r_d_norm = r_d.iter().fold(0.0_f64, |m, v| m.max(v.abs()));

        *newton_total += 1;
        let m_mat = ctx.condensed_matrix(&st, &ev);
        let factor = match sys.factor(&m_mat, &ctx.a_eq, tally) {
            Ok(f) => f,
            Err(err) => return bail(&ctx, st, *newton_total, err),
        };

        // Affine-scaling predictor: full Newton toward μ̂ = 0. Its step
        // lengths price how much complementarity the pure Newton step can
        // remove; its deltas feed the second-order corrector terms.
        let aff = match solve_direction(&ctx, &factor, &st, &ev, &r_d, 0.0, None) {
            Ok(d) => d,
            Err(err) => return bail(&ctx, st, *newton_total, err),
        };
        tally.predictor_steps += 1;
        let (ap_aff, ad_aff) = ctx.step_lengths(&st, &ev, &aff);
        let mu_aff = ctx.predicted_mu(&st, &ev, &aff, ap_aff, ad_aff);
        let sigma = mu_update::centering_sigma(mu, mu_aff);

        // Ratchet the target down only from inside the central-path
        // neighborhood: products within the centrality band and both
        // infeasibilities commensurate with the target.
        let (prod_min, prod_max) = ctx.prod_range(&st, &ev);
        let centered =
            prod_max <= CENTRALITY_RATIO * mu_target && prod_min * CENTRALITY_RATIO >= mu_target;
        let residuals_leashed = r_d_norm
            <= (DUAL_CONVERGENCE_TOL + MU_GATE_RESIDUAL_FRAC * mu_target) * dual_scale
            && r_eq_norm <= (EQ_CONVERGENCE_TOL + MU_GATE_RESIDUAL_FRAC * mu_target) * ctx.eq_scale;
        if centered && residuals_leashed {
            mu_target =
                mu_update::next_target(mu_target, mu, sigma).max(target_floor.min(mu_target));
        }
        let mu_hat = mu_target;
        opts.trace.emit(|| Event::BarrierMu { mu: mu_hat, sigma });

        // Corrector: recenter to the target with the second-order terms,
        // reusing the factorization.
        let corr = mu_update::corrector_terms(&aff, ap_aff, ad_aff);
        let dir = match solve_direction(&ctx, &factor, &st, &ev, &r_d, mu_hat, Some(&corr)) {
            Ok(d) => d,
            Err(err) => return bail(&ctx, st, *newton_total, err),
        };
        tally.corrector_steps += 1;

        let mut next = attempt(&ctx, &st, &ev, &dir, mu_hat, tally);
        if next.is_none() {
            // The corrected direction can overshoot (its second-order
            // terms are no descent guarantee); a pure centering solve on
            // the same factorization is the exact Newton direction for the
            // σμ KKT system and must locally decrease the merit.
            let rescue = match solve_direction(&ctx, &factor, &st, &ev, &r_d, mu_hat, None) {
                Ok(d) => d,
                Err(err) => return bail(&ctx, st, *newton_total, err),
            };
            tally.corrector_steps += 1;
            next = attempt(&ctx, &st, &ev, &rescue, mu_hat, tally);
        }
        let Some((accepted, accepted_ev)) = next else {
            // Stalled: both directions exhausted the backtracking budget.
            break;
        };
        st = accepted;
        ev = accepted_ev;

        if st.x.iter().any(|v| v.abs() > DIVERGENCE_LIMIT) {
            return NlpSolution::unbounded(p, st.x, *newton_total);
        }
        if let Some((var, threshold)) = early_exit {
            if st.x[var] < threshold {
                return converged(&ctx, st, *newton_total);
            }
        }
    }

    // Stall or iteration cap: report Optimal only when the gap actually
    // closed (the per-step merit noise at tiny μ can block the final dual
    // cleanup; the least-squares refinement recovers the duals from x).
    let gap_closed = ctx.mu_of(&st, &ev) * ctx.count as f64 <= GAP_TOL;
    let mut out = converged(&ctx, st, *newton_total);
    if !gap_closed {
        out.status = NlpStatus::IterationLimit;
    }
    out
}
